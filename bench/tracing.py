"""Spans around calls into the ripbench library, recorded from outside it.

`installed(tracer)` rebinds, in every loaded `ripbench.*` module namespace,
each attribute that holds one of the TARGETS function objects (modules import
these by name, so patching the defining module alone would miss callers).
Each wrapped call appends one span (name id, parent span, start, end) to
in-memory lists; `layer_metrics` turns a finished trace into the per-layer
metrics named in BENCHMARK.json.  Nothing under src/ is changed.

No target calls itself, so a name's busy time is the plain sum of its span
durations; self time subtracts the durations of direct child spans.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time

# (module under ripbench, public function)
TARGETS = [
    ("_rng", "substream"),
    ("_rng", "child_seed"),
    ("model_sets", "normalized_secants"),
    ("model_sets", "sample_model"),
    ("model_sets", "greedy_net"),
    ("model_sets", "boxdim_fit"),
    ("embeddings", "two_stage_map"),
    ("embeddings", "rank_one_map"),
    ("embeddings", "apply"),
    ("embeddings", "apply_columns"),
    ("rip_estimator", "mu_pnorm"),
    ("rip_estimator", "rip_sweep"),
    ("tail_probes", "increment_tail_fit"),
    ("haar_fourier", "min_d_for_eps"),
    ("haar_fourier", "build_u_block"),
    ("haar_fourier", "spectral_norm_sym"),
    ("cli", "main"),
]
NAMES = [f"{mod}.{fn}" for mod, fn in TARGETS]
ID = {name: i for i, name in enumerate(NAMES)}
# error counters are reported per module; "_rng" becomes "rng" because metric
# names must start with a letter or digit
MODULES = ["rng", "embeddings", "rip_estimator", "model_sets", "haar_fourier", "tail_probes", "cli"]


def _module_of(name: str) -> str:
    return name.split(".")[0].lstrip("_")


class Tracer:
    """Span store for one traced repetition."""

    def __init__(self) -> None:
        self.span_name: list = []
        self.span_parent: list = []
        self.span_start: list = []
        self.span_end: list = []
        self.open = [0] * len(NAMES)      # spans of each name currently running
        self.errors = [0] * len(NAMES)    # exceptions raised through each name
        self.counts = collections.Counter()
        self.untraced: list = []          # targets missing from the library
        self._stack = [-1]

    def wrap(self, nid: int, fn, hook):
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, open_, errors, clock = self._stack, self.open, self.errors, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                open_[nid] -= 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", NAMES[nid])
        return traced

    def is_open(self, name: str) -> bool:
        return self.open[ID[name]] > 0


# ---------------------------------------------------------------------------
# counters taken from arguments and results at the span boundary
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _apply_flops(L, cols: int) -> int:
    """Multiply-adds x2 of the algebraic product, not of what numpy executes:
    rank-one (A M) then row-wise dot with B; two-stage stage one then matrix."""
    if L.variant == "rank_one":
        return cols * 2 * L.m * (L.n1 * L.n2 + L.n2)
    d = L.matrix.shape[1]
    stage = 2 * d * L.stage_one.ambient_dim if L.stage_one is not None else 0
    return cols * (2 * L.m * d + stage)


def _on_map(tr: Tracer, args, kwargs, L) -> None:
    tr.counts["rows_drawn"] += L.m
    if tr.is_open("rip_estimator.mu_pnorm"):
        tr.counts["mu_maps"] += 1
    if tr.is_open("tail_probes.increment_tail_fit"):
        tr.counts["tail_maps"] += 1


def _on_apply(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["vectors_applied"] += 1
    tr.counts["apply_flops"] += _apply_flops(_arg(args, kwargs, 0, "L"), 1)


def _on_apply_columns(tr: Tracer, args, kwargs, result) -> None:
    cols = result.shape[1]
    tr.counts["vectors_applied"] += cols
    tr.counts["apply_flops"] += _apply_flops(_arg(args, kwargs, 0, "L"), cols)


def _on_secants(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["secants"] += len(result)


def _on_sample(tr: Tracer, args, kwargs, result) -> None:
    if tr.is_open("model_sets.normalized_secants"):
        tr.counts["secant_points"] += len(result)


def _on_net(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["net_centers"] += len(result.centers)


def _on_u_block(tr: Tracer, args, kwargs, result) -> None:
    if tr.is_open("haar_fourier.min_d_for_eps"):
        tr.counts["search_rows"] += result.entries.shape[0]


def _on_min_d(tr: Tracer, args, kwargs, result) -> None:
    if result.found:
        tr.counts["search_d"] += result.d


HOOKS = {
    "embeddings.two_stage_map": _on_map,
    "embeddings.rank_one_map": _on_map,
    "embeddings.apply": _on_apply,
    "embeddings.apply_columns": _on_apply_columns,
    "model_sets.normalized_secants": _on_secants,
    "model_sets.sample_model": _on_sample,
    "model_sets.greedy_net": _on_net,
    "haar_fourier.build_u_block": _on_u_block,
    "haar_fourier.min_d_for_eps": _on_min_d,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every ripbench-namespace reference to a target while active."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ripbench" or name.startswith("ripbench."))]
    patched = []
    try:
        for nid, (modname, fname) in enumerate(TARGETS):
            fn = getattr(sys.modules.get("ripbench." + modname), fname, None)
            if fn is None:
                tracer.untraced.append(NAMES[nid])
                continue
            wrapped = tracer.wrap(nid, fn, HOOKS.get(NAMES[nid]))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """{metric name: (value, unit)} for one traced repetition of `wall_s`."""
    import numpy as np

    k = len(NAMES)
    nid = np.asarray(tracer.span_name, dtype=np.int64)
    parent = np.asarray(tracer.span_parent, dtype=np.int64)
    dur = np.asarray(tracer.span_end) - np.asarray(tracer.span_start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    calls = np.bincount(nid, minlength=k)
    busy = np.bincount(nid, weights=dur, minlength=k)
    self_ = np.bincount(nid, weights=dur - child, minlength=k)
    is_main = nid == ID["cli.main"]

    def n(name):
        return int(calls[ID[name]])

    def b(name):
        return float(busy[ID[name]])

    c = tracer.counts
    secs, cnt = "s", "count"
    out = {
        "rng.substreams": (n("_rng.substream") + n("_rng.child_seed"), cnt),
        "rng.substream_s": (b("_rng.substream") + b("_rng.child_seed"), secs),
        "embeddings.maps": (n("embeddings.two_stage_map") + n("embeddings.rank_one_map"), cnt),
        "embeddings.rows_drawn": (c["rows_drawn"], cnt),
        "embeddings.draw_s": (b("embeddings.two_stage_map") + b("embeddings.rank_one_map"), secs),
        "embeddings.apply_calls": (n("embeddings.apply") + n("embeddings.apply_columns"), cnt),
        "embeddings.vectors_applied": (c["vectors_applied"], cnt),
        "embeddings.apply_flops": (c["apply_flops"], "flop"),
        "embeddings.apply_s": (b("embeddings.apply") + b("embeddings.apply_columns"), secs),
        "rip_estimator.mu_values": (n("rip_estimator.mu_pnorm"), cnt),
        "rip_estimator.mu_maps_per_value": (_ratio(c["mu_maps"], n("rip_estimator.mu_pnorm")), "ratio"),
        "rip_estimator.mu_s": (b("rip_estimator.mu_pnorm"), secs),
        "rip_estimator.sweep_self_s": (float(self_[ID["rip_estimator.rip_sweep"]]), secs),
        "model_sets.secants": (c["secants"], cnt),
        "model_sets.points_per_secant": (_ratio(c["secant_points"], c["secants"]), "ratio"),
        "model_sets.secant_s": (b("model_sets.normalized_secants"), secs),
        "model_sets.net_calls": (n("model_sets.greedy_net"), cnt),
        "model_sets.net_centers": (c["net_centers"], cnt),
        "model_sets.net_s": (b("model_sets.greedy_net"), secs),
        "haar_fourier.eig_calls": (n("haar_fourier.spectral_norm_sym"), cnt),
        "haar_fourier.eig_s": (b("haar_fourier.spectral_norm_sym"), secs),
        "haar_fourier.search_s": (b("haar_fourier.min_d_for_eps"), secs),
        "haar_fourier.rows_built_per_d": (_ratio(c["search_rows"], c["search_d"]), "ratio"),
        "tail_probes.fit_self_s": (float(self_[ID["tail_probes.increment_tail_fit"]]), secs),
        "tail_probes.maps": (c["tail_maps"], cnt),
        "cli.commands": (n("cli.main"), cnt),
        "cli.self_s": (float(self_[ID["cli.main"]]), secs),
        "trace.spans": (len(dur), cnt),
        "trace.coverage": (_ratio(float(child[is_main].sum()), wall_s), "ratio"),
    }
    for mod in MODULES:
        out[f"{mod}.errors"] = (sum(tracer.errors[i] for i, name in enumerate(NAMES)
                                    if _module_of(name) == mod), cnt)
    return out


def save_spans(tracer: Tracer, path) -> None:
    """Write the spans as compressed arrays plus the name table."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.asarray(NAMES),
        name=np.asarray(tracer.span_name, dtype=np.int16),
        parent=np.asarray(tracer.span_parent, dtype=np.int64),
        start=np.asarray(tracer.span_start),
        end=np.asarray(tracer.span_end),
    )
