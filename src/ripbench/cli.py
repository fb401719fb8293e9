"""Reproducible experiment runner over the library modules.

Every subcommand resolves its configuration (flags, optional JSON config
file, seed) before touching any randomness, embeds the resolved config and
seed in its report, and writes byte-identical output on re-runs with the
same config in single-thread mode.  Exit codes: 0 success, 2 config error,
3 not-found or fit-failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as bd
from . import haar_fourier as hf
from . import model_sets as ms
from . import rip_estimator as re_
from . import tail_probes as tp
from ._rng import CH_MU, CH_SECANT, CH_TRIAL, RNG_LAYOUT, child_seed, substream
from .embeddings import DistSpec, apply_columns, gaussian, rank_one_map, sparse_pm, storage_cost

SEED_ENV = "RIPBENCH_SEED"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

class Report(NamedTuple):
    """What a subcommand computed: its report fields, its CSV body where a CSV
    form exists (built only when asked for), and its exit code."""

    fields: dict
    csv: Optional[Callable[[], str]] = None
    code: int = 0


def _plain(o):
    """o with numpy values as Python ones and +inf as the string "inf"."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_plain(v) for v in o]
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, (float, np.floating)):
        return "inf" if o == math.inf else float(o)
    return o


def _dumps(payload) -> str:
    # strict JSON: a NaN or -inf left in a report raises ValueError (exit 2)
    return json.dumps(_plain(payload), allow_nan=False)


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(_dumps({"error": kind, "message": message}) + "\n")
    return code


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    cfg["rng_layout"] = RNG_LAYOUT  # which key-to-draw mapping produced the seeded output
    return {k: cfg[k] for k in sorted(cfg)}


def _csv_table(header, rows) -> str:
    """CSV text with a header line and floats at full precision (%.17g)."""
    def cell(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows])


def _number(tok: str, allow_inf: bool = False) -> float:
    """The one parse type of float flags: NaN is refused, and so is an infinity
    unless the flag gives it a meaning."""
    try:
        x = float(tok)
    except ValueError:
        x = math.nan
    if math.isnan(x) or (math.isinf(x) and not allow_inf):
        kind = "number" if allow_inf else "finite number"
        raise argparse.ArgumentTypeError(f"expected a {kind}, got {tok!r}")
    return x


def _int_list(s: str):
    return [int(tok) for tok in s.split(",") if tok.strip()]


def _float_list(s: str):
    return [_number(tok) for tok in s.split(",") if tok.strip()]


def _resolve_seed(args, argv) -> None:
    explicit = any(t == "--seed" or t.startswith("--seed=") for t in argv)
    if explicit and args.seed is not None:
        return
    env = os.environ.get(SEED_ENV)
    if env is not None and env != "":
        args.seed = int(env)
    elif args.seed is None:
        # no seed anywhere: draw one and record it so the run stays replayable
        args.seed = int(np.random.SeedSequence().entropy % (1 << 63))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# shared model/point plumbing for net, boxdim, rip-sweep, tails
# ---------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=None, help="RNG seed; env %s overrides the default" % SEED_ENV)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--config", default=None, help="JSON file of flag defaults; explicit flags win")


def _add_model_flags(sp, points: bool = True) -> None:
    sp.add_argument("--model", choices=("sparse", "lowrank", "correlated"))
    if points:
        sp.add_argument("--points", default=None, help="point file (.csv with '# dim=' header, or .json)")
    for flag in ("--n", "--k", "--n1", "--n2", "--rank", "--i-max"):
        sp.add_argument(flag, type=int, default=None)
    sp.add_argument("--r", type=_number, default=None)
    sp.add_argument("--b", type=_number, default=None)


def _add_sample_flags(sp) -> None:
    """Model samples or point-file rows, optionally as secants: net and boxdim."""
    _add_model_flags(sp)
    sp.add_argument("--count", type=int, default=None, help="samples (default 200; for --secants on a fixed set: all pairs)")
    sp.add_argument("--secants", action="store_true", help="use normalized secant directions instead of raw points")


def _model_spec(args):
    """The --model spec, or the --points file as a point cloud."""
    if getattr(args, "points", None) is not None:
        return ms.PointCloud(_load_points(args.points))
    if args.model == "sparse":
        _require(args.n is not None and args.k is not None, "--model sparse requires --n and --k")
        return ms.Sparse(args.n, args.k)
    if args.model == "lowrank":
        _require(None not in (args.n1, args.n2, args.rank), "--model lowrank requires --n1, --n2, --rank")
        return ms.LowRank(args.n1, args.n2, args.rank)
    if args.model == "correlated":
        _require(None not in (args.r, args.b, args.i_max), "--model correlated requires --r, --b, --i-max")
        return ms.CorrelatedSeq(args.r, args.b, args.i_max)
    raise ValueError("supply --model or --points" if "points" in vars(args) else "supply --model")


def _load_points(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return ms.points_from_json(fh.read())
    return ms.load_points_csv(path)


def _points_for(args):
    """Model samples, point-file rows, or their secant directions, one per row."""
    spec = _model_spec(args)
    # fixed point sets are used whole; --count sizes samples and secants (fixed-set secants: all pairs)
    fixed = args.points is not None or args.model == "correlated"
    _require(args.count is None or args.secants or not fixed, "--count needs a sampled model or --secants")
    count = 200 if args.count is None and not fixed else args.count
    if args.secants:
        return ms.normalized_secants(spec, count=count, seed=child_seed(args.seed, CH_SECANT)).directions.T
    return ms.sample_model(spec, count, args.seed)


# ---------------------------------------------------------------------------
# subcommands: each returns its Report; main adds the header and writes it
# ---------------------------------------------------------------------------

def _cmd_net(args) -> Report:
    _require(args.eps is not None, "net requires --eps")
    points = _points_for(args)
    net = ms.greedy_net(points, args.eps)
    fields = {"n_points": len(points), "radius": args.eps, "centers": net.centers,
              "covered_count": len(points)}
    # the CSV form is a point file, so a net can be fed back through --points
    return Report(fields, lambda: ms.points_to_csv(net.centers))


def _cmd_boxdim(args) -> Report:
    _require(args.eps_grid is not None, "boxdim requires --eps-grid")
    fit = ms.boxdim_fit(_points_for(args), args.eps_grid)
    return Report(dataclasses.asdict(fit), lambda: _csv_table(["eps", "count"], zip(fit.eps_grid, fit.counts)))


def _dist_spec(args) -> DistSpec:
    _require(args.dist == "sparse-pm" or args.q is None, "--q applies to --dist sparse-pm only")
    args.q = 4.0 if args.q is None else args.q  # the resolved value lands in the recorded config
    return gaussian() if args.dist == "gaussian" else sparse_pm(args.q)


def _map_dims(args, spec) -> tuple:
    """Rank-one (n1, n2) from --n1/--n2 or a low-rank model; (0, 0) for two-stage."""
    if args.variant != "rank-one":
        return 0, 0
    n1, n2 = args.n1 or 0, args.n2 or 0
    if isinstance(spec, ms.LowRank):
        n1, n2 = n1 or spec.n1, n2 or spec.n2
    _require(n1 > 0 and n2 > 0, f"{args.subcommand} with --variant rank-one requires --n1 and --n2")
    return n1, n2


def _cmd_rip_sweep(args) -> Report:
    _require(args.m_list is not None, "rip-sweep requires --m-list")
    spec = _model_spec(args)
    variant = args.variant.replace("-", "_")
    n1, n2 = _map_dims(args, spec)
    mu_mode = {"auto": "auto", "analytic": "analytic", "mc": "monte_carlo"}[args.mu]
    rows = re_.rip_sweep(
        spec, _dist_spec(args), args.m_list, args.p, args.n_secants, args.trials,
        args.seed, variant=variant, n1=n1, n2=n2, mu_mode=mu_mode,
        n_resample=args.n_resample, threads=args.threads,
    )
    head = [f.name for f in dataclasses.fields(re_.SweepRow)]
    return Report({"rows": [dataclasses.asdict(r) for r in rows]},
                  lambda: _csv_table(head, [dataclasses.astuple(r) for r in rows]))


def _cmd_rop(args) -> Report:
    _require(args.trials >= 2, f"rop needs trials >= 2 for a standard deviation, got {args.trials}")
    n1, n2 = args.n1, args.n2
    _require(n1 >= 1 and n2 >= 1, f"rop needs n1, n2 >= 1, got {n1}, {n2}")
    dist = _dist_spec(args)
    if args.target == "single-entry":
        M = np.zeros((n1, n2))
        M[0, 0] = 1.0
    else:  # gauss-rank1: fixed unit-Frobenius rank-one target
        rng = substream(args.seed, CH_MU)
        M = np.outer(rng.standard_normal(n1), rng.standard_normal(n2))
        M /= np.linalg.norm(M)
    fro = float(np.linalg.norm(M))
    vals = np.empty((2, args.trials))  # per trial: ||y||_1 and m ||y||_2^2 = mean (a^T M b)^2
    for t in range(args.trials):
        L = rank_one_map(args.m, n1, n2, dist, child_seed(args.seed, CH_TRIAL, t))
        y = apply_columns(L, M.reshape(-1, 1))[:, 0]
        vals[:, t] = re_.pnorm_p(y, 1), re_.pnorm_p(y, 2) * args.m
    # E|a^T M b|^p is the semi-norm of a one-row rank-one map
    one_row = re_.MuNormSpec(mode="analytic", dist=dist, variant="rank_one", m=1, n1=n1, n2=n2)

    def analytic(p: int):
        try:
            return re_.mu_pnorm(one_row, M.ravel(), p).value
        except re_.UnsupportedAnalyticError:
            return None

    return Report({
        "frobenius": fro,
        "abs_mean": float(vals[0].mean()),
        "abs_mean_std": float(vals[0].std(ddof=1)),
        "abs_mean_analytic": analytic(1),
        "sq_mean": float(vals[1].mean()),
        "sq_mean_analytic": analytic(2),
        "storage_cost": storage_cost(L),
        "dense_cost": args.m * n1 * n2,
    })


def _cmd_haar_fourier(args) -> Report:
    _require(args.n is not None, "haar-fourier requires --n")
    search_flags = (args.eps_star, args.d_max) != (None, None)
    args.d_max = 4096 if args.d_max is None else args.d_max  # the resolved value lands in the recorded config
    if args.d_freq is not None:
        _require(not search_flags, "--eps-star and --d-max set a min-d search; drop them with --d-freq")
        u = hf.build_u_block(args.d_freq, args.n)
        fields = {"n": args.n, "d_freq": args.d_freq, "residual": hf.balancing_residual(u)}
        # one row per frequency; columns interleave Re and Im per Haar function
        head = ["freq"] + [f"{part}_{j}" for j in range(u.n) for part in ("re", "im")]
        rows = ([l, *(x for c in row for x in (c.real, c.imag))] for l, row in zip(u.freq_order, u.entries))
        return Report(fields, lambda: _csv_table(head, rows))
    _require(args.eps_star is not None, "supply --eps-star (min-d search) or --d-freq (fixed block)")
    _require(args.format == "json", "min-d search emits JSON only")
    res = hf.min_d_for_eps(args.n, args.eps_star, d_max=args.d_max)
    missed = {} if res.found else {"error": "not_found", "residual_at_d_max": res.residual, "d_max": res.d_max}
    return Report({"n": res.n, "eps_star": res.eps_star, "d": res.d, **missed}, code=0 if res.found else 3)


def _cmd_bounds(args) -> Report:
    _require(None not in (args.s, args.eps_s, args.delta, args.xi),
             "bounds requires --s, --eps-s, --delta, --xi")
    _require((args.theorem == 1 and args.p is None) or (args.c1 is None and args.c2 is None),
             "--c1/--c2 apply to --theorem 1 without --p; else the rates come from --p and --lambda")
    if args.c_abs is None:  # resolved values land in the recorded config
        args.c_abs = 3200.0 if args.theorem == 1 else 1.0
    args.c1, args.c2 = (1.0 if c is None else c for c in (args.c1, args.c2))
    c_abs, lam = args.c_abs, args.lam
    inputs = bd.BoundInputs(
        s=args.s, eps_S=args.eps_s, delta=args.delta, xi=args.xi,
        c1=args.c1, c2=args.c2, Lambda=lam, C_abs=c_abs,
    )
    sums = dataclasses.asdict(bd.chaining_sums(args.s, args.eps_s, args.xi, args.j_max))
    if args.theorem == 1:
        c1, c2 = (args.c1, args.c2) if args.p is None else bd.concentration_constants(args.p, lam, 1.0)[:2]
        rated = dataclasses.replace(inputs, c1=c1, c2=c2)
        m_required, m_raw, crossover = bd.m_main(rated), bd.m_main_raw(rated), c2 / c1
        note = "per unit constant unless C_abs set by the proof"
    else:
        _require(args.p is not None, "--theorem 2 requires --p")
        c1, c2, crossover = bd.concentration_constants(args.p, lam, 1.0)
        m_required = bd.m_two_stage(args.p, lam, args.s, args.eps_s, args.delta, args.xi, c_abs)
        m_raw = bd.m_two_stage_raw(args.p, lam, args.s, args.eps_s, args.delta, args.xi, c_abs)
        note = "per unit constant"
    fields = {
        "theorem": args.theorem,
        "m_required": m_required,
        "m_raw": m_raw,
        "constants": {"c1": c1, "c2": c2, "crossover": crossover, "C_abs": c_abs, "note": note},
        "sums": sums,
    }

    def csv():
        flat = {k: fields[k] for k in ("theorem", "m_required", "m_raw")}
        for group in ("constants", "sums"):
            flat.update({f"{group}.{k}": v for k, v in fields[group].items()})
        return "\n".join(["key,value"] + [f"{k},{v}" for k, v in flat.items()])

    return Report(fields, csv)


# per tails probe, the flags only the other probe reads: it refuses them, so
# the parser defaults them to None, and every run records these defaults
_TAILS_REFUSED = {
    "increment": {"sampler": "exp", "psi_k": 2.0, "t_grid": [0.1, 0.2, 0.4, 0.8, 1.6]},
    "bernstein": {"dist": "gaussian", "variant": "two-stage", "p": 2, "lambda_grid": [0.05, 0.1, 0.2, 0.4, 0.8],
                  **dict.fromkeys(("model", "n", "k", "n1", "n2", "rank", "i_max", "r", "b", "q"))},
}


def _cmd_tails(args) -> Report:
    given = ["--" + k.replace("_", "-") for k in _TAILS_REFUSED[args.probe] if getattr(args, k) is not None]
    _require(not given, f"--probe {args.probe} reads none of {', '.join(given)}")
    grid_given = args.lambda_grid is not None
    for key, default in {**_TAILS_REFUSED["bernstein"], **_TAILS_REFUSED["increment"]}.items():
        setattr(args, key, default if getattr(args, key) is None else getattr(args, key))
    dist = _dist_spec(args)
    if args.probe == "bernstein":
        sampler = tp.named_sampler(args.sampler.replace("-", "_"))
        fit = tp.bernstein_tail_check(sampler, args.psi_k, args.m, args.t_grid, args.trials, args.seed)
    else:
        spec = _model_spec(args)
        y = ms.normalized_secants(spec, count=1, seed=child_seed(args.seed, CH_SECANT)).directions[:, 0]
        n1, n2 = _map_dims(args, spec)
        _require(grid_given or args.variant != "rank-one" or n1 * n2 != y.size, "--variant rank-one needs a --lambda-grid")
        fit = tp.increment_tail_fit(
            dist, args.variant.replace("-", "_"), args.m, y, np.zeros_like(y), args.p,
            args.lambda_grid, args.trials, args.seed, n1=n1, n2=n2,
        )
    return Report({
        "probe": args.probe,
        "lambda_grid": fit.lambda_grid,
        "tail": fit.empirical_tail,
        "c1": fit.fitted_c1,
        "c2": fit.fitted_c2,
        "crossover": fit.crossover,
        "trials": fit.trials,
    })


def _cmd_counterexample(args) -> Report:
    _require(args.r is not None and args.b is not None, "counterexample requires --r and --b")
    res = ms.secant_alpha_formula(args.r, args.b, t_max=args.t_max)
    bf, witness = ms.secant_alpha_bruteforce(args.r, args.b, args.i_max)
    return Report({
        "alpha_bruteforce": bf,
        "alpha_formula_exact": res.alpha_exact,
        "alpha_formula_lb": res.alpha_lb,
        "t_min": res.t_min,
        "witness_pair": list(witness),
        "vk_separation_bound": ms.vk_min_separation(args.r, args.b),
        "vk_min_pairwise": ms.vk_min_pairwise(args.r, args.b, args.k_max),
        "vk_k_max": args.k_max,
    })


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors leave as JSON config errors, like every other failure
        raise ValueError(f"{self.prog}: {message}")


@cache  # one parser per process: building one per call leaves cyclic garbage
def _build_parser():
    parser = _Parser(
        prog="ripbench",
        description="empirical restricted-isometry workbench: nets, sweeps, bounds, tails",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    sub_map = {}

    def new_sub(name, func, csv=False, **kw):
        sp = subs.add_parser(name, **kw)
        sp.set_defaults(func=func)
        _add_common(sp)
        if csv:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sub_map[name] = sp
        return sp

    sp = new_sub("net", _cmd_net, csv=True, help="greedy epsilon-net of model samples or a point file")
    _add_sample_flags(sp)
    sp.add_argument("--eps", type=_number, default=None)

    sp = new_sub("boxdim", _cmd_boxdim, csv=True, help="box-counting dimension fit from net counts")
    _add_sample_flags(sp)
    sp.add_argument("--eps-grid", type=_float_list, default=None, help="comma list, strictly decreasing, in (0,1)")

    sp = new_sub("rip-sweep", _cmd_rip_sweep, csv=True, help="median RIP constant against m")
    _add_model_flags(sp)
    sp.add_argument("--threads", type=int, default=1, help="worker threads; output is identical for every count")
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default="gaussian")
    sp.add_argument("--q", type=_number, default=None, help="sparse-pm parameter (default 4)")
    sp.add_argument("--m-list", type=_int_list, default=None, help="comma list, ascending")
    sp.add_argument("--p", type=int, choices=(1, 2), default=2)
    sp.add_argument("--n-secants", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--variant", choices=("two-stage", "rank-one"), default="two-stage")
    sp.add_argument("--mu", choices=("auto", "analytic", "mc"), default="auto")
    sp.add_argument("--n-resample", type=int, default=2000)

    sp = new_sub("rop", _cmd_rop, help="rank-one projection moment probe on a fixed target matrix")
    sp.add_argument("--n1", type=int, default=16)
    sp.add_argument("--n2", type=int, default=16)
    sp.add_argument("--m", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default="gaussian")
    sp.add_argument("--q", type=_number, default=None, help="sparse-pm parameter (default 4)")
    sp.add_argument("--target", choices=("single-entry", "gauss-rank1"), default="single-entry")

    sp = new_sub("haar-fourier", _cmd_haar_fourier, csv=True, help="balancing residual and minimal frequency count")
    sp.add_argument("--n", type=int, default=None, help="Haar block size (power of two)")
    sp.add_argument("--eps-star", type=_number, default=None)
    sp.add_argument("--d-freq", type=int, default=None, help="fixed frequency count: report the residual only")
    sp.add_argument("--d-max", type=int, default=None, help="largest d the min-d search tries (default 4096)")

    sp = new_sub("bounds", _cmd_bounds, csv=True, help="closed-form sample-complexity bounds and chaining sums")
    sp.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    sp.add_argument("--s", type=_number, default=None)
    sp.add_argument("--eps-s", type=_number, default=None)
    sp.add_argument("--delta", type=_number, default=None)
    sp.add_argument("--xi", type=_number, default=None)
    for flag in ("--c1", "--c2"):
        sp.add_argument(flag, type=partial(_number, allow_inf=True), default=None, help="theorem 1 rate (default 1; inf: never fires)")
    sp.add_argument("--lambda", dest="lam", type=_number, default=1.0, help="psi-norm ratio bound")
    sp.add_argument("--c-abs", type=_number, default=None, help="absolute constant (default: 3200 for theorem 1, 1 otherwise)")
    sp.add_argument("--p", type=int, choices=(1, 2), default=None)
    sp.add_argument("--j-max", type=int, default=64)

    sp = new_sub("tails", _cmd_tails, help="empirical two-regime tail fits")
    sp.add_argument("--probe", choices=("bernstein", "increment"), default="bernstein")
    sp.add_argument("--sampler", choices=("exp", "rop-gauss"), default=None)
    sp.add_argument("--psi-k", type=_number, default=None, help="single-draw psi-1 bound K (regime split)")
    sp.add_argument("--m", type=int, default=100)
    sp.add_argument("--t-grid", type=_float_list, default=None)
    sp.add_argument("--trials", type=int, default=20000)
    _add_model_flags(sp, points=False)
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default=None)
    sp.add_argument("--q", type=_number, default=None, help="sparse-pm parameter (default 4)")
    sp.add_argument("--variant", choices=("two-stage", "rank-one"), default=None)
    sp.add_argument("--p", type=int, choices=(1, 2), default=None)
    sp.add_argument("--lambda-grid", type=_float_list, default=None)

    sp = new_sub("counterexample", _cmd_counterexample, help="correlated-family isometry constants and v_k separation")
    sp.add_argument("--r", type=_number, default=None)
    sp.add_argument("--b", type=_number, default=None)
    sp.add_argument("--i-max", type=int, default=30)
    sp.add_argument("--k-max", type=int, default=20)
    sp.add_argument("--t-max", type=int, default=60)

    return parser, sub_map


def _config_tokens(actions: dict, cfg: dict) -> list:
    """Config values as flag tokens, so they get the flags' own type and choice
    checks: a list joins with commas, true gives the bare switch, and false or
    null gives nothing (the built-in default)."""
    tokens = []
    for key, value in cfg.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs == 0:
            _require(isinstance(value, bool), f"config key {key!r} takes true or false")
            if value:
                tokens.append(flag)
        elif value is not None:
            _require(not isinstance(value, (bool, dict)), f"config key {key!r} takes a number, a string or a list")
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")  # '=' keeps a value such as -1 from reading as a flag
    return tokens


def _parse(argv):
    """Explicit flags over config-file values over built-in defaults."""
    parser, sub_map = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    _require(isinstance(cfg, dict), "config file must hold a JSON object")
    actions = {a.dest: a for a in sub_map[args.subcommand]._actions if a.dest != "help"}
    unknown = sorted(set(cfg) - set(actions))
    _require(not unknown, f"unknown config keys for {args.subcommand}: {unknown}")
    # argv[0] is the subcommand (the top-level parser has no flags), and the
    # user's flags after the config tokens win, as a repeated flag's last value does
    return parser.parse_args(argv[:1] + _config_tokens(actions, cfg) + argv[1:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        _resolve_seed(args, argv)
        rep = args.func(args)
        config = _config_dict(args)
        if getattr(args, "format", "json") == "csv":
            # trailing comment keeps the documented header on line 1
            text = rep.csv().rstrip("\n") + "\n# config: " + _dumps(config) + "\n"
        else:
            text = _dumps({"subcommand": args.subcommand, "config": config, **rep.fields}) + "\n"
        if args.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return rep.code
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except tp.FitFailureError as exc:
        return _fail(3, "fit_failure", str(exc))
    except ms.ModelCollapseError as exc:
        return _fail(3, "model_collapse", str(exc))
    except (ValueError, TypeError) as exc:
        return _fail(2, "config", str(exc))
    except ArithmeticError as exc:  # a formula overflowed or underflowed to a zero divisor
        return _fail(2, "config", f"inputs out of floating-point range: {exc}")
    except MemoryError:  # an array sized by the inputs could not be allocated
        return _fail(2, "config", "inputs too large for memory")
    except OSError as exc:
        return _fail(2, "io", str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
