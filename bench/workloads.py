"""Benchmark workloads: `ripbench` command lists and the checks on their output.

Each workload is a short list of command lines run in-process through
`ripbench.cli.main`, every one with the workload seed appended as `--seed`.
A check takes the parsed JSON report of one command and returns a list of
failure messages (empty when the output is right).

No check compares seeded output against a stored value: the random-stream
layout may change deliberately, so checks use closed forms where they exist
and otherwise statistical expectations within stated standard-error
multiples (Z below).  Byte-identity across repetitions and between traced
and untraced runs is checked by the runner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

# standard-error multiple for statistical checks: a false failure needs a
# 5-sigma excursion, so the 70-odd gated runs practically never see one
Z = 5.0


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[dict], list]


def _finite_pos(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_sweep(m_list, sqrt_m_flat: bool = False, monotone: bool = True):
    """rip-sweep rows: one per m, finite positive deltas; optionally
    delta_median non-increasing in m and delta*sqrt(m) within a factor 2
    (acceptance gate c07)."""

    def check(rep: dict) -> list:
        rows = rep.get("rows", [])
        errs = []
        if [r.get("m") for r in rows] != list(m_list):
            return [f"rows cover m={[r.get('m') for r in rows]}, expected {list(m_list)}"]
        meds = [r["delta_median"] for r in rows]
        if not all(_finite_pos(r[k]) for r in rows for k in ("delta_q1", "delta_median", "delta_q3")):
            errs.append(f"non-finite or non-positive deltas {meds}")
            return errs
        if monotone and any(a < b for a, b in zip(meds, meds[1:])):
            errs.append(f"delta_median increases with m: {meds}")
        if sqrt_m_flat:
            prods = [d * math.sqrt(m) for d, m in zip(meds, m_list)]
            if max(prods) > 2.0 * min(prods):
                errs.append(f"delta*sqrt(m) not flat within 2x: {prods}")
        return errs

    return check


def check_rop(m: int, trials: int):
    """Gaussian rank-one probe on the unit single-entry target M = e1 e1^T.

    Closed forms: abs_mean_analytic = 2/pi, sq_mean_analytic = 1, storage
    m(n1+n2), dense m n1 n2.  Statistics: abs_mean within Z standard errors
    of 2/pi (SE from the reported per-trial std), and sq_mean within Z
    standard errors of 1, where one trial's sq value is the mean of m draws
    of (g h)^2 with variance E g^4 E h^4 - 1 = 8.
    """

    def check(rep: dict) -> list:
        errs = []
        n1, n2 = rep["config"]["n1"], rep["config"]["n2"]
        exact = {
            "frobenius": 1.0,
            "abs_mean_analytic": 2.0 / math.pi,
            "sq_mean_analytic": 1.0,
            "storage_cost": m * (n1 + n2),
            "dense_cost": m * n1 * n2,
        }
        for key, want in exact.items():
            if rep.get(key) != want:
                errs.append(f"{key} = {rep.get(key)!r}, expected {want!r}")
        se1 = rep["abs_mean_std"] / math.sqrt(trials)
        if not abs(rep["abs_mean"] - 2.0 / math.pi) <= Z * se1:
            errs.append(f"abs_mean {rep['abs_mean']} more than {Z} SE ({se1}) from 2/pi")
        se2 = math.sqrt(8.0 / (m * trials))
        if not abs(rep["sq_mean"] - 1.0) <= Z * se2:
            errs.append(f"sq_mean {rep['sq_mean']} more than {Z} SE ({se2}) from 1")
        return errs

    return check


def _chi2_cdf_even(k: int, x: float) -> float:
    """P(chi^2_k <= x) for even k: 1 - e^{-x/2} sum_{j<k/2} (x/2)^j / j!."""
    if x <= 0.0:
        return 0.0
    h = x / 2.0
    tail = sum(math.exp(j * math.log(h) - h - math.lgamma(j + 1)) for j in range(k // 2))
    return 1.0 - tail


def check_increment_tails(m: int, trials: int):
    """Increment tail of a Gaussian two-stage p=2 map against a unit secant y
    and z = 0.  Then ||L y||^2 = chi^2_m / m and mu(y)^2 = 1, so the
    empirical tail at lambda estimates the exact
    P(|chi^2_m/m - 1| >= lambda); each grid point must lie within Z binomial
    standard errors of it (variance floored at 1/trials for tails near 0).
    Needs even m.
    """

    def check(rep: dict) -> list:
        errs = []
        if rep.get("trials") != trials:
            errs.append(f"trials {rep.get('trials')} != {trials}")
        tails = rep.get("tail", [])
        if any(a < b for a, b in zip(tails, tails[1:])):
            errs.append(f"tail not non-increasing in lambda: {tails}")
        for lam, got in zip(rep["lambda_grid"], tails):
            want = (1.0 - _chi2_cdf_even(m, m * (1.0 + lam))) + _chi2_cdf_even(m, m * (1.0 - lam))
            se = math.sqrt(max(want * (1.0 - want), 1.0 / trials) / trials)
            if not abs(got - want) <= Z * se:
                errs.append(f"tail({lam}) = {got}, exact {want:.6g}, SE {se:.3g}")
        for key in ("c1", "c2"):
            v = rep.get(key)
            if not (v == "inf" or _finite_pos(v)):
                errs.append(f"{key} = {v!r}")
        return errs

    return check


def check_min_d(n: int, eps_star: float, d: int):
    """Minimal frequency count: deterministic, exact."""

    def check(rep: dict) -> list:
        got = (rep.get("n"), rep.get("eps_star"), rep.get("d"))
        return [] if got == (n, eps_star, d) and "error" not in rep else [f"min-d {got}, expected {(n, eps_star, d)}"]

    return check


def check_boxdim(eps_grid, count: int):
    """Greedy-net counts: non-decreasing as eps shrinks, at most one center
    per point, and a finite positive slope."""

    def check(rep: dict) -> list:
        errs = []
        counts = rep.get("counts", [])
        if rep.get("eps_grid") != list(eps_grid) or len(counts) != len(eps_grid):
            errs.append(f"eps_grid/counts {rep.get('eps_grid')} / {counts}")
        elif not (rep.get("monotone") is True and 1 <= counts[0] and counts[-1] <= count):
            errs.append(f"counts {counts} not monotone within [1, {count}]")
        if not _finite_pos(rep.get("slope")):
            errs.append(f"slope {rep.get('slope')!r}")
        return errs

    return check


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def _cmd(line: str, check) -> Command:
    return Command(tuple(line.split()), check)


def _sweep(line: str, m_list, **kw) -> Command:
    return _cmd(line + " --m-list " + ",".join(map(str, m_list)), check_sweep(m_list, **kw))


# Full-size workloads, one per set of layers they load.  Sizes are those of
# the commit that introduced the benchmark; keep them fixed so runs compare.
WORKLOADS = {
    # many secants through a few maps, analytic mu: apply/reduce and secant
    # layers; bypasses Monte-Carlo mu
    "sweep": [
        _sweep("rip-sweep --model sparse --n 64 --k 4 --n-secants 2000 --trials 20",
               [64, 128, 256, 512, 1024], sqrt_m_flat=True),
        _sweep("rip-sweep --model lowrank --n1 12 --n2 12 --rank 1 --variant rank-one"
               " --n-secants 1000 --trials 10", [64, 128, 256]),
    ],
    # many independent maps, each applied to one or a few vectors: map draws
    # (row substreams) dominate; the opposite use of draw/apply from sweep
    "probes": [
        _sweep("rip-sweep --model sparse --n 32 --k 2 --dist sparse-pm --q 4 --p 1"
               " --n-secants 16 --n-resample 64 --trials 20", [32, 64], monotone=False),
        _cmd("rop --n1 16 --n2 16 --m 1000 --trials 100", check_rop(1000, 100)),
        _cmd("tails --probe increment --model sparse --n 32 --k 2 --m 100 --trials 1000",
             check_increment_tails(100, 1000)),
    ],
    # no random maps: Haar-Fourier min-d search and greedy nets; the bypass
    # workload for every map-draw, mu or apply change
    "geometry": [
        _cmd("haar-fourier --n 256 --eps-star 0.1", check_min_d(256, 0.1, 856)),
        _cmd("boxdim --model sparse --n 32 --k 2 --secants --count 2000 --eps-grid 0.9,0.7,0.5",
             check_boxdim([0.9, 0.7, 0.5], 2000)),
    ],
}

# The same subcommands at tiny size: warm-up before timing, and the smoke
# test.  Statistical checks that need full size are left out here.
TINY = {
    "sweep": [
        _sweep("rip-sweep --model sparse --n 16 --k 2 --n-secants 50 --trials 3", [16, 64], monotone=False),
        _sweep("rip-sweep --model lowrank --n1 4 --n2 4 --rank 1 --variant rank-one"
               " --n-secants 20 --trials 3", [16, 64], monotone=False),
    ],
    "probes": [
        _sweep("rip-sweep --model sparse --n 8 --k 2 --dist sparse-pm --q 4 --p 1"
               " --n-secants 4 --n-resample 8 --trials 3", [8, 16], monotone=False),
        _cmd("rop --n1 4 --n2 4 --m 50 --trials 5", check_rop(50, 5)),
        _cmd("tails --probe increment --model sparse --n 8 --k 2 --m 20 --trials 1000",
             check_increment_tails(20, 1000)),
    ],
    "geometry": [
        _cmd("haar-fourier --n 16 --eps-star 0.1", check_min_d(16, 0.1, 53)),
        _cmd("boxdim --model sparse --n 8 --k 2 --secants --count 100 --eps-grid 0.9,0.7,0.5",
             check_boxdim([0.9, 0.7, 0.5], 100)),
    ],
}

# One-shot re-measurement of the baseline commands quoted in ROADMAP.md
# ("State at this re-anchor").  Not gated: the Monte-Carlo case alone runs
# for about a minute.
REFERENCE = [
    ("readme-sweep", "rip-sweep --model sparse --n 32 --k 2 --m-list 64,128,256,512 --n-secants 1000 --trials 20"),
    ("mc-sweep", "rip-sweep --model sparse --n 32 --k 2 --dist sparse-pm --q 4 --p 1"
                 " --m-list 64,128 --n-secants 50 --n-resample 200 --trials 20"),
    ("rop-default", "rop"),
    ("tails-increment", "tails --probe increment --model sparse --n 32 --k 2 --trials 2000"),
    ("min-d-64", "haar-fourier --n 64 --eps-star 0.1"),
    ("min-d-128", "haar-fourier --n 128 --eps-star 0.1"),
    ("min-d-256", "haar-fourier --n 256 --eps-star 0.1"),
]


def commands(workload: str, tiny: bool = False) -> list:
    table = TINY if tiny else WORKLOADS
    if workload not in table:
        raise KeyError(workload)
    return table[workload]


def check_report(cmd: Command, seed: int, code: int, stdout: str) -> Optional[str]:
    """None when the command's output is right, else the failure messages."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)} lines"
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if rep.get("subcommand") != cmd.argv[0] or rep.get("config", {}).get("seed") != seed:
        return f"report header {rep.get('subcommand')!r} seed {rep.get('config', {}).get('seed')!r}"
    try:
        errs = cmd.check(rep)
    except (KeyError, TypeError, ValueError) as exc:
        errs = [f"malformed report: {exc!r}"]
    return "; ".join(errs) if errs else None
