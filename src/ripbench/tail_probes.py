"""Moment-method psi-norm estimates and empirical concentration-shape checks.

psi_alpha(X) = sup_q q^{-1/alpha} (E|X|^q)^{1/q} over integer q; alpha = 2 is
the subgaussian norm, alpha = 1 the subexponential one.  Exact moment
functions are preferred where available (normal, Rademacher, exponential,
sparse plus-minus); Monte-Carlo fills in the rest.

Tail fits never assume an absolute constant: the two-regime rates are fitted
from empirical tails as the largest constants whose doubled-exponential
envelope majorizes every observed nonzero tail point, so the fitted bound
holds on the grid by construction.  A regime whose empirical tail is
identically zero on the grid is reported as unbounded-rate (math.inf) rather
than given an invented finite constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import CH_BATCH, CH_MAP, child_seed, substream
from .embeddings import DistSpec, StageOneMap, apply_columns
from .rip_estimator import MuNormSpec, _draw_map, mu_pnorm, pnorm_p

__all__ = [
    "TailFit",
    "PsiNorm",
    "FitFailureError",
    "psi_norm",
    "increment_tail_fit",
    "bernstein_tail_check",
    "abs_moment_normal",
    "abs_moment_rademacher",
    "abs_moment_exponential",
    "make_sparse_pm_abs_moment",
    "centered_exponential_sampler",
    "centered_rop_abs_sampler",
    "named_sampler",
]


class FitFailureError(RuntimeError):
    """Every tail on the grid is zero: the grid is too coarse to fit rates."""


@dataclass(frozen=True)
class TailFit:
    """Empirical tail with per-regime fitted rates.

    fitted_c1 governs the subgaussian regime (exponent c1 m lambda^2),
    fitted_c2 the subexponential one (exponent c2 m lambda); crossover is the
    regime split actually used (c2/c1 for increment fits, the psi-bound K for
    the mean-concentration check).  math.inf marks an unbounded-rate regime.
    """

    lambda_grid: tuple
    empirical_tail: tuple
    fitted_c1: float
    fitted_c2: float
    crossover: float
    trials: int
    m: int


@dataclass(frozen=True)
class PsiNorm:
    value: float
    q_at_max: int
    truncated: bool


# ---------------------------------------------------------------------------
# exact moment functions: q -> E|X|^q
# ---------------------------------------------------------------------------

def abs_moment_normal(q: float) -> float:
    """E|N(0,1)|^q = 2^{q/2} Gamma((q+1)/2) / sqrt(pi)."""
    return 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def abs_moment_rademacher(q: float) -> float:
    return 1.0


def abs_moment_exponential(q: float) -> float:
    """E X^q = q! for X ~ Exponential(1)."""
    return math.gamma(q + 1.0)


def make_sparse_pm_abs_moment(q_dist: float) -> Callable[[float], float]:
    """E|P|^r = q^{r/2 - 1} for the three-point {0, +-sqrt(q)} law."""
    if not q_dist >= 1.0:
        raise ValueError("need q >= 1")
    return lambda r: q_dist ** (r / 2.0 - 1.0)


def psi_norm(
    moments: Optional[Callable[[float], float]] = None,
    sampler: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None,
    alpha: int = 2,
    q_max: int = 20,
    n_mc: int = 200_000,
    seed: int = 0,
) -> PsiNorm:
    """sup over integer q <= q_max of q^{-1/alpha} (E|X|^q)^{1/q}.

    Pass an exact moment function (q -> E|X|^q) or a sampler taking
    (count, generator).  Warns when the maximizer lands on q_max, since the
    supremum may then be truncated.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    if q_max < 2:
        raise ValueError("need q_max >= 2")
    if (moments is None) == (sampler is None):
        raise ValueError("supply exactly one of moments or sampler")
    if moments is None:
        draws = np.abs(np.asarray(sampler(n_mc, substream(seed))))
        moments = lambda q: float(np.mean(draws**q))  # noqa: E731
    best, best_q = -math.inf, 0
    for q in range(1, q_max + 1):
        stat = q ** (-1.0 / alpha) * moments(float(q)) ** (1.0 / q)
        if stat > best:
            best, best_q = stat, q
    truncated = best_q == q_max
    if truncated:
        warnings.warn(f"psi_norm maximizer at q_max={q_max}; the supremum may be truncated")
    return PsiNorm(float(best), best_q, truncated)


# ---------------------------------------------------------------------------
# envelope rate fitting
# ---------------------------------------------------------------------------

def _envelope_rate(lams, tails, mask, m: int, exponent_of_lambda) -> float:
    # largest c with tail <= 2 exp(-c * m * g(lambda)) on every masked point
    cands = [-math.log(tail / 2.0) / (m * exponent_of_lambda(lam))
             for lam, tail, ok in zip(lams, tails, mask) if ok and tail > 0.0 and lam > 0.0]
    return min(cands, default=math.inf)


def _two_regime_fit(lams: np.ndarray, tails: np.ndarray, m: int, split0: float):
    split = split0
    c1 = c2 = math.inf
    for _ in range(3):  # initial fit plus two crossover iterations
        c1 = _envelope_rate(lams, tails, lams <= split, m, lambda l: l * l)
        c2 = _envelope_rate(lams, tails, lams >= split, m, lambda l: l)
        if math.isinf(c1) and math.isinf(c2):
            break
        if math.isinf(c2):
            split = math.inf
        elif math.isinf(c1):
            split = 0.0
        else:
            split = c2 / c1
    return c1, c2, split


def _checked_grid(grid: Sequence[float], name: str) -> np.ndarray:
    """The threshold grid sorted, checked before any draw: NaN or negative values raise."""
    g = np.sort(np.asarray([float(v) for v in grid]))
    if not np.all(g >= 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return g


def _empirical_tail(stats: np.ndarray, grid: np.ndarray, scale: float, name: str) -> np.ndarray:
    """P{stat >= g * scale} per grid value g; FitFailureError if all positive g see zero."""
    tails = np.asarray([float(np.mean(stats >= g * scale)) for g in grid])
    if not np.any(tails[grid > 0.0] > 0.0):
        raise FitFailureError(f"all tails zero on the grid; refine {name}")
    return tails


def increment_tail_fit(
    dist: DistSpec,
    variant: str,
    m: int,
    y,
    z,
    p: int,
    lambda_grid: Sequence[float],
    trials: int,
    seed: int,
    stage_one: Optional[StageOneMap] = None,
    n1: int = 0,
    n2: int = 0,
    n_resample: int = 2000,
) -> TailFit:
    """Empirical P{ |h_p(y) - h_p(z)| >= lambda ||y - z|| } with two-regime rates.

    h_p(x) = ||L(x)||_p^p - mu(x)^p for a fresh map L per trial; z may be the
    zero vector, which reduces to the single-point deviation tail.  The
    subgaussian rate c1 is fitted below the crossover and the subexponential
    rate c2 above it; the crossover starts at the fitted c2/c1 and is
    iterated twice.  Raises FitFailureError when every grid tail is zero.
    """
    if trials < 1000:
        raise ValueError("need trials >= 1000")
    lams = _checked_grid(lambda_grid, "lambda_grid")
    y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    gap = float(np.linalg.norm(y - z))
    if gap == 0.0:
        raise ValueError("y and z must differ")
    spec = MuNormSpec(
        mode="auto", dist=dist, variant=variant, m=m, stage_one=stage_one,
        n1=n1, n2=n2, n_resample=n_resample, seed=child_seed(seed, CH_MAP),
    )
    # h_p(0) = 0, so a zero z needs no column of its own
    X = np.stack([y, z], axis=1) if np.any(z != 0.0) else y[:, None]
    mu = mu_pnorm(spec, X, p).value

    h = np.array([pnorm_p(apply_columns(_draw_map(spec, child_seed(seed, CH_BATCH, t), p, y.size), X), p)
                  for t in range(trials)]) - mu
    diffs = np.abs(h[:, 0] - h[:, 1]) if X.shape[1] == 2 else np.abs(h[:, 0])
    tails = _empirical_tail(diffs, lams, gap, "lambda_grid")
    c1, c2, split = _two_regime_fit(lams, tails, m, split0=float(np.median(lams)))
    return TailFit(tuple(lams), tuple(tails), c1, c2, split, trials, m)


def bernstein_tail_check(
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    K: float,
    m: int,
    t_grid: Sequence[float],
    trials: int,
    seed: int,
) -> TailFit:
    """Tail of |mean of m centered draws| against the two-regime Bernstein shape.

    The sampler must be centered: the grand empirical mean has to sit within
    3 standard errors of zero or the check refuses to run.  Rates are fitted
    as envelope constants with the regime split at t = K (the psi-1 bound of
    a single draw); the split is recorded in the crossover field.
    """
    if not K > 0.0 or m < 1 or trials < 1:
        raise ValueError("need K > 0, m >= 1, trials >= 1")
    ts = _checked_grid(t_grid, "t_grid")
    draws = np.empty(trials * m)
    chunk = 1 << 16
    for c, start in enumerate(range(0, draws.size, chunk)):
        stop = min(start + chunk, draws.size)
        draws[start:stop] = np.asarray(sampler(stop - start, substream(seed, CH_BATCH, c)))
    grand = float(draws.mean())
    se = float(draws.std(ddof=1) / math.sqrt(draws.size))
    if abs(grand) > 3.0 * se:
        raise ValueError(
            f"sampler is visibly non-centered: mean {grand:.4g} exceeds 3 standard errors ({3*se:.4g})"
        )
    means = np.abs(draws.reshape(trials, m).mean(axis=1))

    tails = _empirical_tail(means, ts, 1.0, "t_grid")
    c1 = _envelope_rate(ts, tails, ts <= K, m, lambda t: t * t / (K * K))
    c2 = _envelope_rate(ts, tails, ts >= K, m, lambda t: t / K)
    return TailFit(tuple(ts), tuple(tails), c1, c2, float(K), trials, m)


# ---------------------------------------------------------------------------
# stock centered samplers
# ---------------------------------------------------------------------------

def centered_exponential_sampler(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.exponential(1.0, n) - 1.0


def centered_rop_abs_sampler(n: int, rng: np.random.Generator) -> np.ndarray:
    """|g h| - 2/pi for independent standard normals: the centered magnitude of
    a rank-one Gaussian measurement of the unit single-entry matrix."""
    return np.abs(rng.standard_normal(n) * rng.standard_normal(n)) - 2.0 / math.pi


def named_sampler(name: str) -> Callable[[int, np.random.Generator], np.ndarray]:
    table = {
        "exp": centered_exponential_sampler,
        "rop_gauss": centered_rop_abs_sampler,
    }
    if name not in table:
        raise ValueError(f"unknown sampler {name!r}; choose from {sorted(table)}")
    return table[name]
