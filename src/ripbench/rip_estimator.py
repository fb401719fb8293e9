"""Empirical restricted-isometry constants over sampled secants.

The measurement semi-norm of a point x under a random map family is
mu(x)^p = E ||L(x)||_p^p.  The isometry deviation of one drawn map L over a
secant sample is delta_p = max_x |  ||L(x)||_p^p - mu(x)^p  |, a sample-based
lower bound on the true supremum; under_delta and bar_delta estimate the
inf and sup of mu^p over the set.

mu_pnorm is the one semi-norm routine: closed forms for the documented
(distribution, map family, p) triples, Monte-Carlo map redraws with a standard
error otherwise, over a vector or a column batch with one mode per call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._rng import CH_MAP, CH_SECANT, CH_TRIAL, child_seed
from .embeddings import (
    DistSpec,
    MeasurementMap,
    StageOneMap,
    apply_columns,
    apply_stage_one,
    measurement_rows,
    rank_one_map,
    two_stage_map,
)
from .model_sets import ModelSpec, Secants, _column_norms, normalized_secants

__all__ = [
    "MuNormSpec",
    "MuNorm",
    "RipReport",
    "SweepRow",
    "UnsupportedAnalyticError",
    "mu_pnorm",
    "empirical_delta",
    "rip_sweep",
    "pnorm_p",
]


class UnsupportedAnalyticError(ValueError):
    """Analytic mu requested for a triple with no documented closed form."""


@dataclass(frozen=True)
class MuNormSpec:
    """How to evaluate the measurement semi-norm.

    mode "analytic" covers exactly the documented closed forms (see
    mu_pnorm); "monte_carlo" averages over n_resample independent map
    redraws seeded from (seed, map index); "auto" uses the closed form when
    every column of the call has one and Monte-Carlo otherwise.
    """

    mode: str
    dist: DistSpec
    variant: str                       # "two_stage" | "rank_one"
    m: int
    stage_one: Optional[StageOneMap] = None
    n1: int = 0
    n2: int = 0
    n_resample: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("analytic", "monte_carlo", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.variant not in ("two_stage", "rank_one"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m < 1:
            raise ValueError("need m >= 1")
        if self.n_resample < 1:
            raise ValueError(f"need n_resample >= 1, got {self.n_resample}")


@dataclass(frozen=True)
class MuNorm:
    value: float | np.ndarray   # floats for one vector, arrays for a column batch
    stderr: float | np.ndarray
    mode: str                    # resolved: "analytic" | "monte_carlo"


@dataclass(frozen=True)
class RipReport:
    """One map's deviation over a sample, its witness secant, and min/max of mu^p."""

    delta_p: float
    witness_direction: np.ndarray   # the secant attaining delta_p
    witness_pair_ids: tuple
    under_delta: float
    bar_delta: float


@dataclass(frozen=True)
class SweepRow:
    m: int
    delta_median: float
    delta_q1: float
    delta_q3: float
    trials: int
    p: int
    seed: int
    mu_mode: str          # resolved semi-norm mode at this m
    mu_stderr_max: float  # largest Monte-Carlo standard error of mu over the secants (0 if analytic)


def pnorm_p(Z: np.ndarray, p: int):
    """||z||_p^p for p in {1, 2}: a number for a vector z, one value per
    column for a batch Z."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    return np.abs(Z).sum(axis=0) if p == 1 else (Z * Z).sum(axis=0)


def _analytic_mu(spec: MuNormSpec, X: np.ndarray, p: int) -> np.ndarray:
    """Closed-form mu(x)^p per column of X; raises unless every column has one."""
    d = spec.dist.variant
    if spec.variant == "two_stage":
        nrm = _column_norms(apply_stage_one(spec.stage_one, X))
        if p == 2:
            # each scaled row contributes |a^T y|^2 / m; E (a^T y)^2 = ||y||_2^2
            # for any zero-mean unit-variance law
            return nrm * nrm
        if d == "gaussian":
            # E|a^T y| = sqrt(2/pi) ||y||_2, and the m rows average out
            return math.sqrt(2.0 / math.pi) * nrm
        raise UnsupportedAnalyticError(f"no closed form for ({d}, two_stage, p={p})")
    if p == 2:
        # E (a^T M b)^2 = ||M||_F^2 for any zero-mean unit-variance law; the
        # 1/m scaling leaves ||M||_F^2 / m
        fro = _column_norms(X)
        return fro * fro / spec.m
    if d == "gaussian":
        svals = np.linalg.svd(X.T.reshape(-1, spec.n1, spec.n2), compute_uv=False)
        if svals.shape[1] > 1 and np.any(svals[:, 1] > 1e-8 * np.maximum(svals[:, 0], 1e-300)):
            raise UnsupportedAnalyticError(
                "gaussian rank-one p=1 closed form holds for rank-1 matrices only"
            )
        # a^T M b = sigma1 g h with independent standard normals g, h
        return (2.0 / math.pi) * _column_norms(X)
    if np.any(np.count_nonzero(X, axis=0) != 1):
        raise UnsupportedAnalyticError(
            "sparse plus-minus rank-one p=1 closed form holds for single-entry matrices only"
        )
    # exact 3-point x 3-point enumeration: E|a_i b_j| = (1/sqrt(q))^2
    return np.abs(X).sum(axis=0) / spec.dist.q


def _draw_map(spec: MuNormSpec, seed: int, p: int, ambient_dim: int) -> MeasurementMap:
    """One map of the spec's family for inputs of length ambient_dim."""
    if spec.variant == "two_stage":
        return two_stage_map(spec.stage_one, spec.dist, spec.m, p, seed, ambient_dim=ambient_dim)
    return rank_one_map(spec.m, spec.n1, spec.n2, spec.dist, seed)


def mu_pnorm(spec: MuNormSpec, x, p: int) -> MuNorm:
    """Measurement semi-norm mu(x)^p = E ||L(x)||_p^p of a vector or of each
    column of a (D, n) batch (rank-one: row-major flattened n1 x n2 matrices).

    Analytic closed forms (all others must use Monte-Carlo):
      two-stage p=2, any law      -> ||b(x)||_2^2
      gaussian two-stage p=1      -> sqrt(2/pi) ||b(x)||_2
      rank-one p=2, any law       -> ||M||_F^2 / m
      gaussian rank-one p=1       -> (2/pi) ||M||_F, rank-1 M only
      sparse-pm rank-one p=1      -> |M_ij| / q, single-entry M only
    Monte-Carlo draws map j from (spec.seed, map channel, j) once for all columns.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    x = np.asarray(x, dtype=float)
    X = x.reshape(x.shape[0], -1)  # one vector is a batch of one column
    if spec.variant == "rank_one" and X.shape[0] != spec.n1 * spec.n2:
        raise ValueError(
            f"rank-one input of length {X.shape[0]} is not an n1 x n2 = {spec.n1} x {spec.n2} matrix"
        )
    mode = spec.mode
    if mode != "monte_carlo":
        try:
            value, stderr, mode = _analytic_mu(spec, X, p), np.zeros(X.shape[1]), "analytic"
        except UnsupportedAnalyticError:
            if mode == "analytic":
                raise
            mode = "monte_carlo"
    if mode == "monte_carlo":
        vals = np.empty((X.shape[1], spec.n_resample))
        for j in range(spec.n_resample):
            L = _draw_map(spec, child_seed(spec.seed, CH_MAP, j), p, X.shape[0])
            vals[:, j] = pnorm_p(apply_columns(L, X), p)
        value = vals.mean(axis=1)
        stderr = (vals.std(axis=1, ddof=1) / math.sqrt(spec.n_resample) if spec.n_resample > 1
                  else np.full(X.shape[1], math.inf))
    if x.ndim == 1:
        return MuNorm(float(value[0]), float(stderr[0]), mode)
    return MuNorm(value, stderr, mode)


def empirical_delta(
    L: MeasurementMap,
    secants: Secants,
    p: int,
    mu: Sequence[float],
) -> RipReport:
    """Max absolute deviation | ||L(x)||_p^p - mu(x)^p | over the sample.

    `mu` supplies the semi-norm value for every secant, in order.  The result
    is a lower bound on the true supremum over the full secant set.
    """
    if len(mu) != len(secants):
        raise ValueError("need one mu value per secant")
    if len(secants) == 0:
        raise ValueError("need at least one secant")
    mu_arr = np.asarray(mu, dtype=float)
    devs = np.abs(pnorm_p(apply_columns(L, secants.directions), p) - mu_arr)
    idx = int(np.argmax(devs))
    return RipReport(
        delta_p=float(devs[idx]),
        witness_direction=secants.directions[:, idx],
        witness_pair_ids=tuple(int(i) for i in secants.pair_ids[idx]),
        under_delta=float(mu_arr.min()),
        bar_delta=float(mu_arr.max()),
    )


def _prefix_pnorms(L: MeasurementMap, X: np.ndarray, m_list: Sequence[int], p: int) -> np.ndarray:
    """||L_m x||_p^p per m in the ascending m_list (rows) and column x of X
    (columns), L_m the m-row prefix of L (L.m = m_list[-1]).  For p = 2 and
    |m_list| d < L.m (d the row width), b(x)^T G_m b(x) with the Gram G_m of
    the first m rows grown between consecutive m; else |y|^p of one
    apply_columns product summed between consecutive m."""
    m = np.asarray(m_list, dtype=float)[:, None]
    cuts = list(zip([0, *m_list], m_list))
    power = p if L.variant == "rank_one" else 1  # L_m divides sum_i |a_i . b(x)|^p by m^power
    A = measurement_rows(L)
    if p == 2 and len(m_list) * A.shape[1] < L.m:
        Y = apply_stage_one(L.stage_one, X)
        G = np.zeros((A.shape[1], A.shape[1]))
        sums = []
        for lo, hi in cuts:
            G += A[lo:hi].T @ A[lo:hi]
            sums.append(np.sum((G @ Y) * Y, axis=0))
        return np.array(sums) / m ** power
    Y = apply_columns(L, X)  # scaled for L.m rows
    return np.cumsum([pnorm_p(Y[lo:hi], p) for lo, hi in cuts], axis=0) * (L.m / m) ** power


def rip_sweep(
    model: ModelSpec,
    dist: DistSpec,
    m_list: Sequence[int],
    p: int,
    n_secants: int,
    trials: int,
    seed: int,
    variant: str = "two_stage",
    stage_one: Optional[StageOneMap] = None,
    n1: int = 0,
    n2: int = 0,
    mu_mode: str = "auto",
    n_resample: int = 2000,
    threads: int = 1,
) -> list:
    """Median and quartiles of delta_p per m over independent map draws.

    One secant sample, drawn from substream (seed, secant channel), serves
    every (m, trial) cell.  Trial t draws one map with m_list[-1] rows from
    substream (seed, trial channel, t); its m-row prefix is the trial's map
    at size m, so the deltas of one trial at different m are correlated
    while the quartiles stay per-m statistics over independent trials.
    """
    for name, count in (("trials", trials), ("n_secants", n_secants), ("threads", threads)):
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {count}")
    m_list = [int(m) for m in m_list]
    if not m_list or any(m_list[i] >= m_list[i + 1] for i in range(len(m_list) - 1)):
        raise ValueError("m_list must be nonempty and strictly ascending")
    secants = normalized_secants(model, count=n_secants, seed=child_seed(seed, CH_SECANT))
    X = secants.directions
    spec = MuNormSpec(
        mode=mu_mode, dist=dist, variant=variant, m=m_list[-1], stage_one=stage_one,
        n1=n1, n2=n2, n_resample=n_resample, seed=child_seed(seed, CH_MAP, 0),
    )
    mus = [mu_pnorm(replace(spec, m=m), X, p) for m in m_list]
    mu = np.array([u.value for u in mus])

    def one_trial(t: int) -> np.ndarray:
        L = _draw_map(spec, child_seed(seed, CH_TRIAL, t), p, len(X))
        return np.abs(_prefix_pnorms(L, X, m_list, p) - mu).max(axis=1)

    if threads == 1:  # no worker thread, so no second malloc arena in peak RSS
        deltas = np.array([one_trial(t) for t in range(trials)])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            deltas = np.array(list(pool.map(one_trial, range(trials))))
    q1, med, q3 = np.percentile(deltas, [25.0, 50.0, 75.0], axis=0)
    return [SweepRow(m, float(med[j]), float(q1[j]), float(q3[j]), trials, p, seed, u.mode, float(np.max(u.stderr)))
            for j, (m, u) in enumerate(zip(m_list, mus))]
