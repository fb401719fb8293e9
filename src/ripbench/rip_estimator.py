"""Empirical restricted-isometry constants over sampled secants.

The measurement semi-norm of a point x under a random map family is
mu(x)^p = E ||L(x)||_p^p.  The isometry deviation of one drawn map L over a
secant sample is delta_p = max_x |  ||L(x)||_p^p - mu(x)^p  |, a sample-based
lower bound on the true supremum; under_delta and bar_delta estimate the
inf and sup of mu^p over the set.

mu is computed in closed form for the documented (distribution, map family,
p) triples and by Monte-Carlo map redraws otherwise, with a reported
standard error.
"""

from __future__ import annotations

import json
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
    apply,
    apply_columns,
    apply_stage_one,
    rank_one_map,
    two_stage_map,
)
from .model_sets import ModelSpec, SecantSample, normalized_secants

__all__ = [
    "MuNormSpec",
    "MuNorm",
    "RipReport",
    "SweepRow",
    "UnsupportedAnalyticError",
    "mu_pnorm",
    "empirical_delta",
    "delta_extremes",
    "rip_sweep",
    "pnorm_p",
    "rip_report_to_json",
    "sweep_rows_to_csv",
    "sweep_rows_to_json",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = "m,delta_median,delta_q1,delta_q3,trials,p,seed"


class UnsupportedAnalyticError(ValueError):
    """Analytic mu requested for a triple with no documented closed form."""


@dataclass(frozen=True)
class MuNormSpec:
    """How to evaluate the measurement semi-norm.

    mode "analytic" covers exactly the documented closed forms (see
    mu_pnorm); "monte_carlo" averages over n_resample independent map
    redraws seeded from (seed, map index).
    """

    mode: str
    dist: DistSpec
    variant: str                       # "two_stage" | "rank_one"
    m: int
    stage_one: Optional[StageOneMap] = None
    ambient_dim: int = 0
    n1: int = 0
    n2: int = 0
    n_resample: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("analytic", "monte_carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.variant not in ("two_stage", "rank_one"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m < 1:
            raise ValueError("need m >= 1")


@dataclass(frozen=True)
class MuNorm:
    value: float
    stderr: float
    mode: str


@dataclass(frozen=True)
class RipReport:
    delta_p: float
    witness: SecantSample
    under_delta: float
    bar_delta: float
    m: int
    p: int
    n_secants: int
    trials: int
    seed: int


@dataclass(frozen=True)
class SweepRow:
    m: int
    delta_median: float
    delta_q1: float
    delta_q3: float
    trials: int
    p: int
    seed: int


def pnorm_p(z: np.ndarray, p: int) -> float:
    """||z||_p^p for p in {1, 2}."""
    if p == 1:
        return float(np.sum(np.abs(z)))
    if p == 2:
        return float(np.sum(z * z))
    raise ValueError(f"p must be 1 or 2, got {p}")


def _analytic_mu(spec: MuNormSpec, x: np.ndarray, p: int) -> float:
    d = spec.dist.variant
    if spec.variant == "two_stage":
        y = apply_stage_one(spec.stage_one, x) if spec.stage_one is not None else x
        nrm = float(np.linalg.norm(y))
        if d == "gaussian" and p == 2:
            # each scaled row contributes |a^T y|^2 / m; expectation ||y||_2^2
            return nrm * nrm
        if d == "gaussian" and p == 1:
            # E|a^T y| = sqrt(2/pi) ||y||_2, and the m rows average out
            return math.sqrt(2.0 / math.pi) * nrm
        raise UnsupportedAnalyticError(f"no closed form for ({d}, two_stage, p={p})")
    M = np.asarray(x, dtype=float).reshape(spec.n1, spec.n2)
    fro = float(np.linalg.norm(M))
    if d == "gaussian" and p == 2:
        # E (a^T M b)^2 = ||M||_F^2; the 1/m scaling leaves ||M||_F^2 / m
        return fro * fro / spec.m
    if d == "gaussian" and p == 1:
        svals = np.linalg.svd(M, compute_uv=False)
        if svals.size > 1 and svals[1] > 1e-8 * max(svals[0], 1e-300):
            raise UnsupportedAnalyticError(
                "gaussian rank-one p=1 closed form holds for rank-1 matrices only"
            )
        # a^T M b = sigma1 g h with independent standard normals g, h
        return (2.0 / math.pi) * fro
    if d == "sparse_pm" and p == 1:
        nz = np.argwhere(M != 0.0)
        if len(nz) != 1:
            raise UnsupportedAnalyticError(
                "sparse plus-minus rank-one p=1 closed form holds for single-entry matrices only"
            )
        i, j = nz[0]
        # exact 3-point x 3-point enumeration: E|a_i b_j| = (1/sqrt(q))^2
        return float(abs(M[i, j])) / spec.dist.q
    raise UnsupportedAnalyticError(f"no closed form for ({d}, {spec.variant}, p={p})")


def _draw_map(spec: MuNormSpec, seed: int, p: int) -> MeasurementMap:
    if spec.variant == "two_stage":
        return two_stage_map(
            spec.stage_one, spec.dist, spec.m, p, seed,
            ambient_dim=spec.ambient_dim if spec.stage_one is None else None,
        )
    return rank_one_map(spec.m, spec.n1, spec.n2, spec.dist, seed)


def mu_pnorm(spec: MuNormSpec, x, p: int) -> MuNorm:
    """Measurement semi-norm mu(x)^p = E ||L(x)||_p^p.

    Analytic closed forms (all others must use Monte-Carlo):
      gaussian two-stage p=2   -> ||b(x)||_2^2
      gaussian two-stage p=1   -> sqrt(2/pi) ||b(x)||_2
      gaussian rank-one p=2    -> ||M||_F^2 / m
      gaussian rank-one p=1    -> (2/pi) ||M||_F, rank-1 M only
      sparse-pm rank-one p=1   -> |M_ij| / q, single-entry M only
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    x = np.asarray(x, dtype=float)
    if spec.mode == "analytic":
        return MuNorm(_analytic_mu(spec, x, p), 0.0, "analytic")
    vals = np.empty(spec.n_resample)
    for j in range(spec.n_resample):
        L = _draw_map(spec, child_seed(spec.seed, CH_MAP, j), p)
        vals[j] = pnorm_p(apply(L, x), p)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(spec.n_resample)) if spec.n_resample > 1 else math.inf
    return MuNorm(value, stderr, "monte_carlo")


def empirical_delta(
    L: MeasurementMap,
    secants: Sequence[SecantSample],
    p: int,
    mu: Sequence[float],
) -> RipReport:
    """Max absolute deviation | ||L(x)||_p^p - mu(x)^p | over the sample.

    `mu` supplies the semi-norm value for every secant, in order.  The result
    is a lower bound on the true supremum over the full secant set.
    """
    if len(mu) != len(secants):
        raise ValueError("need one mu value per secant")
    if not secants:
        raise ValueError("need at least one secant")
    mu_arr = np.asarray(mu, dtype=float)
    measured = _measured_pnorms(L, secants, p)
    devs = np.abs(measured - mu_arr)
    idx = int(np.argmax(devs))
    return RipReport(
        delta_p=float(devs[idx]),
        witness=secants[idx],
        under_delta=float(mu_arr.min()),
        bar_delta=float(mu_arr.max()),
        m=L.m,
        p=p,
        n_secants=len(secants),
        trials=1,
        seed=L.seed,
    )


def _measured_pnorms(L: MeasurementMap, secants: Sequence[SecantSample], p: int) -> np.ndarray:
    """||L(x)||_p^p for every secant, through one batched apply."""
    Z = apply_columns(L, np.stack([s.direction for s in secants], axis=1))
    return np.abs(Z).sum(axis=0) if p == 1 else (Z * Z).sum(axis=0)


def delta_extremes(spec: MuNormSpec, secants: Sequence[SecantSample], p: int):
    """(min, max) of the semi-norm over the sampled secants."""
    vals = [mu_pnorm(spec, s.direction, p).value for s in secants]
    return float(min(vals)), float(max(vals))


def _mu_values(spec: MuNormSpec, secants, p) -> np.ndarray:
    if spec.mode == "analytic":
        return np.asarray([_analytic_mu(spec, s.direction, p) for s in secants])
    return np.asarray([mu_pnorm(spec, s.direction, p).value for s in secants])


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
    every (m, trial) cell; the map for trial t at size m comes from substream
    (seed, map channel, m, t), so rows are reproducible cell by cell.
    """
    for name, count in (("trials", trials), ("n_secants", n_secants)):
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {count}")
    m_list = [int(m) for m in m_list]
    if any(m_list[i] >= m_list[i + 1] for i in range(len(m_list) - 1)):
        raise ValueError("m_list must be strictly ascending")
    secants = normalized_secants(model, count=n_secants, seed=child_seed(seed, CH_SECANT))
    dim = secants[0].direction.size

    spec0 = MuNormSpec(
        mode="analytic", dist=dist, variant=variant, m=m_list[0], stage_one=stage_one,
        ambient_dim=dim, n1=n1, n2=n2, n_resample=n_resample, seed=child_seed(seed, CH_MAP, 0),
    )
    if mu_mode == "auto":
        try:
            _analytic_mu(spec0, secants[0].direction, p)
            mu_mode = "analytic"
        except UnsupportedAnalyticError:
            mu_mode = "monte_carlo"
    rows = []
    for m in m_list:
        spec_m = replace(spec0, mode=mu_mode, m=m)
        mu_vec = _mu_values(spec_m, secants, p)

        def one_trial(t: int, m=m, spec_m=spec_m, mu_vec=mu_vec) -> float:
            L = _draw_map(spec_m, child_seed(seed, CH_TRIAL, m, t), p)
            measured = _measured_pnorms(L, secants, p)
            return float(np.max(np.abs(measured - mu_vec)))

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                deltas = list(pool.map(one_trial, range(trials)))
        else:
            deltas = [one_trial(t) for t in range(trials)]
        q1, med, q3 = np.percentile(deltas, [25.0, 50.0, 75.0])
        rows.append(SweepRow(m, float(med), float(q1), float(q3), trials, p, seed))
    return rows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def rip_report_to_json(r: RipReport) -> str:
    payload = {
        "delta_p": r.delta_p,
        "witness": {
            "direction": [float(v) for v in r.witness.direction],
            "pair_ids": list(r.witness.pair_ids),
        },
        "under_delta": r.under_delta,
        "bar_delta": r.bar_delta,
        "m": r.m,
        "p": r.p,
        "n_secants": r.n_secants,
        "trials": r.trials,
        "seed": r.seed,
    }
    return json.dumps(payload)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.m},{r.delta_median:.17g},{r.delta_q1:.17g},{r.delta_q3:.17g},"
            f"{r.trials},{r.p},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def sweep_rows_to_json(rows: Sequence[SweepRow]) -> str:
    return json.dumps([
        {
            "m": r.m, "delta_median": r.delta_median, "delta_q1": r.delta_q1,
            "delta_q3": r.delta_q3, "trials": r.trials, "p": r.p, "seed": r.seed,
        }
        for r in rows
    ])
