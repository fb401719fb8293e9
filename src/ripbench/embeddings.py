"""Measurement-map construction: stage-one projections, random second stages,
rank-one projection families, and the entry distributions behind them.

A two-stage map first projects onto a low-dimensional subspace through a
stage-one block b(x) = (<b_i, x>)_i, then hits the coordinates with an m x d
random matrix scaled 1/m (absolute-sum geometry) or 1/sqrt(m) (squared-sum
geometry).  A rank-one family measures a matrix M through a_i^T M b_i / m;
rank-one row i is [a_i, b_i] of one block.

A stage one is nothing but its finite d x D block B; its rows may be
dependent and may outnumber D.  The coordinate space carries the
min-norm-preimage norm ||y||_b = inf{||z|| : B z = y}, the norm of the
least-squares solution of B z = y (inf off the range of B), and its dual
norm ||B^T a||.

Random matrices are keyed by row block: rows [b B, (b+1) B) with
B = _rng.BLOCK come from one draw on substream (seed, CH_ROW, b), filled in
row-major order.  Row i is therefore entry i % B of block i // B whatever m
is, so the m-row map is a row prefix of any larger map with the same seed
(a map can be extended in m without re-drawing earlier rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._rng import BLOCK, CH_ROW, substream

__all__ = [
    "DistSpec",
    "gaussian",
    "sparse_pm",
    "StageOneMap",
    "MeasurementMap",
    "sample_dist",
    "build_stage_one",
    "build_stage_one_from_span",
    "b_norm",
    "b_dual_norm",
    "apply_stage_one",
    "two_stage_map",
    "rank_one_map",
    "apply",
    "apply_columns",
    "storage_cost",
]


# ---------------------------------------------------------------------------
# entry distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistSpec:
    """Entry law: standard normal, or the three-point {0, +sqrt(q), -sqrt(q)}
    law with P(0) = (q-1)/q and P(+-sqrt(q)) = 1/(2q).  q = 1 degenerates to
    Rademacher signs.  Unit variance in both cases."""

    variant: str
    q: float = float("nan")

    def __post_init__(self) -> None:
        if self.variant not in ("gaussian", "sparse_pm"):
            raise ValueError(f"unknown distribution variant {self.variant!r}")
        if self.variant == "sparse_pm" and not self.q >= 1.0:
            raise ValueError(f"need q >= 1, got {self.q}")


def gaussian() -> DistSpec:
    return DistSpec("gaussian")


def sparse_pm(q: float) -> DistSpec:
    return DistSpec("sparse_pm", float(q))


def draw_dist(dist: DistSpec, shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. entries from `dist` using the supplied generator."""
    if dist.variant == "gaussian":
        return rng.standard_normal(shape)
    q = dist.q
    u = rng.random(shape)
    root_q = math.sqrt(q)
    p_zero = (q - 1.0) / q
    out = np.where(u < p_zero, 0.0, np.where(u < p_zero + 1.0 / (2.0 * q), root_q, -root_q))
    return out


def sample_dist(dist: DistSpec, shape, seed: int) -> np.ndarray:
    """Seeded i.i.d. draw; a single substream covers the whole requested shape."""
    return draw_dist(dist, shape, substream(seed))


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageOneMap:
    """Stage-one block b(x) = basis_block @ x."""

    basis_block: np.ndarray  # d x D, rows are the b_i coordinates

    @property
    def d(self) -> int:
        return self.basis_block.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis_block.shape[1]


def build_stage_one(basis_block, ambient_dim: Optional[int] = None) -> StageOneMap:
    """Stage-one map of a finite block: any number of rows, dependent or not."""
    B = np.atleast_2d(np.asarray(basis_block, dtype=float))
    if B.ndim != 2 or B.size == 0 or not np.all(np.isfinite(B)):
        raise ValueError(f"need a nonempty 2-D block of finite entries, got shape {B.shape}")
    if ambient_dim is not None and B.shape[1] != ambient_dim:
        raise ValueError(f"basis rows have length {B.shape[1]}, expected {ambient_dim}")
    return StageOneMap(basis_block=B)


def build_stage_one_from_span(vectors, tol: float = 1e-10) -> StageOneMap:
    """Orthonormal stage-one map for the span of the given vectors.

    Net centers or other spanning families may be linearly dependent; this
    extracts an orthonormal basis of their span by SVD, keeping singular
    directions above tol times the largest.
    """
    V = np.asarray([np.asarray(v, float) for v in vectors])
    if V.ndim != 2 or V.size == 0:
        raise ValueError("need a nonempty list of vectors")
    _, svals, vt = np.linalg.svd(V, full_matrices=False)
    keep = svals > tol * svals[0]
    if not np.any(keep):
        raise ValueError("span is numerically zero")
    return build_stage_one(vt[keep])


def apply_stage_one(stage_one: Optional[StageOneMap], X) -> np.ndarray:
    """b(x) of a vector or of each column of a batch; None is the identity."""
    X = np.asarray(X, dtype=float)
    return X if stage_one is None else stage_one.basis_block @ X


def b_norm(stage_one: StageOneMap, y) -> float:
    """Min-norm-preimage norm inf{||z|| : b(z) = y}: the norm of the
    least-norm solution of B z = y, math.inf when y is off the range of B.

    Equals the Euclidean norm of the orthogonal projection of any preimage
    onto the row space, so for orthonormal rows it is just ||y||_2.
    """
    B, y = stage_one.basis_block, np.asarray(y, dtype=float)
    z, _, _, svals = np.linalg.lstsq(B, y, rcond=None)
    size = float(np.linalg.norm(z))
    # y is on the range when the residual is within the rounding of y and of B z
    return size if np.linalg.norm(B @ z - y) <= 1e-9 * (np.linalg.norm(y) + svals[0] * size) else math.inf


def b_dual_norm(stage_one: StageOneMap, a) -> float:
    """Dual norm sup{|a^T y| : ||y||_b <= 1} = ||B^T a||."""
    return float(np.linalg.norm(stage_one.basis_block.T @ np.asarray(a, dtype=float)))


# ---------------------------------------------------------------------------
# measurement maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementMap:
    """Executable linear map: two-stage (matrix @ b(x), scaled by the p rule)
    or rank-one family (a_i^T M b_i / m, row i of matrix being [a_i, b_i]).
    The drawn m x w block is the whole random part; m is its row count."""

    variant: str                 # "two_stage" | "rank_one"
    matrix: np.ndarray = field(repr=False)
    p_scale: int = 2             # two_stage only: 1 -> divide by m, 2 -> divide by sqrt(m)
    stage_one: Optional[StageOneMap] = None
    n1: int = 0                  # rank_one row/column dims
    n2: int = 0

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def input_dim(self) -> int:
        if self.variant == "rank_one":
            return self.n1 * self.n2
        return self.stage_one.ambient_dim if self.stage_one is not None else self.matrix.shape[1]

    @property
    def scale(self) -> float:
        if self.variant == "rank_one" or self.p_scale == 1:
            return 1.0 / self.m
        return 1.0 / math.sqrt(self.m)


def _draw_rows(dist: DistSpec, m: int, width: int, seed: int) -> np.ndarray:
    """m x width entries, one substream per BLOCK rows (see module docstring)."""
    return np.concatenate([
        draw_dist(dist, (min(BLOCK, m - start), width), substream(seed, CH_ROW, start // BLOCK))
        for start in range(0, m, BLOCK)
    ])


def two_stage_map(
    stage_one: Optional[StageOneMap],
    dist: DistSpec,
    m: int,
    p: int,
    seed: int,
    ambient_dim: Optional[int] = None,
) -> MeasurementMap:
    """Random second stage over a stage-one block (None = identity, whose
    width ambient_dim is then required; with a block, a given ambient_dim
    must equal the block's width).

    p = 1 scales measurements by 1/m, p = 2 by 1/sqrt(m); with an identity
    stage one and Gaussian entries the p = 2 case is the classical A/sqrt(m)
    matrix.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    if stage_one is None and (ambient_dim is None or ambient_dim < 1):
        raise ValueError("ambient_dim required for an identity stage one")
    if stage_one is not None and ambient_dim not in (None, stage_one.ambient_dim):
        raise ValueError(f"ambient_dim {ambient_dim} disagrees with the stage one's width {stage_one.ambient_dim}")
    d = int(ambient_dim) if stage_one is None else stage_one.d
    return MeasurementMap("two_stage", _draw_rows(dist, m, d, seed), p_scale=int(p), stage_one=stage_one)


def rank_one_map(m: int, n1: int, n2: int, dist: DistSpec, seed: int) -> MeasurementMap:
    """Rank-one family: measurement i is a_i^T M b_i / m; a_i and b_i are the
    first n1 and last n2 entries of row i of the block-keyed draw."""
    if m < 1 or n1 < 1 or n2 < 1:
        raise ValueError("need m, n1, n2 >= 1")
    return MeasurementMap("rank_one", _draw_rows(dist, m, n1 + n2, seed), n1=int(n1), n2=int(n2))


def apply(L: MeasurementMap, x) -> np.ndarray:
    """Evaluate the map on one input: a vector, or for rank-one an n1 x n2
    matrix or its row-major flattening.  The one-column form of apply_columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 and (L.variant != "rank_one" or x.shape != (L.n1, L.n2)):
        want = f"a {L.n1} x {L.n2} matrix" if L.variant == "rank_one" else f"a vector of length {L.input_dim}"
        raise ValueError(f"expected {want}, got {x.shape}")
    return apply_columns(L, x.reshape(-1, 1))[:, 0]


def apply_columns(L: MeasurementMap, X: np.ndarray) -> np.ndarray:
    """Batch evaluation, the one evaluator of a drawn map: X has one input
    vector per column (for rank-one, one row-major flattened n1 x n2 matrix
    per column).

    A rank-one map is one matmul with its Khatri-Rao rows vec(a_i b_i^T),
    since a_i^T M b_i = <vec(a_i b_i^T), vec(M)>; a single column skips the
    m x n1 n2 rows and contracts a_i^T M b_i directly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != L.input_dim:
        raise ValueError(f"expected a 2-D batch of columns of length {L.input_dim}, got shape {X.shape}")
    if L.variant == "rank_one":
        if X.shape[1] == 1:
            a, b = L.matrix[:, :L.n1], L.matrix[:, L.n1:]
            return np.einsum("ij,jk,ik->i", a, X.reshape(L.n1, L.n2), b)[:, None] / L.m
        return (measurement_rows(L) @ X) / L.m
    return (L.matrix @ apply_stage_one(L.stage_one, X)) * L.scale


def measurement_rows(L: MeasurementMap) -> np.ndarray:
    """The m unscaled rows of a drawn map, acting on b(x) (two-stage: the
    random matrix) or on vec(M) (rank-one: the Khatri-Rao rows vec(a_i b_i^T))."""
    if L.variant == "rank_one":
        return (L.matrix[:, :L.n1, None] * L.matrix[:, None, L.n1:]).reshape(L.m, L.input_dim)
    return L.matrix


def storage_cost(L: MeasurementMap) -> int:
    """Stored real coefficients: m(n1+n2) for rank-one, m*d for two-stage."""
    return L.matrix.size
