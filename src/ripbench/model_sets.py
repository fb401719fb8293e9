"""Model sets, normalized secants, greedy nets, and box-dimension estimates.

Generators for the low-dimensional sets an embedding is asked to preserve:
k-sparse unit vectors, low-rank unit-Frobenius matrices, the correlated
two-point family x_i = r^i (e_i + b e_0), and explicit point clouds.  Model
points are rows of one (count, D) array.  Companion tools build normalized
secant samples (unit-normalized differences of model points, returned as a
`Secants` pair of arrays: directions as columns, generating pairs as rows),
farthest-point epsilon nets, least-squares box-dimension fits, and the
closed-form isometry constants of the correlated family.

All sampling is reproducible and prefix-stable.  Model points come in
blocks of _rng.BLOCK, block b from substream (seed, CH_POINT, b), so point
i is the same for every count > i; sampled pairs of explicit points draw
uniform point indices in the same blocks.  Outputs are independent of
evaluation order and can be extended without re-drawing earlier items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._rng import BLOCK, CH_POINT, substream

__all__ = [
    "Sparse",
    "LowRank",
    "CorrelatedSeq",
    "PointCloud",
    "ModelSpec",
    "Secants",
    "NetResult",
    "BoxDimFit",
    "AlphaResult",
    "ModelCollapseError",
    "sample_sparse_unit",
    "sample_lowrank_unit",
    "correlated_sequence",
    "sample_model",
    "normalized_secants",
    "greedy_net",
    "boxdim_fit",
    "secant_alpha_formula",
    "secant_alpha_bruteforce",
    "vk_min_separation",
    "vk_vectors",
    "vk_min_pairwise",
    "points_to_csv",
    "load_points_csv",
    "points_to_json",
    "points_from_json",
]


class ModelCollapseError(RuntimeError):
    """Secant sampling rejected almost every pair (the model is a near-point)."""


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sparse:
    """k-sparse unit vectors in R^n."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class LowRank:
    """Rank <= r matrices in R^{n1 x n2} with unit Frobenius norm."""

    n1: int
    n2: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.r <= min(self.n1, self.n2)):
            raise ValueError(f"need 1 <= r <= min(n1,n2), got r={self.r}")


@dataclass(frozen=True)
class CorrelatedSeq:
    """The family x_i = r^i (e_i + b e_0), i = 1..i_max, truncated to i_max."""

    r: float
    b: float
    i_max: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"need 0 < r < 1, got {self.r}")
        if not self.b > 0.0:
            raise ValueError(f"need b > 0, got {self.b}")
        if self.i_max < 2:
            raise ValueError(f"need i_max >= 2, got {self.i_max}")


@dataclass(frozen=True)
class PointCloud:
    """Explicit ambient vectors, held as the rows of one (N, D) array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)  # ragged rows raise ValueError here
        if len(pts) == 0:
            raise ValueError("empty point cloud")
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError("points must share one positive ambient dimension")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinates")
        object.__setattr__(self, "points", pts)


ModelSpec = Union[Sparse, LowRank, CorrelatedSeq, PointCloud]


@dataclass(frozen=True, eq=False)
class Secants:
    """Normalized secants: column i of `directions` (D, n) is the unit vector
    (x_a - x_b)/||x_a - x_b|| for the pair (a, b) in row i of `pair_ids` (n, 2)."""

    directions: np.ndarray
    pair_ids: np.ndarray

    def __len__(self) -> int:
        return self.pair_ids.shape[0]


@dataclass(frozen=True)
class NetResult:
    """Farthest-point greedy net: centers drawn from the input points."""

    centers: list
    center_ids: tuple
    radii: tuple  # covering radius of each prefix of center_ids: exactly non-increasing (minima only)


@dataclass(frozen=True)
class BoxDimFit:
    """OLS slope of log(net count) against log(1/eps)."""

    slope: float
    intercept: float
    eps_grid: tuple
    counts: tuple
    residual: float
    monotone: bool


@dataclass(frozen=True)
class AlphaResult:
    """Isometry constants of the correlated family over pair gaps t = j - i."""

    alpha_lb: float
    alpha_exact: float
    t_min: int


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _column_norms(X: np.ndarray) -> np.ndarray:
    """Column norms, bit-identical to np.linalg.norm of each column alone."""
    Xt = np.ascontiguousarray(X.T)
    return np.sqrt(np.vecdot(Xt, Xt))


def _point_blocks(count: int, seed: int, draw) -> np.ndarray:
    """Rows [0, count) of a model-point stream.  Block b holds BLOCK rows
    drawn from substream(seed, CH_POINT, b); draw(rng, rows) returns the first
    `rows` of them, consuming the stream as the full block would.  Blocks are
    copied into the output as they come, so no list of blocks is held."""
    if count < 1:
        raise ValueError("count >= 1 required")
    out = None
    for b in range(-(-count // BLOCK)):
        rows = draw(substream(seed, CH_POINT, b), min(BLOCK, count - b * BLOCK))
        if out is None:
            out = np.empty((count, *rows.shape[1:]), dtype=rows.dtype)
        out[b * BLOCK:b * BLOCK + len(rows)] = rows
    return out


def sample_sparse_unit(n: int, k: int, count: int, seed: int) -> np.ndarray:
    """Draw `count` k-sparse unit vectors as rows: uniform support (the k
    smallest of n uniforms), normal values, normalized."""
    Sparse(n, k)

    def block(rng, rows):
        u = rng.random((rows, n))
        rng.bit_generator.advance(int(BLOCK - rows) * n)  # skip the other rows: one 64-bit draw per double
        # sorted, so the support order does not depend on argpartition's internals
        support = np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)
        vals = rng.standard_normal((BLOCK, k))[:rows]
        out = np.zeros((rows, n))
        np.put_along_axis(out, support, vals / _column_norms(vals.T)[:, None], axis=1)
        return out

    return _point_blocks(count, seed, block)


def sample_lowrank_unit(n1: int, n2: int, r: int, count: int, seed: int) -> np.ndarray:
    """Unit-Frobenius rank <= r matrices G1 @ G2.T, flattened row-major into rows."""
    LowRank(n1, n2, r)

    def block(rng, rows):
        g1 = rng.standard_normal((BLOCK, n1, r))[:rows]
        g2 = rng.standard_normal((BLOCK, n2, r))[:rows]
        M = (g1 @ g2.transpose(0, 2, 1)).reshape(rows, n1 * n2)
        return M / _column_norms(M.T)[:, None]

    return _point_blocks(count, seed, block)


def correlated_sequence(r: float, b: float, i_max: int) -> np.ndarray:
    """Rows x_i = r^i (e_i + b e_0) for i = 1..i_max, in ambient dimension i_max + 1.

    Entry 0 holds b r^i and entry i holds r^i, so ||x_i|| = r^i sqrt(1 + b^2)
    and norms decay geometrically with ratio r.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("need 0 < r < 1")
    if not b > 0.0:
        raise ValueError("need b > 0")
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    ri = np.array([r**i for i in range(1, i_max + 1)])
    out = np.zeros((i_max, i_max + 1))
    out[:, 0] = b * ri
    out[np.arange(i_max), np.arange(1, i_max + 1)] = ri
    return out


def sample_model(spec: ModelSpec, count: int, seed: int) -> np.ndarray:
    """Dispatch a model specification to its sampler; points are the rows.

    PointCloud and CorrelatedSeq are deterministic enumerations; `count` and
    `seed` are ignored for them.
    """
    if isinstance(spec, Sparse):
        return sample_sparse_unit(spec.n, spec.k, count, seed)
    if isinstance(spec, LowRank):
        return sample_lowrank_unit(spec.n1, spec.n2, spec.r, count, seed)
    if isinstance(spec, CorrelatedSeq):
        return correlated_sequence(spec.r, spec.b, spec.i_max)
    if isinstance(spec, PointCloud):
        return spec.points
    raise TypeError(f"unknown model spec {spec!r}")


# ---------------------------------------------------------------------------
# normalized secants
# ---------------------------------------------------------------------------

_COLLAPSE = "rejection rate above 99%: model collapses to a point"


def _gaps(pool: np.ndarray, min_gap: float):
    """Differences x1 - x2 of the consecutive rows (x1, x2) = (pool[2i],
    pool[2i+1]), their norms, and which pass the gap filter ||x1 - x2|| >
    min_gap * max(||x1||, ||x2||, 1); a pair of equal points never passes."""
    norms = _column_norms(pool.T)  # rows of a C-ordered pool: no copy
    diff = pool[0::2] - pool[1::2]
    gap = _column_norms(diff.T)
    return diff, gap, gap > min_gap * np.maximum(np.maximum(norms[0::2], norms[1::2]), 1.0)


def _secants(diff: np.ndarray, gap: np.ndarray, keep: np.ndarray, pair_ids: np.ndarray) -> Secants:
    """The kept rows of diff, divided by their norms, as the columns of a C-ordered array."""
    directions = np.compress(keep, diff.T, axis=1)
    directions /= np.compress(keep, gap)
    return Secants(directions, pair_ids)


def normalized_secants(
    points: Union[Sequence[np.ndarray], np.ndarray, ModelSpec],
    count: int | None = None,
    min_gap: float = 1e-9,
    seed: int = 0,
) -> Secants:
    """Unit-normalized differences of model-point pairs.

    With explicit points (a sequence of vectors, the rows of an array, or a
    CorrelatedSeq or PointCloud, which enumerate theirs) and count=None, every
    ordered pair (i, j), i != j, passing the gap filter is returned in
    row-major order of (i, j).  With a count, pairs come from a stream of
    items keyed by block as _point_blocks draws it: fresh model points for a
    Sparse or LowRank spec, uniform point indices for explicit points.
    Consecutive items 2i and 2i+1 form candidate pair i; rejected pairs are
    skipped and the stream extended.  pair_ids index the explicit points, or
    for a spec that draw stream, so the generating points are recoverable
    from (spec, seed).  A given count must be at least 1; a spec with
    count=None yields one secant.

    Raises ModelCollapseError when more than 99 percent of attempted pairs
    fall below the relative gap threshold.
    """
    if not min_gap > 0.0:
        raise ValueError("min_gap > 0 required")
    if count is not None and count < 1:
        raise ValueError(f"need count >= 1, got {count}")

    if isinstance(points, (Sparse, LowRank)):
        return _secants_from_stream(lambda c: (np.arange(c), sample_model(points, c, seed)),
                                    1 if count is None else count, min_gap)
    if isinstance(points, (CorrelatedSeq, PointCloud)):
        points = sample_model(points, 0, seed)  # deterministic finite families
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least 2 points of one dimension")

    if count is None:
        ids = np.argwhere(~np.eye(len(pts), dtype=bool))  # row-major: all j for each i
        diff, gap, keep = _gaps(pts[ids.ravel()], min_gap)
        if not keep.any():
            raise ModelCollapseError("no pair passed the gap filter")
        return _secants(diff, gap, keep, ids[keep])

    def draw(c):
        ids = _point_blocks(c, seed, lambda rng, rows: rng.integers(len(pts), size=rows))
        return ids, pts[ids]

    return _secants_from_stream(draw, count, min_gap)


def _secants_from_stream(draw, count: int, min_gap: float) -> Secants:
    # draw(c) gives the first c stream items as (ids, points), prefix-stable in
    # c; consecutive items (2i, 2i+1) form candidate pair i, and rejected pairs
    # are skipped and the stream extended, keeping item draws order-independent.
    # Each round redraws from item 0, so top-ups double, up to cap + 1 pairs.
    cap = 100 * count + 1000
    pairs, step = count, 0
    while True:
        ids, pool = draw(2 * pairs)
        diff, gap, keep = _gaps(pool, min_gap)
        del pool  # hold only the differences from here: the next pool is larger
        kept = np.cumsum(keep)
        # the stream is used up to and including the count-th kept pair
        tried = min(int(np.searchsorted(kept, count)) + 1, len(keep))
        # collapse once over cap pairs were tried, or once 1000 or more were
        # and under 1 percent passed, tested at each rejected pair in stream order
        t = np.arange(1, tried + 1)
        if tried > cap or np.any(~keep[:tried] & (t >= 1000) & (kept[:tried] / t < 0.01)):
            raise ModelCollapseError(_COLLAPSE)
        if kept[-1] >= count:
            break
        step = max(count - int(kept[-1]), 2 * step)
        pairs = min(pairs + step, cap + 1)
    keep[tried:] = False
    a = 2 * np.flatnonzero(keep)
    return _secants(diff, gap, keep, np.stack([ids[a], ids[a + 1]], axis=1))


# ---------------------------------------------------------------------------
# nets and box dimension
# ---------------------------------------------------------------------------

def greedy_net(points: Union[Sequence[np.ndarray], np.ndarray], eps: float) -> NetResult:
    """Farthest-point greedy epsilon net with centers among the input points (rows).

    Starts at index 0 and repeatedly adds the point farthest from the current
    centers (lowest index on ties) until every point sits within eps of some
    center.  Guarantees: coverage within eps (closed balls), centers pairwise
    strictly more than eps apart.  The order does not depend on eps, so the
    net at any eps' >= eps is the prefix up to the first radius <= eps'.
    """
    if not eps > 0.0:
        raise ValueError("eps > 0 required")
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("points nonempty required")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinates")
    center_ids, radii = [0], []
    sq = np.einsum("ij,ij->i", pts, pts)
    low = np.where(sq < 2.0**1020, (1.0 - 1e-9) * sq - 1e-9, np.nan)  # |p|^2 less its margin; NaN: it could overflow
    est, bound = np.empty_like(sq), np.empty_like(sq)  # reused every step, so the loop allocates only the rows it recomputes
    mindist = np.linalg.norm(pts - pts[0], axis=1)
    while True:
        far = int(np.argmax(mindist))  # argmax takes the first maximum: lowest index wins
        radii.append(float(mindist[far]))
        if mindist[far] <= eps:
            break
        center_ids.append(far)
        # a row keeps mindist if |p|^2 + |c|^2 - 2 p.c - 1e-9 (T + 2) >= mindist^2, T = |p|^2 + |c|^2 (+ 2: underflow):
        # that Gram form and the exact sum of squares err by <= (2D+3)uT and 2(D+2)uT (u = 2^-53), fine for D <= 2e6
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives NaN or an inf bound: recomputed
            np.add(np.matmul(pts, -2.0 * pts[far], out=est), low, out=est)
            rows = np.flatnonzero(~(est >= np.subtract(np.multiply(mindist, mindist, out=bound), low[far], out=bound)))
        mindist[rows] = np.minimum(mindist[rows], np.linalg.norm(pts[rows] - pts[far], axis=1))
    return NetResult([pts[i].copy() for i in center_ids], tuple(center_ids), tuple(radii))


def boxdim_fit(points: Sequence[np.ndarray], eps_grid: Sequence[float]) -> BoxDimFit:
    """Least-squares slope of log(greedy net count) against log(1/eps).

    The limsup in the box-counting dimension is out of numerical reach, so the
    result is an estimate; the RMS residual of the fit and a monotonicity flag
    (counts should not decrease as eps shrinks) are reported alongside it.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) < 3:
        raise ValueError("need at least 3 eps values")
    if any(not (0.0 < e < 1.0) for e in grid):
        raise ValueError("eps values must lie in (0, 1)")
    if any(grid[i] <= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("eps_grid must be strictly decreasing")
    radii = np.array(greedy_net(points, grid[-1]).radii)  # its prefixes are the nets at larger eps
    counts = [1 + int(np.count_nonzero(radii > e)) for e in grid]
    monotone = all(counts[i] <= counts[i + 1] for i in range(len(counts) - 1))
    x = np.log(1.0 / np.asarray(grid))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxDimFit(float(slope), float(intercept), tuple(grid), tuple(counts), resid, monotone)


# ---------------------------------------------------------------------------
# correlated-family closed forms
# ---------------------------------------------------------------------------

def _gap_ratio_sq(r: float, b: float, t: int) -> float:
    # squared e0-alignment of the secant of a pair at gap t = j - i
    u = 1.0 - r**t
    return b * b * u * u / (1.0 + r ** (2 * t) + b * b * u * u)


def secant_alpha_formula(r: float, b: float, t_max: int = 60) -> AlphaResult:
    """Closed-form isometry constants of the correlated family.

    alpha_lb is the strict lower bound sqrt(b^2 (1-r)^2 / (1 + r^2 + b^2));
    alpha_exact is sqrt(min over gaps t >= 1 of
    b^2 (1-r^t)^2 / (1 + r^{2t} + b^2 (1-r^t)^2)), scanned over t <= t_max.
    """
    if not (0.0 < r < 1.0 and b > 0.0 and t_max >= 1):
        raise ValueError(f"need 0 < r < 1, b > 0 and t_max >= 1, got {r}, {b}, {t_max}")
    lb = math.sqrt(b * b * (1.0 - r) ** 2 / (1.0 + r * r + b * b))
    vals = [(_gap_ratio_sq(r, b, t), t) for t in range(1, t_max + 1)]
    best, t_min = min(vals)
    return AlphaResult(alpha_lb=lb, alpha_exact=math.sqrt(best), t_min=t_min)


def secant_alpha_bruteforce(r: float, b: float, i_max: int):
    """Exhaustive minimum of |<x_i - x_j, e0>| / ||x_i - x_j|| over 1 <= i < j <= i_max.

    Returns (minimum, (i, j) witness).  Scans the actual truncated vectors, so
    it doubles as an oracle for secant_alpha_formula.
    """
    if i_max < 2:
        raise ValueError("need i_max >= 2")
    xs = correlated_sequence(r, b, i_max)
    best = math.inf
    witness = (0, 0)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            diff = xs[i] - xs[j]
            ratio = abs(diff[0]) / np.linalg.norm(diff)
            if ratio < best:
                best = float(ratio)
                witness = (i + 1, j + 1)  # vectors are x_1..x_{i_max}
    return best, witness


def vk_min_separation(r: float, b: float) -> float:
    """Pairwise-distance floor 1/sqrt(1 + r^2 + b^2 (1-r)^2) for the v_k family."""
    if not (0.0 < r < 1.0 and b > 0.0):
        raise ValueError("need 0 < r < 1 and b > 0")
    return 1.0 / math.sqrt(1.0 + r * r + b * b * (1.0 - r) ** 2)


def vk_vectors(r: float, b: float, k_max: int) -> list:
    """v_k = (e_{2k} - r e_{2k+1} + b(1-r) e_0) / sqrt(1 + r^2 + b^2 (1-r)^2), k = 1..k_max."""
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    nrm = math.sqrt(1.0 + r * r + b * b * (1.0 - r) ** 2)
    dim = 2 * k_max + 2
    out = []
    for k in range(1, k_max + 1):
        v = np.zeros(dim)
        v[0] = b * (1.0 - r)
        v[2 * k] = 1.0
        v[2 * k + 1] = -r
        out.append(v / nrm)
    return out


def vk_min_pairwise(r: float, b: float, k_max: int) -> float:
    """Observed minimum pairwise distance of the v_k family, for checking the floor."""
    if k_max < 2:
        raise ValueError(f"need k_max >= 2 for a pair of v_k, got {k_max}")
    vs = vk_vectors(r, b, k_max)
    best = math.inf
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            best = min(best, float(np.linalg.norm(vs[i] - vs[j])))
    return best


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------

def points_to_csv(points: Sequence[np.ndarray]) -> str:
    """The text load_points_csv reads: a '# dim=<n>' line, then one row per point."""
    rows = [",".join(f"{v:.17g}" for v in np.asarray(p, float)) for p in points]
    return "\n".join([f"# dim={np.asarray(points[0]).size}", *rows]) + "\n"


def load_points_csv(path) -> list:
    """Rows of a point file; blank lines and later '#' lines (such as the
    config comment a CSV report ends with) are skipped."""
    points = []
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# dim="):
            raise ValueError("missing '# dim=<n>' header line")
        dim = int(first.split("=", 1)[1])
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = np.asarray([float(v) for v in line.split(",")], dtype=float)
            if row.size != dim:
                raise ValueError("row width disagrees with the dim header")
            points.append(row)
    return points


def points_to_json(points: Sequence[np.ndarray]) -> str:
    return json.dumps([list(map(float, p)) for p in points])


def points_from_json(text: str) -> list:
    return [np.asarray(row, dtype=float) for row in json.loads(text)]
