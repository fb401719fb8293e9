import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ripbench.cli as cli
from ripbench import model_sets as ms
from ripbench._rng import BLOCK, CH_SECANT, child_seed


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sparse_full_support_unit():
    (x,) = ms.sample_sparse_unit(4, 4, 1, seed=11)
    assert np.count_nonzero(x) == 4
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_sparse_one_sparse_is_signed_basis():
    # 1-sparse normalization forces +-e_i exactly
    for x in ms.sample_sparse_unit(2, 1, 100, seed=3):
        nz = np.flatnonzero(x)
        assert nz.size == 1
        assert x[nz[0]] in (1.0, -1.0)


def test_sparse_support_pairs_uniform():
    pts = ms.sample_sparse_unit(8, 2, 1000, seed=5)
    counts = {}
    for x in pts:
        key = tuple(np.flatnonzero(x))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 28
    expected = 1000 / 28.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi2_27 99.9th percentile is 55.5; frozen seed keeps this stable
    assert chi2 < 55.5


def test_sparse_per_item_substreams_order_independent():
    a = ms.sample_sparse_unit(16, 3, 10, seed=9)
    b = ms.sample_sparse_unit(16, 3, 20, seed=9)
    assert a.shape == (10, 16) and b.shape == (20, 16)
    for x, y in zip(a, b[:10]):
        np.testing.assert_array_equal(x, y)


def test_lowrank_unit_frobenius_and_rank():
    (x,) = ms.sample_lowrank_unit(2, 2, 2, 1, seed=1)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    (y,) = ms.sample_lowrank_unit(3, 3, 1, 1, seed=1)
    sv = np.linalg.svd(y.reshape(3, 3), compute_uv=False)
    assert abs(sv[0] - 1.0) < 1e-10 and sv[1] < 1e-10 and sv[2] < 1e-10


def test_lowrank_rank_bound_batch():
    for x in ms.sample_lowrank_unit(4, 4, 2, 500, seed=2):
        sv = np.linalg.svd(x.reshape(4, 4), compute_uv=False)
        assert sv[2] <= 1e-10


@pytest.mark.parametrize("sample", [
    lambda count: ms.sample_sparse_unit(12, 3, count, seed=4),
    lambda count: ms.sample_lowrank_unit(3, 4, 2, count, seed=4),
], ids=["sparse", "lowrank"])
def test_model_points_prefix_stable_across_blocks(sample):
    # points come 256 to a substream; counts around the block edge are prefixes
    full = sample(600)
    for count in (255, 256, 257):
        assert sample(count).tobytes() == full[:count].tobytes()


def _full_block_points(count, seed, block):
    """Rows [0, count) of the documented point layout, every block of BLOCK
    rows drawn and formed in full before the cut."""
    from ripbench._rng import CH_POINT, substream

    return np.concatenate([block(substream(seed, CH_POINT, b)) for b in range(-(-count // BLOCK))])[:count]


@pytest.mark.parametrize("count", [1, 2, 255, 256, 257, 600])
def test_samplers_form_only_returned_rows_as_full_blocks_would(count):
    n, k, n1, n2, r = 40, 3, 4, 5, 2

    def sparse(rng):
        support = np.sort(np.argpartition(rng.random((BLOCK, n)), k - 1, axis=1)[:, :k], axis=1)
        vals = rng.standard_normal((BLOCK, k))
        out = np.zeros((BLOCK, n))
        np.put_along_axis(out, support, vals / ms._column_norms(vals.T)[:, None], axis=1)
        return out

    def lowrank(rng):
        M = (rng.standard_normal((BLOCK, n1, r)) @ rng.standard_normal((BLOCK, n2, r)).transpose(0, 2, 1))
        M = M.reshape(BLOCK, n1 * n2)
        return M / ms._column_norms(M.T)[:, None]

    for seed in (1, 9):
        assert ms.sample_sparse_unit(n, k, count, seed).tobytes() == _full_block_points(count, seed, sparse).tobytes()
        assert (ms.sample_lowrank_unit(n1, n2, r, count, seed).tobytes()
                == _full_block_points(count, seed, lowrank).tobytes())


def test_sparse_rows_have_k_nonzeros_and_unit_norm():
    pts = ms.sample_sparse_unit(10, 3, 600, seed=6)
    assert np.all(np.count_nonzero(pts, axis=1) == 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_lowrank_rows_have_rank_r_and_unit_frobenius():
    pts = ms.sample_lowrank_unit(4, 5, 2, 600, seed=6)
    sv = np.linalg.svd(pts.reshape(-1, 4, 5), compute_uv=False)
    assert np.all(sv[:, 2:] <= 1e-10 * sv[:, :1])
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_lowrank_rejects_bad_rank():
    with pytest.raises(ValueError):
        ms.sample_lowrank_unit(3, 4, 5, 1, seed=0)


def test_correlated_sequence_values():
    (x1,) = ms.correlated_sequence(0.5, 1.0, 1)
    np.testing.assert_allclose(x1, [0.5, 0.5])
    assert abs(np.linalg.norm(x1) - 0.5 * math.sqrt(2)) < 1e-12


def test_correlated_inner_products_and_decay():
    xs = ms.correlated_sequence(0.9, 2.0, 20)
    r, b = 0.9, 2.0
    for i in range(1, 21):
        for j in range(i + 1, 21):
            ip = float(xs[i - 1] @ xs[j - 1])
            assert abs(ip - b * b * r ** (i + j)) < 1e-12
    for i in range(len(xs) - 1):
        ratio = np.linalg.norm(xs[i]) / np.linalg.norm(xs[i + 1])
        assert abs(ratio - 1.0 / r) < 1e-12


# ---------------------------------------------------------------------------
# secants
# ---------------------------------------------------------------------------

def test_secants_single_pair():
    e1 = np.array([1.0, 0.0])
    secs = ms.normalized_secants([e1, -e1])
    dirs = {tuple(np.round(d, 12)) for d in secs.directions.T}
    assert dirs == {(1.0, 0.0), (-1.0, 0.0)}


def test_secants_two_points():
    pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for d in ms.normalized_secants(pts).directions.T:
        assert np.allclose(np.abs(d), [math.sqrt(0.5)] * 2)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_secants_match_bruteforce_enumeration():
    pts = [np.array(v, dtype=float) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    secs = ms.normalized_secants(pts)
    got = {tuple(np.round(d, 10)) for d in secs.directions.T}
    want = set()
    for a, b in itertools.permutations(range(4), 2):
        d = pts[a] - pts[b]
        want.add(tuple(np.round(d / np.linalg.norm(d), 10)))
    assert got == want
    assert len(secs) == 12


def _assert_exact_secants(secs, pts):
    # each column is exactly the normalized difference of its recorded pair
    assert secs.directions.shape == (pts.shape[1], len(secs))
    assert secs.pair_ids.shape == (len(secs), 2)
    for d, (a, b) in zip(secs.directions.T, secs.pair_ids):
        diff = pts[a] - pts[b]
        np.testing.assert_array_equal(d, diff / np.linalg.norm(diff))


def test_secants_pair_ids_recheck():
    pts = ms.sample_sparse_unit(6, 2, 30, seed=4)
    secs = ms.normalized_secants(pts, count=40, seed=8)
    assert len(secs) == 40
    _assert_exact_secants(secs, pts)


def test_secants_stream_topped_up_after_rejections():
    # Sparse(2, 1) draws +-e1, +-e2, so a quarter of consecutive pairs repeat a
    # point and are rejected; the stream is extended until 300 pairs pass
    secs = ms.normalized_secants(ms.Sparse(2, 1), count=300, seed=5)
    a, b = secs.pair_ids.T
    assert len(secs) == 300
    assert np.all(a % 2 == 0) and np.all(b == a + 1) and np.all(np.diff(a) > 0)
    assert a[-1] > 2 * 299  # some pairs were rejected and replaced
    _assert_exact_secants(secs, ms.sample_sparse_unit(2, 1, b[-1] + 1, seed=5))
    small = ms.normalized_secants(ms.Sparse(2, 1), count=100, seed=5)
    np.testing.assert_array_equal(small.directions, secs.directions[:, :100])
    np.testing.assert_array_equal(small.pair_ids, secs.pair_ids[:100])


def test_secants_from_model_spec_unit_norm():
    secs = ms.normalized_secants(ms.Sparse(16, 2), count=50, seed=7)
    assert len(secs) == 50
    for d in secs.directions.T:
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_secants_zero_count_rejected():
    pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for source in (ms.Sparse(16, 2), pts):
        with pytest.raises(ValueError, match="count"):
            ms.normalized_secants(source, count=0, seed=7)


def test_secants_collapse_detected():
    pts = [np.array([1.0, 0.0])] * 5
    with pytest.raises(ms.ModelCollapseError):
        ms.normalized_secants(pts, count=3, seed=0)


def _topped_up_secants(draw, count, min_gap):
    """The stream sampler as a plain loop that tops the pool up by the missing
    count each round: the oracle for which pairs are tried, what is kept and
    when a set collapses."""
    n_kept = attempts = 0
    while n_kept < count:
        ids, pool = draw(2 * (attempts + count - n_kept))
        diff, gap, keep = ms._gaps(pool, min_gap)
        tried = np.arange(1, len(keep) + 1)
        if np.any(~keep & (tried >= 1000) & (np.cumsum(keep) / tried < 0.01)):
            raise ms.ModelCollapseError(ms._COLLAPSE)
        n_kept, attempts = int(keep.sum()), len(keep)
        if attempts > 100 * count + 1000:
            raise ms.ModelCollapseError(ms._COLLAPSE)
    a = 2 * np.flatnonzero(keep)
    return ms._secants(diff, gap, keep, np.stack([ids[a], ids[a + 1]], axis=1))


def _one_apart(n_points, at):
    pts = np.ones((n_points, 3))
    pts[at] = [1.0, -2.0, 0.5]
    return pts


LOW_PASS_RATE = [  # (source, count, min_gap): pass rates from 18% to 0; some seeds collapse
    (_one_apart(10, 3), 50, 1e-9),
    (_one_apart(100, 50), 20, 1e-9),
    (_one_apart(120, 7), 25, 1e-9),
    (_one_apart(150, 7), 30, 1e-9),
    (ms.Sparse(16, 1), 20, 1.99),  # only x2 = -x1 passes: 1 pair in 32
    (ms.Sparse(64, 1), 50, 1.99),  # 1 pair in 128
    (np.ones((5, 2)), 1000, 1e-9),
]


@pytest.mark.parametrize("source, count, min_gap", LOW_PASS_RATE)
def test_secants_match_the_topped_up_loop_on_low_pass_rates(monkeypatch, source, count, min_gap):
    def sample(seed):
        try:
            return ms.normalized_secants(source, count=count, min_gap=min_gap, seed=seed)
        except ms.ModelCollapseError as exc:
            return str(exc)

    for seed in (1, 7, 123):
        got = sample(seed)
        with monkeypatch.context() as mp:
            mp.setattr(ms, "_secants_from_stream", _topped_up_secants)
            want = sample(seed)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.directions.tobytes() == want.directions.tobytes()
            assert got.pair_ids.tobytes() == want.pair_ids.tobytes()


def test_secants_collapse_in_few_rounds(monkeypatch):
    # five equal points never pass: the pool doubles to the 1000-pair
    # collapse test instead of growing by one pair a round
    calls, blocks = [], ms._point_blocks
    monkeypatch.setattr(ms, "_point_blocks", lambda c, *rest: calls.append(c) or blocks(c, *rest))
    with pytest.raises(ms.ModelCollapseError):
        ms.normalized_secants([np.array([1.0, 0.0])] * 5, count=1, seed=0)
    assert len(calls) <= 12 and calls[-1] >= 2000


def _index_stream(n_points, count, seed):
    """Items [0, count) of a finite set's stream: uniform indices, drawn here
    BLOCK at a time from substream (seed, CH_POINT, b)."""
    from ripbench._rng import CH_POINT, substream

    blocks = -(-count // BLOCK)
    return np.concatenate([substream(seed, CH_POINT, b).integers(n_points, size=BLOCK) for b in range(blocks)])[:count]


def test_point_cloud_secants_take_one_substream_per_block(monkeypatch):
    calls, ms_substream = [], ms.substream

    def counting(*key):
        calls.append(key)
        return ms_substream(*key)

    monkeypatch.setattr(ms, "substream", counting)
    pts = np.random.default_rng(1).standard_normal((600, 4))
    secs = ms.normalized_secants(ms.PointCloud(pts), count=300, seed=2)
    # no pair repeats a point at this seed, so pair i is items 2i and 2i+1
    np.testing.assert_array_equal(secs.pair_ids.ravel(), _index_stream(600, 600, 2))
    assert len(calls) == -(-600 // BLOCK)  # nothing per secant
    _assert_exact_secants(secs, pts)


def test_point_cloud_secants_prefix_stable_across_blocks():
    pts = ms.PointCloud(np.random.default_rng(3).standard_normal((600, 4)))
    full = ms.normalized_secants(pts, count=300, seed=6)
    for count in (127, 128, 129):  # 2 * 128 items fill the first block
        part = ms.normalized_secants(pts, count=count, seed=6)
        assert part.directions.tobytes() == full.directions[:, :count].tobytes()
        assert part.pair_ids.tobytes() == full.pair_ids[:count].tobytes()


def test_correlated_secants_are_exact():
    spec = ms.CorrelatedSeq(0.5, 1.0, 20)
    secs = ms.normalized_secants(spec, count=50, seed=3)
    assert len(secs) == 50
    _assert_exact_secants(secs, ms.correlated_sequence(0.5, 1.0, 20))


# ---------------------------------------------------------------------------
# nets
# ---------------------------------------------------------------------------

CROSS = [np.array(v, dtype=float) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]


def test_net_single_center_at_diameter():
    net = ms.greedy_net(CROSS, 2.0)
    assert len(net.centers) == 1
    assert net.radii[-1] <= 2.0
    assert [f.name for f in dataclasses.fields(net)] == ["centers", "center_ids", "radii"]


def test_net_all_centers_when_separated():
    net = ms.greedy_net(CROSS, 0.5)
    assert len(net.centers) == 4


def _circle(count):
    th = 2 * np.pi * np.arange(count) / count
    return [np.array([math.cos(t), math.sin(t)]) for t in th]


def test_net_circle_count_vs_arc_cover():
    net = ms.greedy_net(_circle(360), 0.1)
    lo, hi = math.ceil(math.pi / 0.1) * 0.5, math.ceil(math.pi / 0.1) * 2
    assert lo <= len(net.centers) <= hi


def test_net_coverage_and_separation_exact():
    pts = ms.sample_sparse_unit(8, 2, 150, seed=13)
    eps = 0.7
    net = ms.greedy_net(pts, eps)
    C = np.array(net.centers)
    for x in pts:
        assert np.min(np.linalg.norm(C - x, axis=1)) <= eps
    for i in range(len(C)):
        for j in range(i + 1, len(C)):
            assert np.linalg.norm(C[i] - C[j]) > eps


def _minimal_cover_size(pts, eps):
    # exhaustive minimal net with centers in the set; fine for <= 12 points
    n = len(pts)
    D = np.array([[np.linalg.norm(a - b) for b in pts] for a in pts])
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(D[list(centers)].min(axis=0) <= eps):
                return size
    return n


def test_net_close_to_minimal_on_small_sets():
    pts = _circle(10)
    for eps in (0.4, 0.7, 1.2):
        greedy = len(ms.greedy_net(pts, eps).centers)
        assert _minimal_cover_size(pts, eps) <= greedy <= _minimal_cover_size(pts, eps / 2)


def test_net_deterministic_tie_break():
    a = ms.greedy_net(CROSS, 0.5)
    b = ms.greedy_net(CROSS, 0.5)
    assert a.center_ids == b.center_ids


def test_net_and_boxdim_reject_nan_promptly():
    # a NaN coordinate must raise, not leave the farthest-point loop adding
    # centers forever: run it in a child process that a hang fails by timeout
    code = ("import numpy as np\nfrom ripbench import model_sets as ms\n"
            "pts = np.array([[0., 0.], [np.nan, 0.], [1., 0.]])\n"
            "for call in (lambda: ms.greedy_net(pts, 0.5), lambda: ms.boxdim_fit(pts, [0.5, 0.3, 0.1])):\n"
            "    try:\n        call()\n    except ValueError as e:\n        print(e)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ms.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert out.stdout.splitlines() == ["non-finite coordinates"] * 2, out.stderr


def _net_ids_oracle(pts, eps):
    """The farthest-point net run afresh for one eps, as boxdim_fit did per
    grid value before it read every count off one traversal."""
    pts = np.ascontiguousarray(pts, dtype=float)  # row sums in another order can move argmax ties
    ids = [0]
    mindist = np.linalg.norm(pts - pts[0], axis=1)
    while mindist.max() > eps:
        ids.append(int(np.argmax(mindist)))
        mindist = np.minimum(mindist, np.linalg.norm(pts - pts[ids[-1]], axis=1))
    return ids


def _tie_heavy_sets():
    lattice = 0.25 * np.array(list(itertools.product(range(5), repeat=2)), dtype=float)
    return {
        "lattice": lattice,  # pairwise distances repeat, and equal grid values exactly
        "duplicates": np.repeat(lattice[::3], 3, axis=0),
        "sparse-secants": ms.normalized_secants(ms.Sparse(12, 2), count=400, seed=5).directions.T,
        "sparse-points": ms.sample_sparse_unit(12, 3, 400, seed=8),
    }


@pytest.mark.parametrize("name", ["lattice", "duplicates", "sparse-secants", "sparse-points"])
def test_boxdim_counts_match_per_eps_nets(name):
    pts = _tie_heavy_sets()[name]
    grid = [0.9, 0.75, 0.5, 0.35, 0.25, 0.2]
    fit = ms.boxdim_fit(pts, grid)
    assert fit.counts == tuple(len(_net_ids_oracle(pts, e)) for e in grid)
    for e in grid:
        assert ms.greedy_net(pts, e).center_ids == tuple(_net_ids_oracle(pts, e))


@pytest.mark.parametrize("name", ["lattice", "duplicates", "sparse-secants"])
def test_net_at_larger_eps_is_a_prefix(name):
    pts = _tie_heavy_sets()[name]
    fine = ms.greedy_net(pts, 0.2)
    for e in (0.9, 0.5, 0.25):
        ids = ms.greedy_net(pts, e).center_ids
        k = len(ids)
        assert ids == fine.center_ids[:k]
        assert fine.radii[k - 1] <= e and (k == 1 or fine.radii[k - 2] > e)
    assert all(a >= b for a, b in zip(fine.radii, fine.radii[1:]))


def _net_oracle(pts, eps):
    """The `_net_ids_oracle` loop, also returning the radii: every step
    recomputes all N exact distances to the new center."""
    pts = np.ascontiguousarray(pts, dtype=float)
    ids, radii = [0], []
    mindist = np.linalg.norm(pts - pts[0], axis=1)
    while True:
        far = int(np.argmax(mindist))
        radii.append(float(mindist[far]))
        if mindist[far] <= eps:
            return tuple(ids), tuple(radii)
        ids.append(far)
        mindist = np.minimum(mindist, np.linalg.norm(pts - pts[far], axis=1))


def _screen_sets():
    """Tie-heavy, extreme-scale and high-dimensional point sets, two eps each."""
    sets = {name: (pts, (0.3, 0.2)) for name, pts in _tie_heavy_sets().items()}
    cube = np.zeros((64, 8))
    cube[:, :3] = np.array(list(itertools.product(range(4), repeat=3))) / 3
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
    sets["rotated-grid"] = (cube @ q.T, (0.5, 0.3))  # ties in exact arithmetic that rounding splits
    base = sets["sparse-secants"][0]
    for sc in (1e-160, 1e-100, 1e100, 1e153, 1.2e154, 1e155, 1e200):  # 1.2e154: |p|^2 + |c|^2 overflows
        sets[f"x{sc:g}"] = (base * sc, (0.5 * sc, 0.25 * sc))
    mixed = base.copy()
    mixed[::2] *= 1e200
    mixed[1::2] *= 1e-200
    sets["mixed"] = (mixed, (1e199, 1e-201))  # distances overflow and underflow within one set
    sets["gauss512"] = (np.random.default_rng(0).standard_normal((200, 512)), (32.0, 20.0))
    return sets


@pytest.mark.parametrize("name", list(_screen_sets()))
def test_net_equals_direct_loop_bit_for_bit(name):
    # the screened update recomputes only rows whose distance may drop, so ids and radii keep every last bit
    pts, grid = _screen_sets()[name]
    with np.errstate(over="ignore"):  # at 1e155 and up the exact distances overflow, in both loops
        for e in grid:
            net = ms.greedy_net(pts, e)
            assert (net.center_ids, net.radii) == _net_oracle(pts, e)


def test_net_recomputes_few_exact_distances(monkeypatch):
    pts = ms.normalized_secants(ms.Sparse(32, 2), count=2000, seed=child_seed(1, CH_SECANT)).directions.T
    want = _net_oracle(pts, 0.5)  # the geometry workload's net
    rows, norm = [0], np.linalg.norm

    def counting_norm(x, *a, **kw):
        rows[0] += x.shape[0] if x.ndim == 2 else 1
        return norm(x, *a, **kw)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    net = ms.greedy_net(pts, 0.5)
    assert (net.center_ids, net.radii) == want
    assert rows[0] < 0.05 * len(pts) * len(net.center_ids)  # the direct loop evaluates all N per center


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------

def test_boxdim_finite_set_slope_zero():
    pts = [np.array(v, dtype=float) for v in ((0, 0), (1, 0), (0, 1), (1, 1))]
    fit = ms.boxdim_fit(pts, [0.2, 0.1, 0.05])
    assert abs(fit.slope) < 0.05
    assert fit.counts == (4, 4, 4)


def test_boxdim_circle_slope_near_one():
    # dyadic grid keeps the greedy packing overshoot constant across scales
    fit = ms.boxdim_fit(_circle(10_000), [0.2, 0.1, 0.05, 0.025, 0.0125])
    assert 0.8 <= fit.slope <= 1.2
    assert fit.monotone


def test_boxdim_sphere_slope_near_two():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((4000, 3))
    pts = list(g / np.linalg.norm(g, axis=1, keepdims=True))
    fit = ms.boxdim_fit(pts, [0.4, 0.28, 0.2, 0.14, 0.1])
    assert 1.6 <= fit.slope <= 2.4


def test_boxdim_rejects_bad_grid():
    pts = _circle(10)
    with pytest.raises(ValueError):
        ms.boxdim_fit(pts, [0.2, 0.1])  # too few
    with pytest.raises(ValueError):
        ms.boxdim_fit(pts, [0.1, 0.2, 0.3])  # not decreasing


# ---------------------------------------------------------------------------
# correlated-family isometry constants
# ---------------------------------------------------------------------------

def test_alpha_formula_halves():
    res = ms.secant_alpha_formula(0.5, 1.0)
    assert abs(res.alpha_lb - 1.0 / 3.0) < 1e-12
    assert abs(res.alpha_exact - math.sqrt(1.0 / 6.0)) < 1e-12
    assert res.t_min == 1


def test_alpha_lb_strictly_below_exact():
    for r, b in ((0.5, 1.0), (0.9, 2.0), (0.99, 0.5), (0.1, 3.0)):
        res = ms.secant_alpha_formula(r, b)
        assert res.alpha_lb < res.alpha_exact


def test_alpha_small_r_limit():
    # as r -> 0 the gap-1 ratio tends to b^2/(1+b^2) of the secant energy:
    # f(1) = (1-r)^2/(1+r^2+(1-r)^2) -> 1/2 at b=1
    res = ms.secant_alpha_formula(1e-6, 1.0)
    assert abs(res.alpha_exact - math.sqrt(0.5)) < 1e-5
    assert abs(res.alpha_exact - 0.70711) < 1e-4


def test_alpha_bruteforce_matches_formula():
    val, (i, j) = ms.secant_alpha_bruteforce(0.5, 1.0, 30)
    assert abs(val - math.sqrt(1.0 / 6.0)) < 1e-9
    assert j - i == 1
    val2, _ = ms.secant_alpha_bruteforce(0.9, 2.0, 50)
    assert abs(val2 - ms.secant_alpha_formula(0.9, 2.0).alpha_exact) < 1e-9


def test_alpha_bruteforce_single_pair():
    val, wit = ms.secant_alpha_bruteforce(0.5, 1.0, 2)
    assert wit == (1, 2)
    assert abs(val - math.sqrt(1.0 / 6.0)) < 1e-12


def test_alpha_bruteforce_monotone_in_imax():
    prev = math.inf
    for i_max in (2, 5, 10, 30):
        val, _ = ms.secant_alpha_bruteforce(0.7, 1.5, i_max)
        assert val <= prev + 1e-15
        prev = val
    assert abs(prev - ms.secant_alpha_formula(0.7, 1.5).alpha_exact) < 1e-9


def test_vk_separation_values():
    assert abs(ms.vk_min_separation(0.5, 1.0) - 1.0 / math.sqrt(1.5)) < 1e-12
    r = 0.3
    assert abs(ms.vk_min_separation(r, 1e-12) - 1.0 / math.sqrt(1 + r * r)) < 1e-6


def test_vk_pairwise_meets_bound():
    bound = ms.vk_min_separation(0.5, 1.0)
    assert abs(bound - 0.81650) < 1e-5
    assert ms.vk_min_pairwise(0.5, 1.0, 20) >= bound - 1e-12


def test_vk_pairwise_needs_a_pair():
    for k_max in (1, 0):
        with pytest.raises(ValueError, match="k_max >= 2"):
            ms.vk_min_pairwise(0.5, 1.0, k_max)
    assert ms.vk_min_pairwise(0.5, 1.0, 2) == pytest.approx(math.sqrt(2.0 * (1 + 0.25) / (1 + 0.25 + 0.25)))


def test_vk_vectors_unit_norm():
    for v in ms.vk_vectors(0.5, 1.0, 8):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_points_csv_roundtrip(tmp_path):
    pts = ms.sample_sparse_unit(5, 2, 7, seed=2)
    path = tmp_path / "pts.csv"
    path.write_text(ms.points_to_csv(pts) + "# a trailing comment line is skipped\n")
    first = path.read_text().splitlines()[0]
    assert first == "# dim=5"
    back = ms.load_points_csv(path)
    for a, b in zip(pts, back):
        np.testing.assert_array_equal(a, b)


def test_points_json_roundtrip():
    pts = ms.sample_sparse_unit(3, 1, 4, seed=2)
    back = ms.points_from_json(ms.points_to_json(pts))
    for a, b in zip(pts, back):
        np.testing.assert_array_equal(a, b)


def test_net_result_json_fields(capsys, tmp_path):
    path = tmp_path / "cross.csv"
    path.write_text(ms.points_to_csv(CROSS))
    assert cli.main(["net", "--points", str(path), "--eps", "0.5", "--seed", "0"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"subcommand", "config", "n_points", "radius", "centers", "covered_count"}
    assert d["radius"] == 0.5
    assert d["covered_count"] == 4
    assert d["centers"] == [list(c) for c in ms.greedy_net(CROSS, 0.5).centers]


def test_net_csv_is_a_point_file(capsys, tmp_path):
    # a net written as CSV reads back through --points as the same centers
    path = tmp_path / "net.csv"
    argv = ["net", "--model", "sparse", "--n", "6", "--k", "2", "--count", "40", "--eps", "0.6",
            "--seed", "3"]
    assert cli.main([*argv, "--format", "csv", "--out", str(path)]) == 0
    assert cli.main(argv) == 0
    net = json.loads(capsys.readouterr().out)
    assert cli.main(["net", "--points", str(path), "--eps", "0.6", "--seed", "3"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["n_points"] == len(net["centers"])
    assert sorted(again["centers"]) == sorted(net["centers"])
