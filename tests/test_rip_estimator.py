"""Semi-norm values, empirical deltas, and the m-sweep."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import ripbench.cli as cli
import ripbench.embeddings as em
import ripbench.model_sets as ms
import ripbench.rip_estimator as ripest
from ripbench import _rng
from ripbench._rng import BLOCK, CH_SECANT, CH_TRIAL, child_seed


def _two_stage_spec(mode, n, m, dist=None, **kw):
    return ripest.MuNormSpec(
        mode=mode, dist=dist or em.gaussian(), variant="two_stage", m=m,
        stage_one=None, **kw,
    )


def _rank_one_spec(mode, n1, n2, m, dist=None, **kw):
    return ripest.MuNormSpec(
        mode=mode, dist=dist or em.gaussian(), variant="rank_one", m=m,
        n1=n1, n2=n2, **kw,
    )


# ---------------------------------------------------------------------------
# analytic semi-norm values
# ---------------------------------------------------------------------------

def test_mu_two_stage_gaussian_p2_is_squared_norm():
    x = np.array([3.0, 0.0, 4.0, 1.0])
    got = ripest.mu_pnorm(_two_stage_spec("analytic", 4, 7), x, 2)
    assert got.mode == "analytic"
    assert got.stderr == 0.0
    assert abs(got.value - 26.0) < 1e-12


def test_mu_two_stage_gaussian_p1_is_scaled_norm():
    x = np.array([0.0, 5.0, 0.0])
    got = ripest.mu_pnorm(_two_stage_spec("analytic", 3, 4), x, 1)
    assert abs(got.value - math.sqrt(2.0 / math.pi) * 5.0) < 1e-12


def test_mu_two_stage_respects_stage_one():
    # stage one projects onto span{e1, e2}; only that part of x survives
    so = em.build_stage_one(np.eye(5)[:2])
    spec = ripest.MuNormSpec(
        mode="analytic", dist=em.gaussian(), variant="two_stage", m=3, stage_one=so,
    )
    x = np.array([1.0, 2.0, 9.0, 9.0, 9.0])
    got = ripest.mu_pnorm(spec, x, 2)
    assert abs(got.value - 5.0) < 1e-12


def test_mu_rank_one_gaussian_p2():
    M = np.arange(1.0, 7.0).reshape(2, 3)
    fro2 = float(np.sum(M * M))
    got = ripest.mu_pnorm(_rank_one_spec("analytic", 2, 3, 5), M.ravel(), 2)
    assert abs(got.value - fro2 / 5.0) < 1e-12


def test_mu_rank_one_gaussian_p1_rank1_only():
    u = np.array([1.0, 2.0])
    v = np.array([0.5, -1.0, 2.0])
    M = np.outer(u, v)
    got = ripest.mu_pnorm(_rank_one_spec("analytic", 2, 3, 4), M.ravel(), 1)
    want = (2.0 / math.pi) * np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(got.value - want) < 1e-12
    with pytest.raises(ripest.UnsupportedAnalyticError):
        ripest.mu_pnorm(_rank_one_spec("analytic", 2, 2, 4), np.eye(2).ravel(), 1)


def test_mu_rank_one_sparse_pm_p1_single_entry():
    q = 4.0
    M = np.zeros((3, 3))
    M[1, 2] = -2.5
    spec = _rank_one_spec("analytic", 3, 3, 6, dist=em.sparse_pm(q))
    got = ripest.mu_pnorm(spec, M.ravel(), 1)
    assert abs(got.value - 2.5 / q) < 1e-12
    M[0, 0] = 1.0
    with pytest.raises(ripest.UnsupportedAnalyticError):
        ripest.mu_pnorm(spec, M.ravel(), 1)


def test_mu_analytic_unsupported_triples_raise():
    # the closed-form table is a closed list, not a best-effort dispatch
    with pytest.raises(ripest.UnsupportedAnalyticError):
        ripest.mu_pnorm(_two_stage_spec("analytic", 3, 4, dist=em.sparse_pm(2.0)),
                        np.ones(3), 1)
    with pytest.raises(ripest.UnsupportedAnalyticError):
        ripest.mu_pnorm(_rank_one_spec("analytic", 2, 2, 4, dist=em.sparse_pm(2.0)),
                        np.eye(2).ravel(), 1)


def test_mu_rejects_bad_p_and_mode():
    with pytest.raises(ValueError):
        ripest.mu_pnorm(_two_stage_spec("analytic", 3, 4), np.ones(3), 3)
    with pytest.raises(ValueError):
        ripest.MuNormSpec(mode="guess", dist=em.gaussian(), variant="two_stage", m=4)
    with pytest.raises(ValueError):
        ripest.MuNormSpec(mode="analytic", dist=em.gaussian(), variant="sketch", m=4)
    with pytest.raises(ValueError):
        ripest.MuNormSpec(mode="analytic", dist=em.gaussian(), variant="two_stage", m=0)


# ---------------------------------------------------------------------------
# Monte-Carlo semi-norm agrees with the closed forms
# ---------------------------------------------------------------------------

def _mc_matches(spec_an, spec_mc, x, p):
    an = ripest.mu_pnorm(spec_an, x, p)
    mc = ripest.mu_pnorm(spec_mc, x, p)
    assert mc.mode == "monte_carlo"
    assert mc.stderr > 0.0
    assert abs(mc.value - an.value) < 4.0 * mc.stderr


def test_mc_two_stage_gaussian_both_p():
    x = np.array([1.0, -2.0, 0.5])
    for p in (1, 2):
        _mc_matches(
            _two_stage_spec("analytic", 3, 5),
            _two_stage_spec("monte_carlo", 3, 5, n_resample=800, seed=11 + p),
            x, p,
        )


def test_mc_rank_one_gaussian_p2():
    M = np.array([[1.0, 0.5], [0.0, -2.0]])
    _mc_matches(
        _rank_one_spec("analytic", 2, 2, 3),
        _rank_one_spec("monte_carlo", 2, 2, 3, n_resample=1500, seed=7),
        M.ravel(), 2,
    )


def test_mc_rank_one_sparse_pm_single_entry():
    M = np.zeros((2, 3))
    M[0, 1] = 3.0
    q = 2.0
    _mc_matches(
        _rank_one_spec("analytic", 2, 3, 4, dist=em.sparse_pm(q)),
        _rank_one_spec("monte_carlo", 2, 3, 4, dist=em.sparse_pm(q),
                       n_resample=2000, seed=3),
        M.ravel(), 1,
    )


def test_mc_sparse_pm_two_stage_p2_matches_math():
    # the truth is ||x||^2, checked here without the closed-form table
    x = np.array([1.0, 1.0, -1.0, 0.0])
    mc = ripest.mu_pnorm(
        _two_stage_spec("monte_carlo", 4, 6, dist=em.sparse_pm(4.0),
                        n_resample=1200, seed=19),
        x, 2,
    )
    assert abs(mc.value - 3.0) < 4.0 * mc.stderr


@pytest.mark.parametrize("variant", ["two_stage", "rank_one"])
def test_mc_sparse_pm_p2_closed_forms(variant):
    dist = em.sparse_pm(3.0)
    if variant == "two_stage":
        x = np.array([1.0, -2.0, 0.5, 0.0])
        an, mc = (_two_stage_spec(mode, 4, 5, dist=dist, n_resample=1500, seed=23)
                  for mode in ("analytic", "monte_carlo"))
    else:
        x = np.array([[1.0, 0.5], [0.0, -2.0]]).ravel()
        an, mc = (_rank_one_spec(mode, 2, 2, 3, dist=dist, n_resample=1500, seed=29)
                  for mode in ("analytic", "monte_carlo"))
    _mc_matches(an, mc, x, 2)


# ---------------------------------------------------------------------------
# batched semi-norm
# ---------------------------------------------------------------------------

def _batch(variant):
    """(spec kwargs, (D, n) columns) for gaussian p=1, where every column
    has a closed form: rank-one columns are rank-1 matrices."""
    rng = np.random.default_rng(4)
    if variant == "two_stage":
        return dict(variant="two_stage"), rng.standard_normal((6, 7))
    cols = [np.outer(rng.standard_normal(3), rng.standard_normal(2)).ravel() for _ in range(7)]
    return dict(variant="rank_one", n1=3, n2=2), np.stack(cols, axis=1)


@pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
@pytest.mark.parametrize("variant", ["two_stage", "rank_one"])
def test_mu_batch_matches_per_column(mode, variant):
    kw, X = _batch(variant)
    spec = ripest.MuNormSpec(mode=mode, dist=em.gaussian(), m=5, n_resample=40, seed=3, **kw)
    for p in (1, 2):
        batch = ripest.mu_pnorm(spec, X, p)
        assert batch.mode == mode
        assert batch.value.shape == batch.stderr.shape == (X.shape[1],)
        for j in range(X.shape[1]):
            one = ripest.mu_pnorm(spec, X[:, j], p)
            assert isinstance(one.value, float) and isinstance(one.stderr, float)
            assert abs(batch.value[j] - one.value) < 1e-12
            assert abs(batch.stderr[j] - one.stderr) < 1e-12


def test_mu_auto_reports_resolved_mode():
    kw, X = _batch("rank_one")
    spec = ripest.MuNormSpec(mode="auto", dist=em.gaussian(), m=5, n_resample=40, seed=3, **kw)
    assert ripest.mu_pnorm(spec, X, 1).mode == "analytic"
    # one rank-2 column has no p=1 closed form, so the whole batch goes Monte-Carlo
    X = np.concatenate([X, np.eye(3, 2).reshape(6, 1)], axis=1)
    got = ripest.mu_pnorm(spec, X, 1)
    want = ripest.mu_pnorm(replace(spec, mode="monte_carlo"), X, 1)
    assert got.mode == "monte_carlo"
    np.testing.assert_array_equal(got.value, want.value)
    assert np.all(got.stderr > 0.0)


def test_mu_rank_one_rejects_wrong_length():
    spec = _rank_one_spec("analytic", 4, 4, 3)
    with pytest.raises(ValueError, match="n1 x n2"):
        ripest.mu_pnorm(spec, np.ones(32), 2)
    with pytest.raises(ValueError, match="n1 x n2"):
        ripest.mu_pnorm(replace(spec, mode="monte_carlo"), np.ones((32, 3)), 2)


# ---------------------------------------------------------------------------
# empirical delta
# ---------------------------------------------------------------------------

def _identity_map(n):
    return em.MeasurementMap("two_stage", math.sqrt(n) * np.eye(n), p_scale=2)


def _zero_map(n):
    return em.MeasurementMap("two_stage", np.zeros((n, n)), p_scale=2)


def test_delta_zero_for_exact_isometry():
    n = 5
    secants = ms.normalized_secants(ms.Sparse(n=n, k=2), count=40, seed=2)
    mu = [1.0] * len(secants)
    rep = ripest.empirical_delta(_identity_map(n), secants, 2, mu)
    assert rep.delta_p < 1e-12
    assert rep.under_delta == 1.0 and rep.bar_delta == 1.0
    assert [f.name for f in fields(rep)] == ["delta_p", "witness_direction", "witness_pair_ids",
                                             "under_delta", "bar_delta"]
    # the witness is one of the sampled secants, with its own pair ids
    i = [tuple(r) for r in secants.pair_ids.tolist()].index(rep.witness_pair_ids)
    np.testing.assert_array_equal(rep.witness_direction, secants.directions[:, i])


def test_delta_one_for_zero_map():
    n = 4
    secants = ms.normalized_secants(ms.Sparse(n=n, k=1), count=10, seed=3)
    rep = ripest.empirical_delta(_zero_map(n), secants, 2, [1.0] * len(secants))
    assert abs(rep.delta_p - 1.0) < 1e-12


def test_delta_witness_is_argmax_and_sandwich_holds():
    n = 6
    secants = ms.normalized_secants(ms.Sparse(n=n, k=2), count=60, seed=5)
    L = em.two_stage_map(None, em.gaussian(), 8, p=2, seed=21, ambient_dim=n)
    mu = [1.0] * len(secants)
    rep = ripest.empirical_delta(L, secants, 2, mu)
    devs = [abs(ripest.pnorm_p(em.apply(L, d), 2) - 1.0) for d in secants.directions.T]
    assert abs(rep.delta_p - max(devs)) < 1e-12
    wit_dev = abs(ripest.pnorm_p(em.apply(L, rep.witness_direction), 2) - 1.0)
    assert abs(wit_dev - rep.delta_p) < 1e-12
    # every secant deviation is dominated by the reported maximum
    assert all(d <= rep.delta_p + 1e-12 for d in devs)


def test_delta_monotone_in_sample():
    n = 5
    secants = ms.normalized_secants(ms.Sparse(n=n, k=2), count=50, seed=9)
    L = em.two_stage_map(None, em.gaussian(), 6, p=1, seed=13, ambient_dim=n)
    mu = [math.sqrt(2.0 / math.pi)] * len(secants)
    head = ms.Secants(secants.directions[:, :20], secants.pair_ids[:20])
    d_small = ripest.empirical_delta(L, head, 1, mu[:20]).delta_p
    d_full = ripest.empirical_delta(L, secants, 1, mu).delta_p
    assert d_small <= d_full + 1e-15


def test_delta_rank_one_variant_path():
    n1, n2, m = 3, 4, 5
    model = ms.LowRank(n1=n1, n2=n2, r=1)
    secants = ms.normalized_secants(model, count=15, seed=4)
    L = em.rank_one_map(m, n1, n2, em.gaussian(), seed=8)
    mu = [1.0 / m] * len(secants)  # gaussian rank-one p=2 on unit-Frobenius secants
    rep = ripest.empirical_delta(L, secants, 2, mu)
    hand = max(abs(ripest.pnorm_p(em.apply(L, d), 2) - 1.0 / m) for d in secants.directions.T)
    assert abs(rep.delta_p - hand) < 1e-15


def test_delta_input_validation():
    n = 3
    secants = ms.normalized_secants(ms.Sparse(n=n, k=1), count=4, seed=1)
    with pytest.raises(ValueError):
        ripest.empirical_delta(_identity_map(n), secants, 2, [1.0] * 3)
    with pytest.raises(ValueError):
        empty = ms.Secants(np.zeros((n, 0)), np.zeros((0, 2), dtype=np.int64))
        ripest.empirical_delta(_identity_map(n), empty, 2, [])


def test_delta_extremes_unit_secants():
    secants = ms.normalized_secants(ms.Sparse(n=6, k=2), count=25, seed=7)
    vals = ripest.mu_pnorm(_two_stage_spec("analytic", 6, 4), secants.directions, 2).value
    assert abs(vals.min() - 1.0) < 1e-12 and abs(vals.max() - 1.0) < 1e-12


def test_delta_extremes_sees_spread():
    # hand-built secants of different lengths separate the extremes
    secants = ms.Secants(np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([[0, 1], [0, 2]]))
    vals = ripest.mu_pnorm(_two_stage_spec("analytic", 2, 4), secants.directions, 2).value
    assert abs(vals.min() - 0.25) < 1e-12 and abs(vals.max() - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_cell_reconstructs():
    model = ms.Sparse(n=8, k=2)
    seed, m, p, n_sec = 31, 12, 2, 30
    rows = ripest.rip_sweep(model, em.gaussian(), [m], p, n_sec, 1, seed)
    assert len(rows) == 1
    row = rows[0]
    assert (row.m, row.trials, row.p, row.seed) == (m, 1, p, seed)
    assert row.delta_median == row.delta_q1 == row.delta_q3
    # rebuild the one cell from the documented substream layout; the sweep
    # scores p = 2 through the Gram of the rows, a different summation order
    secants = ms.normalized_secants(model, count=n_sec, seed=child_seed(seed, CH_SECANT))
    L = em.two_stage_map(None, em.gaussian(), m, p,
                         child_seed(seed, CH_TRIAL, 0), ambient_dim=8)
    rep = ripest.empirical_delta(L, secants, p, [1.0] * n_sec)
    assert abs(row.delta_median - rep.delta_p) < 1e-15


_STAGE_ONE = em.build_stage_one(np.random.default_rng(0).standard_normal((5, 8)))


# (model, variant, stage one, p, Gram side of the rule); m = 250..270 crosses
# the 256-row block edge, and |m_list| d < 270 selects the Gram for p = 2
@pytest.mark.parametrize("model, variant, stage_one, p, gram", [
    (ms.Sparse(8, 2), "two_stage", None, 2, True),
    (ms.Sparse(8, 2), "two_stage", None, 1, False),
    (ms.LowRank(3, 3, 1), "rank_one", None, 2, True),     # 3 * 9 < 270
    (ms.LowRank(10, 10, 1), "rank_one", None, 2, False),  # 3 * 100 >= 270
    (ms.Sparse(8, 2), "two_stage", _STAGE_ONE, 2, True),
    (ms.Sparse(8, 2), "two_stage", _STAGE_ONE, 1, False),
], ids=["sparse-p2", "sparse-p1", "rank-one-p2-gram", "rank-one-p2-product",
        "stage-one-p2", "stage-one-p1"])
def test_nested_sweep_matches_maps_built_per_cell(monkeypatch, model, variant, stage_one, p, gram):
    seed, m_list, n_sec, trials = 61, [16, 250, 270], 40, 3
    rank_one = variant == "rank_one"
    n1, n2 = (model.n1, model.n2) if rank_one else (0, 0)
    applied = []
    monkeypatch.setattr(ripest, "apply_columns", lambda L, X: applied.append(L.m) or em.apply_columns(L, X))
    rows = ripest.rip_sweep(model, em.gaussian(), m_list, p, n_sec, trials, seed,
                            variant=variant, stage_one=stage_one, n1=n1, n2=n2, mu_mode="analytic")
    assert applied == ([] if gram else [m_list[-1]] * trials)
    # oracle: every cell (m, t) from its own m-row map on the trial key
    X = ms.normalized_secants(model, count=n_sec, seed=child_seed(seed, CH_SECANT)).directions
    cells = np.empty((len(m_list), trials))
    for i, m in enumerate(m_list):
        spec = ripest.MuNormSpec(mode="analytic", dist=em.gaussian(), variant=variant, m=m,
                                 stage_one=stage_one, n1=n1, n2=n2)
        mu = ripest.mu_pnorm(spec, X, p).value
        for t in range(trials):
            key = child_seed(seed, CH_TRIAL, t)
            L = (em.rank_one_map(m, n1, n2, em.gaussian(), key) if rank_one else
                 em.two_stage_map(stage_one, em.gaussian(), m, p, key, ambient_dim=None if stage_one else 8))
            cells[i, t] = np.max(np.abs(ripest.pnorm_p(em.apply_columns(L, X), p) - mu))
    # the quartiles of three trials fix all three sorted deltas of each m
    want = np.percentile(cells, [25.0, 50.0, 75.0], axis=1)
    got = np.array([[r.delta_q1 for r in rows], [r.delta_median for r in rows], [r.delta_q3 for r in rows]])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_haar_fourier_stage_one_through_sweep():
    # [Re U; Im U] has more rows than columns; l = 0 has a zero Im row
    import ripbench.haar_fourier as hf

    U = hf.build_u_block(7, 8).entries
    assert not U.imag[0].any()
    so = em.build_stage_one(np.vstack([U.real, U.imag[1:]]))
    assert (so.d, so.ambient_dim) == (13, 8)
    model = ms.Sparse(8, 2)
    X = ms.normalized_secants(model, count=30, seed=5).directions
    spec = ripest.MuNormSpec(mode="analytic", dist=em.gaussian(), variant="two_stage", m=16, stage_one=so)
    # real x: ||b(x)||^2 = ||U x||^2 = x^T Re(U* U) x
    want = np.einsum("ij,ik,kj->j", X, (U.conj().T @ U).real, X)
    np.testing.assert_allclose(ripest.mu_pnorm(spec, X, 2).value, want, rtol=0.0, atol=1e-14)
    rows = ripest.rip_sweep(model, em.gaussian(), [16, 64], 2, 30, 3, seed=5, stage_one=so)
    assert [r.m for r in rows] == [16, 64]
    assert all(math.isfinite(r.delta_median) and r.mu_mode == "analytic" for r in rows)


def test_sweep_substreams_scale_with_trials_and_blocks(monkeypatch):
    calls = []

    def counting(*key):
        calls.append(key)
        return _rng.substream(*key)

    for mod in (em, ms):
        monkeypatch.setattr(mod, "substream", counting)
    trials, m_list, n_sec = 4, [64, 300, 600], 500
    ripest.rip_sweep(ms.Sparse(n=16, k=3), em.gaussian(), m_list, 2, n_sec, trials, 3)
    # one 600-row map per trial (3 row blocks) and 2 * 500 points (4 blocks):
    # nothing per point and nothing per (m, t)
    assert len(calls) == trials * -(-m_list[-1] // BLOCK) + -(-2 * n_sec // BLOCK)


def test_sweep_median_shrinks_with_m():
    rows = ripest.rip_sweep(
        ms.Sparse(n=16, k=2), em.gaussian(), [16, 256], 2, 60, 11, seed=5,
    )
    assert rows[0].delta_median > 1.5 * rows[1].delta_median


def test_sweep_requires_ascending_m():
    with pytest.raises(ValueError):
        ripest.rip_sweep(ms.Sparse(n=4, k=1), em.gaussian(), [8, 8], 2, 5, 1, 0)
    with pytest.raises(ValueError):
        ripest.rip_sweep(ms.Sparse(n=4, k=1), em.gaussian(), [16, 8], 2, 5, 1, 0)


def test_sweep_rejects_zero_counts():
    with pytest.raises(ValueError, match="trials"):
        ripest.rip_sweep(ms.Sparse(n=4, k=1), em.gaussian(), [8], 2, 5, 0, 0)
    with pytest.raises(ValueError, match="n_secants"):
        ripest.rip_sweep(ms.Sparse(n=4, k=1), em.gaussian(), [8], 2, 0, 5, 0)


@pytest.mark.parametrize("p", [1, 2])
def test_batched_rank_one_pnorms_match_per_secant_apply(p):
    secants = ms.normalized_secants(ms.LowRank(4, 5, 1), count=30, seed=3)
    L = em.rank_one_map(40, 4, 5, em.gaussian(), seed=11)
    got = ripest.pnorm_p(em.apply_columns(L, secants.directions), p)
    want = []
    for d in secants.directions.T:
        M = d.reshape(4, 5)
        # the definition, one measurement at a time: a_i^T M b_i / m
        y = np.array([L.matrix[i, :4] @ M @ L.matrix[i, 4:] for i in range(L.m)]) / L.m
        want.append(np.sum(np.abs(y) ** p))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_pnorm_p_of_a_vector_and_of_columns():
    Z = np.array([[3.0, -1.0], [-4.0, 0.5]])
    for p, col0, cols in ((1, 7.0, [7.0, 1.5]), (2, 25.0, [25.0, 1.25])):
        got = ripest.pnorm_p(Z[:, 0], p)
        assert np.ndim(got) == 0 and got == col0
        np.testing.assert_array_equal(ripest.pnorm_p(Z, p), cols)
    with pytest.raises(ValueError, match="p must be 1 or 2"):
        ripest.pnorm_p(Z, 3)


def test_sweep_deterministic_and_thread_invariant():
    args = (ms.Sparse(n=8, k=2), em.gaussian(), [8, 16], 1, 20, 6, 99)
    rows_a = ripest.rip_sweep(*args)
    rows_b = ripest.rip_sweep(*args)
    rows_t = ripest.rip_sweep(*args, threads=3)
    assert rows_a == rows_b
    for ra, rt in zip(rows_a, rows_t):
        assert ra.m == rt.m
        assert abs(ra.delta_median - rt.delta_median) < 1e-12
        assert abs(ra.delta_q1 - rt.delta_q1) < 1e-12
        assert abs(ra.delta_q3 - rt.delta_q3) < 1e-12


def test_sweep_quartiles_ordered():
    rows = ripest.rip_sweep(ms.Sparse(n=8, k=2), em.gaussian(), [8], 2, 25, 9, 17)
    r = rows[0]
    assert r.delta_q1 <= r.delta_median <= r.delta_q3


def test_sweep_rank_one_variant():
    rows = ripest.rip_sweep(
        ms.LowRank(n1=4, n2=4, r=1), em.gaussian(), [32], 2, 20, 5, 23,
        variant="rank_one", n1=4, n2=4,
    )
    assert rows[0].delta_median > 0.0
    assert math.isfinite(rows[0].delta_median)


def test_sweep_auto_mu_falls_back_to_monte_carlo():
    # sparse plus-minus two-stage p=1 has no closed form; auto must not raise
    rows = ripest.rip_sweep(
        ms.Sparse(n=5, k=1), em.sparse_pm(2.0), [4], 1, 3, 2, 13,
        n_resample=60,
    )
    assert math.isfinite(rows[0].delta_median)
    assert rows[0].delta_median >= 0.0
    assert rows[0].mu_mode == "monte_carlo" and 0.0 < rows[0].mu_stderr_max < math.inf


def test_sweep_auto_matches_explicit_analytic():
    args = dict(model=ms.Sparse(n=6, k=2), dist=em.gaussian(), m_list=[8],
                p=2, n_secants=15, trials=3, seed=77)
    auto = ripest.rip_sweep(**args)
    explicit = ripest.rip_sweep(**args, mu_mode="analytic")
    assert auto == explicit


# ---------------------------------------------------------------------------
# the sweep report
# ---------------------------------------------------------------------------

def _sweep_report(capsys, *flags):
    argv = ["rip-sweep", "--model", "sparse", "--n", "6", "--k", "1", *flags]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_sweep_csv_header_and_rows(capsys):
    out = _sweep_report(capsys, "--m-list", "4,8", "--n-secants", "10", "--trials", "3",
                        "--seed", "41", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "m,delta_median,delta_q1,delta_q3,trials,p,seed,mu_mode,mu_stderr_max"
    assert len(lines) == 4 and lines[3].startswith("# config: ")
    rows = ripest.rip_sweep(ms.Sparse(n=6, k=1), em.gaussian(), [4, 8], 2, 10, 3, 41)
    for line, row in zip(lines[1:3], rows):
        assert line == (f"{row.m},{row.delta_median:.17g},{row.delta_q1:.17g},{row.delta_q3:.17g},"
                        f"{row.trials},{row.p},{row.seed},analytic,0")
    first = lines[1].split(",")
    assert first[0] == "4" and first[4] == "3" and first[5] == "2" and first[6] == "41"
    assert float(first[1]) == rows[0].delta_median  # %.17g round-trips a double


def test_sweep_json_round_trip(capsys):
    out = _sweep_report(capsys, "--p", "1", "--m-list", "4", "--n-secants", "8",
                        "--trials", "2", "--seed", "15")
    rows = ripest.rip_sweep(ms.Sparse(n=6, k=1), em.gaussian(), [4], 1, 8, 2, 15)
    assert json.loads(out)["rows"] == [
        {
            "m": 4, "delta_median": rows[0].delta_median,
            "delta_q1": rows[0].delta_q1, "delta_q3": rows[0].delta_q3,
            "trials": 2, "p": 1, "seed": 15, "mu_mode": "analytic", "mu_stderr_max": 0.0,
        }
    ]
