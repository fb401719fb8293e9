"""Psi-norm statistics, increment tails, and the Bernstein-shape check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ripbench.cli as cli
import ripbench.embeddings as em
import ripbench.tail_probes as tp


# ---------------------------------------------------------------------------
# psi norms from exact moments
# ---------------------------------------------------------------------------

def test_psi2_rademacher_is_one():
    got = tp.psi_norm(moments=tp.abs_moment_rademacher, alpha=2)
    assert got.value == 1.0
    assert got.q_at_max == 1
    assert not got.truncated


def test_psi2_normal_closed_form():
    # q = 1 maximizes: E|N| = sqrt(2/pi) beats every higher moment ratio
    got = tp.psi_norm(moments=tp.abs_moment_normal, alpha=2)
    assert abs(got.value - math.sqrt(2.0 / math.pi)) < 1e-12
    assert got.q_at_max == 1


def test_psi1_exponential_is_one():
    got = tp.psi_norm(moments=tp.abs_moment_exponential, alpha=1)
    assert abs(got.value - 1.0) < 1e-12
    assert got.q_at_max == 1


def test_psi2_exponential_truncates_with_warning():
    # q^{-1/2} (q!)^{1/q} grows like sqrt(q)/e, so the sup escapes any q_max
    with pytest.warns(UserWarning, match="truncated"):
        got = tp.psi_norm(moments=tp.abs_moment_exponential, alpha=2, q_max=12)
    assert got.truncated
    assert got.q_at_max == 12


def test_psi2_sparse_pm_q9():
    # r^{-1/2} 9^{1/2 - 1/r} peaks at r = 4 with value sqrt(3)/2
    got = tp.psi_norm(moments=tp.make_sparse_pm_abs_moment(9.0), alpha=2)
    assert abs(got.value - math.sqrt(3.0) / 2.0) < 1e-12
    assert got.q_at_max == 4


def test_psi1_below_psi2_for_same_moments():
    for mom in (tp.abs_moment_normal, tp.make_sparse_pm_abs_moment(4.0)):
        v1 = tp.psi_norm(moments=mom, alpha=1).value
        v2 = tp.psi_norm(moments=mom, alpha=2).value
        assert v1 <= v2 + 1e-15


def test_psi_norm_input_validation():
    with pytest.raises(ValueError):
        tp.psi_norm()
    with pytest.raises(ValueError):
        tp.psi_norm(moments=tp.abs_moment_normal,
                    sampler=lambda n, g: g.standard_normal(n))
    with pytest.raises(ValueError):
        tp.psi_norm(moments=tp.abs_moment_normal, alpha=3)
    with pytest.raises(ValueError):
        tp.psi_norm(moments=tp.abs_moment_normal, q_max=1)
    with pytest.raises(ValueError):
        tp.make_sparse_pm_abs_moment(0.5)


def test_psi_norm_sampler_matches_exact():
    got = tp.psi_norm(sampler=lambda n, g: g.standard_normal(n),
                      alpha=2, n_mc=50_000, seed=4)
    assert abs(got.value - math.sqrt(2.0 / math.pi)) < 0.02


def test_psi1_centering_at_most_doubles():
    # ||X - EX||_q <= 2 ||X||_q gives psi1(centered) <= 2 psi1(raw)
    raw = tp.psi_norm(moments=tp.abs_moment_exponential, alpha=1).value
    cent = tp.psi_norm(sampler=tp.centered_exponential_sampler,
                       alpha=1, n_mc=100_000, seed=8).value
    assert cent <= 2.0 * raw + 0.05


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0))
def test_psi_norm_scale_equivariance(c):
    base = tp.psi_norm(moments=tp.abs_moment_normal, alpha=2)
    scaled = tp.psi_norm(moments=lambda q: c**q * tp.abs_moment_normal(q), alpha=2)
    assert scaled.q_at_max == base.q_at_max
    assert abs(scaled.value - c * base.value) < 1e-9 * max(1.0, c)


# ---------------------------------------------------------------------------
# increment tails
# ---------------------------------------------------------------------------

def _point_fit(seed=3, trials=1500, grid=(0.0, 0.1, 0.25, 0.5, 1.0, 2.0), m=8):
    y = np.zeros(4)
    y[0] = 1.0
    return tp.increment_tail_fit(
        em.gaussian(), "two_stage", m, y, np.zeros(4), 2, list(grid), trials, seed,
    )


def _envelope_holds(fit, g1, g2):
    for lam, tail in zip(fit.lambda_grid, fit.empirical_tail):
        if lam <= 0.0 or tail <= 0.0:
            continue
        rates = []
        if math.isfinite(fit.fitted_c1):
            rates.append(fit.fitted_c1 * g1(lam))
        if math.isfinite(fit.fitted_c2):
            rates.append(fit.fitted_c2 * g2(lam))
        assert rates, "a nonzero tail point must fall under some fitted regime"
        if tail > 2.0 * math.exp(-fit.m * min(rates)) * (1.0 + 1e-12):
            return False
    return True


def test_increment_fit_basic_shape():
    fit = _point_fit()
    assert fit.trials == 1500 and fit.m == 8
    assert fit.lambda_grid == tuple(sorted(fit.lambda_grid))
    assert fit.empirical_tail[0] == 1.0  # every deviation clears lambda = 0
    tails = fit.empirical_tail
    assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))
    assert fit.fitted_c1 > 0.0 and fit.fitted_c2 > 0.0


def test_increment_fit_is_majorant():
    fit = _point_fit(seed=12)
    assert _envelope_holds(fit, lambda l: l * l, lambda l: l)


def test_increment_crossover_is_rate_ratio():
    fit = _point_fit(seed=5)
    if math.isfinite(fit.fitted_c1) and math.isfinite(fit.fitted_c2):
        assert abs(fit.crossover - fit.fitted_c2 / fit.fitted_c1) < 1e-12


def test_increment_two_point_path():
    y = np.eye(4)[0]
    z = np.eye(4)[1]
    fit = tp.increment_tail_fit(
        em.gaussian(), "two_stage", 6, y, z, 2, [0.0, 0.2, 0.6, 1.5], 1200, 7,
    )
    assert fit.empirical_tail[0] == 1.0
    assert fit.fitted_c1 > 0.0


def test_increment_scale_invariant_for_p1():
    # p = 1 deviations scale linearly with the point, and the tail divides by
    # the gap, so y and 10 y give identical empirical tails under one seed
    y = np.array([1.0, -0.5, 0.0])
    grid = [0.0, 0.1, 0.3, 0.8]
    a = tp.increment_tail_fit(em.gaussian(), "two_stage", 5, y, np.zeros(3), 1,
                              grid, 1000, 21)
    b = tp.increment_tail_fit(em.gaussian(), "two_stage", 5, 10.0 * y, np.zeros(3), 1,
                              grid, 1000, 21)
    assert a.empirical_tail == b.empirical_tail


def test_increment_rank_one_sparse_pm():
    M = np.zeros((3, 3))
    M[0, 0] = 1.0
    fit = tp.increment_tail_fit(
        em.sparse_pm(2.0), "rank_one", 4, M.ravel(), np.zeros(9), 1,
        [0.0, 0.2, 0.6, 1.2], 1200, 9, n1=3, n2=3,
    )
    assert fit.empirical_tail[0] == 1.0
    assert any(t > 0.0 for t in fit.empirical_tail[1:])


def test_increment_fit_failure_on_coarse_grid():
    y = np.eye(4)[0]
    with pytest.raises(tp.FitFailureError):
        tp.increment_tail_fit(em.gaussian(), "two_stage", 8, y, np.zeros(4), 2,
                              [50.0, 100.0], 1000, 2)
    with pytest.raises(tp.FitFailureError):
        # a grid of only lambda = 0 carries no rate information
        tp.increment_tail_fit(em.gaussian(), "two_stage", 8, y, np.zeros(4), 2,
                              [0.0], 1000, 2)


def test_increment_input_validation():
    y = np.eye(3)[0]
    with pytest.raises(ValueError):
        tp.increment_tail_fit(em.gaussian(), "two_stage", 4, y, np.zeros(3), 2,
                              [0.5], 999, 1)
    with pytest.raises(ValueError):
        tp.increment_tail_fit(em.gaussian(), "two_stage", 4, y, y, 2, [0.5], 1000, 1)
    with pytest.raises(ValueError):
        tp.increment_tail_fit(em.gaussian(), "two_stage", 4, y, np.zeros(3), 2,
                              [-0.1, 0.5], 1000, 1)


def test_increment_two_point_tail_matches_per_vector_reference():
    # [y, z] go through each map as two columns; the reference applies the
    # map to y and z one at a time, with the fit's map keys and closed-form mu
    from ripbench._rng import CH_BATCH, child_seed

    y, z, grid = np.eye(4)[0], 0.5 * np.eye(4)[1], [0.1, 0.3, 0.9]
    fit = tp.increment_tail_fit(em.gaussian(), "two_stage", 6, y, z, 1, grid, 1000, 7)
    diffs = []
    for t in range(1000):
        L = em.two_stage_map(None, em.gaussian(), 6, 1, child_seed(7, CH_BATCH, t), ambient_dim=4)
        h = [np.sum(np.abs(em.apply(L, x))) - math.sqrt(2.0 / math.pi) * np.linalg.norm(x) for x in (y, z)]
        diffs.append(abs(h[0] - h[1]))
    gap = np.linalg.norm(y - z)
    assert fit.empirical_tail == tuple(float(np.mean(np.asarray(diffs) >= lam * gap)) for lam in grid)


def test_grids_are_checked_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the grid")

    with pytest.raises(ValueError, match="t_grid"):
        tp.bernstein_tail_check(no_draw, 1.0, 4, [0.5, -1.0], 50, 0)
    monkeypatch.setattr(tp, "_draw_map", no_draw)
    with pytest.raises(ValueError, match="lambda_grid"):
        tp.increment_tail_fit(em.gaussian(), "two_stage", 4, np.eye(4)[0], np.zeros(4), 2,
                              [0.1, -0.2], 1000, 0)


def test_increment_deterministic():
    assert _point_fit(seed=30, trials=1000) == _point_fit(seed=30, trials=1000)


# ---------------------------------------------------------------------------
# Bernstein-shape check on sample means
# ---------------------------------------------------------------------------

def test_bernstein_exponential_properties():
    fit = tp.bernstein_tail_check(
        tp.centered_exponential_sampler, 1.0, 20,
        [0.0, 0.1, 0.25, 0.5, 1.0, 2.0], 3000, 6,
    )
    assert fit.crossover == 1.0
    assert fit.empirical_tail[0] == 1.0
    # measured subgaussian rate sits well above zero; the classical small
    # constants are far from tight at observable tail levels
    assert 0.2 < fit.fitted_c1 < 6.0
    assert _envelope_holds(fit, lambda t: t * t, lambda t: t)


def test_bernstein_finite_c2_with_low_crossover():
    fit = tp.bernstein_tail_check(
        tp.centered_exponential_sampler, 0.4, 20,
        [0.0, 0.1, 0.25, 0.5, 1.0], 3000, 14,
    )
    assert math.isfinite(fit.fitted_c2)
    assert fit.fitted_c2 > 0.0


def test_bernstein_unbounded_regime_reported_as_inf():
    # every grid point above the crossover has an empty empirical tail here
    fit = tp.bernstein_tail_check(
        tp.centered_exponential_sampler, 3.0, 40, [0.0, 0.05, 0.15, 4.0], 2000, 2,
    )
    assert math.isinf(fit.fitted_c2)


def test_bernstein_rejects_non_centered():
    with pytest.raises(ValueError, match="non-centered"):
        tp.bernstein_tail_check(lambda n, g: g.exponential(1.0, n), 1.0, 20,
                                [0.0, 0.5], 50, 3)


def test_bernstein_rop_sampler_runs():
    fit = tp.bernstein_tail_check(
        tp.centered_rop_abs_sampler, 2.0 ** 1.5 / math.e, 16,
        [0.0, 0.1, 0.3, 0.7], 2500, 11,
    )
    assert fit.fitted_c1 > 0.0
    assert fit.m == 16


def test_bernstein_input_validation():
    s = tp.centered_exponential_sampler
    with pytest.raises(ValueError):
        tp.bernstein_tail_check(s, 0.0, 10, [0.5], 100, 1)
    with pytest.raises(ValueError):
        tp.bernstein_tail_check(s, 1.0, 0, [0.5], 100, 1)
    with pytest.raises(ValueError):
        tp.bernstein_tail_check(s, 1.0, 10, [0.5], 0, 1)
    with pytest.raises(ValueError):
        tp.bernstein_tail_check(s, 1.0, 10, [-1.0, 0.5], 100, 1)
    with pytest.raises(tp.FitFailureError):
        tp.bernstein_tail_check(s, 1.0, 10, [100.0], 1000, 1)


def test_bernstein_deterministic():
    args = (tp.centered_exponential_sampler, 1.0, 10, [0.0, 0.2, 0.6], 1500, 9)
    assert tp.bernstein_tail_check(*args) == tp.bernstein_tail_check(*args)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=2.0), st.integers(min_value=0, max_value=10_000))
def test_bernstein_majorant_property(K, seed):
    try:
        fit = tp.bernstein_tail_check(
            tp.centered_exponential_sampler, K, 12,
            [0.0, 0.1, 0.3, 0.8, 1.6], 800, seed,
        )
    except tp.FitFailureError:
        return
    except ValueError:
        # the 3-sigma centering gate trips on a fair fraction of a percent of
        # honest seeds; that refusal is designed behavior, not a fit result
        return
    assert _envelope_holds(fit, lambda t: t * t / (K * K), lambda t: t / K)


# ---------------------------------------------------------------------------
# samplers and serialization
# ---------------------------------------------------------------------------

def test_named_sampler_table():
    assert tp.named_sampler("exp") is tp.centered_exponential_sampler
    assert tp.named_sampler("rop_gauss") is tp.centered_rop_abs_sampler
    with pytest.raises(ValueError):
        tp.named_sampler("cauchy")


def test_stock_samplers_are_centered():
    rng = np.random.default_rng(0)
    for sampler in (tp.centered_exponential_sampler, tp.centered_rop_abs_sampler):
        draws = sampler(200_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) < 4.0 * se


def test_tail_fit_json_keys_and_inf(capsys):
    # an infinite rate is reported as the string "inf"
    argv = ["tails", "--probe", "bernstein", "--psi-k", "100", "--m", "10", "--trials", "200",
            "--t-grid", "0.1,50,100,200", "--seed", "1"]
    assert cli.main(argv) == 0
    back = json.loads(capsys.readouterr().out)
    assert set(back) == {"subcommand", "config", "probe", "lambda_grid", "tail", "c1", "c2",
                         "crossover", "trials"}
    assert back["trials"] == 200
    assert back["lambda_grid"] == [0.1, 50.0, 100.0, 200.0]
    assert back["c2"] == "inf"
    assert back["crossover"] == 100.0
    assert math.isfinite(back["c1"]) and back["c1"] > 0.0
