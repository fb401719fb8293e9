import dataclasses
import math

import numpy as np
import pytest

from ripbench import bounds as bd


GRID_S = (1.0, 4.0, 16.0)
GRID_EPS = (0.49, 0.25, 0.01)
GRID_XI = (0.5, 0.1, 1e-4)


# ---------------------------------------------------------------------------
# chaining sums
# ---------------------------------------------------------------------------

def test_s1_pinned_values():
    sums = bd.chaining_sums(4.0, 0.25, 0.1)
    assert abs(sums.S1 - 2.922483484646843) < 1e-12
    assert abs(sums.S1 - 2.9225) < 1e-4
    assert abs(sums.S1_bound - 4.085638427633235) < 1e-12
    assert abs(sums.S1_bound - 4.0857) < 1e-4


def test_s3_bound_pinned():
    sums = bd.chaining_sums(4.0, 0.25, 0.1)
    want = 8 * math.log(20) + 16 * 4 * math.log(2) + 8 * 4 * math.log(4)
    assert abs(sums.S3_bound - want) < 1e-12
    assert abs(sums.S3_bound - 112.69) < 5e-3


def test_numeric_below_closed_bounds_on_grid():
    for s in GRID_S:
        for eps in GRID_EPS:
            for xi in GRID_XI:
                sums = bd.chaining_sums(s, eps, xi)
                assert sums.S1 <= sums.S1_bound
                assert sums.S2 <= sums.S2_bound
                assert sums.S3 <= sums.S3_bound


def test_truncation_remainder_negligible():
    for s, eps, xi in ((1.0, 0.49, 0.5), (16.0, 0.01, 1e-4)):
        sums = bd.chaining_sums(s, eps, xi, j_max=64)
        assert sums.remainder_S2 < 1e-9 * sums.S2
        assert sums.remainder_S3 < 1e-9 * sums.S3


def test_sums_decrease_in_xi():
    prev = None
    for xi in (0.01, 0.1, 0.5, 0.9):
        sums = bd.chaining_sums(4.0, 0.25, xi)
        if prev is not None:
            assert sums.S1 < prev.S1
            assert sums.S2 < prev.S2
            assert sums.S3 < prev.S3
        prev = sums


def test_chaining_validates_inputs():
    with pytest.raises(ValueError):
        bd.chaining_sums(4.0, 0.6, 0.1)  # eps_S >= 1/2
    with pytest.raises(ValueError):
        bd.chaining_sums(0.5, 0.25, 0.1)  # s < 1
    with pytest.raises(ValueError):
        bd.chaining_sums(4.0, 0.25, 0.1, j_max=8)


# ---------------------------------------------------------------------------
# sample-complexity formulas
# ---------------------------------------------------------------------------

def test_m_main_sparse_instance():
    # k=2, n=64: eps_S = 2k/(3en), s = 4k; value pinned by exact evaluation of
    # the formula at the 5-digit eps_S used throughout
    inputs = bd.BoundInputs(s=8.0, eps_S=0.0076638, delta=0.5, xi=0.1)
    assert abs(bd.m_main_raw(inputs) - 498815.727071998) < 1e-6
    assert bd.m_main(inputs) == 498816


def test_m_main_delta_scaling_exact():
    a = bd.BoundInputs(s=8.0, eps_S=0.01, delta=0.25, xi=0.1)
    b = bd.BoundInputs(s=8.0, eps_S=0.01, delta=0.5, xi=0.1)
    assert abs(bd.m_main_raw(a) - 4.0 * bd.m_main_raw(b)) < 1e-9 * bd.m_main_raw(a)


def test_m_main_log_term_dominates():
    inputs = bd.BoundInputs(s=1.0, eps_S=0.49, delta=0.5, xi=1e-6)
    crit = bd.m_main_raw(inputs) * min(inputs.c1, inputs.c2) * inputs.delta**2 / inputs.C_abs
    assert abs(crit - math.log(6e6)) < 1e-12
    assert abs(crit - 15.6073) < 1e-4


def test_m_main_monotonicity():
    base = dict(s=4.0, eps_S=0.25, delta=0.5, xi=0.1)
    m0 = bd.m_main_raw(bd.BoundInputs(**base))
    assert bd.m_main_raw(bd.BoundInputs(**{**base, "delta": 0.6})) <= m0
    assert bd.m_main_raw(bd.BoundInputs(**{**base, "xi": 0.2})) <= m0
    assert bd.m_main_raw(bd.BoundInputs(**{**base, "s": 5.0})) >= m0
    assert bd.m_main_raw(bd.BoundInputs(**{**base, "eps_S": 0.1})) >= m0


def test_m_two_stage_p1_example():
    m = bd.m_two_stage(1, 1.0, 4.0, 0.25, 0.5, 0.1, C_abs=1.0)
    assert m == 45
    crit = max(4.0 * math.log(4.0), math.log(60.0))
    assert abs(crit - 5.5452) < 1e-4
    assert abs(bd.m_two_stage_raw(1, 1.0, 4.0, 0.25, 0.5, 0.1) - 4.0 * 2.0 * crit) < 1e-12


def test_m_two_stage_p2_factor():
    r1 = bd.m_two_stage_raw(1, 1.0, 4.0, 0.25, 0.5, 0.1)
    r2 = bd.m_two_stage_raw(2, 1.0, 4.0, 0.25, 0.5, 0.1)
    assert abs(r2 - 4.0 * r1) < 1e-12 * r2  # factor 8 vs 2


def test_m_two_stage_small_lambda():
    r = bd.m_two_stage_raw(1, 0.5, 4.0, 0.25, 0.5, 0.1)
    crit = max(4.0 * math.log(4.0), math.log(60.0))
    assert abs(r - 4.0 * 0.5 * crit) < 1e-12  # max(1/2, 1/2) branch tie


def test_concentration_constants():
    assert bd.concentration_constants(1, 1.0) == (0.25, 0.5, 2.0)
    c1, c2, cross = bd.concentration_constants(2, 1.0)
    assert (c1, c2) == (1.0 / 64.0, 1.0 / 8.0)
    assert abs(cross - 8.0) < 1e-12
    assert abs(bd.concentration_constants(1, 2.0)[2] - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# double factorial and alpha_X
# ---------------------------------------------------------------------------

def test_double_factorial_exact_small():
    assert bd.double_factorial(1) == 1
    assert bd.double_factorial(3) == 15
    assert bd.double_factorial(10) == 654729075


def test_bracket_contains_exact_all_k():
    for k in range(1, 51):
        br = bd.double_factorial_bracket(k)
        assert br.lower <= br.exact <= br.upper, k
        assert br.contains_exact


def test_bracket_k3_window():
    br = bd.double_factorial_bracket(3)
    assert br.exact == 15
    assert 14.99 < br.lower < 15.0 < br.upper < 15.01


def test_alpha_gaussian_exactly_one():
    res = bd.alpha_x(bd_gaussian_moments(), k_max=64)
    assert abs(res - 1.0) < 1e-12


def bd_gaussian_moments():
    from ripbench.embeddings import gaussian
    return gaussian()


def test_alpha_sparse_q4():
    from ripbench.embeddings import sparse_pm
    res = bd.alpha_x(sparse_pm(4.0), k_max=64)
    assert abs(res - (4.0 / 3.0) ** 0.25) < 1e-12
    assert abs(res - 1.07457) < 1e-5


def test_alpha_sparse_bounds():
    from ripbench.embeddings import sparse_pm
    for q in (2.0, 4.0, 16.0, 64.0):
        res = bd.alpha_x(sparse_pm(q), k_max=64)
        assert 1.0 <= res <= 1.39 * math.sqrt(q)


def test_alpha_warns_at_kmax():
    # moments growing fast enough that the maximizer saturates the cap
    with pytest.warns(UserWarning):
        bd.alpha_x(lambda k: math.exp(3.0 * k * math.log(k + 1.0)), k_max=8)


def test_rop_psi1_bound_values():
    # constant 2^{3/2}/e = 1.0405202, slightly above 1 as claimed
    assert abs(bd.rop_psi1_bound(1.0, 1.0) - 2.0**1.5 / math.e) < 1e-15
    assert abs(bd.rop_psi1_bound(1.0, 1.0) - 1.04) < 0.01
    want = (4.0 / 3.0) ** 0.5 * 2.0**1.5 / math.e
    assert abs(bd.rop_psi1_bound((4.0 / 3.0) ** 0.25, 1.0) - want) < 1e-12
    assert abs(want - 1.2014892) < 1e-7
    assert bd.rop_psi1_bound(2.0, 0.0) == 0.0


def test_abs_mean_lower_values():
    exact2 = 1.0 / (2.0 * math.e**3 * 2.0 * (1.0 + math.log(2.0)))
    assert abs(bd.abs_mean_lower(2.0) - exact2) < 1e-15
    assert abs(bd.abs_mean_lower(2.0) - 0.0073516) < 1e-6
    assert abs(bd.abs_mean_lower(math.e) - 1.0 / (4.0 * math.e**4)) < 1e-15
    assert abs(bd.abs_mean_lower(math.e) - 0.0045790) < 1e-7
    vals = [bd.abs_mean_lower(c) for c in (2.0, 3.0, 5.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bd.abs_mean_lower(1.5)


def test_sparse_rop_floor_values():
    assert abs(bd.sparse_rop_delta1_floor(2.0, 1.0) - 0.29531) < 1e-5
    assert abs(bd.sparse_rop_delta1_floor(4.0, 1.0) - 0.10476) < 1e-5
    with pytest.raises(ValueError):
        bd.sparse_rop_delta1_floor(1.5, 1.0)


def test_theorem_one_quantities_at_resolved_rates():
    # what the bounds command reports for theorem 1: m at the given rates, or
    # at the concentration constants of (p, Lambda), and the chaining sums
    inputs = bd.BoundInputs(s=4.0, eps_S=0.25, delta=0.5, xi=0.1)
    assert bd.m_main(inputs) == math.ceil(bd.m_main_raw(inputs))
    sums = bd.chaining_sums(inputs.s, inputs.eps_S, inputs.xi)
    assert sums.S1 <= sums.S1_bound
    c1, c2, crossover = bd.concentration_constants(2, inputs.Lambda, 1.0)
    assert abs(crossover - 8.0) < 1e-12 and crossover == c2 / c1
    rated = dataclasses.replace(inputs, c1=c1, c2=c2)
    assert bd.m_main(rated) == math.ceil(bd.m_main_raw(rated))
    assert bd.m_main_raw(rated) == pytest.approx(64.0 * bd.m_main_raw(inputs), rel=1e-12)  # min(c1, c2) = 1/64


def test_bound_inputs_need_one_finite_rate():
    with pytest.raises(ValueError, match="both"):
        bd.BoundInputs(s=4.0, eps_S=0.25, delta=0.5, xi=0.1, c1=math.inf, c2=math.inf)
    # one unbounded regime is allowed: the other rate sets m
    for c1, c2 in ((math.inf, 1.0), (1.0, math.inf)):
        inputs = bd.BoundInputs(s=4.0, eps_S=0.25, delta=0.5, xi=0.1, c1=c1, c2=c2)
        assert bd.m_main(inputs) == math.ceil(bd.m_main_raw(inputs)) > 0
