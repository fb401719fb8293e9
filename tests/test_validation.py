"""Library input checks refuse NaN: every lower bound is written `not x > lo`,
which NaN fails, instead of `x <= lo`, which NaN passes."""

import math

import numpy as np
import pytest

from ripbench import bounds as bd
from ripbench import model_sets as ms
from ripbench import tail_probes as tp
from ripbench.embeddings import gaussian

NAN = math.nan
CORE = dict(s=4.0, eps_S=0.25, delta=0.5, xi=0.1)
CORE_ARGS = (4.0, 0.25, 0.5, 0.1)  # s, eps_S, delta, xi


def _bernstein(K=1.0, t_grid=(0.5,)):
    return tp.bernstein_tail_check(tp.centered_exponential_sampler, K, 4, t_grid, 50, 0)


def _increment(lambda_grid):
    y = np.eye(4)[0]
    return tp.increment_tail_fit(gaussian(), "two_stage", 4, y, np.zeros(4), 2,
                                 lambda_grid, 1000, 0)


# name: (call with one NaN input, message of the check that must refuse it).
# greedy_net gets an empty point set: without the eps check it would raise a
# different message here, and on real points it would add centers forever.
CASES = {
    "greedy_net eps": (lambda: ms.greedy_net(np.empty((0, 2)), NAN), "eps"),
    "bernstein K": (lambda: _bernstein(K=NAN), "K > 0"),
    "bernstein t_grid": (lambda: _bernstein(t_grid=(0.5, NAN)), "t_grid"),
    "increment lambda_grid": (lambda: _increment([0.1, NAN]), "lambda_grid"),
    "check_core s": (lambda: bd.chaining_sums(NAN, 0.25, 0.1), "s >= 1"),
    "BoundInputs c1": (lambda: bd.BoundInputs(**CORE, c1=NAN), "c1, c2"),
    "BoundInputs c2": (lambda: bd.BoundInputs(**CORE, c2=NAN), "c1, c2"),
    "BoundInputs Lambda": (lambda: bd.BoundInputs(**CORE, Lambda=NAN), "Lambda"),
    "BoundInputs C_abs": (lambda: bd.BoundInputs(**CORE, C_abs=NAN), "C_abs"),
    "m_two_stage_raw Lambda": (lambda: bd.m_two_stage_raw(1, NAN, *CORE_ARGS), "Lambda"),
    "m_two_stage_raw C_abs": (lambda: bd.m_two_stage_raw(1, 1.0, *CORE_ARGS, C_abs=NAN), "C_abs"),
    "concentration_constants Lambda": (lambda: bd.concentration_constants(1, NAN), "Lambda"),
    "concentration_constants c_abs": (lambda: bd.concentration_constants(1, 1.0, NAN), "c_abs"),
    "normalized_secants min_gap": (lambda: ms.normalized_secants(np.eye(3), min_gap=NAN), "min_gap"),
    "CorrelatedSeq b": (lambda: ms.CorrelatedSeq(0.5, NAN, 5), "b > 0"),
    "correlated_sequence b": (lambda: ms.correlated_sequence(0.5, NAN, 5), "b > 0"),
    "secant_alpha_formula b": (lambda: ms.secant_alpha_formula(0.5, NAN), "b > 0"),
    "vk_min_separation b": (lambda: ms.vk_min_separation(0.5, NAN), "b > 0"),
    "rop_psi1_bound alpha": (lambda: bd.rop_psi1_bound(NAN, 1.0), ">= 0"),
    "abs_mean_lower C_psi": (lambda: bd.abs_mean_lower(NAN), "C_psi"),
    "sparse_rop_delta1_floor q": (lambda: bd.sparse_rop_delta1_floor(NAN, 1.0), "q >= 2"),
    "sparse_rop_delta1_floor D": (lambda: bd.sparse_rop_delta1_floor(2.0, NAN), "D_param"),
    "sparse-pm abs moment q": (lambda: tp.make_sparse_pm_abs_moment(NAN), "q >= 1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_input_raises_value_error(name):
    call, match = CASES[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_secant_alpha_formula_needs_one_gap():
    # t_max = 0 leaves no gap to scan; it once surfaced as a bare min() error
    with pytest.raises(ValueError, match="t_max >= 1"):
        ms.secant_alpha_formula(0.5, 1.0, t_max=0)
