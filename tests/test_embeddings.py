import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ripbench import embeddings as em
from ripbench import model_sets as ms
from ripbench._rng import BLOCK


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_sparse_pm_q1_is_rademacher():
    x = em.sample_dist(em.sparse_pm(1.0), (10_000,), seed=1)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert np.all(x * x == 1.0)


def test_sparse_pm_q4_frequencies():
    x = em.sample_dist(em.sparse_pm(4.0), (1_000_000,), seed=2)
    assert abs(np.mean(x == 0.0) - 0.75) < 0.002
    assert abs(np.mean(x * x) - 1.0) < 0.01


def test_gaussian_fourth_moment():
    x = em.sample_dist(em.gaussian(), (1_000_000,), seed=3)
    assert abs(np.mean(x**4) - 3.0) < 0.05


def test_sparse_pm_moments_exact_enumeration():
    # three-point law: E X^{2k} = (1/q) * q^k = q^{k-1}
    for q in (1.0, 2.0, 4.0, 9.0):
        vals = np.array([0.0, math.sqrt(q), -math.sqrt(q)])
        probs = np.array([(q - 1.0) / q, 1.0 / (2.0 * q), 1.0 / (2.0 * q)])
        assert abs(probs.sum() - 1.0) < 1e-15
        assert abs(float(probs @ vals) - 0.0) < 1e-15
        for k in (1, 2, 3, 5):
            assert abs(float(probs @ vals ** (2 * k)) - q ** (k - 1)) < 1e-9 * q**k


def test_dist_rejects_bad_q():
    with pytest.raises(ValueError):
        em.sparse_pm(0.5)


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------

def test_stage_one_accepts_dependent_rows():
    # no Gram factor to keep: any finite block is a stage one, but not a
    # non-finite or empty one
    so = em.build_stage_one(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert (so.d, so.ambient_dim) == (2, 2)
    for bad in (np.array([[1.0, np.nan]]), np.zeros((0, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            em.build_stage_one(bad)


def test_b_norm_orthonormal_euclidean():
    so = em.build_stage_one(np.eye(4)[:2])
    assert abs(em.b_norm(so, np.array([3.0, 4.0])) - 5.0) < 1e-12


def test_b_norm_min_preimage_scaling():
    # rows {2 e1}: preimage of y=2 with least norm is e1
    so = em.build_stage_one(np.array([[2.0, 0.0]]))
    assert abs(em.b_norm(so, np.array([2.0])) - 1.0) < 1e-12


def test_b_norm_matches_projection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        B = rng.standard_normal((3, 8))
        so = em.build_stage_one(B)
        P = B.T @ np.linalg.solve(B @ B.T, B)  # orthogonal projector onto the row span
        for _ in range(100):
            x = rng.standard_normal(8)
            lhs = em.b_norm(so, em.apply_stage_one(so, x))
            assert abs(lhs - np.linalg.norm(P @ x)) < 1e-10
            assert lhs <= np.linalg.norm(x) + 1e-12


def test_b_norm_dependent_rows_is_norm_on_their_span():
    # four rows spanning a plane: ||b(x)||_b is the norm of x projected onto
    # the plane, as for an orthonormal basis of it; off the range it is inf
    rng = np.random.default_rng(3)
    plane = rng.standard_normal((2, 6))
    B = np.vstack([plane, plane.sum(axis=0), 2.0 * plane[0]])
    so, ortho = em.build_stage_one(B), em.build_stage_one_from_span(B)
    assert ortho.d == 2
    for _ in range(100):
        x = rng.standard_normal(6)
        got = em.b_norm(so, em.apply_stage_one(so, x))
        assert abs(got - em.b_norm(ortho, em.apply_stage_one(ortho, x))) < 1e-10
    assert em.b_norm(em.build_stage_one([[1.0, 0.0], [2.0, 0.0]]), [1.0, 0.0]) == math.inf


def test_b_dual_norm_values():
    so = em.build_stage_one(np.eye(3)[:2])
    assert abs(em.b_dual_norm(so, np.array([1.0, 0.0])) - 1.0) < 1e-12
    so2 = em.build_stage_one(np.array([[2.0, 0.0]]))
    assert abs(em.b_dual_norm(so2, np.array([1.0])) - 2.0) < 1e-12


def test_b_holder_inequality():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((4, 12))
    so = em.build_stage_one(B)
    for _ in range(10_000):
        a = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert abs(a @ y) <= em.b_dual_norm(so, a) * em.b_norm(so, y) + 1e-10


def test_stage_one_from_net_lower_bound():
    # V spanned by a net of S at radius eps*: ||b(x)||_b >= 1 - eps* on S
    pts = ms.sample_sparse_unit(10, 2, 200, seed=17)
    eps_star = 0.5
    net = ms.greedy_net(pts, eps_star)
    so = em.build_stage_one_from_span(np.array(net.centers))
    for x in pts:
        assert em.b_norm(so, em.apply_stage_one(so, x)) >= 1.0 - eps_star - 1e-10


# ---------------------------------------------------------------------------
# measurement maps
# ---------------------------------------------------------------------------

def test_two_stage_identity_variant():
    # matrix sqrt(m) * I with p=2 scaling 1/sqrt(m) acts as the identity
    n = 6
    L = em.MeasurementMap("two_stage", math.sqrt(n) * np.eye(n), p_scale=2)
    assert L.m == n
    x = np.arange(1.0, n + 1.0)
    np.testing.assert_allclose(em.apply(L, x), x, atol=1e-12)


def test_two_stage_scaling_by_p():
    so = em.build_stage_one(np.eye(4)[:2])
    x = np.array([1.0, 2.0, 0.0, 0.0])
    L1 = em.two_stage_map(so, em.gaussian(), 9, p=1, seed=42)
    L2 = em.two_stage_map(so, em.gaussian(), 9, p=2, seed=42)
    np.testing.assert_array_equal(L1.matrix, L2.matrix)
    np.testing.assert_allclose(em.apply(L2, x), em.apply(L1, x) * 3.0, atol=1e-14)


def test_two_stage_refuses_ambient_dim_off_the_stage_one():
    so = em.build_stage_one(np.eye(5)[:3])
    with pytest.raises(ValueError, match="ambient_dim 7 disagrees"):
        em.two_stage_map(so, em.gaussian(), 4, 2, 0, ambient_dim=7)
    assert em.two_stage_map(so, em.gaussian(), 4, 2, 0, ambient_dim=5).input_dim == 5


def test_two_stage_m1_p1_no_scaling():
    L = em.two_stage_map(None, em.gaussian(), 1, p=1, seed=4, ambient_dim=3)
    x = np.array([1.0, -2.0, 0.5])
    assert abs(em.apply(L, x)[0] - float(L.matrix[0] @ x)) < 1e-14


def test_apply_zero_vector():
    L = em.two_stage_map(None, em.gaussian(), 8, p=2, seed=4, ambient_dim=5)
    np.testing.assert_array_equal(em.apply(L, np.zeros(5)), np.zeros(8))


def test_apply_kernel_of_stage_one():
    so = em.build_stage_one(np.eye(4)[:2])
    L = em.two_stage_map(so, em.gaussian(), 6, p=2, seed=4)
    x = np.array([0.0, 0.0, 1.0, -2.0])  # orthogonal to the span
    np.testing.assert_allclose(em.apply(L, x), np.zeros(6), atol=1e-14)


def test_apply_linearity():
    rng = np.random.default_rng(9)
    L = em.two_stage_map(None, em.sparse_pm(4.0), 16, p=2, seed=10, ambient_dim=12)
    for _ in range(50):
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        a, b = rng.standard_normal(2)
        lhs = em.apply(L, a * x + b * y)
        rhs = a * em.apply(L, x) + b * em.apply(L, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (np.linalg.norm(x) + np.linalg.norm(y))


def test_rank_one_bilinear_exact():
    L = em.rank_one_map(1, 3, 4, em.gaussian(), seed=6)
    M = np.arange(12.0).reshape(3, 4)
    want = float(L.matrix[0, :3] @ M @ L.matrix[0, 3:])
    assert abs(em.apply(L, M)[0] - want) < 1e-12


def test_rank_one_single_entry_product():
    L = em.rank_one_map(500, 4, 4, em.gaussian(), seed=8)
    M = np.zeros((4, 4))
    M[0, 0] = 1.0
    y = em.apply(L, M) * 500
    np.testing.assert_allclose(y, L.matrix[:, 0] * L.matrix[:, 4], atol=1e-12)


def test_rank_one_storage_cost():
    L = em.rank_one_map(7, 5, 9, em.gaussian(), seed=1)
    assert em.storage_cost(L) == 7 * (5 + 9)


def test_two_stage_storage_cost():
    assert em.storage_cost(em.two_stage_map(None, em.gaussian(), 7, 2, 1, ambient_dim=6)) == 7 * 6
    so = em.build_stage_one(np.eye(10)[:3])
    assert em.storage_cost(em.two_stage_map(so, em.gaussian(), 7, 1, 1)) == 7 * 3


@pytest.mark.parametrize("dist", [em.gaussian(), em.sparse_pm(3.0)])
def test_rank_one_map_is_the_two_stage_draw(dist):
    # one row draw serves both families: rank-one row i is [a_i, b_i]
    for m, n1, n2, seed in ((1, 1, 1, 0), (9, 3, 4, 5), (BLOCK + 2, 5, 2, 7)):
        L = em.rank_one_map(m, n1, n2, dist, seed)
        assert L.matrix.shape == (m, n1 + n2) and L.m == m
        want = em.two_stage_map(None, dist, m, 2, seed, ambient_dim=n1 + n2).matrix
        np.testing.assert_array_equal(L.matrix, want)


def test_a_map_is_its_drawn_block():
    assert [f.name for f in fields(em.MeasurementMap)] == ["variant", "matrix", "p_scale", "stage_one", "n1", "n2"]
    # m is the block's row count, so a row slice is the prefix map
    for L in (em.rank_one_map(9, 3, 4, em.gaussian(), seed=1),
              em.two_stage_map(None, em.gaussian(), 9, 2, seed=1, ambient_dim=5)):
        prefix = replace(L, matrix=L.matrix[:5])
        assert prefix.m == 5
        small = (em.rank_one_map(5, 3, 4, em.gaussian(), seed=1) if L.variant == "rank_one"
                 else em.two_stage_map(None, em.gaussian(), 5, 2, seed=1, ambient_dim=5))
        x = np.arange(1.0, prefix.input_dim + 1.0)
        np.testing.assert_array_equal(em.apply(prefix, x), em.apply(small, x))


def test_rows_extendable_in_m():
    La = em.two_stage_map(None, em.gaussian(), 4, p=2, seed=33, ambient_dim=5)
    Lb = em.two_stage_map(None, em.gaussian(), 8, p=2, seed=33, ambient_dim=5)
    np.testing.assert_array_equal(La.matrix, Lb.matrix[:4])
    # across the row-block boundary, for both laws and both map families
    B = BLOCK
    big = 2 * B + 3
    for dist in (em.gaussian(), em.sparse_pm(4.0)):
        full = em.two_stage_map(None, dist, big, p=2, seed=33, ambient_dim=5).matrix
        full_r1 = em.rank_one_map(big, 3, 4, dist, seed=33)
        for m in (B - 1, B, B + 1):
            part = em.two_stage_map(None, dist, m, p=2, seed=33, ambient_dim=5).matrix
            np.testing.assert_array_equal(part, full[:m])
            part_r1 = em.rank_one_map(m, 3, 4, dist, seed=33)
            np.testing.assert_array_equal(part_r1.matrix[:, :3], full_r1.matrix[:m, :3])
            np.testing.assert_array_equal(part_r1.matrix[:, 3:], full_r1.matrix[:m, 3:])


def test_apply_columns_rank_one_rejects_wrong_length():
    # every map takes a 2-D batch of columns of length input_dim = 12
    stage_one = em.build_stage_one(np.eye(12)[:5])
    maps = (em.rank_one_map(7, 3, 4, em.gaussian(), seed=2),
            em.two_stage_map(None, em.gaussian(), 7, p=2, seed=2, ambient_dim=12),
            em.two_stage_map(stage_one, em.gaussian(), 7, p=1, seed=2))
    for L in maps:
        assert em.apply_columns(L, np.zeros((12, 2))).shape == (7, 2)
        for X in (np.zeros((11, 2)), np.zeros((13, 1)), np.zeros(12), np.zeros((12, 1, 1))):
            with pytest.raises(ValueError, match="columns of length 12"):
                em.apply_columns(L, X)


def test_apply_takes_one_input():
    L = em.rank_one_map(7, 3, 4, em.gaussian(), seed=2)
    assert em.apply(L, np.ones((3, 4))).shape == em.apply(L, np.ones(12)).shape == (7,)
    with pytest.raises(ValueError, match="3 x 4 matrix"):
        em.apply(L, np.ones((4, 3)))
    L2 = em.two_stage_map(None, em.gaussian(), 7, p=2, seed=2, ambient_dim=12)
    with pytest.raises(ValueError, match="vector of length 12"):
        em.apply(L2, np.ones((3, 4)))
    with pytest.raises(ValueError, match="columns of length 12"):
        em.apply(L2, np.ones(11))


@pytest.mark.parametrize("dist", [em.gaussian(), em.sparse_pm(3.0)])
def test_rank_one_one_column_is_the_direct_contraction(dist):
    # oracle: the per-input contraction a_i^T M b_i / m as one einsum; both
    # apply and a one-column apply_columns must reproduce it bit for bit
    for seed, (m, n1, n2) in enumerate([(1, 1, 1), (9, 3, 4), (300, 16, 16), (50, 7, 2)]):
        L = em.rank_one_map(m, n1, n2, dist, seed=seed)
        M = em.sample_dist(em.gaussian(), (n1, n2), seed=100 + seed)
        a, b = L.matrix[:, :n1].copy(), L.matrix[:, n1:].copy()
        want = np.einsum("ij,jk,ik->i", a, M, b) / m
        np.testing.assert_array_equal(em.apply(L, M), want)
        np.testing.assert_array_equal(em.apply(L, M.ravel()), want)
        np.testing.assert_array_equal(em.apply_columns(L, M.reshape(-1, 1))[:, 0], want)
