"""Acceptance gates, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Headline probability
statements are checked through exact-formula reproduction, independent
oracles, and scaling-law behavior; the absolute constants make direct
verification of the probability bounds infeasible at desk scale.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import ripbench.bounds as bd
import ripbench.cli as cli
import ripbench.embeddings as em
import ripbench.haar_fourier as hf
import ripbench.model_sets as ms
import ripbench.rip_estimator as ripest
import ripbench.tail_probes as tp
from ripbench._rng import CH_MU, CH_TRIAL, child_seed, substream


def test_c01_counterexample_oracle_equivalence():
    bf, _witness = ms.secant_alpha_bruteforce(0.5, 1.0, 30)
    res = ms.secant_alpha_formula(0.5, 1.0)
    assert abs(bf - res.alpha_exact) < 1e-9
    assert abs(bf - math.sqrt(1.0 / 6.0)) < 1e-9
    assert round(bf, 6) == 0.408248
    assert bf > res.alpha_lb
    assert abs(res.alpha_lb - 1.0 / 3.0) < 1e-12


def test_c02_vk_separation():
    for r, b in ((0.5, 1.0), (0.9, 2.0)):
        bound = 1.0 / math.sqrt(1.0 + r * r + b * b * (1.0 - r) ** 2)
        assert abs(ms.vk_min_separation(r, b) - bound) < 1e-12
        assert ms.vk_min_pairwise(r, b, 20) >= bound - 1e-12


def test_c03_haar_fourier_exactness():
    # full sweep: every Haar function of the n=16 block against adaptive
    # quadrature on the wavelet pieces, frequencies |l| <= 64
    for j in range(16):
        if j == 0:
            pts = None
        else:
            s, k = hf.haar_index(j)
            pts = [k / 2.0**s, (k + 0.5) / 2.0**s, (k + 1.0) / 2.0**s]
        for l in range(-64, 65):
            re = quad(lambda t: math.cos(2 * math.pi * l * t) * hf.haar_fn(j, t),
                      0.0, 1.0, points=pts, limit=200)[0]
            im = quad(lambda t: -math.sin(2 * math.pi * l * t) * hf.haar_fn(j, t),
                      0.0, 1.0, points=pts, limit=200)[0]
            assert abs(hf.haar_fourier_coeff(l, j) - (re + 1j * im)) < 1e-10, (l, j)

    assert abs(hf.balancing_residual(hf.build_u_block(3, 2))
               - (1.0 - 8.0 / math.pi**2)) < 1e-10

    for n in (2, 4, 8):
        block = hf.build_u_block(512, n)
        G = np.zeros((n, n))
        prev = math.inf
        for d in range(1, 513):
            row = block.entries[d - 1]
            G = G + np.outer(row.conj(), row).real
            resid = hf.spectral_norm_sym(G - np.eye(n))
            assert resid <= prev + 1e-12, (n, d)
            prev = resid


def test_c04_minimal_d_trend():
    ds = {}
    for n in (8, 16, 32, 64):
        res = hf.min_d_for_eps(n, 0.1, d_max=4096)
        assert res.found
        ds[n] = res.d
    assert ds[8] == 27  # frozen from a deterministic evaluation
    ratios = [d / n for n, d in ds.items()]
    assert max(ratios) <= 2.0 * min(ratios)


def test_c05_rank_one_gaussian_l1_concentration():
    seed = 1400
    rng = substream(seed, CH_MU)
    M = np.outer(rng.standard_normal(16), rng.standard_normal(16))
    M /= np.linalg.norm(M)

    def l1_vals(m):
        out = np.empty(200)
        for t in range(200):
            L = em.rank_one_map(m, 16, 16, em.gaussian(), child_seed(seed, CH_TRIAL, m, t))
            out[t] = np.sum(np.abs(em.apply(L, M)))
        return out

    v1000 = l1_vals(1000)
    v250 = l1_vals(250)
    assert abs(v1000.mean() - 2.0 / math.pi) < 0.02 * (2.0 / math.pi)
    ratio = v250.std(ddof=1) / v1000.std(ddof=1)
    assert 1.0 <= ratio <= 4.0  # CLT predicts 2, factor-2 window


def test_c06_sparse_p_exactness():
    seed = 1400
    for q in (2.0, 4.0):
        dist = em.sparse_pm(q)
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        spec = ripest.MuNormSpec(mode="analytic", dist=dist, variant="rank_one",
                                 m=1, n1=3, n2=3)
        assert abs(ripest.mu_pnorm(spec, M.ravel(), 1).value - 1.0 / q) < 1e-15

        a = em.sample_dist(dist, 1_000_000, child_seed(seed, 1, int(q)))
        b = em.sample_dist(dist, 1_000_000, child_seed(seed, 2, int(q)))
        mc = float(np.abs(a * b).mean())
        assert abs(mc - 1.0 / q) < 0.05 / q

        # largest D whose floor stays below the exact mean has the stated shape
        d_fit = (1.0 / q) * q * (1.0 + math.log(q))
        assert abs(bd.sparse_rop_delta1_floor(q, d_fit) - 1.0 / q) < 1e-15
        assert d_fit <= 1.0 + math.log(q) + 1e-12


def test_c07_delta_sqrt_m_scaling():
    rows = ripest.rip_sweep(ms.Sparse(n=32, k=2), em.gaussian(),
                            [64, 128, 256, 512], 2, 10_000, 20, seed=505)
    prods = [r.delta_median * math.sqrt(r.m) for r in rows]
    assert max(prods) <= 2.0 * min(prods)


def test_c08_chaining_sums():
    for s in (1.0, 4.0, 16.0):
        for eps in (0.49, 0.25, 0.01):
            for xi in (0.5, 0.1, 1e-4):
                sums = bd.chaining_sums(s, eps, xi)
                assert sums.S1 <= sums.S1_bound
                assert sums.S2 <= sums.S2_bound
                assert sums.S3 <= sums.S3_bound
    pinned = bd.chaining_sums(4.0, 0.25, 0.1)
    assert abs(pinned.S1 - 2.9225) < 1e-4
    assert abs(pinned.S1_bound - 4.0857) < 1e-4


def test_c09_bound_formulas():
    inputs = bd.BoundInputs(s=8.0, eps_S=0.0076638, delta=0.5, xi=0.1)
    # ceiling of the exactly evaluated formula (raw value 498815.727...)
    assert bd.m_main(inputs) == 498816
    half = bd.BoundInputs(s=8.0, eps_S=0.0076638, delta=0.25, xi=0.1)
    assert abs(bd.m_main_raw(half) - 4.0 * bd.m_main_raw(inputs)) \
        < 1e-9 * bd.m_main_raw(half)


def test_c10_moment_machinery():
    for k in range(1, 51):
        br = bd.double_factorial_bracket(k)
        assert br.lower <= br.exact <= br.upper
        # gamma-function oracle for the Gaussian even moments
        exact_moment = 2.0**k * math.gamma(k + 0.5) / math.sqrt(math.pi)
        ratio = (exact_moment / br.exact) ** (1.0 / (2.0 * k))
        assert abs(ratio - 1.0) < 1e-12
    assert abs(bd.alpha_x(em.gaussian(), k_max=64) - 1.0) < 1e-12
    for q in (2.0, 4.0, 16.0, 64.0):
        a = bd.alpha_x(em.sparse_pm(q))
        assert 1.0 <= a <= 1.39 * math.sqrt(q)
    psi = tp.psi_norm(moments=tp.abs_moment_normal, alpha=2)
    assert abs(psi.value - math.sqrt(2.0 / math.pi)) < 1e-12
    assert round(psi.value, 5) == 0.79788
    mc = tp.psi_norm(sampler=lambda n, g: g.standard_normal(n), alpha=2,
                     n_mc=1_000_000, seed=9)
    assert abs(mc.value - psi.value) < 0.1 * psi.value


def test_c11_covering():
    secs = ms.normalized_secants(ms.Sparse(n=8, k=1), count=400, seed=77)
    dirs = secs.directions.T
    for eps in (0.5, 0.25):
        net = ms.greedy_net(dirs, eps)
        centers = np.stack(net.centers)
        for x in dirs:
            assert np.min(np.linalg.norm(centers - x, axis=1)) <= eps + 1e-12
        for i in range(len(centers)):
            d = np.linalg.norm(centers[i + 1:] - centers[i], axis=1)
            assert d.size == 0 or np.min(d) > eps - 1e-12
        assert len(centers) <= (3.0 * math.e * 8.0 / (2.0 * eps)) ** 2


def test_c12_norm_identities():
    rng = np.random.default_rng(404)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 1, 9))
        block = rng.standard_normal((d, n))
        so = em.build_stage_one(block)
        B = np.asarray(block)
        P = B.T @ np.linalg.solve(B @ B.T, B)
        for _ in range(100):
            x = rng.standard_normal(n)
            got = em.b_norm(so, em.apply_stage_one(so, x))
            want = float(np.linalg.norm(P @ x))
            assert abs(got - want) < 1e-10
            assert got <= np.linalg.norm(x) + 1e-12


CLI_RUNS = [
    ("net", "--model", "sparse", "--n", "6", "--k", "1", "--count", "15",
     "--eps", "0.5"),
    ("boxdim", "--model", "sparse", "--n", "6", "--k", "1", "--count", "20",
     "--eps-grid", "0.5,0.35,0.25"),
    ("rip-sweep", "--model", "sparse", "--n", "6", "--k", "2", "--m-list", "4,8",
     "--n-secants", "8", "--trials", "2"),
    ("rop", "--n1", "3", "--n2", "3", "--m", "20", "--trials", "10"),
    ("haar-fourier", "--n", "2", "--eps-star", "0.19"),
    ("bounds", "--theorem", "1", "--s", "4", "--eps-s", "0.25", "--delta", "0.5",
     "--xi", "0.1"),
    ("tails", "--probe", "bernstein", "--sampler", "exp", "--psi-k", "1.0",
     "--m", "8", "--t-grid", "0,0.3", "--trials", "1000"),
    ("counterexample", "--r", "0.5", "--b", "1"),
]


def test_c13_cli_determinism(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    for argv in CLI_RUNS:
        outs = []
        for _ in range(2):
            rc = cli.main(list(argv) + ["--seed", "23"])
            cap = capsys.readouterr()
            assert rc == 0, (argv, cap.err)
            outs.append(cap.out)
        assert outs[0] == outs[1], argv
        json.loads(outs[0])  # reports stay machine-readable
