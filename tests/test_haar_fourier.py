import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import ripbench.cli as cli
from ripbench import haar_fourier as hf


# ---------------------------------------------------------------------------
# closed-form coefficients
# ---------------------------------------------------------------------------

def test_scaling_coefficients():
    assert hf.haar_fourier_coeff(0, 0) == 1.0 + 0.0j
    assert abs(hf.haar_fourier_coeff(5, 0)) < 1e-15


def test_mother_wavelet_l1():
    c = hf.haar_fourier_coeff(1, 1)  # j=1 is (s=0, k=0)
    assert abs(c - (-2.0j / math.pi)) < 1e-12
    assert abs(abs(c) - 2.0 / math.pi) < 1e-12
    assert abs(abs(c) - 0.63662) < 1e-5


def test_conjugate_symmetry():
    for j in range(8):
        for l in (1, 2, 5, 17):
            a = hf.haar_fourier_coeff(l, j)
            b = hf.haar_fourier_coeff(-l, j)
            assert abs(a - np.conj(b)) < 1e-14


def _quad_coeff(l, j):
    # independent oracle: integrate e^{-2 pi i l t} against the Haar function,
    # splitting at the wavelet breakpoints so quad sees smooth pieces
    if j == 0:
        pts = []
    else:
        s, k = hf.haar_index(j)
        pts = [k / 2.0**s, (k + 0.5) / 2.0**s, (k + 1.0) / 2.0**s]
    re = quad(lambda t: math.cos(2 * math.pi * l * t) * hf.haar_fn(j, t),
              0.0, 1.0, points=pts or None, limit=200)[0]
    im = quad(lambda t: -math.sin(2 * math.pi * l * t) * hf.haar_fn(j, t),
              0.0, 1.0, points=pts or None, limit=200)[0]
    return re + 1j * im


def test_closed_form_vs_quadrature_sample():
    # spot grid here; the full l <= 64, n <= 16 sweep runs in acceptance
    for j in (0, 1, 2, 3, 5, 7):
        for l in (-9, -2, 0, 1, 4, 16):
            closed = hf.haar_fourier_coeff(l, j)
            assert abs(closed - _quad_coeff(l, j)) < 1e-10, (l, j)


# ---------------------------------------------------------------------------
# U blocks
# ---------------------------------------------------------------------------

def test_ublock_trivial():
    u = hf.build_u_block(1, 1)
    np.testing.assert_allclose(u.entries, [[1.0 + 0.0j]])
    assert u.freq_order == (0,)


def test_ublock_column_norms_three_freqs():
    u = hf.build_u_block(3, 2)
    assert u.freq_order == (0, 1, -1)
    norms = np.linalg.norm(u.entries, axis=0)
    assert abs(norms[0] - 1.0) < 1e-12
    assert abs(norms[1] - math.sqrt(8.0 / math.pi**2)) < 1e-12
    assert abs(norms[1] - 0.90032) < 1e-5


def test_ublock_column_norms_bounded():
    u = hf.build_u_block(65, 8)
    norms = np.linalg.norm(u.entries, axis=0)
    assert np.all(norms <= 1.0 + 1e-12)


def test_ublock_rejects_bad_n():
    with pytest.raises(ValueError):
        hf.build_u_block(5, 3)


def test_parseval_partial_sums():
    # tail of the finest-scale column decays like 4.87/d: 0.99881 at d=4096,
    # crossing 0.999 near d=6000
    u = hf.build_u_block(4097, 16)
    norms2 = np.linalg.norm(u.entries, axis=0) ** 2
    assert np.all(norms2 > 0.9988)
    u2 = hf.build_u_block(8193, 16)
    assert np.all(np.linalg.norm(u2.entries, axis=0) ** 2 > 0.999)


def test_gram_off_diagonal_vanishes():
    u = hf.build_u_block(4097, 8)
    g = (u.entries.conj().T @ u.entries).real
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) < 1e-3


# ---------------------------------------------------------------------------
# balancing residual and minimal d
# ---------------------------------------------------------------------------

def test_residual_trivial_zero():
    u = hf.build_u_block(1, 1)
    assert hf.balancing_residual(u) < 1e-12


def test_residual_three_freqs_closed_form():
    u = hf.build_u_block(3, 2)
    want = 1.0 - 8.0 / math.pi**2
    assert abs(hf.balancing_residual(u) - want) < 1e-10
    assert abs(want - 0.18943) < 1e-5
    # a block built by hand in row-major order has the same residual
    row_major = hf.UBlock(np.ascontiguousarray(u.entries), u.freq_order, u.n)
    assert hf.balancing_residual(row_major) == hf.balancing_residual(u)


def test_residual_65_freqs_small():
    u = hf.build_u_block(65, 2)
    assert hf.balancing_residual(u) < 0.02


def test_residual_non_increasing_in_d():
    for n in (2, 4, 8):
        prev = math.inf
        for d in (1, 3, 9, 33, 129, 513):
            res = hf.balancing_residual(hf.build_u_block(d, n))
            assert res <= prev + 1e-12
            prev = res


def test_min_d_trivial():
    res = hf.min_d_for_eps(1, 0.5)
    assert res.found and res.d == 1


def test_min_d_n2():
    res = hf.min_d_for_eps(2, 0.19)
    assert res.found and res.d == 3


def test_min_d_first_passing():
    res = hf.min_d_for_eps(2, 0.19)
    assert hf.balancing_residual(hf.build_u_block(res.d, 2)) <= 0.19
    assert hf.balancing_residual(hf.build_u_block(res.d - 1, 2)) > 0.19


def _scan_residuals(n, d_max):
    """Residual at every d = 1..d_max from a fresh Gram R^T R per prefix, R the
    contiguous 2d x n block [Re u_0; Im u_0; Re u_1; ...] of the first d rows."""
    block = hf.build_u_block(d_max, n).entries
    out = []
    for d in range(1, d_max + 1):
        R = np.empty((2 * d, n))
        R[0::2], R[1::2] = block[:d].real, block[:d].imag
        out.append(hf.spectral_norm_sym(R.T @ R - np.eye(n)))
    return out


def _scan_min_d(resids, eps_star):
    """(found, d, residual) of the linear scan: the first d that passes, or the
    residual at d_max."""
    for d, r in enumerate(resids, start=1):
        if r <= eps_star:
            return True, d, r
    return False, None, resids[-1]


def test_min_d_matches_linear_scan_bit_for_bit(monkeypatch):
    # thresholds come from this run's scan: the last bits of eigvalsh depend
    # on the BLAS build and thread count, so none is hard-coded
    d_max, plateaus = 50, 0
    for n in (1, 2, 4, 8, 16, 32):
        resids = _scan_residuals(n, d_max)
        plateaus += sum(b > a for a, b in zip(resids, resids[1:]))
        eps_grid = {0.5, 0.2, 0.1, 0.05, 1e-6}  # 1e-6: not found within d_max
        for r in set(resids):
            eps_grid.update(x for x in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)) if 0.0 < x < 1.0)
        for eps in sorted(eps_grid):
            res = hf.min_d_for_eps(n, float(eps), d_max=d_max)
            assert (res.found, res.d, res.residual) == _scan_min_d(resids, eps), (n, eps)
    assert plateaus > 0  # the grid holds residual upticks, where plain bisection errs
    assert not hf.min_d_for_eps(16, 1e-6, d_max=d_max).found
    # n = 64: the residual stays within 1e-9 of its value at d = 214 up to d = 319,
    # so a threshold on that plateau sends the guard's rescan along it
    resids = _scan_residuals(64, 330)
    assert max(abs(r - resids[213]) for r in resids[213:319]) < 1e-9
    evaluated, residual_of = [], hf._residual

    def residual(rows):
        evaluated.append(len(rows))
        return residual_of(rows)

    monkeypatch.setattr(hf, "_residual", residual)
    for eps in (np.nextafter(resids[213], 0.0), resids[213], np.nextafter(resids[213], 1.0)):
        evaluated.clear()
        res = hf.min_d_for_eps(64, float(eps), d_max=330)
        assert (res.found, res.d, res.residual) == _scan_min_d(resids, eps), eps
        # the rescan reads the residuals the bracket holds: each d once
        assert len(evaluated) == len(set(evaluated)), eps


@pytest.mark.parametrize("n,d", [(64, 214), (128, 428), (256, 856)])
def test_min_d_at_eps_point_one(n, d):
    res = hf.min_d_for_eps(n, 0.1)
    assert res.found and res.d == d


def test_balancing_residual_has_the_search_bits():
    # one product per d: a block's residual is the value the search compares
    d_max = 50
    for n in (1, 2, 4, 8, 16, 32):
        resids = _scan_residuals(n, d_max)
        for d in range(1, d_max + 1):
            assert hf.balancing_residual(hf.build_u_block(d, n)) == resids[d - 1], (n, d)


def test_ublock_rows_are_prefix_stable():
    for n in (1, 8, 64):
        full = hf.build_u_block(300, n)
        for d in (1, 2, 37, 128, 300):
            assert hf.build_u_block(d, n).entries.tobytes() == full.entries[:d].tobytes()
            assert hf.build_u_block(d, n).freq_order == full.freq_order[:d]


def _min_d_report(capsys, *flags):
    rc = cli.main(["haar-fourier", *flags, "--seed", "0"])
    rep = json.loads(capsys.readouterr().out)
    del rep["subcommand"], rep["config"]
    return rc, rep


def test_min_d_not_found_carries_residual(capsys):
    res = hf.min_d_for_eps(4, 1e-4, d_max=32)
    assert not res.found
    assert res.residual > 1e-4
    assert res.d_max == 32
    rc, d = _min_d_report(capsys, "--n", "4", "--eps-star", "1e-4", "--d-max", "32")
    assert rc == 3
    assert d == {"n": 4, "eps_star": 1e-4, "d": None, "error": "not_found",
                 "residual_at_d_max": res.residual, "d_max": 32}


def test_min_d_json_fields(capsys):
    rc, d = _min_d_report(capsys, "--n", "2", "--eps-star", "0.19")
    assert rc == 0
    assert d == {"n": 2, "eps_star": 0.19, "d": 3}


# ---------------------------------------------------------------------------
# spectral norm helper and CSV export
# ---------------------------------------------------------------------------

def test_spectral_norm_sym_matches_eigh():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((12, 12))
        A = (A + A.T) / 2
        want = np.max(np.abs(np.linalg.eigvalsh(A)))
        assert abs(hf.spectral_norm_sym(A) - want) < 1e-8 * max(1.0, want)


def test_ublock_csv_shape(capsys):
    argv = ["haar-fourier", "--n", "2", "--d-freq", "3", "--format", "csv", "--seed", "0"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "freq,re_0,im_0,re_1,im_1"
    assert len(lines) == 5  # header + 3 frequencies + config comment
    u = hf.build_u_block(3, 2)
    for line, l, row in zip(lines[1:4], u.freq_order, u.entries):
        cells = line.split(",")
        assert int(cells[0]) == l
        got = np.asarray([float(v) for v in cells[1:]])
        np.testing.assert_array_equal(got, np.column_stack([row.real, row.imag]).ravel())
