"""Closed-form Haar-wavelet Fourier coefficients, the truncation balancing
residual, and the minimal-frequency-count search.

Bases on [0, 1): Fourier exponentials phi_l(t) = e^{2 pi i l t} and the Haar
system psi_j, ordered scaling function first, then wavelets coarse to fine
(s = 0, 1, ...) with shifts k ascending; column j >= 1 carries (s, k) with
j = 2^s + k.  n must be a power of two so the columns form the full Haar
basis of resolution J = log2(n).

The inner product <phi_l, psi_j> = integral e^{-2 pi i l t} psi_j(t) dt has
the closed form 2^{-s/2} e^{-2 pi i l k / 2^s} W(l / 2^s) with
W(theta) = (1 - e^{-i pi theta})^2 / (2 pi i theta), W(0) = 0.

The balancing residual measures how much energy the first d frequencies lose
on Haar-sparse signals: || Re(U* U) - I ||_2 for the d x n coefficient block
U.  The real part suffices because Haar coordinate vectors are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UBlock",
    "MinDResult",
    "frequency_order",
    "haar_index",
    "haar_fn",
    "haar_fourier_coeff",
    "build_u_block",
    "balancing_residual",
    "min_d_for_eps",
    "spectral_norm_sym",
]


def frequency_order(d_freq: int) -> list:
    """Frequencies low to high: 0, 1, -1, 2, -2, ..."""
    if d_freq < 1:
        raise ValueError("need d_freq >= 1")
    out = [0]
    l = 1
    while len(out) < d_freq:
        out.append(l)
        if len(out) < d_freq:
            out.append(-l)
        l += 1
    return out


def haar_index(j: int):
    """Column index to Haar label: 0 is the scaling function, j = 2^s + k the
    (scale s, shift k) wavelet."""
    if j < 0:
        raise ValueError("need j >= 0")
    if j == 0:
        return None
    s = j.bit_length() - 1
    k = j - (1 << s)
    return s, k


def haar_fn(j: int, t: np.ndarray) -> np.ndarray:
    """Pointwise evaluation of Haar column j on [0, 1)."""
    t = np.asarray(t, dtype=float)
    label = haar_index(j)
    if label is None:
        return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)
    s, k = label
    u = (2.0**s) * t - k
    out = np.zeros_like(t)
    out[(u >= 0.0) & (u < 0.5)] = 1.0
    out[(u >= 0.5) & (u < 1.0)] = -1.0
    return (2.0 ** (s / 2.0)) * out


def _haar_column(ls: np.ndarray, j: int) -> np.ndarray:
    """<phi_l, psi_j> over the frequencies ls, in closed form."""
    label = haar_index(j)
    if label is None:
        return np.where(ls == 0.0, 1.0 + 0.0j, 0.0j)
    s, k = label
    theta = ls / (2.0**s)
    z = 1.0 - np.exp(-1j * math.pi * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(theta == 0.0, 0.0j, z * z / (2j * math.pi * np.where(theta == 0.0, 1.0, theta)))
    phase = np.exp(-2j * math.pi * ls * k / (2.0**s))
    return (2.0 ** (-s / 2.0)) * phase * w


def haar_fourier_coeff(l: int, j: int) -> complex:
    """<phi_l, psi_j> in closed form."""
    return complex(_haar_column(np.array([float(l)]), j)[0])


@dataclass(frozen=True)
class UBlock:
    """d_freq x n block of <phi_l, psi_j> with its frequency ordering."""

    entries: np.ndarray
    freq_order: tuple
    n: int


def build_u_block(d_freq: int, n: int) -> UBlock:
    # power-of-two n only: columns must form a complete Haar resolution
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two, got {n}")
    freqs = frequency_order(d_freq)
    ls = np.asarray(freqs, dtype=float)
    columns = np.empty((n, d_freq), dtype=complex)
    for j in range(n):
        columns[j] = _haar_column(ls, j)
    # column-major entries: any row prefix views as the real block of _residual
    return UBlock(entries=columns.T, freq_order=tuple(freqs), n=n)


def spectral_norm_sym(A: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Symmetric QR iteration (LAPACK via eigvalsh), accurate to machine
    precision.  Power iteration was rejected here: its Rayleigh-ratio
    stopping rule stalls when the two extreme eigenvalues nearly tie in
    magnitude, and the Gram residuals this feeds on are small enough that
    a full eigendecomposition costs nothing.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def _residual(rows: np.ndarray) -> float:
    """|| Re(U* U) - I ||_2 for the rows of U, a row prefix of build_u_block's
    entries.  U.T.view(float) is the n x 2d block [Re u_0, Im u_0, Re u_1, ...]
    of U's rows as columns, without a copy, so Re(U* U) is one real product and
    the residual at d depends on the first d rows alone."""
    R_T = rows.T.view(float)
    G = R_T @ R_T.T
    G[np.diag_indices(len(G))] -= 1.0  # G - I in place: no second n x n array
    return spectral_norm_sym(G)


def balancing_residual(u: UBlock) -> float:
    """|| Re(U* U) - I ||_2 for the truncated coefficient block (no copy for
    build_u_block's column-major entries)."""
    return _residual(np.asfortranarray(u.entries))


@dataclass(frozen=True)
class MinDResult:
    found: bool
    d: int | None
    residual: float
    n: int
    eps_star: float
    d_max: int


# a failing d whose residual exceeds eps_star + _TOL bounds every smaller d:
# _TOL is 5e5 times the largest float uptick seen (1.8e-15, n = 256, d <= 1000)
_TOL = 1e-9


def min_d_for_eps(n: int, eps_star: float, d_max: int = 4096) -> MinDResult:
    """Smallest frequency count d with balancing residual <= eps_star.

    In exact arithmetic the residual is non-increasing in d: each added
    frequency adds a positive-semidefinite rank-one term to the real Gram,
    which the identity caps.  So d doubles until the residual passes, then the
    last bracket is bisected; every residual is _residual of the first d rows,
    as balancing_residual computes it.  In floating point the residual can
    rise by a few ulps on plateaus, so if the last failing d lies within _TOL
    of eps_star, the search scans on from the largest d that failed by more,
    evaluating each d once.
    The result is a linear scan's; found=False carries the residual at d_max.
    """
    if not (0.0 < eps_star < 1.0):
        raise ValueError("need eps_star in (0, 1)")
    if d_max < 1:
        raise ValueError("need d_max >= 1")
    rows = build_u_block(1, n).entries
    resid = {}
    lo = clear = 0  # largest evaluated d that fails, and that fails by more than _TOL
    hi, rescan = None, False  # smallest evaluated d that passes
    while True:
        if (hi or d_max + 1) - lo <= 1:
            if rescan or clear == lo:
                break
            rescan, lo = True, clear  # lo failed within _TOL: scan on from clear
        d = lo + 1 if rescan else min(max(2 * lo, 1), d_max) if hi is None else (lo + hi) // 2
        if d not in resid:  # the rescan passes d the bracket already evaluated
            if d > len(rows):
                rows = build_u_block(d, n).entries  # rows are prefix-stable
            resid[d] = _residual(rows[:d])
        if resid[d] <= eps_star:
            hi = d
        else:
            lo = d
            if resid[d] > eps_star + _TOL:
                clear = d
    return MinDResult(hi is not None, hi, resid[hi or d_max], n, eps_star, d_max)
