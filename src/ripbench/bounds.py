"""Closed-form sample-complexity bounds, chaining sums, and moment constants.

Everything here is a pure formula evaluation: the chaining sums S1/S2/S3 with
their closed-form majorants, the sample-complexity expressions for the main
embedding guarantee and its two-stage specializations, the per-regime
concentration constants, the Stirling bracket for the double factorial, the
moment-growth constant alpha_X, the rank-one subexponential-norm bound, the
lower bound on E|a^T x|, and the sparse rank-one delta floor.

Absolute constants the source analysis leaves unnamed (the Bernstein c, the
two-stage C, the sparse-floor D) are explicit parameters defaulting to 1;
only the main bound's constant is fixed, at 3200, by its proof.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "BoundInputs",
    "ChainingSums",
    "DoubleFactorialBracket",
    "chaining_sums",
    "m_main",
    "m_main_raw",
    "m_two_stage",
    "m_two_stage_raw",
    "concentration_constants",
    "double_factorial",
    "double_factorial_bracket",
    "alpha_x",
    "rop_psi1_bound",
    "abs_mean_lower",
    "sparse_rop_delta1_floor",
]

LOG2 = math.log(2.0)
ROP_PSI1_CONST = 2.0 ** 1.5 / math.e  # 2^{3/2} e^{-1} ~ 1.0398


def _check_core(s: float, eps_S: float, xi: float) -> None:
    if not s >= 1.0:
        raise ValueError(f"need s >= 1, got {s}")
    if not (0.0 < eps_S < 0.5):
        raise ValueError(f"need eps_S in (0, 1/2), got {eps_S}")
    if not (0.0 < xi < 1.0):
        raise ValueError(f"need xi in (0, 1), got {xi}")


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound formulas.

    c1 and c2 are the subgaussian and subexponential concentration rates and
    may be math.inf (a regime that never fires); Lambda is the psi-norm ratio
    bound used by the two-stage formulas; C_abs defaults to the main bound's
    proof constant 3200.
    """

    s: float
    eps_S: float
    delta: float
    xi: float
    c1: float = 1.0
    c2: float = 1.0
    Lambda: float = 1.0
    C_abs: float = 3200.0

    def __post_init__(self) -> None:
        _check_core(self.s, self.eps_S, self.xi)
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"need delta in (0, 1), got {self.delta}")
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise ValueError("need c1, c2 > 0 (math.inf allowed)")
        if math.isinf(self.c1) and math.isinf(self.c2):
            raise ValueError("c1 and c2 cannot both be infinite: one regime must fire")
        if not self.Lambda > 0.0:
            raise ValueError("need Lambda > 0")
        if not self.C_abs > 0.0:
            raise ValueError("need C_abs > 0")


@dataclass(frozen=True)
class ChainingSums:
    """Numeric chaining sums (with truncation remainder folded in) and closed bounds."""

    S1: float
    S2: float
    S3: float
    S1_bound: float
    S2_bound: float
    S3_bound: float
    j_max: int
    remainder_S2: float
    remainder_S3: float


def chaining_sums(s: float, eps_S: float, xi: float, j_max: int = 64) -> ChainingSums:
    """Chaining sums over dyadic net radii, with Appendix-style closed majorants.

    The numeric sums replace the covering number at radius eps_S/2^{j+1} by its
    majorant 2^{(j+1)s} eps_S^{-s}, truncate at j_max, and add an analytic
    geometric-tail remainder so that comparing numeric <= closed bound stays
    honest.  S1 = sqrt(log(2/xi) + s log(1/eps_S)); S2 sums 2^{-j+1} sqrt(.)
    of the squared-count terms; S3 sums the same terms without the sqrt.
    """
    _check_core(s, eps_S, xi)
    if j_max < 32:
        raise ValueError("need j_max >= 32")
    le = math.log(1.0 / eps_S)
    l2xi = math.log(2.0 / xi)
    lxi = math.log(1.0 / xi)

    s1 = math.sqrt(l2xi + s * le)

    # term_j = log(2^{j+1}/xi) + 2s[(j+1) log2 + log(1/eps_S)] = alpha j + beta
    alpha = (1.0 + 2.0 * s) * LOG2
    beta = alpha + lxi + 2.0 * s * le
    s2 = 0.0
    s3 = 0.0
    for j in range(j_max + 1):
        term = alpha * j + beta
        w = 2.0 ** (-j + 1)
        s2 += w * math.sqrt(term)
        s3 += w * term
    # tails over j > j_max: sum_{j>=J} 2^{-j+1}(alpha j + beta) and the
    # sqrt version bounded through sqrt(x) <= (x+1)/2
    J = j_max + 1
    rem3 = 2.0 ** (-J + 2) * (alpha * (J + 1) + beta)
    rem2 = 2.0 ** (-J + 1) * (alpha * (J + 1) + beta + 1.0)
    s2 += rem2
    s3 += rem3

    s1b = math.sqrt(l2xi) + math.sqrt(s * le)
    s2b = 8.0 * math.sqrt(l2xi) + 8.0 * math.sqrt(2.0 * s * LOG2) + 4.0 * math.sqrt(2.0 * s * le)
    s3b = 8.0 * l2xi + 16.0 * s * LOG2 + 8.0 * s * le
    return ChainingSums(s1, s2, s3, s1b, s2b, s3b, j_max, rem2, rem3)


def m_main_raw(inputs: BoundInputs) -> float:
    """Pre-ceiling value of the main sample-complexity bound."""
    cmin = min(inputs.c1, inputs.c2)
    if cmin <= 0.0:
        raise ValueError("min(c1, c2) must be positive")
    if math.isinf(cmin):
        return 0.0
    crit = max(inputs.s * math.log(1.0 / inputs.eps_S), math.log(6.0 / inputs.xi))
    return inputs.C_abs / (cmin * inputs.delta**2) * crit


def m_main(inputs: BoundInputs) -> int:
    """m = ceil(C / (min(c1,c2) delta^2) * max{s log(1/eps_S), log(6/xi)})."""
    return int(math.ceil(m_main_raw(inputs)))


def m_two_stage_raw(
    p: int, Lambda: float, s: float, eps_S: float, delta: float, xi: float, C_abs: float = 1.0
) -> float:
    """Pre-ceiling two-stage bound; C_abs defaults to 1 (result per unit constant)."""
    if not (Lambda > 0.0 and C_abs > 0.0):
        raise ValueError("need Lambda, C_abs > 0")
    _check_core(s, eps_S, xi)
    if not (0.0 < delta < 1.0):
        raise ValueError("need delta in (0, 1)")
    if p == 1:
        factor = max(2.0 * Lambda * Lambda, Lambda)
    elif p == 2:
        factor = max(8.0 * Lambda**4, Lambda * Lambda)
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    crit = max(s * math.log(1.0 / eps_S), math.log(6.0 / xi))
    return C_abs / delta**2 * factor * crit


def m_two_stage(
    p: int, Lambda: float, s: float, eps_S: float, delta: float, xi: float, C_abs: float = 1.0
) -> int:
    return int(math.ceil(m_two_stage_raw(p, Lambda, s, eps_S, delta, xi, C_abs)))


def concentration_constants(p: int, Lambda: float, c_abs: float = 1.0):
    """Per-regime concentration rates and their crossover.

    p=1: (c1, c2) = (c/(4 Lambda^2), c/(2 Lambda)), crossover c2/c1 = 2 Lambda.
    p=2: (c1, c2) = (c/(64 Lambda^4), c/(8 Lambda^2)), crossover 8 Lambda^2.
    """
    if not (Lambda > 0.0 and c_abs > 0.0):
        raise ValueError("need Lambda, c_abs > 0")
    if p == 1:
        c1 = c_abs / (4.0 * Lambda * Lambda)
        c2 = c_abs / (2.0 * Lambda)
    elif p == 2:
        c1 = c_abs / (64.0 * Lambda**4)
        c2 = c_abs / (8.0 * Lambda * Lambda)
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    return c1, c2, c2 / c1


def double_factorial(k: int) -> int:
    """(2k-1)!! as an exact integer."""
    if k < 1:
        raise ValueError("need k >= 1")
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


@dataclass(frozen=True)
class DoubleFactorialBracket:
    exact: int
    lower: float
    upper: float

    @property
    def contains_exact(self) -> bool:
        return self.lower <= float(self.exact) <= self.upper


def double_factorial_bracket(k: int) -> DoubleFactorialBracket:
    """Stirling-style bracket sqrt(2) 2^k (k/e)^k e^{lambda_{2k}-lambda_k}.

    The correction lambda_k lies in [1/(12k+1), 1/(12k)]; the bracket endpoints
    take the extreme combinations.  Log-domain arithmetic; k is capped at 50 so
    the exact value stays comfortably inside floating range.
    """
    if not (1 <= k <= 50):
        raise ValueError("need 1 <= k <= 50")
    log_base = 0.5 * LOG2 + k * LOG2 + k * (math.log(k) - 1.0)
    lo_exp = 1.0 / (24.0 * k + 1.0) - 1.0 / (12.0 * k)
    hi_exp = 1.0 / (24.0 * k) - 1.0 / (12.0 * k + 1.0)
    return DoubleFactorialBracket(
        exact=double_factorial(k),
        lower=math.exp(log_base + lo_exp),
        upper=math.exp(log_base + hi_exp),
    )


def alpha_x(moments_2k, k_max: int = 64) -> float:
    """Moment-growth constant sup_k [E X^{2k} / (2k-1)!!]^{1/(2k)}.

    `moments_2k` is either a callable k -> E X^{2k} or a DistSpec from the
    embeddings module (Gaussian: E X^{2k} = (2k-1)!! exactly, so the constant
    is 1; sparse plus-minus with parameter q: E X^{2k} = q^{k-1}).  Ratios are
    evaluated in log domain.  Warns when the maximizer sits at k_max.
    """
    if k_max < 8:
        raise ValueError("need k_max >= 8")
    log_moment = _log_moment_fn(moments_2k)
    best = -math.inf
    best_k = 0
    for k in range(1, k_max + 1):
        log_df = math.log(double_factorial(k)) if k <= 50 else _log_double_factorial(k)
        ratio = math.exp((log_moment(k) - log_df) / (2.0 * k))
        if ratio > best:
            best = ratio
            best_k = k
    if best_k == k_max:
        warnings.warn(f"alpha_x maximizer at k_max={k_max}; value may be truncated")
    return best


def _log_double_factorial(k: int) -> float:
    # (2k-1)!! = (2k)! / (2^k k!)
    return math.lgamma(2 * k + 1) - k * LOG2 - math.lgamma(k + 1)


def _log_moment_fn(moments_2k):
    variant = getattr(moments_2k, "variant", None)
    if variant == "gaussian":
        return lambda k: (math.log(double_factorial(k)) if k <= 50 else _log_double_factorial(k))
    if variant == "sparse_pm":
        lq = math.log(moments_2k.q)
        return lambda k: (k - 1) * lq
    if callable(moments_2k):
        return lambda k: math.log(float(moments_2k(k)))
    raise TypeError("moments_2k must be callable or a DistSpec")


def rop_psi1_bound(alpha: float, frobenius_norm: float) -> float:
    """Subexponential-norm bound 2^{3/2} e^{-1} alpha^2 ||M||_F for a^T M b."""
    if not (alpha >= 0.0 and frobenius_norm >= 0.0):
        raise ValueError("inputs must be >= 0")
    return ROP_PSI1_CONST * alpha * alpha * frobenius_norm


def abs_mean_lower(C_psi: float) -> float:
    """Multiplier 1/(2 e^3 C (1 + log C)) in the lower bound on E|a^T x| / ||x||."""
    if not C_psi >= 2.0:
        raise ValueError("need C_psi >= 2")
    return 1.0 / (2.0 * math.e**3 * C_psi * (1.0 + math.log(C_psi)))


def sparse_rop_delta1_floor(q: float, D_param: float) -> float:
    """Floor D/(q (1 + log q)) on the smallest mean measurement magnitude, q >= 2."""
    if not q >= 2.0:
        raise ValueError("need q >= 2")
    if not D_param > 0.0:
        raise ValueError("need D_param > 0")
    return D_param / (q * (1.0 + math.log(q)))
