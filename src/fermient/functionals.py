"""Entropy functions on [0, 1] and the coefficient functional behind the
enhanced area law.

The scaling coefficient of a Renyi entropy sweep factorizes as

    prefactor(alpha) * J(boundaries) * L^(d-1) * ln L,

and prefactor(alpha) is the value of a singular integral functional

    I(f) = (1 / (4*pi^2)) * integral_0^1 (f(t) - t * f(1)) / (t * (1 - t)) dt

at the order-alpha entropy function.  This module provides the entropy
functions themselves, one double-exponential quadrature for I(f) with
fixed settings that raises unless it converges, and its oracle

    I(h_alpha) = (1 + alpha) / (24 * alpha).

A dilogarithm route to it remains for the `functional` record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import DiscretizationError

__all__ = [
    "entropy_function",
    "FunctionalResult",
    "log_coefficient_functional",
    "entropy_log_coefficient",
    "predicted_log_prefactor",
    "MIN_ENTROPY_LOG_PREFACTOR",
]

# Limit of (1 + alpha) / (24 * alpha) as alpha -> infinity: the
# min-entropy (largest alpha) prefactor, and the infimum over alpha.
MIN_ENTROPY_LOG_PREFACTOR = 1.0 / 24.0

# Settings of the I(f) quadrature: the truncation |v| <= HALF_WIDTH of
# the double-exponential variable (|u| from 2e-19 to 4e18, so t lies
# within 1e-19 of 1/2 at one end and underflows to the endpoint at the
# other), the absolute stopping tolerance on the halving increment, and
# the number of step-halving refinements attempted.
HALF_WIDTH = 4.0
TOL = 1e-12
MAX_LEVELS = 11


def entropy_function(t, alpha: float):
    """Order-alpha Renyi entropy of a (t, 1-t) two-point distribution.

        h_alpha(t) = ln(t^alpha + (1-t)^alpha) / (1 - alpha)

    for alpha != 1, the binary Shannon entropy at alpha = 1, and
    -ln(max(t, 1-t)) at alpha = inf.  t is clipped to [0, 1], so a
    value outside it reads as the endpoint it passed, where h_alpha is
    0; NaN stays NaN.  Deciding whether such a value is roundoff or a
    broken spectrum is spectra._clamped's, which a Spectrum has passed.

    Evaluated in the form

        (alpha * ln M + log1p((m / M)^alpha)) / (1 - alpha),

    M = max(t, 1-t), m = min(t, 1-t), which keeps full precision near
    both endpoints for alpha < 1 as well as alpha > 1.

    Parameters
    ----------
    t : float or array_like
    alpha : positive Renyi order; math.inf allowed

    Returns
    -------
    float or ndarray, shape of t
    """
    if not alpha > 0:
        raise ValueError(f"Renyi order must be positive, got {alpha}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    x = np.clip(np.atleast_1d(t_arr), 0.0, 1.0)
    big = np.maximum(x, 1.0 - x)
    small = np.minimum(x, 1.0 - x)

    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = -np.where(small > 0, small * np.log(small), 0.0) \
                - big * np.log(big)
    elif math.isinf(alpha):
        vals = -np.log(big)
    else:
        ratio = np.where(big > 0, small / big, 0.0)
        with np.errstate(divide="ignore"):
            log_ratio_term = np.log1p(ratio ** alpha)
        vals = (alpha * np.log(big) + log_ratio_term) / (1.0 - alpha)
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class FunctionalResult:
    """Converged value of I(f).

    evaluations counts the distinct nodes at which the integrand was
    evaluated (each halving evaluates only the new midpoints)."""

    value: float
    evaluations: int


def log_coefficient_functional(f, reflected=None) -> FunctionalResult:
    """Singular integral functional

        I(f) = (1 / (4*pi^2)) * integral_0^1 (f(t) - t*f(1)) / (t*(1-t)) dt

    for f continuous on [0, 1] with f(0) = 0 and enough endpoint decay
    (Hoelder at 0 and at 1 after subtracting t*f(1)) to be integrable.

    The substitution t = expit(2u) maps the integral to

        integral_R 2 * (f(t(u)) - t(u) * f(1)) du,

    the weight 1/(t(1-t)) cancelling against dt/du exactly.  The u-line
    is split at u = 0 (t = 1/2, where entropy functions such as the
    min-entropy have their kink), and each half is mapped by the
    double-exponential substitution u = +-exp((pi/2) sinh v) of Takahasi
    and Mori, so the kink and both ends of [0, 1] sit at v = +-inf where
    the transformed integrand decays double exponentially.  The
    trapezoid rule in v on |v| <= HALF_WIDTH then converges
    geometrically in the step halving for integrands smooth on each side
    of t = 1/2, up to MAX_LEVELS refinements and to an increment below
    TOL; an increment not below TOL at MAX_LEVELS raises
    DiscretizationError.  The increment understates the error near the
    convergence edge: for h_alpha the result is 6.0e-12 off the closed
    form at alpha = 0.035, where the increment met TOL = 1e-12, and
    7.6e-14 off at 0.04.  From alpha = 0.05 up it is at most 1.1e-16
    off, except within 0.06 of alpha = 1, where h_alpha's division by
    1 - alpha leaves up to 9.3e-16 (608 orders from 0.05 to 10^4 and
    inf).  The halvings are nested: each keeps the
    running node sum and evaluates only the new midpoints.  Each v node
    evaluates both halves: f at t = expit(-2|u|) <= 1/2, and the half
    t >= 1/2 through its complement s = 1 - t = expit(-2|u|), the
    well-represented quantity there, as `reflected(s) = f(1 - s)`; by
    default that is literally f(1.0 - s), which loses accuracy once
    s < 1e-16.  Callers with endpoint-sensitive f (any alpha < 1 power
    behavior) should pass an explicit reflected form.

    Parameters
    ----------
    f : callable mapping ndarray in [0, 1] to ndarray
    reflected : callable, optional; reflected(s) must equal f(1 - s)

    Returns
    -------
    FunctionalResult
    """
    if reflected is None:
        reflected = lambda s: f(1.0 - s)
    f_at_one = float(np.asarray(f(np.array([1.0])))[0])

    def node_values(v):
        # |u| = exp((pi/2) sinh v), du/dv = (pi/2) cosh(v) |u|; within
        # |v| <= HALF_WIDTH nothing overflows, and where exp(-2|u|)
        # underflows both halves give exactly 0 (f(0) = 0).  The halves'
        # -p f(1) and +p f(1) terms cancel, leaving
        # f(p) + (f(1 - p) - f(1)) for each pair of nodes.
        u = np.exp(0.5 * math.pi * np.sinh(v))
        e = np.exp(-2.0 * u)
        p = e / (1.0 + e)
        pair = np.asarray(f(p)) + (np.asarray(reflected(p)) - f_at_one)
        return math.pi * np.cosh(v) * u * pair

    step = 0.5
    intervals = int(round(2.0 * HALF_WIDTH / step))
    v = -HALF_WIDTH + step * np.arange(intervals + 1)
    total = float(node_values(v).sum())
    evaluations = 2 * len(v)
    previous = step * total / (4.0 * math.pi ** 2)
    for _ in range(MAX_LEVELS - 1):
        step *= 0.5
        midpoints = -HALF_WIDTH + step * np.arange(1, 2 * intervals, 2)
        intervals *= 2
        total += float(node_values(midpoints).sum())
        evaluations += 2 * len(midpoints)
        value = step * total / (4.0 * math.pi ** 2)
        if abs(value - previous) < TOL:
            return FunctionalResult(value, evaluations)
        previous = value
    raise DiscretizationError(f"the quadrature did not converge to {TOL:g} "
                              f"in {MAX_LEVELS} levels")


def entropy_log_coefficient(alpha: float) -> FunctionalResult:
    """I(h_alpha) by direct quadrature of the functional.

    h_alpha is symmetric about t = 1/2, so its own reflection is itself;
    passing it as the reflected form keeps endpoint precision for all
    alpha down to the slowly decaying small orders.

    Every order from about alpha = 0.035 up, alpha = inf included,
    converges to TOL in a few hundred nodes: h_alpha is analytic on each
    side of t = 1/2, and the min-entropy's kink there sits at an end of
    the split quadrature.  Below it, the error names alpha."""
    f = lambda t: entropy_function(t, alpha)
    try:
        return log_coefficient_functional(f, reflected=f)
    except DiscretizationError as exc:
        raise DiscretizationError(
            f"I(h_alpha) at alpha={alpha:g}: {exc}") from None


def predicted_log_prefactor(alpha: float) -> float:
    """(1 + alpha) / (24 * alpha), the closed form of I(h_alpha)."""
    if not alpha > 0:
        raise ValueError(f"Renyi order must be positive, got {alpha}")
    if math.isinf(alpha):
        return MIN_ENTROPY_LOG_PREFACTOR
    return (1.0 + alpha) / (24.0 * alpha)


# ---------------------------------------------------------------------------
# Dilogarithm and the closed-form route to I(h_alpha)
# ---------------------------------------------------------------------------

# zeta(2) = pi^2 / 6
_ZETA2 = math.pi ** 2 / 6.0


def dilog(x: float) -> float:
    """Real dilogarithm Li2(x) = sum_{k>=1} x^k / k^2 for x <= 1.

    The power series is used only on |x| <= 1/2 where it converges
    geometrically; the rest of the real axis is folded in by the
    standard reflection identities:

        Li2(x) + Li2(1-x)   = zeta(2) - ln(x) ln(1-x)      (x in (1/2, 1))
        Li2(x) + Li2(x/(x-1)) = -ln^2(1-x) / 2              (x < -1/2)

    Roundoff stays at a few ulp across the folds; argument x > 1 (complex
    values) is rejected.
    """
    if x > 1.0:
        raise ValueError(f"dilog argument must be <= 1, got {x}")
    if x == 1.0:
        return _ZETA2
    if x < -1.0:
        # Inversion to (-1, 0): Li2(x) = -Li2(1/x) - zeta(2) - ln^2(-x)/2
        return -dilog(1.0 / x) - _ZETA2 - 0.5 * math.log(-x) ** 2
    if x > 0.5:
        return _ZETA2 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)
    if x < -0.5:
        # Landen: maps (-1, -1/2) into (0, 1/2] for the series.
        y = x / (x - 1.0)
        return -dilog(y) - 0.5 * math.log1p(-x) ** 2
    # |x| <= 1/2: direct series.
    total = 0.0
    term = x
    k = 1
    while True:
        contribution = term / (k * k)
        total += contribution
        if abs(contribution) < 1e-18 * max(abs(total), 1e-30):
            return total
        k += 1
        term *= x
        if k > 200:
            return total


def entropy_log_coefficient_dilog(alpha: float) -> float:
    """I(h_alpha) through dilogarithm identities instead of quadrature.

    Writing (1 - alpha) * h_alpha(t) = alpha*ln(t) + ln(1 + ((1-t)/t)^alpha)
    and substituting s = (1 - t)/t turns the functional into

        I(h_alpha) = lim_{x -> inf}
            [ alpha*Li2(-x) - Li2(-x^alpha)/alpha ] / (4*pi^2*(1 - alpha)),

    because integral_0^x ln(1+s)/s ds = -Li2(-x).  The two ln^2 halves of
    the dilogarithms cancel in the bracket, each contributing its
    constant -zeta(2), so the limit is (1/alpha - alpha)*zeta(2) and the
    whole expression collapses to (1 + alpha)/(24*alpha).

    Rather than hard-coding that target, the bracket is evaluated at a
    large per-alpha cutoff x (chosen so x^alpha stays within double
    range and the O(ln(x) * x^(-min(1, alpha))) truncation tail sits
    below ~1e-11), which makes this an independent check of the
    quadrature route through entirely different machinery.

    The substitution form degenerates at alpha = 1, where the integral
    can instead be summed directly from the Mercator series of the
    logarithm; that case returns the resulting value 1/12 exactly.
    """
    if not alpha > 0:
        raise ValueError(f"Renyi order must be positive, got {alpha}")
    if math.isinf(alpha):
        return MIN_ENTROPY_LOG_PREFACTOR
    if alpha == 1.0:
        return 1.0 / 12.0

    exponent = max(16.0, 15.0 / min(alpha, 1.0))
    exponent = min(exponent, 280.0 / max(alpha, 1.0))
    x = 10.0 ** exponent
    bracket = alpha * dilog(-x) - dilog(-(x ** alpha)) / alpha
    return bracket / (4.0 * math.pi ** 2 * (1.0 - alpha))
