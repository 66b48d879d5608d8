"""Closed-form tail approximations for the compound loss.

First- and second-order single-loss approximations of the annual-loss
quantile.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

from .compound import CompoundModel
from .errors import LevelRangeError, UnsupportedModelError


def _finite_isf(model: CompoundModel, alpha: float, level: float) -> float:
    """The severity's ``isf`` at the survival level ``level``; a ValueError
    where it is not finite (a level that underflows to 0, or an isf that
    overflows)."""
    with np.errstate(over="ignore", divide="ignore"):
        var = float(model.severity.isf(level))
    if not math.isfinite(var):
        raise ValueError(f"the SLA VaR at alpha {alpha!r} is not finite: E[N] = "
                         f"{model.frequency.mean():g}, severity survival level {level:g}")
    return var


def sla_var_first_order(model: CompoundModel, alpha: float) -> float:
    """Severity quantile at 1 - (1 - alpha)/E[N]: its ``isf`` at (1 - alpha)/E[N].

    Valid when the shifted level stays in (0, 1); below that the
    approximation has no meaning and a LevelRangeError is raised.  A count
    law with E[N] = 0 raises UnsupportedModelError, and a VaR that is not
    finite a ValueError.
    """
    en = model.frequency.mean()
    if en <= 0.0:
        raise UnsupportedModelError(f"the SLA needs a positive mean count, got E[N] = {en:g}")
    shifted = (1.0 - alpha) / en
    if shifted >= 1.0:
        raise LevelRangeError(
            f"(1-alpha)/E[N] = {shifted:.3g} >= 1; level too low for the SLA"
        )
    return _finite_isf(model, alpha, shifted)


def c_beta_constant(beta: float) -> float:
    """The correction constant c_beta of the infinite-mean branch.

    c_1 = 1 and c_beta = (1-beta) Gamma(1-1/beta)^2 / (2 Gamma(1-2/beta))
    for beta > 1.
    """
    if beta == 1.0:
        return 1.0
    if beta < 1.0:
        raise ValueError("c_beta is defined for beta >= 1")
    g1 = special.gamma(1.0 - 1.0 / beta)
    g2 = special.gamma(1.0 - 2.0 / beta)
    return float((1.0 - beta) * g1 * g1 / (2.0 * g2))


def _c_tilde(model: CompoundModel) -> tuple[float, float]:
    """The second-order constant c_tilde as the pair (k, E[(N-1)N] / E[N])
    whose product it is: k = E[X] for a finite-mean severity, c_{1/a} for
    a power tail of index a < 1.  The product is left to the caller, since
    it can overflow where c_tilde g1 does not.

    A count law whose E[N(N-1)] overflows a float raises
    UnsupportedModelError."""
    ex = model.severity.mean()
    freq = model.frequency
    try:
        fm2 = freq.factorial_moment2()
    except OverflowError:  # a Python float power, such as Poisson's lam ** 2
        fm2 = math.inf
    if not math.isfinite(fm2):
        raise UnsupportedModelError(f"the second-order SLA needs a finite E[N(N-1)], which "
                                    f"overflows a float for the count law {freq}")
    ratio = fm2 / freq.mean()
    if math.isfinite(ex):
        return ex, ratio
    a = model.severity.tail_index
    if a is None or a >= 1.0:
        raise UnsupportedModelError("infinite-mean branch requires a power tail "
                                    "with index < 1")
    return c_beta_constant(1.0 / a), ratio


def sla_var_second_order(model: CompoundModel, alpha: float) -> float:
    """Second-order refinement of the single-loss VaR.

    Shifts the severity level by the factor 1/(1 + c_tilde * g1), with g1
    at the first-order point q1, and drops the unquantified remainder of
    the expansion.  Where the factor is not positive it returns q1.
    """
    sev = model.severity
    q1 = sla_var_first_order(model, alpha)
    k, ratio = _c_tilde(model)
    sf_q1 = float(sev.sf(q1))
    if sf_q1 <= 0.0:
        raise UnsupportedModelError("second-order SLA needs severity survival above the "
                                    f"first-order VaR {q1:g}; a point mass has none")
    pdf_q1 = float(sev.pdf(q1))
    if math.isfinite(sev.mean()):
        g1 = pdf_q1 / sf_q1
    else:
        g1 = pdf_q1 * float(sev.integrated_survival(q1)) / sf_q1
    # c_tilde g1 = ratio (k g1): E[X] E[N(N-1)] alone overflows on Poisson(1e5)
    # x LN(700, 1), where E[X] g1 = 0.092
    factor = 1.0 + ratio * (k * g1)
    if factor <= 0.0:
        return q1
    return _finite_isf(model, alpha, (1.0 - alpha) / model.frequency.mean() / factor)
