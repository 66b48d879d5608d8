"""Closed-form tail approximations for the compound loss.

First- and second-order single-loss approximations of the annual-loss
quantile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy import special

from .compound import CompoundModel
from .errors import LevelRangeError, UnsupportedModelError


@dataclass
class SlaResult:
    """Outcome of a single-loss approximation at one level.

    ``diagnostics`` collects the intermediate quantities (the shifted
    level, the hazard-style correction g1, both correction constants
    and the severity tail index) so reports can expose them.
    """

    alpha: float
    var_first: float
    var_second: float | None = None
    diagnostics: dict = field(default_factory=dict)


def sla_var_first_order(model: CompoundModel, alpha: float) -> float:
    """Severity quantile at 1 - (1 - alpha)/E[N].

    Valid when the shifted level stays in (0, 1); below that the
    approximation has no meaning and a LevelRangeError is raised.
    """
    en = model.frequency.mean()
    if en <= 0.0:
        raise LevelRangeError("mean frequency must be positive")
    shifted = (1.0 - alpha) / en
    if shifted >= 1.0:
        raise LevelRangeError(
            f"(1-alpha)/E[N] = {shifted:.3g} >= 1; level too low for the SLA"
        )
    return float(model.severity.quantile(1.0 - shifted))


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


def second_order_constants(model: CompoundModel):
    """Return (c_beta, c_tilde_beta, limit_constant).

    The limit constant E[X] E[(N-1)N] is the finite-mean second-order
    limit of (survival_Z(x) - E[N] survival_X(x)) / density_X(x).
    c_beta only enters the infinite-mean branch, so for severities with
    finite mean and no power tail it is reported as NaN.
    """
    ex = model.severity.mean()
    fm2 = model.frequency.factorial_moment2()
    en = model.frequency.mean()
    a = model.severity.tail_index

    if math.isfinite(ex):
        c_tilde = ex * fm2 / en
        limit_constant = ex * fm2
    else:
        if a is None or a >= 1.0:
            raise UnsupportedModelError(
                "infinite-mean branch requires a power tail with index < 1"
            )
        c_tilde = c_beta_constant(1.0 / a) * fm2 / en
        limit_constant = math.inf

    if a is not None and a < 1.0:
        c_beta = c_beta_constant(1.0 / a)
    elif a == 1.0:
        c_beta = 1.0
    else:
        c_beta = math.nan
    return c_beta, c_tilde, limit_constant


def sla_var_second_order(model: CompoundModel, alpha: float) -> SlaResult:
    """Second-order refinement of the single-loss VaR.

    Shifts the severity level by the factor 1/(1 + c_tilde * g1) with
    g1 evaluated at the first-order point; the unquantified remainder
    of the expansion is dropped.  If the correction factor degenerates
    (<= 0) the result carries the first-order value only, with a
    diagnostic flag.
    """
    sev = model.severity
    en = model.frequency.mean()
    var1 = sla_var_first_order(model, alpha)
    alpha_tilde = 1.0 - (1.0 - alpha) / en
    q1 = float(sev.quantile(alpha_tilde))

    c_beta, c_tilde, _ = second_order_constants(model)
    sf_q1 = float(sev.sf(q1))
    pdf_q1 = float(sev.pdf(q1))
    if math.isfinite(sev.mean()):
        g1 = pdf_q1 / sf_q1
    else:
        g1 = pdf_q1 * float(sev.integrated_survival(q1)) / sf_q1

    diag = {
        "alpha_tilde": alpha_tilde,
        "g1": g1,
        "c_tilde_beta": c_tilde,
        "c_beta": c_beta,
        "tail_index": sev.tail_index,
    }
    factor = 1.0 + c_tilde * g1
    if factor <= 0.0:
        diag["degenerate_correction"] = True
        return SlaResult(alpha=alpha, var_first=var1, var_second=None,
                         diagnostics=diag)
    level = 1.0 - (1.0 - alpha) / en / factor
    var2 = float(sev.quantile(level))
    return SlaResult(alpha=alpha, var_first=var1, var_second=var2,
                     diagnostics=diag)

