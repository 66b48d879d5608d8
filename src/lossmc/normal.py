"""Standard normal helpers, bound to ``scipy.special``.

``norm_cdf`` is ``ndtr`` and ``norm_sf(x)`` is ``ndtr(-x)``: full relative
accuracy in both tails, and a numpy float (a ``float``) for a scalar.
``norm_quantile`` is ``ndtri`` behind a range check.  The module stays
only for the names that ``benchmarks/tracing.py`` patches to time them.
"""
from __future__ import annotations

import numpy as np
from scipy import special

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
norm_cdf = special.ndtr


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_sf(x):
    return special.ndtr(np.negative(x))


def norm_quantile(p):
    """Inverse of the standard normal cdf.

    Accepts a scalar or array of probabilities in the open interval
    (0, 1); raises ``ValueError`` outside it.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal quantile requires p in (0, 1)")
    return special.ndtri(arr)
