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
    (0, 1); raises ``ValueError`` outside it or at NaN.
    """
    arr = np.asarray(p, dtype=float)
    # one pass each; a NaN makes both NaN, which fails the test
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("normal quantile requires p in (0, 1)")
    return special.ndtri(arr)
