"""Standard normal density, distribution and quantile helpers.

The cdf and survival function are evaluated through ``erfc`` on the
side that keeps the argument small, so both tails retain full relative
accuracy.  The quantile is ``scipy.special.ndtri`` behind a range
check.
"""
from __future__ import annotations

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def norm_cdf(x):
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-x / _SQRT2)
    return out if out.ndim else float(out)


def norm_sf(x):
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / _SQRT2)
    return out if out.ndim else float(out)


def norm_quantile(p):
    """Inverse of the standard normal cdf.

    Accepts a scalar or array of probabilities in the open interval
    (0, 1); raises ``ValueError`` outside it.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal quantile requires p in (0, 1)")
    x = special.ndtri(arr)
    return x if x.ndim else float(x)
