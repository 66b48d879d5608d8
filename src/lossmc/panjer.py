"""Lattice compound law: the deterministic oracle.

The severity is first forced onto a lattice of step ``step``.  The
compound masses then follow, for every frequency kind, from one discrete
Fourier transform of the severity masses pushed through the count's
pgf (:func:`compound_pmf_transform`).  The buffer length L comes from the
lattice: it doubles from 2(M+1) cells until the wrapped-round mass is
negligible, and a length whose buffer a lower bound shows to wrap (k
claims whose sum must land in its top cells) is skipped without a pass,
so L and the masses are those of running every pass.  A second pass on
exponentially tilted masses keeps deep-tail masses (down to 1e-28 on a
1400-unit lattice) to a relative 1e-5; its tilt also comes from the
lattice, as the largest whose tilted top cell stays 1e-8 below the
tilted peak, within the pgf's domain.  The (a, b, 0)
recursion :func:`panjer_discrete` stays as the small reference the
transform is checked against.  On a fine lattice these masses serve as
ground truth for densities, distribution values and quantiles everywhere
else in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .compound import require_memory
from .distributions import (
    FrequencyModel,
    GeneralizedPoissonFrequency,
    SeverityModel,
)
from .errors import RecursionInstabilityError, TruncationError

EPS = np.finfo(float).eps
# Transform tuning (see compound_pmf_transform): the wrap-round test of the
# buffer length, the margin by which a certain wrap must clear it before a
# length is skipped, the length cap, the tilted top-cell share and the
# pgf-domain margin.
ALIAS_EPS_MULT = 64.0
WRAP_SKIP_MARGIN = 4.0
MAX_LENGTH_FACTOR = 16
TILT_TOP_SHARE = 1e-8
PGF_DOMAIN_SHARE = 0.9
PGF_BLOCK = 8192
LOG_MASS_MAX = 709.0  # log of a tilted-mass bound below the largest float


@dataclass
class DiscreteSeverity:
    """Severity mass f_0..f_K on the lattice {0, step, 2*step, ...}."""

    step: float
    masses: np.ndarray

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if np.any(self.masses < 0.0):
            raise ValueError("severity masses must be nonnegative")
        if self.masses.sum() > 1.0 + 1e-9:
            raise ValueError("severity masses exceed total probability")


@dataclass
class CompoundPmf:
    """Compound masses g_0..g_M on the same lattice as the severity.

    ``tilt`` is the exponential tilt per unit loss of the transform's
    second pass, 0 when the masses came from the untilted pass alone.
    """

    step: float
    masses: np.ndarray
    tilt: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)

    def grid(self) -> np.ndarray:
        return self.step * np.arange(len(self.masses))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.masses)


def discretize_severity(model: SeverityModel, step: float, K: int) -> DiscreteSeverity:
    """Put the severity on the lattice {0, step, ..., K*step} by local
    moment matching.

    Each cell's mass is split between its two endpoints so that the
    cell-wise zeroth and first moments are preserved, which roughly
    squares the accuracy of rounding to the nearest point at equal step.
    Cell masses are taken from survival-function differences above the
    severity median, so they stay meaningful arbitrarily deep in the
    tail; each lattice edge is evaluated once.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if K < 1:
        raise ValueError("need at least one lattice cell")
    edges = step * np.arange(K + 1)
    m0 = model.interval_masses(edges)
    m1 = model.interval_partial_expectation(edges)
    w_left = (edges[1:] * m0 - m1) / step
    w_right = (m1 - edges[:-1] * m0) / step
    f = np.zeros(K + 1)
    f[:-1] += np.maximum(w_left, 0.0)
    f[1:] += np.maximum(w_right, 0.0)
    return DiscreteSeverity(step=step, masses=f)


def panjer_discrete(freq: FrequencyModel, sev: DiscreteSeverity, M: int) -> CompoundPmf:
    """Aggregate masses by the discrete (a, b, 0) recursion.

    g_k = sum_{j=1..min(k, K)} (a + b j/k) f_j g_{k-j} / (1 - a f_0)
    with g_0 = pgf_N(f_0) and (a, b) from ``freq.panjer()``, which raises
    ``UnsupportedModelError`` outside the (a, b, 0) class.  Inside it
    p_1 = (a + b) p_0, so the recursion has no separate f_k term.
    """
    a, b = freq.panjer()
    f = sev.masses
    K = len(f) - 1
    denom = 1.0 - a * f[0]
    if denom <= 0.0:
        raise RecursionInstabilityError("1 - a f0 must be positive")

    g = np.zeros(M + 1)
    g[0] = freq.pgf(f[0])
    # The coefficients are stored reversed (index K - j holds the j-th), so
    # that the terms j = L..1 against g_{k-L}..g_{k-1} are two forward
    # slices: numpy hands only positively strided dot products to BLAS.
    afrev = (a * f)[::-1].copy()
    jfrev = (np.arange(K + 1) * f)[::-1].copy()
    for k in range(1, M + 1):
        L = min(k, K)
        gk = g[k - L:k]
        conv = (b / k) * (jfrev[K - L:K] @ gk)
        if a != 0.0:
            conv += afrev[K - L:K] @ gk
        g[k] = conv / denom
    return CompoundPmf(step=sev.step, masses=g)


def _tilt(f: np.ndarray, step: float, radius: float) -> float:
    """Exponential tilt per unit loss for the transform's second pass.

    The largest theta whose tilted top cell f_top e^{theta x_top} is at
    most TILT_TOP_SHARE of the tilted peak max_k f_k e^{theta x_k}, so that
    the tilted compound law still dies out before the buffer wraps round.
    The tilted severity mass is also kept below PGF_DOMAIN_SHARE of the
    pgf's radius of convergence, and each of its terms below e^LOG_MASS_MAX
    divided by their number, so that their sum cannot overflow.  Returns 0
    when no positive tilt passes.
    """
    top = int(np.flatnonzero(f)[-1]) if np.any(f) else 0
    if top == 0:
        return 0.0
    x = step * np.arange(top + 1)
    with np.errstate(divide="ignore"):
        logf = np.log(f[:top + 1])
    theta = float(np.max((math.log(TILT_TOP_SHARE) + logf[:top] - logf[top])
                         / (x[top] - x[:top])))
    if not theta > 0.0:
        return 0.0
    cap = PGF_DOMAIN_SHARE * radius
    log_n = math.log(top + 1)

    def tilted_mass(t):
        v = logf + t * x  # a term past the bound reads as an infinite mass
        return math.inf if v.max() + log_n > LOG_MASS_MAX else float(np.exp(v).sum())

    if tilted_mass(theta) < cap:
        return theta
    if tilted_mass(0.0) >= cap:
        return 0.0
    lo, hi = 0.0, theta           # the tilted mass grows with theta: bisect
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tilted_mass(mid) < cap else (lo, mid)
    return lo


def _certain_to_wrap(freq: FrequencyModel, cum: np.ndarray, L: int, n: int) -> bool:
    """Whether an untilted pass at length L would certainly fail the wrap
    test of :func:`_transform_pass` on its top n cells.

    ``cum`` holds the severity's cumulative masses, 0 first.  k claims,
    all in the severity cells [lo, hi), sum to a cell in [k lo,
    k (hi - 1)]; when that lies in [L - n, L) they put at least
    P(N = k) (f_lo + ... + f_{hi-1})^k into the top n cells, on at most
    k (hi - lo) of them, and every other term of the buffer is
    nonnegative.  Its peak is at most its total mass, pgf_N(sum f) <= 1.
    So a mean over those cells above WRAP_SKIP_MARGIN times the test's
    threshold fails the test with room for rounding.  Each claim count
    from the least whose widest band fits up to four times it is tried,
    with its widest band: a lower bound need not try them all, and on
    the lattices of the tests the largest bound came at most at twice
    the least count.
    """
    k_min = max(2, -(-(L - n) // max(1, len(cum) - 2)))
    k = np.arange(k_min, 4 * k_min + 1)
    lo = -(-(L - n) // k)
    hi = np.minimum((L - 1) // k + 1, len(cum) - 1)
    fits = hi > lo
    k, lo, hi = k[fits], lo[fits], hi[fits]
    mean_top = freq.pmf(k) * (cum[hi] - cum[lo]) ** k / (k * (hi - lo))
    return bool(np.any(mean_top > WRAP_SKIP_MARGIN * ALIAS_EPS_MULT * EPS))


def _transform_pass(freq: FrequencyModel, f: np.ndarray, x: np.ndarray,
                    theta: float, L: int):
    """One pass at tilt ``theta``: irfft(pgf_N(rfft(f e^{theta x}, L))).

    Returns the masses on the lattice x, untilted; their rounding floors
    eps sum|g_theta| e^{-theta x} (the transform's rounding error scales
    with its zero-frequency term, the total tilted mass); and whether the
    top len(x) cells of the circular buffer, where the mass past L wraps
    to, exceed ALIAS_EPS_MULT rounding units of its peak.  The pgf
    overwrites the spectrum block by block, so its temporaries stay small.
    """
    untilt = None if theta == 0.0 else np.exp(-theta * x)
    spec = np.fft.rfft(f if untilt is None else f / untilt[:len(f)], L)
    for i in range(0, len(spec), PGF_BLOCK):
        spec[i:i + PGF_BLOCK] = freq.pgf(spec[i:i + PGF_BLOCK])
    buf = np.fft.irfft(spec, L)
    n = len(x)
    wrapped = np.max(np.abs(buf[L - n:])) >= ALIAS_EPS_MULT * EPS * np.max(np.abs(buf))
    floor = EPS * np.abs(buf).sum()
    if untilt is None:
        return buf[:n].copy(), np.full(n, floor), wrapped
    return buf[:n] * untilt, floor * untilt, wrapped


def compound_pmf_transform(freq: FrequencyModel, sev: DiscreteSeverity,
                           M: int) -> CompoundPmf:
    """Compound masses g_0..g_M by the discrete Fourier transform.

    g = irfft(pgf_N(rfft(f e^{theta x}, L))) e^{-theta x} holds for every
    theta, because tilting commutes with convolution.  The untilted pass
    fixes L: starting from 2(M+1) cells, L doubles until nothing
    measurable wraps round.  A length whose pass would certainly wrap
    (:func:`_certain_to_wrap`) is skipped without a pass, so L and the
    masses are those of running every pass.  A count law so heavy that
    L reaches MAX_LENGTH_FACTOR (M+1) is damped instead: a tilt of
    -log(1/eps)/(L step) shrinks the wrapped mass below eps and raises the
    floor at x_max by at most e^{log(1/eps)/MAX_LENGTH_FACTOR}.

    A second pass at the tilt of :func:`_tilt` then brings the absolute
    rounding floor far below the untilted one in the deep tail.  Each
    point takes the pass with the lower floor, and rounding noise below
    zero is clipped.  A tilt whose e^{-theta x} underflows to 0 on the
    lattice is dropped, since its pass would divide by 0.
    """
    f = sev.masses[:M + 1]
    x = sev.step * np.arange(M + 1)
    cum = np.concatenate(([0.0], np.cumsum(f)))
    L = sp_fft.next_fast_len(2 * (M + 1), real=True)
    damp = 0.0
    while True:
        if not _certain_to_wrap(freq, cum, L, M + 1):
            g, floor, wrapped = _transform_pass(freq, f, x, 0.0, L)
            if not wrapped:
                break
        if L >= MAX_LENGTH_FACTOR * (M + 1):
            damp = -math.log(EPS) / (L * sev.step)
            g, floor, _ = _transform_pass(freq, f, x, -damp, L)
            break
        L = sp_fft.next_fast_len(2 * L, real=True)
    theta = _tilt(f, sev.step, freq.pgf_radius())
    if math.exp(-(theta - damp) * x[-1]) == 0.0:
        theta = 0.0
    if theta > 0.0:
        g_t, floor_t, _ = _transform_pass(freq, f, x, theta - damp, L)
        # a pass that overflowed has nan or inf floors and is never taken
        use = floor_t < floor
        g[use] = g_t[use]
    np.maximum(g, 0.0, out=g)
    return CompoundPmf(step=sev.step, masses=g, tilt=theta)


def gpd_panjer_discrete(lam: float, theta: float, sev: DiscreteSeverity,
                        M: int) -> CompoundPmf:
    """Compound masses under a generalized Poisson frequency.

    :func:`compound_pmf_transform` evaluates the law's pgf: for theta in
    [0, 1) the Lambert-W closed form of a Poisson(lam) number of
    Borel(theta) clusters, for theta < 0 the polynomial of its finite
    support.  The law itself rejects parameters outside its admissible
    region.
    """
    return compound_pmf_transform(GeneralizedPoissonFrequency(lam, theta), sev, M)


def oracle_compound_pmf(model, step: float, x_max: float) -> CompoundPmf:
    """One-call oracle: discretize the severity on the lattice of step
    ``step`` up to ``x_max`` and transform it, for every frequency kind.

    Raise ``x_max`` (or catch TruncationError from
    :func:`oracle_tail_stats`) for very deep levels.  A step above the
    severity median, which would put more than half the severity mass in
    the first cell, raises ``ValueError``: such a lattice cannot resolve
    the severity.  A lattice whose transform buffers alone would exceed
    physical memory raises ``ValueError`` before anything is allocated: at
    a length L >= 2(M+1), the rfft spectrum and the irfft output take at
    least 32 (M+1) bytes.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    median = float(model.severity.isf(0.5))
    if step > median:
        raise ValueError(f"step {step:g} exceeds the severity median {median:.6g}; "
                         "the lattice would not resolve the severity")
    cells = x_max / step  # checked as a float, since it may overflow to inf
    require_memory(32.0 * (cells + 1.0), f"step {step:g} to x_max {x_max:g} makes M = "
                   f"{cells:.3g} lattice cells, whose transform buffers")
    M = int(math.ceil(cells))
    sev = discretize_severity(model.severity, step, M)
    return compound_pmf_transform(model.frequency, sev, M)


def oracle_tail_stats(pmf: CompoundPmf, levels):
    """[(quantile, tail mean)] of the discrete compound law, one pair per
    level, all read from one cumulative sum.  The quantile is the smallest
    lattice point whose cumulative mass reaches the level."""
    cdf, grid = pmf.cdf(), pmf.grid()
    out = []
    for alpha in levels:
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if cdf[-1] < alpha:
            raise TruncationError(
                f"accumulated mass {cdf[-1]:.6f} < alpha = {alpha}; raise the "
                f"lattice end x_max (M = {len(cdf) - 1} cells of step {pmf.step})"
            )
        i = int(np.searchsorted(cdf, alpha, side="left"))
        w = pmf.masses[i:]
        out.append((float(i * pmf.step), float(np.dot(grid[i:], w) / w.sum())))
    return out
