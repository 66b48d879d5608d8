"""Lattice compound law: the deterministic oracle.

The severity is first forced onto a lattice of step ``step``.  The
compound masses then follow, for every frequency kind, from one discrete
Fourier transform of the severity masses pushed through the count's
pgf (:func:`compound_pmf_transform`).  The buffer length L comes from the
lattice: it doubles from 2(M+1) cells until the wrapped-round mass is
negligible.  A second pass on exponentially tilted masses keeps deep-tail
masses (down to 1e-28 on a 1400-unit lattice) to a relative 1e-5; its
tilt also comes from the lattice, as the largest whose tilted top cell
stays 1e-8 below the tilted peak, within the pgf's domain.  The (a, b, 0)
recursion :func:`panjer_discrete` stays as the small reference the
transform is checked against.  On a fine lattice these masses serve as
ground truth for densities, distribution values and quantiles everywhere
else in the package.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .distributions import (
    FrequencyModel,
    GeneralizedPoissonFrequency,
    PanjerParams,
    SeverityModel,
)
from .errors import RecursionInstabilityError, TruncationError, UnsupportedModelError

ROUNDING = "rounding"
LOCAL_MOMENTS = "local_moments"
DEFAULT_STEP = 0.01
EPS = np.finfo(float).eps
# Transform tuning (see compound_pmf_transform): the wrap-round test of the
# buffer length and its cap, the tilted top-cell share and the pgf-domain
# margin.
ALIAS_EPS_MULT = 64.0
MAX_LENGTH_FACTOR = 16
TILT_TOP_SHARE = 1e-8
PGF_DOMAIN_SHARE = 0.9
PGF_BLOCK = 8192


@dataclass
class DiscreteSeverity:
    """Severity mass f_0..f_K on the lattice {0, step, 2*step, ...}."""

    step: float
    masses: np.ndarray
    method: str

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.method not in (ROUNDING, LOCAL_MOMENTS):
            raise ValueError(f"unknown discretization method {self.method!r}")
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

    def mean(self) -> float:
        return float(np.dot(self.grid(), self.masses))

    def density(self) -> np.ndarray:
        """Masses rescaled to lattice density values (mass / step).

        The k = 0 entry is left as a mass: it carries the genuine atom
        of the compound law at zero, not a density value.
        """
        d = self.masses / self.step
        d[0] = self.masses[0]
        return d

    def to_csv(self, path) -> None:
        """Write the lattice law as CSV with columns x, pmf, cdf."""
        grid = self.grid()
        cdf = self.cdf()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x", "pmf", "cdf"])
            for x, m, c in zip(grid, self.masses, cdf):
                w.writerow([f"{x:.10g}", f"{m:.17g}", f"{c:.17g}"])


def discretize_severity(model: SeverityModel, step: float, K: int,
                        method: str = LOCAL_MOMENTS) -> DiscreteSeverity:
    """Put the severity on the lattice {0, step, ..., K*step}.

    Rounding assigns each lattice point the probability of the cell of
    width ``step`` centred on it (f_0 = F(step/2)).  Local moment
    matching splits each cell's mass between its two endpoints so that
    cell-wise zeroth and first moments are preserved, which roughly
    squares the discretization accuracy at equal step.  Cell masses are
    taken from survival-function differences above the severity median,
    so they stay meaningful arbitrarily deep in the tail.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if K < 1:
        raise ValueError("need at least one lattice cell")
    if method == ROUNDING:
        edges = step * (np.arange(K + 1) + 0.5)
        f = np.empty(K + 1)
        f[0] = model.cdf(edges[0])
        f[1:] = model.interval_masses(edges)
        return DiscreteSeverity(step=step, masses=f, method=method)
    if method == LOCAL_MOMENTS:
        edges = step * np.arange(K + 1)
        m0 = model.interval_masses(edges)
        m1 = model.interval_partial_expectation(edges[:-1], edges[1:])
        w_left = (edges[1:] * m0 - m1) / step
        w_right = (m1 - edges[:-1] * m0) / step
        f = np.zeros(K + 1)
        f[:-1] += np.maximum(w_left, 0.0)
        f[1:] += np.maximum(w_right, 0.0)
        return DiscreteSeverity(step=step, masses=f, method=method)
    raise ValueError(f"unknown discretization method {method!r}")


def _pgf_at(params: PanjerParams, s: float) -> float:
    """Probability generating function of an (a, b, 0) member at s."""
    a, b = params.a, params.b
    if a == 0.0:
        return math.exp(-b * (1.0 - s))
    if a > 0.0:
        r = b / a + 1.0
        return ((1.0 - a) / (1.0 - a * s)) ** r
    m = round(-b / a - 1.0)
    q = a / (a - 1.0)
    return (1.0 + q * (s - 1.0)) ** m


def panjer_discrete(freq: PanjerParams, sev: DiscreteSeverity, M: int) -> CompoundPmf:
    """Aggregate masses by the discrete (a, b, 0) recursion.

    g_k = sum_{j=1..min(k, K)} (a + b j/k) f_j g_{k-j} / (1 - a f_0)
    with g_0 = pgf_N(f_0).  Inside the (a, b, 0) class p_1 = (a + b) p_0,
    so the recursion has no separate f_k term.
    """
    a, b = freq.a, freq.b
    f = sev.masses
    K = len(f) - 1
    denom = 1.0 - a * f[0]
    if denom <= 0.0:
        raise RecursionInstabilityError("1 - a f0 must be positive")

    g = np.zeros(M + 1)
    g[0] = _pgf_at(freq, f[0])
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
    pgf's radius of convergence.  Returns 0 when no positive tilt passes.
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

    def tilted_mass(t):
        return float(np.exp(logf + t * x).sum())

    if tilted_mass(theta) < cap:
        return theta
    if tilted_mass(0.0) >= cap:
        return 0.0
    lo, hi = 0.0, theta           # the tilted mass grows with theta: bisect
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tilted_mass(mid) < cap else (lo, mid)
    return lo


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
    measurable wraps round.  A count law so heavy that L reaches
    MAX_LENGTH_FACTOR (M+1) is damped instead: a tilt of
    -log(1/eps)/(L step) shrinks the wrapped mass below eps and raises the
    floor at x_max by at most e^{log(1/eps)/MAX_LENGTH_FACTOR}.

    A second pass at the tilt of :func:`_tilt` then brings the absolute
    rounding floor far below the untilted one in the deep tail.  Each
    point takes the pass with the lower floor, and rounding noise below
    zero is clipped.
    """
    f = sev.masses[:M + 1]
    x = sev.step * np.arange(M + 1)
    L = sp_fft.next_fast_len(2 * (M + 1), real=True)
    damp = 0.0
    g, floor, wrapped = _transform_pass(freq, f, x, 0.0, L)
    while wrapped:
        if L >= MAX_LENGTH_FACTOR * (M + 1):
            damp = -math.log(EPS) / (L * sev.step)
            g, floor, _ = _transform_pass(freq, f, x, -damp, L)
            break
        L = sp_fft.next_fast_len(2 * L, real=True)
        g, floor, wrapped = _transform_pass(freq, f, x, 0.0, L)
    theta = _tilt(f, sev.step, freq.pgf_radius())
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

    For theta in [0, 1) the count is a Poisson(lam) number of Borel(theta)
    clusters, whose pgf has the Lambert-W closed form that
    :func:`compound_pmf_transform` evaluates.  Negative dispersion has no
    such cluster representation and is not supported here.
    """
    if lam <= 0.0:
        raise ValueError("rate must be positive")
    if theta < 0.0:
        raise UnsupportedModelError(
            "underdispersed generalized Poisson has no cluster "
            "representation; only theta in [0, 1) is supported"
        )
    if theta >= 1.0:
        raise ValueError("dispersion must be < 1")
    return compound_pmf_transform(GeneralizedPoissonFrequency(lam, theta), sev, M)


def compound_cdf_quantile(pmf: CompoundPmf, alpha: float):
    """Cumulative masses and the generalized-inverse quantile.

    Returns (cdf grid, quantile); the quantile is the smallest lattice
    point whose cumulative mass reaches alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    cdf = pmf.cdf()
    if cdf[-1] < alpha:
        raise TruncationError(
            f"accumulated mass {cdf[-1]:.6f} < alpha = {alpha}; raise the "
            f"lattice end x_max (M = {len(cdf) - 1} cells of step {pmf.step})"
        )
    idx = int(np.searchsorted(cdf, alpha, side="left"))
    return cdf, float(idx * pmf.step)


def oracle_compound_pmf(model, step: float = DEFAULT_STEP, x_max: float | None = None,
                        method: str = LOCAL_MOMENTS) -> CompoundPmf:
    """One-call oracle: discretize the severity and transform it.

    ``x_max`` defaults to a generous multiple of the mean; raise it (or
    catch TruncationError from the quantile call) for very deep levels.
    """
    freq = model.frequency
    if x_max is None:
        x_max = 40.0 * max(model.mean(), 1.0)
    M = int(math.ceil(x_max / step))
    sev = discretize_severity(model.severity, step, M, method=method)
    if freq.kind == "genpoisson":
        return gpd_panjer_discrete(freq.lam, freq.theta, sev, M)
    return compound_pmf_transform(freq, sev, M)


def oracle_tail_stats(pmf: CompoundPmf, alpha: float):
    """(quantile, tail mean) of the discrete compound law at level alpha."""
    cdf, q = compound_cdf_quantile(pmf, alpha)
    grid = pmf.grid()
    tail = grid >= q
    w = pmf.masses[tail]
    return q, float(np.dot(grid[tail], w) / w.sum())
