"""Discrete recursions: the deterministic oracle for the compound law.

The severity is first forced onto a lattice of step ``step``; the
compound probability masses then follow from the (a, b, 0) recursion,
or, for the generalized Poisson frequency, from a two-stage branching
construction (see :func:`gpd_panjer_discrete`).  On a fine lattice
these masses serve as ground truth for densities, distribution values
and quantiles everywhere else in the package.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    FrequencyModel,
    PanjerParams,
    PoissonFrequency,
    SeverityModel,
)
from .errors import RecursionInstabilityError, TruncationError, UnsupportedModelError

ROUNDING = "rounding"
LOCAL_MOMENTS = "local_moments"
DEFAULT_STEP = 0.01


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
    """Compound masses g_0..g_M on the same lattice as the severity."""

    step: float
    masses: np.ndarray

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


def _borel_batch_masses(theta: float, f: np.ndarray, M: int) -> np.ndarray:
    """Lattice masses of one branching cluster's total severity.

    A generalized Poisson count is a Poisson(lam) number of clusters
    whose sizes follow a Borel(theta) law -- the total progeny of a
    branching process with Poisson(theta) offspring.  The cluster's
    total severity h therefore solves the fixed-point relation

        h = f * CP(theta, h)

    (severity of the root convolved with a compound-Poisson(theta) sum
    of i.i.d. copies of h).  Writing c for the CP(theta, h) masses and
    using the Poisson-Panjer step for c_k leaves, at each k, a 2x2
    linear system in (h_k, c_k) that is solved in closed form.
    """
    K = len(f) - 1
    # fixed point for the lattice origin: h0 = f0 * exp(-theta (1 - h0))
    h0 = f[0] * math.exp(-theta)
    for _ in range(200):
        nxt = f[0] * math.exp(-theta * (1.0 - h0))
        if abs(nxt - h0) < 1e-16:
            h0 = nxt
            break
        h0 = nxt
    h = np.zeros(M + 1)
    jh = np.zeros(M + 1)  # theta * j * h_j, filled as the recursion advances
    # c is stored reversed (crev[M - j] = c_j), so that c_{k-1}, c_{k-2}, ...
    # is the forward slice crev[M-k+1:] and both dot products below reach
    # BLAS, which numpy uses for positive strides only.
    crev = np.zeros(M + 1)
    h[0] = h0
    c0 = crev[M] = math.exp(-theta * (1.0 - h0))
    for k in range(1, M + 1):
        L = min(k, K)
        a_k = f[1:L + 1] @ crev[M - k + 1:M - k + L + 1]
        b_k = (jh[1:k] @ crev[M - k + 1:M]) / k
        h[k] = (a_k + f[0] * b_k) / (1.0 - theta * c0 * f[0])
        crev[M - k] = b_k + theta * c0 * h[k]
        jh[k] = theta * k * h[k]
    return h


def gpd_panjer_discrete(lam: float, theta: float, sev: DiscreteSeverity,
                        M: int) -> CompoundPmf:
    """Compound masses under a generalized Poisson frequency.

    theta = 0 reduces to the plain Poisson recursion.  For theta in
    (0, 1) the generalized Poisson count is equivalent in law to a
    Poisson(lam) number of Borel(theta) clusters, so the compound mass
    is obtained by first building one cluster's severity lattice via
    :func:`_borel_batch_masses` and then running the ordinary Poisson
    recursion over clusters.  Negative dispersion has no such cluster
    representation and is not supported here.
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
    if theta == 0.0:
        return panjer_discrete(PoissonFrequency(lam).panjer(), sev, M)
    h = _borel_batch_masses(theta, sev.masses, M)
    cluster = DiscreteSeverity(step=sev.step, masses=h, method=sev.method)
    return panjer_discrete(PoissonFrequency(lam).panjer(), cluster, M)


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
    """One-call oracle: discretize the severity and run the recursion.

    ``x_max`` defaults to a generous multiple of the mean; raise it (or
    catch TruncationError from the quantile call) for very deep levels.
    """
    freq = model.frequency
    if x_max is None:
        x_max = 40.0 * max(model.mean(), 1.0)
    M = int(math.ceil(x_max / step))
    sev = discretize_severity(model.severity, step, M, method=method)
    if isinstance(freq, FrequencyModel) and freq.kind == "genpoisson":
        return gpd_panjer_discrete(freq.lam, freq.theta, sev, M)
    return panjer_discrete(freq.panjer(), sev, M)


def oracle_quantile(model, alpha: float, step: float = DEFAULT_STEP,
                    x_max: float | None = None) -> float:
    pmf = oracle_compound_pmf(model, step=step, x_max=x_max)
    _, q = compound_cdf_quantile(pmf, alpha)
    return q


def oracle_tail_stats(pmf: CompoundPmf, alpha: float):
    """(quantile, tail mean) of the discrete compound law at level alpha."""
    cdf, q = compound_cdf_quantile(pmf, alpha)
    grid = pmf.grid()
    tail = grid >= q
    w = pmf.masses[tail]
    return q, float(np.dot(grid[tail], w) / w.sum())
