"""Path-space importance sampling for the continuous aggregate recursion.

The compound density solves a second-kind Volterra equation

    f(x) = g(x) + integral_0^x k(x, x1) f(x1) dx1,

whose Neumann series is realized stochastically: simulate strictly
decreasing Markov paths that absorb with probability P_d per step, and
weight each path by the product of kernel-to-proposal ratios.  The mean
weight at a point estimates the density there; weighted atoms over an
interval estimate the measure, and risk functionals follow from the
resulting empirical cdf.  The route accepts the Poisson and negative
binomial counts, the (a, b, 0) members whose kernel is nonnegative;
every other count law is rejected.

Both estimators run one propagator, ``_propagate``, which advances a
whole set of particles by one absorb-or-move step at a time.  Each
particle carries the id of the grid point it belongs to, and each point
draws its uniforms from its own spawned substream, so the grid
estimator steps a block of consecutive points together while every
point sees exactly the draws it would see alone.  A proposal's ``move``
turns a batch of uniforms into new states and their weight ratios; the
size-biased one forms its ratio in closed form, as the severity pdf
cancels from k / q.  Every move is checked (``_checked_move``): a new
state that is NaN or outside [0, x] raises ``ProposalSupportError``, a
negative or non-finite ratio -- what k / (mass q) gives where q = 0 --
raises ``SupportViolationError``.  A path adds its running weight times
g to its estimate at every state it visits, the start included: each
state contributes exactly one Neumann term in expectation, so the sum is
unbiased without the 1/P_d inflation of scoring the absorption state
alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compound import CompoundModel
from .distributions import LogNormalSeverity
from .errors import (
    EmptyTailError,
    ProposalSupportError,
    SupportViolationError,
    TruncationError,
    UnsupportedModelError,
)
from .rng import PcgStream, UniformStream

POINTWISE_GRID = "pointwise_grid"
INTERVAL = "interval"

_DEAD_FLOOR = 1e-120  # states this small carry no representable density
# Particles one block of grid points starts with, at most.  On the sigma=1
# grid of 400 points x 5000 paths (2 vCPU, numpy 2.4) one point per block
# took 1.45 s, 2^15 particles 1.0 s and 2^17 0.9 s; against one point per
# block, 2^15 raised peak memory by 2 MB and 2^17 by 12 MB.
_BLOCK_PARTICLES = 1 << 15


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

@dataclass
class VolterraKernel:
    """The pair (g, k) of the aggregate-loss Volterra equation.

    ``g(x)`` is the inhomogeneous term p1 * f_X(x); ``k(x, x1)`` is the
    kernel (a + b (x - x1)/x) f_X(x - x1), evaluated with the convention
    k(x, x1) = 0 for x1 >= x, so paths must strictly decrease.  The
    linear coefficients ``a`` and ``b`` are kept so that a proposal can
    form its weight ratio in closed form.
    """

    g: callable
    k: callable
    a: float
    b: float


def build_volterra_kernel(model: CompoundModel) -> VolterraKernel:
    """Kernel for a Poisson or negative binomial count.

    For (a, b, 0) members k(x, x1) = (a + b (x-x1)/x) f_X(x - x1).  The
    binomial member has a < 0, which makes the kernel change sign and
    breaks the nonnegative-weight guarantees, so it is rejected, as is
    every count outside the (a, b, 0) class.  The generalized Poisson
    pmf satisfies p_n(lam) = (lam/(lam+theta)) (theta + lam/n)
    p_{n-1}(lam + theta), whose right side has another rate, so its
    density solves no equation of this single-function form.
    """
    freq = model.frequency
    sev = model.severity
    params = freq.panjer()  # raises UnsupportedModelError outside (a, b, 0)
    if params.a < 0.0:
        raise UnsupportedModelError(
            "binomial frequency yields a sign-changing Volterra kernel; "
            "use the discrete recursion oracle instead"
        )
    a, b = params.a, params.b
    p1 = float(freq.pmf(1))

    def g(x):
        return p1 * sev.pdf(x)

    def k(x, x1):
        x = np.asarray(x, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        u = x - x1
        val = (a + b * u / x) * sev.pdf(u)
        out = np.where(u > 0.0, val, 0.0)
        return out if out.ndim else float(out)

    return VolterraKernel(g=g, k=k, a=a, b=b)


# ---------------------------------------------------------------------------
# Decrement proposals
# ---------------------------------------------------------------------------

@dataclass
class BetaProposal:
    """Multiplicative decrement: x1 = x * B with B ~ Beta(a, b).

    The multiplicative form keeps every new state in [0, x]; a draw at
    either end, where q vanishes, gets ratio 0.  Keep a <= 1 so the
    proposal density stays bounded away from zero where the kernel is
    not and the weight variance stays finite; the default (1, 1.2)
    mildly favours large decrements, which suits severity-dominated
    paths.
    """

    a: float = 1.0
    b: float = 1.2

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.a, self.b)):
            raise ValueError(f"beta shapes must be positive and finite, got {self.a}, {self.b}")

    def sample(self, x, u) -> np.ndarray:
        """New states, one per entry of ``x``, from the uniforms ``u``."""
        from scipy import stats

        x = np.asarray(x, dtype=float)
        frac = stats.beta.ppf(u, self.a, self.b)
        return x * frac

    def density(self, x, x1) -> np.ndarray:
        from scipy import stats

        x = np.asarray(x, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(x > 0.0, x1 / x, 0.0)
            pdf = stats.beta.pdf(frac, self.a, self.b)
            out = np.where((frac > 0.0) & (frac < 1.0), pdf / x, 0.0)
        return out

    def move(self, x, u, kernel: VolterraKernel, mass: float):
        """Draw x1 from the uniforms ``u``; return it with the weight ratio
        k(x, x1) / (mass q(x, x1)), zero where q vanishes."""
        x1 = self.sample(x, u)
        q = self.density(x, x1)
        ratio = np.where(q > 0.0, kernel.k(x, x1) / (mass * np.where(q > 0.0, q, 1.0)), 0.0)
        return x1, ratio


@dataclass
class SizeBiasedProposal:
    """Decrement u = x - x1 drawn proportional to u * f_X(u) on (0, x).

    For the Poisson kernel this makes every step's weight ratio
    k/M equal to lam * E[X; X <= x] / ((1 - P_d) x) -- a deterministic
    number -- so all weight randomness collapses into the path length
    and the visited states.  Implemented for lognormal severities,
    where the size-biased law is again lognormal (mu + sigma^2) and
    conditioning to (0, x) is a one-line quantile transform.
    """

    severity: LogNormalSeverity

    def __post_init__(self):
        if not isinstance(self.severity, LogNormalSeverity):
            raise UnsupportedModelError(
                "size-biased decrements implemented for lognormal severity"
            )

    def _cap(self, x):
        """P(size-biased decrement <= x) = E[X; X <= x] / E[X]."""
        from .normal import norm_cdf

        sev = self.severity
        return norm_cdf((np.log(x) - sev.mu - sev.sigma ** 2) / sev.sigma)

    def sample(self, x, u, cap=None) -> np.ndarray:
        """New states, one per entry of ``x``, from the uniforms ``u``;
        ``cap`` passes in ``_cap(x)`` when the caller has it already."""
        from .normal import norm_quantile

        sev = self.severity
        x = np.asarray(x, dtype=float)
        if cap is None:
            cap = self._cap(x)
        p = np.clip(u * cap, 1e-300, 1.0 - 1e-16)
        z = norm_quantile(p)
        decrement = np.exp(sev.mu + sev.sigma ** 2 + sev.sigma * z)
        return x - np.minimum(decrement, x)

    def density(self, x, x1) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        u = x - x1
        e1 = self.severity.partial_expectation(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where((u > 0.0) & (e1 > 0.0),
                           u * self.severity.pdf(u) / np.where(e1 > 0.0, e1, 1.0),
                           0.0)
        return out

    def move(self, x, u, kernel: VolterraKernel, mass: float):
        """Draw x1 from the uniforms ``u``; return it with the weight ratio
        k(x, x1) / (mass q(x, x1)).

        With q = d f_X(d) / E[X; X <= x] for the decrement d = x - x1,
        the severity pdf cancels: k / q = (a/d + b/x) E[X] cap, where
        cap = E[X; X <= x] / E[X] is the one the sampler draws with.
        The ratio is zero where d = 0, as q is.
        """
        x = np.asarray(x, dtype=float)
        cap = self._cap(x)
        x1 = self.sample(x, u, cap)
        d = x - x1
        moved = d > 0.0
        per_mass = self.severity.mean() / mass
        ratio = np.where(moved, (kernel.a / np.where(moved, d, 1.0) + kernel.b / x)
                         * per_mass * cap, 0.0)
        return x1, ratio


# ---------------------------------------------------------------------------
# Sampler configuration
# ---------------------------------------------------------------------------

@dataclass
class PathSamplerConfig:
    """Everything the absorbed-path sampler needs.

    ``proposal`` supplies the conditional move density q(x, .) through
    ``move(x, u, kernel, mass)``: new states x1 in [0, x], one per
    uniform in ``u``, with their weight ratios k(x, x1) / (mass q(x, x1)),
    zero where q vanishes.  A state that is NaN or outside [0, x] raises
    ``ProposalSupportError``; a negative or non-finite ratio raises
    ``SupportViolationError``.  The full transition is
    M(x, .) = (1 - p_d) q(x, .), which integrates to 1 - p_d over (0, x)
    with the remaining p_d absorbed.  A path adds w g(x) to its estimate
    at every state x it visits, where w is its running weight.
    """

    proposal: object
    p_d: float

    def __post_init__(self):
        if not (0.0 < self.p_d <= 1.0):
            raise ValueError("absorption probability must lie in (0, 1]")


def default_absorption(model: CompoundModel) -> float:
    """P_d = 1/(1 + E[N]): mean Neumann term count matches mean path length."""
    return 1.0 / (1.0 + model.frequency.mean())


# ---------------------------------------------------------------------------
# Weighted particle measures
# ---------------------------------------------------------------------------

@dataclass
class WeightedParticleMeasure:
    """Raw weighted atoms produced by the estimators.

    In ``pointwise_grid`` mode there is one atom per grid point whose
    weight is the estimated density there (plus its standard error in
    ``stderr``).  In ``interval`` mode there are n_paths atoms at the
    sampled start points carrying raw path weights, and cdf values are
    weight sums divided by n_paths.  ``zero_mass`` carries the genuine
    atom of the compound law at zero, P(N = 0); distribution-level
    queries add it on top of the continuous part, without it every
    cumulative answer would saturate below 1.
    """

    locations: np.ndarray
    weights: np.ndarray
    mode: str
    zero_mass: float = 0.0
    stderr: np.ndarray | None = None
    n_paths: int = 0

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.mode not in (POINTWISE_GRID, INTERVAL):
            raise ValueError(f"unknown measure mode {self.mode!r}")
        if len(self.locations) != len(self.weights):
            raise ValueError("locations and weights must align")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")

    def _cell_widths(self) -> np.ndarray:
        if len(self.locations) == 1:
            return np.array([1.0])
        return np.gradient(self.locations)

    def probability_atoms(self):
        """(locations, probability weights) including the atom at zero."""
        if self.mode == POINTWISE_GRID:
            w = self.weights * self._cell_widths()
        else:
            if self.n_paths < 1:
                raise ValueError("interval measure lacks its path count")
            w = self.weights / self.n_paths
        locs = np.concatenate(([0.0], self.locations))
        w = np.concatenate(([self.zero_mass], w))
        order = np.argsort(locs, kind="stable")
        return locs[order], w[order]

    def cdf(self, z):
        """Estimated F_Z at z (scalar or array)."""
        locs, w = self.probability_atoms()
        cum = np.cumsum(w)
        idx = np.searchsorted(locs, np.asarray(z, dtype=float), side="right") - 1
        out = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        return out if out.ndim else float(out)


def quantile_from_measure(measure: WeightedParticleMeasure, p: float) -> float:
    """Generalized inverse of the particle cdf.

    Grid mode: smallest grid point whose width-weighted cumulative sum
    (plus the zero atom) reaches p.  Interval mode: smallest atom
    location with cumulative weight fraction >= p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("quantile level must lie in (0, 1]")
    locs, w = measure.probability_atoms()
    cum = np.cumsum(w)
    if cum[-1] < p:
        raise TruncationError(
            f"accumulated particle mass {cum[-1]:.6f} < p = {p}; "
            "widen the grid or interval"
        )
    idx = int(np.searchsorted(cum, p, side="left"))
    return float(locs[idx])


def risk_measures_from_measure(measure: WeightedParticleMeasure, alpha: float,
                               phi=None):
    """(VaR, ES, SRM) read off the particle measure.

    ES is self-normalized over the tail atoms at and beyond the VaR --
    the raw weights target a density, so without renormalization the
    tail sum would estimate an unnormalized integral rather than a
    conditional mean.  The SRM weights each ordered atom's probability
    increment by phi evaluated at the cumulative probability.
    """
    var = quantile_from_measure(measure, alpha)
    locs, w = measure.probability_atoms()
    tail = locs >= var
    wt = w[tail]
    if wt.sum() <= 0.0:
        raise EmptyTailError(f"no particle mass at or beyond the {alpha} quantile")
    es = float(np.dot(locs[tail], wt) / wt.sum())
    srm = None
    if phi is not None:
        total = w.sum()
        wn = w / total
        cum = np.cumsum(wn)
        srm = float(np.dot(locs * np.asarray(phi(cum), dtype=float), wn))
    return var, es, srm


# ---------------------------------------------------------------------------
# Vectorized estimators
# ---------------------------------------------------------------------------

def _uniforms(streams, owner, idx: np.ndarray) -> np.ndarray:
    """One uniform per particle in ``idx`` (ascending), each drawn from the
    stream of the point that owns it, point after point.

    ``owner`` is nondecreasing in the particle index, so the draws line up
    with ``idx``, and every point takes from its stream exactly the
    uniforms it would take if it ran alone.
    """
    if len(streams) == 1:
        return streams[0].uniforms(idx.size)
    counts = np.bincount(owner[idx], minlength=len(streams))
    return np.concatenate([s.uniforms(c) for s, c in zip(streams, counts) if c])


def _checked_move(proposal, x, u, kernel: VolterraKernel, mass: float):
    """``proposal.move(x, u, kernel, mass)``, with its output checked.

    One mask per call covers every move: each new state must lie in
    [0, x] and each ratio must be finite and nonnegative.  Only when the
    mask fails is the fault classified -- a state that is NaN or outside
    [0, x] raises ``ProposalSupportError``, a negative or non-finite
    ratio (k / (mass q) at q = 0) ``SupportViolationError``.
    """
    x1, ratio = proposal.move(x, u, kernel, mass)
    ok = (x1 >= 0.0) & (x1 <= x) & (ratio >= 0.0) & (ratio < math.inf)
    if not ok.all():
        x, x1, ratio = np.broadcast_arrays(x, x1, ratio)
        off = ~((x1 >= 0.0) & (x1 <= x))
        if off.any():
            i = np.flatnonzero(off)[0]
            raise ProposalSupportError(
                f"proposal moved {x[i]:.6g} -> {x1[i]:.6g}, outside [0, x]")
        i = np.flatnonzero(~ok)[0]
        raise SupportViolationError(
            f"weight ratio {ratio[i]:.6g} on the move {x[i]:.6g} -> {x1[i]:.6g}; "
            "the proposal density must be positive wherever the kernel is")
    return x1, ratio


def _propagate(x, w, acc, kernel: VolterraKernel, cfg: PathSamplerConfig,
               streams, owner) -> None:
    """Run every particle's path to absorption, updating x, w and acc in place.

    Each step draws one uniform per live particle from its owner's stream
    (``owner[i]`` indexes ``streams``; None with a single stream): it
    absorbs with probability p_d, else draws a second uniform, moves by
    the proposal, multiplies its weight by k / ((1 - p_d) q) and adds the
    new weight times g at the new state to ``acc``.  Particles whose
    weight or state underflows stop contributing.
    """
    pd = cfg.p_d
    active = np.flatnonzero((w > 0.0) & (x > _DEAD_FLOOR))
    while active.size:
        active = active[_uniforms(streams, owner, active) > pd]
        if not active.size:
            break
        x1, ratio = _checked_move(cfg.proposal, x[active],
                                  _uniforms(streams, owner, active), kernel, 1.0 - pd)
        w[active] *= ratio
        x[active] = x1
        acc[active] += w[active] * kernel.g(x1)
        active = active[(w[active] > 0.0) & (x[active] > _DEAD_FLOOR)]


def _run_point_block(x0: np.ndarray, n: int, kernel: VolterraKernel,
                     cfg: PathSamplerConfig, streams) -> np.ndarray:
    """Per-particle density contributions for a block of start points.

    Point ``j`` owns particles ``j*n`` to ``(j+1)*n - 1`` and draws from
    ``streams[j]``; the result has the same layout.
    """
    owner = np.repeat(np.arange(len(x0)), n)
    x, w = np.repeat(x0, n), np.ones(owner.size)
    # every path starts from the deterministic n = 0 term g(x0)
    acc = np.repeat(kernel.g(x0), n)
    _propagate(x, w, acc, kernel, cfg, streams, owner)
    return acc


def estimate_density_grid(model: CompoundModel, grid, n_per_point: int,
                          cfg: PathSamplerConfig, rng: UniformStream) -> WeightedParticleMeasure:
    """Point-wise density estimates over a grid of evaluation points.

    Each grid point gets its own batch of ``n_per_point`` particles and,
    when the stream supports spawning, its own substream, so a point's
    estimate depends only on its position in the grid and the seed.
    Points run in blocks of consecutive points holding at most
    ``_BLOCK_PARTICLES`` particles, all advanced by one propagation step
    at a time; within a step each point draws its uniforms from its own
    substream, so the draws and the estimates are those of a loop over
    single points.  A stream that cannot spawn is shared by all points,
    which then run one at a time, point after point.  Per-point
    accumulation relies on numpy's pairwise summation, which keeps
    results independent of the blocking.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("grid points must be positive")
    n = int(n_per_point)
    if n < 1:
        raise ValueError("need at least one path per grid point")
    kernel = build_volterra_kernel(model)
    if isinstance(rng, PcgStream):
        streams = rng.spawn(len(grid))
        per_block = max(1, _BLOCK_PARTICLES // n)
    else:
        streams = [rng] * len(grid)
        per_block = 1
    est = np.empty(len(grid))
    se = np.zeros(len(grid))
    for lo in range(0, len(grid), per_block):
        hi = min(lo + per_block, len(grid))
        contrib = _run_point_block(grid[lo:hi], n, kernel, cfg,
                                   streams[lo:hi]).reshape(hi - lo, n)
        est[lo:hi] = contrib.mean(axis=1)
        if n > 1:
            se[lo:hi] = contrib.std(axis=1, ddof=1) / math.sqrt(n)
    return WeightedParticleMeasure(
        locations=grid, weights=est, mode=POINTWISE_GRID,
        zero_mass=float(model.frequency.pmf(0)), stderr=se, n_paths=n,
    )


def estimate_measure_interval(model: CompoundModel, interval, n_paths: int,
                              cfg: PathSamplerConfig, rng: UniformStream) -> WeightedParticleMeasure:
    """Weighted atoms over an interval of start points.

    Start points are drawn from the uniform initial law on the
    interval; each atom carries the full path weight including the
    1/mu(x0) factor, so (1/N) sum of weights below z estimates the
    continuous mass of (0, z].
    """
    x_a, x_b = float(interval[0]), float(interval[1])
    if not (0.0 <= x_a < x_b):
        raise ValueError("need an interval [x_a, x_b] with x_a < x_b")
    kernel = build_volterra_kernel(model)
    n = int(n_paths)
    x0 = x_a + (x_b - x_a) * rng.uniforms(n)
    w = np.full(n, x_b - x_a)  # 1 / mu(x0)
    acc = w * kernel.g(x0)
    _propagate(x0.copy(), w, acc, kernel, cfg, [rng], None)

    return WeightedParticleMeasure(
        locations=x0, weights=acc, mode=INTERVAL,
        zero_mass=float(model.frequency.pmf(0)), n_paths=n,
    )
