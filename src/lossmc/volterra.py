"""Path-space importance sampling for the continuous aggregate recursion.

The compound density solves a second-kind Volterra equation

    f(x) = g(x) + integral_0^x k(x, x1) f(x1) dx1,

whose Neumann series is realized stochastically: simulate strictly
decreasing Markov paths that absorb with probability P_d per step, and
weight each path by the product of kernel-to-proposal ratios.  The mean
weight at a point estimates the density there; weighted atoms over an
interval estimate the measure, and risk functionals follow from the
resulting empirical cdf.

Both estimators run one propagator, ``_propagate``, which advances a
whole set of particles by one absorb-or-move step at a time.  Each
particle carries the id of the grid point it belongs to, and each point
draws its uniforms from its own spawned substream, so the grid
estimator steps a block of consecutive points together while every
point sees exactly the draws it would see alone.  A proposal's ``move``
turns a batch of uniforms into new states and their weight ratios; the
size-biased one forms its ratio in closed form, as the severity pdf
cancels from k / q.  The estimators differ only in how a path's running
weight w is accumulated:

* endpoint -- w g(x_n) / P_d at the absorption state;
* all states (``use_all_states``) -- w g(x_j) at every visited state,
  which removes the 1/P_d inflation while staying unbiased, as each
  state contributes exactly one Neumann term in expectation;
* forced first move (``vr_pointwise``, point-wise endpoint runs) -- the
  known first term g(x0) is added analytically and the paths start
  after one compulsory move, so only the n >= 1 remainder is simulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .compound import CompoundModel
from .distributions import GeneralizedPoissonFrequency, LogNormalSeverity
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
    gpd_mode: bool = False


def build_volterra_kernel(model: CompoundModel) -> VolterraKernel:
    """Kernel for an (a, b, 0) or overdispersed generalized Poisson count.

    For (a, b, 0) members k(x, x1) = (a + b (x-x1)/x) f_X(x - x1); the
    binomial member has a < 0 which makes the kernel change sign and
    breaks the nonnegative-weight guarantees, so it is rejected here.
    The generalized Poisson mode uses p1(lam, theta) and the kernel
    (theta + lam (x-x1)/x) f_X(x-x1) * lam/(lam+theta), that is the same
    linear form with a = scale * theta and b = scale * lam, valid for
    dispersion theta >= 0.
    """
    freq = model.frequency
    sev = model.severity
    gpd_mode = isinstance(freq, GeneralizedPoissonFrequency)

    if gpd_mode:
        lam, th = freq.lam, freq.theta
        if th < 0.0:
            raise UnsupportedModelError(
                "negative dispersion gives a sign-changing kernel"
            )
        scale = lam / (lam + th)
        a, b = scale * th, scale * lam
    else:
        params = freq.panjer()  # raises UnsupportedModelError for other kinds
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

    return VolterraKernel(g=g, k=k, a=a, b=b, gpd_mode=gpd_mode)


# ---------------------------------------------------------------------------
# Initial laws and decrement proposals
# ---------------------------------------------------------------------------

@dataclass
class PointMass:
    """Point-wise mode: every path starts at exactly x0."""

    x0: float

    def __post_init__(self):
        if self.x0 <= 0.0:
            raise ValueError("start point must be positive")

    def sample(self, stream: UniformStream, size: int) -> np.ndarray:
        return np.full(size, self.x0)

    def density(self, x):
        # delta initialization: the weight formula uses mu(x0) = 1
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass
class UniformInterval:
    """Interval mode: x0 uniform on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError("need 0 <= lo < hi")

    def sample(self, stream: UniformStream, size: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * stream.uniforms(size)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)


@dataclass
class BetaProposal:
    """Multiplicative decrement: x1 = x * B with B ~ Beta(a, b).

    The multiplicative form keeps the support (0, x) automatically
    valid at every state.  Keep a <= 1 so the proposal density stays
    bounded away from zero where the kernel is not and the weight
    variance stays finite; the default (1, 1.2) mildly favours large
    decrements, which suits severity-dominated paths.
    """

    a: float = 1.0
    b: float = 1.2

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("beta shapes must be positive")

    def sample(self, x, u) -> np.ndarray:
        """New states, one per entry of ``x``, from the uniforms ``u``."""
        x = np.asarray(x, dtype=float)
        frac = stats.beta.ppf(u, self.a, self.b)
        return x * frac

    def density(self, x, x1) -> np.ndarray:
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
    and endpoint.  Implemented for lognormal severities, where the
    size-biased law is again lognormal (mu + sigma^2) and conditioning
    to (0, x) is a one-line quantile transform.
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
# Sampler configuration and paths
# ---------------------------------------------------------------------------

@dataclass
class PathSamplerConfig:
    """Everything the absorbed-path sampler needs.

    ``proposal`` supplies the conditional move density q(x, .) through
    ``sample(x, u)`` (new states from uniforms), ``density(x, x1)`` and
    ``move(x, u, kernel, mass)`` (new states with their weight ratios
    k / (mass q)); the full transition is M(x, .) = (1 - p_d) q(x, .),
    which integrates to 1 - p_d over (0, x) with the remaining p_d
    absorbed.
    """

    proposal: object
    p_d: float
    initial: object
    vr_pointwise: bool = True
    use_all_states: bool = False

    def __post_init__(self):
        if not (0.0 < self.p_d <= 1.0):
            raise ValueError("absorption probability must lie in (0, 1]")


def default_absorption(model: CompoundModel) -> float:
    """P_d = 1/(1 + E[N]): mean Neumann term count matches mean path length."""
    return 1.0 / (1.0 + model.frequency.mean())


@dataclass
class PathSample:
    """One absorbed path: states x0 > x1 > ... > x_n and its weight."""

    states: np.ndarray
    n: int
    weight: float = 0.0

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if len(self.states) != self.n + 1:
            raise ValueError("path of length n has n+1 states")
        if np.any(np.diff(self.states) >= 0.0) or np.any(self.states <= 0.0):
            raise ValueError("states must be positive and strictly decreasing")
        if self.weight < 0.0 or not math.isfinite(self.weight):
            raise ValueError("weight must be finite and nonnegative")


def simulate_absorbed_path(cfg: PathSamplerConfig, rng: UniformStream) -> PathSample:
    """Reference scalar sampler: absorb w.p. p_d, else move down.

    Each step draws one uniform to decide absorption and, on a move, one
    more for the proposal.  Returns the path with a zero placeholder
    weight; pair it with :func:`path_weight`.  The vectorized estimators
    reproduce this logic batch-wise: a particle there draws the same two
    uniforms per step from its grid point's own stream, with many grid
    points stepped together in one block.
    """
    x = float(cfg.initial.sample(rng, 1)[0])
    states = [x]
    while True:
        if rng.next_uniform() <= cfg.p_d:
            break
        nxt = float(cfg.proposal.sample(np.array([x]), rng.uniforms(1))[0])
        if not (0.0 < nxt < x):
            raise ProposalSupportError(
                f"proposal moved {x:.6g} -> {nxt:.6g}, outside (0, x)"
            )
        states.append(nxt)
        x = nxt
    return PathSample(states=np.array(states), n=len(states) - 1, weight=0.0)


def path_weight(path: PathSample, kernel: VolterraKernel,
                cfg: PathSamplerConfig) -> float:
    """Importance weight of one absorbed path.

    W = [1/mu(x0)] * prod_j k(x_{j-1}, x_j) / M(x_{j-1}, x_j)
        * g(x_n) / P_d,

    where M = (1 - P_d) q is the sub-stochastic transition; a path of
    length zero has W = g(x0) / (mu(x0) P_d).  In point-wise mode the
    delta initialization sets mu(x0) = 1.
    """
    x0 = path.states[0]
    if isinstance(cfg.initial, PointMass):
        mu0 = 1.0
    else:
        mu0 = float(cfg.initial.density(x0))
        if mu0 <= 0.0:
            raise SupportViolationError("initial density vanishes at x0")
    w = 1.0 / mu0
    for prev, cur in zip(path.states[:-1], path.states[1:]):
        q = float(cfg.proposal.density(np.array([prev]), np.array([cur]))[0])
        if q <= 0.0:
            raise SupportViolationError(
                f"proposal density is zero on the move {prev:.6g} -> {cur:.6g}"
            )
        w *= float(kernel.k(prev, cur)) / ((1.0 - cfg.p_d) * q)
    w *= float(kernel.g(path.states[-1])) / cfg.p_d
    if w < 0.0:
        raise ValueError("negative path weight; kernel/proposal mismatch")
    return w


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
    normalization: str = "raw"
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

    @property
    def atoms(self) -> np.ndarray:
        return np.column_stack([self.locations, self.weights])

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

    def to_csv(self, path) -> None:
        """Write the measure as plot-ready CSV.

        Grid mode emits columns (x, density, stderr); interval mode
        emits the sorted probability atoms, zero atom included, as
        columns (x, weight, cumulative).
        """
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if self.mode == POINTWISE_GRID:
                writer.writerow(["x", "density", "stderr"])
                se = self.stderr if self.stderr is not None else np.zeros(len(self.weights))
                for x, d, s in zip(self.locations, self.weights, se):
                    writer.writerow([f"{x:.10g}", f"{d:.17g}", f"{s:.17g}"])
            else:
                writer.writerow(["x", "weight", "cumulative"])
                locs, w = self.probability_atoms()
                cum = np.cumsum(w)
                for x, wi, c in zip(locs, w, cum):
                    writer.writerow([f"{x:.10g}", f"{wi:.17g}", f"{c:.17g}"])


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


def _propagate(x, w, acc, kernel: VolterraKernel, cfg: PathSamplerConfig,
               streams, owner, all_states: bool) -> None:
    """Run every particle's path to absorption, updating x, w and acc in place.

    Each step draws one uniform per live particle from its owner's stream
    (``owner[i]`` indexes ``streams``; None with a single stream): it
    absorbs with probability p_d, else draws a second uniform and moves
    by the proposal, multiplying its weight by k / ((1 - p_d) q).  With
    ``all_states`` the running weight times g is added to ``acc`` at
    every visited state; otherwise ``acc`` receives w g(x) / p_d at the
    absorption endpoint.  Particles whose weight or state underflows
    stop contributing.
    """
    pd = cfg.p_d
    active = np.flatnonzero((w > 0.0) & (x > _DEAD_FLOOR))
    while active.size:
        moving = _uniforms(streams, owner, active) > pd
        if not all_states:
            ended = active[~moving]
            acc[ended] = w[ended] * kernel.g(x[ended]) / pd
        active = active[moving]
        if not active.size:
            break
        x1, ratio = cfg.proposal.move(x[active], _uniforms(streams, owner, active),
                                      kernel, 1.0 - pd)
        w[active] *= ratio
        x[active] = x1
        if all_states:
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
    g0 = np.repeat(kernel.g(x0), n)
    # all-states runs start from the deterministic n = 0 term g(x0)
    acc = g0.copy() if cfg.use_all_states else np.zeros(owner.size)
    forced = not cfg.use_all_states and cfg.vr_pointwise and cfg.p_d < 1.0
    if forced:
        # simulate only the n >= 1 remainder: force the first move (its
        # ratio is k/q, absorbing the 1 - p_d prefactor) and add the
        # known first term analytically
        x, w = cfg.proposal.move(x, _uniforms(streams, owner, np.arange(owner.size)),
                                 kernel, 1.0)
    _propagate(x, w, acc, kernel, cfg, streams, owner, cfg.use_all_states)
    return g0 + acc if forced else acc


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
    initial = UniformInterval(x_a, x_b)
    n = int(n_paths)
    x0 = initial.sample(rng, n)
    w = 1.0 / initial.density(x0)
    acc = w * kernel.g(x0) if cfg.use_all_states else np.zeros(n)
    _propagate(x0.copy(), w, acc, kernel, cfg, [rng], None, cfg.use_all_states)

    return WeightedParticleMeasure(
        locations=x0, weights=acc, mode=INTERVAL,
        zero_mass=float(model.frequency.pmf(0)), n_paths=n,
    )
