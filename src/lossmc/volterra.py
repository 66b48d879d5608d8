"""Path-space importance sampling for the continuous aggregate recursion.

The compound density solves a second-kind Volterra equation

    f(x) = g(x) + integral_0^x k(x, x1) f(x1) dx1,

whose Neumann series is realized stochastically: simulate strictly
decreasing Markov paths that absorb with probability P_d per step, and
weight each path by the product of kernel-to-proposal ratios.  The mean
weight at a grid point estimates the density there; the grid's cells,
with the mass beyond the grid from paths started in the severity tail,
form the measure that quantiles and risk functionals are read from.
The route accepts the Poisson and negative binomial counts, the
(a, b, 0) members whose kernel is nonnegative, with a lognormal
severity; every other model is rejected.

The grid estimator and the tail start run one propagator,
``_propagate``, which advances a whole set of particles by one
absorb-or-move step at a time, on one uniform per particle and step:
u <= P_d absorbs, and otherwise (u - P_d) / (1 - P_d) drives the move.
Each particle carries the id of the grid point it belongs to, and each
point draws its uniforms from its own spawned substream, so the grid
estimator steps a block of consecutive points together while every
point sees exactly the draws it would see alone.  All n paths of a grid
point start at the point, so their first step is stratified: path r
uses (r + u) / n, in (r/n, (r+1)/n], and the point's standard error is
taken from successive differences in rank order.  The tail start's
draws stay iid.  The estimators take the move from the model's
severity: ``SizeBiasedProposal``, whose ``move`` turns a batch of
uniforms into new states and their weight ratios, is a defensive
mixture of a size-biased decrement and, with probability
``DEFENSIVE_SHARE``, a new state uniform on [0, x], which proposes the
single big jump that carries a subexponential tail.  Its ratio k / q
needs the severity pdf at the decrement on every move.  Every move is
checked (``_checked_move``): a new state that is NaN or outside [0, x]
raises ``ProposalSupportError``, a negative or non-finite ratio -- what
k / (mass q) gives where q = 0 -- raises ``SupportViolationError``.  A
path adds its running weight times g to its estimate at every state it
visits, the start included: each state contributes exactly one Neumann
term in expectation, so the sum is unbiased without the 1/P_d inflation
of scoring the absorption state alone.

Quantiles are read from the right.  The grid estimator also estimates
the mass beyond its last cell from paths started in the severity tail
(``estimate_tail_probability``), and ``quantile_from_measure`` sums
survival down from there, so the noise of the bulk cells stays out of a
tail quantile.  A ``TruncationError`` then means that the quantile lies
beyond the grid's x_max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compound import CompoundModel
from .distributions import LogNormalSeverity
from .errors import (
    ProposalSupportError,
    SupportViolationError,
    TruncationError,
    UnsupportedModelError,
)
from .rng import PcgStream, UniformStream

_DEAD_FLOOR = 1e-120  # states this small carry no representable density
# Share pi of the proposal's moves that draw the new state uniform on
# [0, x].  Relative SE of the grid's tail mass at 5000 paths per point,
# seeds 901 and 902 (pi -> 0 / 0.1 / 0.2 / 0.3 / 0.5): sigma=1 beyond 200,
# 0.0155 / 0.0074 / 0.0056 / 0.0047 / 0.0037; sigma=0.5 beyond 90,
# 0.037-0.039 / 0.023 / 0.023 / 0.025-0.027 / 0.034-0.039.  0.2 serves both.
DEFENSIVE_SHARE = 0.2
# The tail start runs one path per this many paths of the grid: 1e5 on the
# sigma=1 grid of 400 points x 5000 paths, about 0.06 s on 2 vCPU.
_GRID_PATHS_PER_TAIL_PATH = 20
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
    severity pdf ``f`` and the linear coefficients ``a`` and ``b`` are
    kept so that a proposal can form its weight ratio without calling
    ``k``.
    """

    g: callable
    k: callable
    f: callable
    a: float
    b: float


def _lognormal_pdf(sev: LogNormalSeverity, factor: float = 1.0):
    """x -> factor * f_X(x) in one expression.

    With z = (ln x - mu)/sigma, phi(z) / (x sigma) equals
    exp(sigma^2/2 - mu - (z + sigma)^2/2) / (sigma sqrt(2 pi)), which
    needs no branch: at x = 0, where numpy's log gives -inf with a divide
    warning, it is exactly 0.
    """
    mu, sigma = sev.mu, sev.sigma
    scale = factor * math.exp(0.5 * sigma * sigma - mu) / (sigma * math.sqrt(2.0 * math.pi))
    # h = (z + sigma) / sqrt(2) = slope ln x + shift
    slope, shift = math.sqrt(0.5) / sigma, math.sqrt(0.5) * (sigma - mu / sigma)

    def pdf(x):
        h = np.log(x) * slope + shift
        return scale * np.exp(-h * h)

    return pdf


def build_volterra_kernel(model: CompoundModel) -> VolterraKernel:
    """Kernel for a Poisson or negative binomial count and a lognormal severity.

    For (a, b, 0) members k(x, x1) = (a + b (x-x1)/x) f_X(x - x1).  The
    binomial member has a < 0, which makes the kernel change sign and
    breaks the nonnegative-weight guarantees, so it is rejected, as is
    every count outside the (a, b, 0) class.  The generalized Poisson
    pmf satisfies p_n(lam) = (lam/(lam+theta)) (theta + lam/n)
    p_{n-1}(lam + theta), whose right side has another rate, so its
    density solves no equation of this single-function form.  The
    proposal and the tail start are lognormal, so every other severity
    is rejected too.
    """
    freq = model.frequency
    sev = model.severity
    params = freq.panjer()  # raises UnsupportedModelError outside (a, b, 0)
    if params.a < 0.0:
        raise UnsupportedModelError(
            "binomial frequency yields a sign-changing Volterra kernel; "
            "use the discrete recursion oracle instead"
        )
    if not isinstance(sev, LogNormalSeverity):
        raise UnsupportedModelError("the particle route is implemented for lognormal severity")
    a, b = params.a, params.b
    f = _lognormal_pdf(sev)

    def k(x, x1):
        x = np.asarray(x, dtype=float)
        u = x - np.asarray(x1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 0.0, (a + b * u / x) * f(u), 0.0)
        return out if out.ndim else float(out)

    return VolterraKernel(g=_lognormal_pdf(sev, float(freq.pmf(1))), k=k, f=f, a=a, b=b)


# ---------------------------------------------------------------------------
# Decrement proposal
# ---------------------------------------------------------------------------

@dataclass
class SizeBiasedProposal:
    """Defensive mixture of a size-biased decrement and a uniform new state.

    With probability 1 - ``DEFENSIVE_SHARE`` the decrement d = x - x1 is
    drawn proportional to d f_X(d) on (0, x); with probability
    ``DEFENSIVE_SHARE`` the new state x1 is uniform on [0, x] (a
    defensive mixture, Hesterberg 1995).  The size-biased share makes
    the many small steps of a path in the bulk with a nearly constant
    ratio, but alone it almost never proposes the single jump d ~ x that
    carries most of a subexponential tail density; the uniform share
    does.  The mixture density is

        q(x, x1) = (1 - pi) d f_X(d) / E[X; X <= x] + pi / x,

    so the weight ratio k / q needs f_X(d) on every move: the severity
    pdf no longer cancels.  Implemented for lognormal severities, where
    the size-biased law is again lognormal (mu + sigma^2) and
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

    def sample(self, x, u, cap) -> np.ndarray:
        """New states of the size-biased share, one per entry of ``x``, from
        the uniforms ``u``, where ``cap`` is ``_cap(x)``."""
        from .normal import norm_quantile

        sev = self.severity
        x = np.asarray(x, dtype=float)
        p = np.clip(u * cap, 1e-300, 1.0 - 1e-16)
        z = norm_quantile(p)
        decrement = np.exp(sev.mu + sev.sigma ** 2 + sev.sigma * z)
        return x - np.minimum(decrement, x)

    def density(self, x, x1) -> np.ndarray:
        """The mixture density q(x, x1), zero outside [0, x]."""
        x = np.asarray(x, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        d = x - x1
        e1 = self.severity.partial_expectation(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            sized = np.where((d > 0.0) & (e1 > 0.0), d * self.severity.pdf(d) / e1, 0.0)
            out = (1.0 - DEFENSIVE_SHARE) * sized + DEFENSIVE_SHARE / x
        return np.where((x1 >= 0.0) & (d >= 0.0), out, 0.0)

    def move(self, x, u, kernel: VolterraKernel, mass: float):
        """Draw x1 from the uniforms ``u``; return it with the weight ratio
        k(x, x1) / (mass q(x, x1)).

        One uniform per move picks the component and is rescaled into its
        draw: u <= 1 - pi passes u / (1 - pi) to ``sample``, and u > 1 - pi
        gives x1 = x (u - (1 - pi)) / pi, uniform on [0, x].  With
        k = (a + b d/x) f_X(d) and E1 = E[X; X <= x] = E[X] cap, the ratio
        is written through q / f_X(d) = (1 - pi) d / E1 + pi / (x f_X(d)) as

            (a + b d/x) / (mass q / f_X(d)),

        so that where E1 or f_X(d) underflows to 0 it comes out 0, as
        k / q does to within rounding, not NaN.  At d = 0, where k
        vanishes, it is 0.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        cap = self._cap(x)
        # every entry is drawn both ways, which is cheaper than splitting the
        # arrays; ``sample`` clips the uniforms above 1 of the other share
        x1 = np.where(u <= 1.0 - DEFENSIVE_SHARE,
                      self.sample(x, u / (1.0 - DEFENSIVE_SHARE), cap),
                      x * ((u - (1.0 - DEFENSIVE_SHARE)) / DEFENSIVE_SHARE))
        d = x - x1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mass_q_per_f = ((mass * (1.0 - DEFENSIVE_SHARE) / self.severity.mean()) * d / cap
                            + (mass * DEFENSIVE_SHARE) / (x * kernel.f(d)))
            ratio = (kernel.a + kernel.b * d / x) / mass_q_per_f
        return x1, np.where(d > 0.0, ratio, 0.0)


def default_absorption(model: CompoundModel) -> float:
    """P_d = 1/(1 + E[N]): mean Neumann term count matches mean path length."""
    return 1.0 / (1.0 + model.frequency.mean())


# ---------------------------------------------------------------------------
# Weighted particle measures
# ---------------------------------------------------------------------------

def _sum_above(v: np.ndarray) -> np.ndarray:
    """Entry i: the sum of v[j] over j > i, added from the right."""
    return np.append(np.cumsum(v[:0:-1])[::-1], 0.0)


def _cell_widths(locations: np.ndarray) -> np.ndarray:
    """Width of each grid point's cell; a single point gets width 1."""
    if len(locations) == 1:
        return np.array([1.0])
    return np.gradient(locations)


def _grid_top(locations: np.ndarray) -> float:
    """Upper edge of the last cell, where the tail start begins."""
    return float(locations[-1] + 0.5 * _cell_widths(locations)[-1])


def _check_grid(locations: np.ndarray) -> None:
    """Cells between grid points have positive widths only when the points
    are positive and strictly increasing (NaN fails both tests)."""
    if not (np.all(locations > 0.0) and np.all(np.diff(locations) > 0.0)):
        raise ValueError("grid points must be positive and strictly increasing")


@dataclass
class WeightedParticleMeasure:
    """Point-wise density estimates on a grid, as weighted atoms.

    There is one atom per grid point (the points positive and strictly
    increasing) whose weight is the estimated density there; times its
    cell width it is the cell's probability.
    ``stderr`` holds each estimate's standard error; on a grid it is the
    successive-difference estimate over the point's rank-ordered,
    stratified paths (``estimate_density_grid``), conservative for
    stratified draws.  ``tail_mass`` estimates the mass
    beyond the last cell, with standard error ``tail_stderr``, and
    ``tail_excess`` the stop-loss E[(Z - top)+] past the cell's upper edge
    ``top``, with standard error ``tail_excess_stderr``.
    ``zero_mass`` carries the genuine atom of the compound law at zero,
    P(N = 0); distribution-level queries add it on top of the continuous
    part, without it every cumulative answer would saturate below 1.
    """

    locations: np.ndarray
    weights: np.ndarray
    stderr: np.ndarray
    tail_mass: float
    tail_stderr: float
    tail_excess: float
    tail_excess_stderr: float
    zero_mass: float = 0.0

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not len(self.locations) == len(self.weights) == len(self.stderr):
            raise ValueError("locations, weights and stderr must align")
        _check_grid(self.locations)
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")

    def probability_atoms(self):
        """(locations, probability weights) including the atom at zero."""
        locs = np.concatenate(([0.0], self.locations))
        w = np.concatenate(([self.zero_mass], self.weights * _cell_widths(self.locations)))
        return locs, w

    def survival(self):
        """(locations, P(Z > location), its standard error) over the atoms.

        Survival is summed from the right: ``tail_mass`` plus the atoms
        above, so a tail answer carries only the noise of the tail.  The
        standard error adds the variances of the grid cells above and of
        the tail mass.
        """
        locs, w = self.probability_atoms()
        surv = self.tail_mass + _sum_above(w)
        var = np.concatenate(([0.0], (self.stderr * _cell_widths(self.locations)) ** 2))
        return locs, surv, np.sqrt(self.tail_stderr ** 2 + _sum_above(var))


def quantile_from_measure(measure: WeightedParticleMeasure, p: float) -> float:
    """The p-quantile read from the right.

    The smallest atom location whose estimated survival P(Z > location)
    (``WeightedParticleMeasure.survival``) is at most 1 - p.  Raises
    ``TruncationError`` when the mass beyond the last atom alone exceeds
    1 - p: the quantile then lies beyond the grid's x_max.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("quantile level must lie in (0, 1]")
    locs, surv, _ = measure.survival()
    if surv[-1] > 1.0 - p:
        raise TruncationError(
            f"particle mass {surv[-1]:.6g} lies beyond the last point {locs[-1]:.6g}, "
            f"more than 1 - p for p = {p}; the quantile lies beyond it, widen the grid"
        )
    return float(locs[np.searchsorted(-surv, p - 1.0, side="left")])


def risk_measures_from_measure(measure: WeightedParticleMeasure, alpha: float):
    """(VaR, ES) read off the particle measure, both from the right.

    ES_alpha = v + E[(Z - v)+] / (1 - alpha) at the VaR v, where the
    stop-loss E[(Z - v)+] sums (z - v) times the atoms above v, (top - v)
    times the mass beyond the grid's upper edge ``top``, and the tail
    start's E[(Z - top)+].  Raises ``TruncationError`` as
    ``quantile_from_measure`` does.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("ES level must lie in (0, 1)")
    var = quantile_from_measure(measure, alpha)
    locs, w = measure.probability_atoms()
    above = locs > var
    stop_loss = (float(np.dot(locs[above] - var, w[above]))
                 + (_grid_top(measure.locations) - var) * measure.tail_mass + measure.tail_excess)
    return var, var + stop_loss / (1.0 - alpha)


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


def _propagate(x, w, acc, kernel: VolterraKernel, proposal: SizeBiasedProposal,
               p_d: float, streams, owner, strata: int) -> None:
    """Run every particle's path to absorption, updating x, w and acc in place.

    Each step draws one uniform u per live particle from its owner's
    stream (``owner[i]`` indexes ``streams``; None with a single stream):
    u <= p_d absorbs, and otherwise v = (u - p_d) / (1 - p_d), again
    uniform on (0, 1], drives the proposal's move.  A moved particle
    multiplies its weight by k / ((1 - p_d) q) and adds the new weight
    times g at the new state to ``acc``.  Particles whose weight or state
    underflows stop contributing.

    The first step is stratified over ``strata`` consecutive particles:
    particle i takes (i mod strata + u) / strata, which lies in
    (r / strata, (r + 1) / strata] for its rank r = i mod strata and is
    still one uniform per particle.  The grid passes its paths per point,
    so each point's first absorb-or-move draws cover (0, 1] evenly; with
    ``strata`` = 1 every draw is u itself.
    """
    active = np.flatnonzero((w > 0.0) & (x > _DEAD_FLOOR))
    with np.errstate(divide="ignore"):  # g(0) = 0 goes through log(0) = -inf
        while active.size:
            u = _uniforms(streams, owner, active)
            if strata > 1:  # the first step only
                u = (active % strata + u) / strata
                strata = 1
            moving = u > p_d
            active = active[moving]
            if not active.size:
                break
            x1, ratio = _checked_move(proposal, x[active], (u[moving] - p_d) / (1.0 - p_d),
                                      kernel, 1.0 - p_d)
            w[active] *= ratio
            x[active] = x1
            acc[active] += w[active] * kernel.g(x1)
            active = active[(w[active] > 0.0) & (x[active] > _DEAD_FLOOR)]


def _run_point_block(x0: np.ndarray, n: int, kernel: VolterraKernel,
                     proposal: SizeBiasedProposal, p_d: float, streams) -> np.ndarray:
    """Per-particle density contributions for a block of start points.

    Point ``j`` owns particles ``j*n`` to ``(j+1)*n - 1`` and draws from
    ``streams[j]``; the result has the same layout.
    """
    owner = np.repeat(np.arange(len(x0)), n)
    x, w = np.repeat(x0, n), np.ones(owner.size)
    # every path starts from the deterministic n = 0 term g(x0)
    acc = np.repeat(kernel.g(x0), n)
    # point j's particles are j*n .. j*n + n - 1, so index mod n is the rank
    _propagate(x, w, acc, kernel, proposal, p_d, streams, owner, n)
    return acc


def _path_sampler(model: CompoundModel, p_d: float):
    """The kernel and the proposal of ``model``, once p_d is checked.

    Paths absorb with probability p_d per step and otherwise move by the
    defensive mixture over the model's severity, so the transition is
    M(x, .) = (1 - p_d) q(x, .).
    """
    if not (0.0 < p_d <= 1.0):
        raise ValueError(f"absorption probability must lie in (0, 1], got {p_d}")
    return build_volterra_kernel(model), SizeBiasedProposal(model.severity)


def _chunk_stats(v: np.ndarray):
    """(size, mean, sum of squared deviations) of one chunk of values."""
    return v.size, v.mean(), np.sum((v - v.mean()) ** 2)


def _pooled_mean_se(chunks, n: int):
    """Mean and standard error of n values from their chunks' stats."""
    sizes, means, sq_dev = (np.array(c) for c in zip(*chunks))
    mean = float(np.dot(sizes, means) / n)
    if n == 1:
        return mean, 0.0
    var = (sq_dev.sum() + np.dot(sizes, (means - mean) ** 2)) / (n - 1)
    return mean, float(math.sqrt(var / n))


def estimate_tail_probability(model: CompoundModel, t: float, n_paths: int,
                              p_d: float, rng: UniformStream):
    """P(Z > t) and E[(Z - t)+], each with its standard error, from paths
    started beyond t: (P, SE, E, SE).

    Each path starts at x0 drawn from X | X > t, by inversion from one
    uniform, with the weight sf_X(t) / f_X(x0), the inverse of that start
    density.  Its sum estimates f(x0) under the start law, so the mean
    over paths estimates the integral of the compound density over
    (t, inf), with no grid past t, and the mean of each sum times
    (x0 - t) the stop-loss integral of (z - t) f(z) over it, with no
    further draws.  Paths absorb with probability
    ``p_d`` per step and run in chunks of at most ``_BLOCK_PARTICLES``,
    one chunk after another on ``rng``.
    """
    t = float(t)
    if not (0.0 < t < math.inf):
        raise ValueError(f"tail threshold must be positive and finite, got {t}")
    n = int(n_paths)
    if n < 1:
        raise ValueError("need at least one tail path")
    kernel, proposal = _path_sampler(model, p_d)
    sev = model.severity
    sf_t = float(sev.sf(t))
    if sf_t == 0.0:
        return 0.0, 0.0, 0.0, 0.0  # no severity mass beyond t in double precision
    mass, excess = [], []  # _chunk_stats of each chunk
    for lo in range(0, n, _BLOCK_PARTICLES):
        # the uniform is the draw's survival probability, scaled to (0, sf(t)]
        x0 = sev.isf(sf_t * rng.uniforms(min(_BLOCK_PARTICLES, n - lo)))
        over = x0 - t  # before _propagate moves x0
        w = sf_t / kernel.f(x0)
        acc = w * kernel.g(x0)
        _propagate(x0, w, acc, kernel, proposal, p_d, [rng], None, 1)
        mass.append(_chunk_stats(acc))
        over *= acc
        excess.append(_chunk_stats(over))
    return (*_pooled_mean_se(mass, n), *_pooled_mean_se(excess, n))


def estimate_density_grid(model: CompoundModel, grid, n_per_point: int,
                          p_d: float, rng: UniformStream) -> WeightedParticleMeasure:
    """Point-wise density estimates over a grid of positive, strictly
    increasing evaluation points, and the mass beyond its last cell.

    Paths absorb with probability ``p_d`` per step and otherwise move by
    ``SizeBiasedProposal`` over the model's severity.

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

    A point's first step is stratified over its paths (``_propagate``):
    path r draws its first uniform from (r/n, (r+1)/n].  The iid
    formula std / sqrt(n) would then report the unstratified spread, so
    the standard error is formed from successive differences of the
    path sums c_r in rank order, sqrt(sum_r (c_{r+1} - c_r)^2 /
    (2 n (n - 1))): unbiased for iid sums, conservative for stratified
    ones, and 0 at n = 1.

    The mass beyond the upper edge of the last cell comes from
    ``estimate_tail_probability``, with one path per
    ``_GRID_PATHS_PER_TAIL_PATH`` paths of the grid, on one more
    substream (or after the points on a shared stream).
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    n = int(n_per_point)
    if n < 1:
        raise ValueError("need at least one path per grid point")
    kernel, proposal = _path_sampler(model, p_d)
    if isinstance(rng, PcgStream):
        streams = rng.spawn(len(grid) + 1)
        per_block = max(1, _BLOCK_PARTICLES // n)
    else:
        streams = [rng] * (len(grid) + 1)
        per_block = 1
    est = np.empty(len(grid))
    se = np.zeros(len(grid))
    for lo in range(0, len(grid), per_block):
        hi = min(lo + per_block, len(grid))
        contrib = _run_point_block(grid[lo:hi], n, kernel, proposal, p_d,
                                   streams[lo:hi]).reshape(hi - lo, n)
        est[lo:hi] = contrib.mean(axis=1)
        if n > 1:
            # successive differences in rank order: stratum neighbours
            se[lo:hi] = np.sqrt(np.sum(np.diff(contrib, axis=1) ** 2, axis=1)
                                / (2.0 * n * (n - 1)))
    top = _grid_top(grid)
    n_tail = -(-len(grid) * n // _GRID_PATHS_PER_TAIL_PATH)
    tail_mass, tail_stderr, tail_excess, tail_excess_stderr = estimate_tail_probability(
        model, top, n_tail, p_d, streams[-1])
    return WeightedParticleMeasure(locations=grid, weights=est, stderr=se, tail_mass=tail_mass,
                                   tail_stderr=tail_stderr, tail_excess=tail_excess,
                                   tail_excess_stderr=tail_excess_stderr,
                                   zero_mass=float(model.frequency.pmf(0)))

