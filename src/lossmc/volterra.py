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
severity; every other model is rejected.  The kernel reads the
severity's own density, ``LogNormalSeverity.pdf``: f_X in k and in
g = p_1 f_X.

The grid estimator and the tail start run one propagator,
``_propagate``, which advances one pool of live paths by one
absorb-or-move step at a time, on one uniform per path and step:
u <= P_d absorbs, and otherwise (u - P_d) / (1 - P_d) drives the move.
The pool holds each path's state, weight and id; path id belongs to
grid point id // n, and each point draws its uniforms from its own
spawned substream, in id order, so every point sees exactly the draws
it would see alone however the pool mixes points.  The grid hands the
pool its points in blocks of at most ``_BLOCK_PARTICLES`` paths and
admits the next block when fewer than ``_LOW_WATER`` of a block are
live: a block's last steps, each moving a few paths, run with the next
block's first, and only the admitting step mixes first moves with later
ones, in one call: the later read a table row of share 0.  The tail
start admits its next chunk only once the pool is empty, so its chunks
draw from its one stream in turn.  All n paths of
a grid point start at the point, so their first step is stratified:
path r uses (r + u) / n, in (r/n, (r+1)/n], and the point's standard
error is taken from successive differences in rank order.  The tail
start's draws stay iid.  The estimators take the move from the model's
severity: ``SizeBiasedProposal``, whose ``move`` turns a batch of
uniforms into new states and their weight ratios, is a defensive
mixture of a size-biased decrement and, with probability
``DEFENSIVE_SHARE``, a new state uniform on [0, x], which proposes the
single big jump that carries a subexponential tail.  Its ratio k / q
needs the severity pdf at the decrement on every move.  A grid point's
first move mixes in, with probability ``TABLE_SHARE``, a table built for
that point (``FirstMoveTable``): piecewise constant on ``TABLE_CELLS``
equal cells of [0, x0], proportional to k(x0, x1) h(x1), where h is a
lognormal with the first two moments of the compound law given a claim.
The zero-variance first move is proportional to k(x0, x1) f(x1)
(Spanier & Gelbard 1969); the default mixture alone lands the paths that
carry most of a tail point's estimate by its uniform share, and the
table lands them where f is.  A row holds cell probabilities that depend
only on its point and the model, scaled by its share times
``TABLE_CELLS`` / x on a move from x, so estimates stay unbiased and the
pool still equals single points; its ratio keeps the default mixture's
share, which bounds the weights (Owen & Zhou 2000).  Later moves and the
tail start take no table.

Every move is checked (``_checked_move``): a new state that is NaN or
outside [0, x] raises ``ProposalSupportError``, a negative or
non-finite ratio -- what k / (mass q) gives where q = 0 -- raises
``SupportViolationError``.  A path adds its running weight times g to
its estimate at every state it visits, the start included: each state
contributes exactly one Neumann term in expectation, so the sum is
unbiased without the 1/P_d inflation of scoring the absorption state
alone.

Every report row is read off one survival curve.  The grid estimator
also estimates the mass beyond its last cell from paths started in the
severity tail (``estimate_tail_probability``), and
``WeightedParticleMeasure.survival`` sums down from there to each cell
edge, so the noise of the bulk cells stays out of a tail answer.  The
curve is linear between edges; ``risk_measures_from_measure`` reads a
row's VaR, band, ES and their SEs off it between grid points, and a
``TruncationError`` means that the quantile lies beyond the grid's top.
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
# A grid point's first move lands with probability TABLE_SHARE by its own
# table (``FirstMoveTable``) of TABLE_CELLS equal cells.  Relative SE of the
# sigma=1 grid's mass beyond 233 at 5000 paths per point, seeds 83111 and
# 83112: 0.0043 with no table; 0.0028 for 64 to 1024 cells at shares 0.5
# and 0.7; 0.0030 at a share of 0.3.
TABLE_SHARE = 0.5
TABLE_CELLS = 256
# The tail start runs one path per this many paths of the grid: 1e5 on the
# sigma=1 grid of 400 points x 5000 paths, about 0.03 s on 2 vCPU.
_GRID_PATHS_PER_TAIL_PATH = 20
# Paths one block of grid points starts with, at most.  On the sigma=1 grid
# of 400 points x 5000 paths (2 vCPU, numpy 2.4; median of 8 grids, taken
# in turn in one process) one point per block took 1.18 s, 2^15 paths
# 0.73 s and 2^17 0.91 s; peak memory rose over the process before the
# run by 4.1, 4.5-4.9 and 18.5-19 MB.  The constant also sets the tail
# start's chunk size: shrinking it to 1 to time one grid point per block
# runs the 1e5-path tail start as 1e5 one-path chunks.  To time one point
# per block, set ``per_block`` in ``volterra_density_grid`` to 1 instead.
_BLOCK_PARTICLES = 1 << 15
# The pool of live paths takes in the next block when fewer than this share
# of a block's paths are live.  On the same grid and 2^15-path blocks, 1/4,
# 1/8 and 1/16 took 0.68, 0.73 and 0.73 s (14 more grids in turn put them
# within 4 % of each other) in 375, 507 and 581 steps, against 1454 steps
# when a block joins only an empty pool; peak memory rose by 5.0-5.3,
# 4.5-4.9 and 4.2 MB.
_LOW_WATER = 1 / 8


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
    a, b = freq.panjer()  # raises UnsupportedModelError outside (a, b, 0)
    if a < 0.0:
        raise UnsupportedModelError(
            "binomial frequency yields a sign-changing Volterra kernel; "
            "use the discrete recursion oracle instead"
        )
    if not isinstance(sev, LogNormalSeverity):
        raise UnsupportedModelError("the particle route is implemented for lognormal severity")
    f = sev.pdf
    p1 = float(freq.pmf(1))

    def k(x, x1):
        x = np.asarray(x, dtype=float)
        u = x - np.asarray(x1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 0.0, (a + b * u / x) * f(u), 0.0)
        return out if out.ndim else float(out)

    def g(x):
        return p1 * f(x)

    return VolterraKernel(g=g, k=k, f=f, a=a, b=b)


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal entries of v."""
    return np.flatnonzero(np.concatenate(([v.size > 0], v[1:] != v[:-1])))


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

    A grid point's first move passes a ``FirstMoveTable`` to ``move``,
    which then mixes the point's table, with weight ``TABLE_SHARE``, and
    the mixture above: the density is pi_t q_t + (1 - pi_t) q.
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
        z = np.log(x)
        z -= sev.mu
        z -= sev.sigma ** 2
        z /= sev.sigma
        return norm_cdf(z)

    def sample(self, x, u, cap) -> np.ndarray:
        """New states of the size-biased share, one per entry of ``x``, from
        the uniforms ``u``, where ``cap`` is ``_cap(x)``."""
        from .normal import norm_quantile

        sev = self.severity
        x = np.asarray(x, dtype=float)
        p = u * cap
        np.clip(p, 1e-300, 1.0 - 1e-16, out=p)
        z = norm_quantile(p)
        z *= sev.sigma
        z += sev.mu + sev.sigma ** 2
        decrement = np.exp(z, out=z)
        np.minimum(decrement, x, out=decrement)
        return np.subtract(x, decrement, out=decrement)

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

    def _draw(self, x, u, cap) -> np.ndarray:
        """New states of the mixture from the uniforms ``u``: u <= 1 - pi
        passes u / (1 - pi) to ``sample``, and u > 1 - pi gives
        x (u - (1 - pi)) / pi, uniform on [0, x]."""
        # every entry is drawn both ways, cheaper than splitting the arrays, so
        # ``sample`` sees every entry and clips the uniforms above 1 of the other share
        x1 = u - (1.0 - DEFENSIVE_SHARE)
        x1 /= DEFENSIVE_SHARE
        x1 *= x
        np.copyto(x1, self.sample(x, u / (1.0 - DEFENSIVE_SHARE), cap),
                  where=u <= 1.0 - DEFENSIVE_SHARE)
        return x1

    def move(self, x, u, kernel: VolterraKernel, mass: float,
             table: FirstMoveTable | None = None):
        """Draw x1 from the uniforms ``u``; return it with the weight ratio
        k(x, x1) / (mass q(x, x1)).

        One uniform per move picks the component and is rescaled into its
        draw (``_draw``).  With k = (a + b d/x) f_X(d) and E1 = E[X; X <= x]
        = E[X] cap, the ratio is written through q / f_X(d) =
        (1 - pi) d / E1 + pi / (x f_X(d)) as

            (a + b d/x) / (mass q / f_X(d)),

        so that where E1 or f_X(d) underflows to 0 it comes out 0, as
        k / q does to within rounding, not NaN.  At d = 0, where k
        vanishes, it is 0.

        With a ``table`` (a block's first moves, each at its row's start
        point, and carried paths on its zero row) the move mixes the
        table, with the weight pi_t = ``table.share`` of the entry's row,
        and the move above: u <= pi_t inverts the table with u / pi_t,
        and u > pi_t passes (u - pi_t) / (1 - pi_t) to ``_draw``, so no
        entry is drawn both ways.  The density becomes pi_t q_t + (1 -
        pi_t) q, and the ratio is formed as above, with pi_t q_t / f_X(d)
        added to (1 - pi_t) times the denominator; that term is 0 where
        q_t is.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if table is None:
            cap = self._cap(x)
            x1 = self._draw(x, u, cap)
        else:
            # first moves sit at a few start points: one cap per run of equal states
            runs = _run_starts(x)
            cap = np.repeat(self._cap(x[runs]), np.diff(runs, append=x.size))
            share = table.share[table.rows]
            tabled = u <= share
            on, rest = np.flatnonzero(tabled), np.flatnonzero(~tabled)
            x1, q_t = np.empty_like(x), np.empty_like(x)
            x1[on], q_t[on] = table.draw(u[on] / share[on], table.rows[on], x[on])
            x1[rest] = self._draw(x[rest], (u[rest] - share[rest]) / (1.0 - share[rest]),
                                  cap[rest])
            q_t[rest] = table.density_at(x1[rest], table.rows[rest], x[rest])
        d = x - x1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f_d = kernel.f(d)
            # c1 d / cap + c2 / (x f_X(d)), in place and in that order
            mass_q_per_f = d * (mass * (1.0 - DEFENSIVE_SHARE) / self.severity.mean())
            mass_q_per_f /= cap
            uniform = np.multiply(x, f_d)
            mass_q_per_f += np.divide(mass * DEFENSIVE_SHARE, uniform, out=uniform)
            if table is not None:
                mass_q_per_f *= 1.0 - share
                share *= TABLE_CELLS  # not read again: q_t takes the scale share TABLE_CELLS / x
                q_t *= np.divide(share, x, out=share)
                np.divide(q_t, f_d, out=q_t, where=q_t > 0.0)
                q_t *= mass
                mass_q_per_f += q_t
            ratio = d * kernel.b
            ratio /= x
            ratio += kernel.a
            ratio /= mass_q_per_f
        np.copyto(ratio, 0.0, where=~(d > 0.0))
        return x1, ratio


# ---------------------------------------------------------------------------
# First-move tables
# ---------------------------------------------------------------------------

def _positive_sum_moments(model: CompoundModel):
    """(E[Z | N > 0], E[Z^2 | N > 0]) for a lognormal severity.

    E[Z^2] = E[N] Var X + Var N E[X]^2 + (E[N] E[X])^2, with Var N from
    the second factorial moment; both are divided by 1 - P(N = 0), which
    is NaN for a count that is 0 almost surely.
    """
    freq, sev = model.frequency, model.severity
    en, ex = freq.mean(), sev.mean()
    var_n = freq.factorial_moment2() + en - en * en
    var_x = math.exp(2.0 * sev.mu + 2.0 * sev.sigma ** 2) - ex * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        positive = np.float64(1.0 - float(freq.pmf(0)))
        return (en * ex / positive,
                (en * var_x + var_n * ex * ex + (en * ex) ** 2) / positive)


def _sum_proxy(model: CompoundModel):
    """y -> h(y), the unnormalized lognormal density with the mean m1 and
    second moment m2 of Z given N > 0: with s^2 = ln(m2 / m1^2),
    h(y) = exp(-(ln y - ln m1 + s^2/2)^2 / (2 s^2)) / y."""
    m1, m2 = _positive_sum_moments(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.log(m2 / (m1 * m1))
        centre = np.log(m1) - 0.5 * s2

    def h(y):
        t = np.log(y) - centre
        return np.exp(-t * t / (2.0 * s2)) / y

    return h


@dataclass
class FirstMoveTable:
    """Piecewise-constant first-move densities, one row per start point.

    Row r splits [0, x] into ``TABLE_CELLS`` equal cells; ``edges[r]``
    holds the cumulative cell probabilities from 0 to exactly 1, and
    ``share[r]`` the row's weight in the move's mixture: ``TABLE_SHARE``,
    or 0 for a point whose table weights all vanish, which then moves by
    the default mixture alone.  A row keeps no scale: a move from x gives
    a cell of probability P the density P ``TABLE_CELLS`` / x.  The last
    row, the zero row, is all zero with share 0 too: an entry on it moves
    exactly as without a table.  ``rows`` names each entry's row when the
    table is handed to a move (``at``).
    """

    edges: np.ndarray
    share: np.ndarray
    rows: np.ndarray | None = None

    def at(self, rows: np.ndarray) -> "FirstMoveTable":
        """The same table, for move entries whose rows are ``rows``."""
        return FirstMoveTable(self.edges, self.share, rows)

    def draw(self, s: np.ndarray, rows: np.ndarray, x: np.ndarray):
        """(x1, P) from the uniforms s in (0, 1] of entries at x: the row's
        first cell j with edges[row, j + 1] >= s, by inversion of its cell
        probabilities, one sorted search per run of entries in the same
        row, x1 linear in s inside it, and P the cell's probability."""
        # searching the row alone keeps a point's draws independent of its row
        j = np.empty(len(s), dtype=np.intp)
        runs = _run_starts(rows)
        for a, b in zip(runs, np.append(runs[1:], len(s))):
            j[a:b] = np.searchsorted(self.edges[rows[a]], s[a:b]) - 1
        edges, base = self.edges.ravel(), rows * (TABLE_CELLS + 1)
        lo, hi = edges[base + j], edges[base + j + 1]
        prob = hi - lo
        frac = np.minimum((s - lo) / prob, 1.0)
        return x * ((j + frac) / TABLE_CELLS), prob

    def density_at(self, x1: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The probability of the row's cell that holds x1 in [0, x]."""
        cell = np.minimum((x1 / x * TABLE_CELLS).astype(np.intp), TABLE_CELLS - 1)
        return np.diff(self.edges, axis=1).ravel()[rows * TABLE_CELLS + cell]


def _first_move_tables(kernel: VolterraKernel, proxy, x0: np.ndarray) -> FirstMoveTable:
    """One table per start point: cell j of [0, x0] gets weight
    k(x0, y_j) h(y_j) at its midpoint y_j, for the proxy h (``_sum_proxy``)
    of the density the path goes on to estimate, normalized per row, and
    then the zero row (``FirstMoveTable``) at index ``len(x0)``."""
    x0 = np.asarray(x0, dtype=float)[:, None]
    y = x0 * ((np.arange(TABLE_CELLS) + 0.5) / TABLE_CELLS)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cum = np.cumsum(kernel.k(x0, y) * proxy(y), axis=1)
    total = cum[:, -1:]
    usable = (total > 0.0) & (total < math.inf)
    edges = np.zeros((len(x0) + 1, TABLE_CELLS + 1))
    # cum / cum[-1] makes the last edge exactly 1
    np.divide(cum, total, out=edges[:-1, 1:], where=usable)
    share = np.append(np.where(usable[:, 0], TABLE_SHARE, 0.0), 0.0)
    return FirstMoveTable(edges, share)


def default_absorption(model: CompoundModel) -> float:
    """P_d = 1/(1 + E[N]): mean Neumann term count matches mean path length."""
    return 1.0 / (1.0 + model.frequency.mean())


# ---------------------------------------------------------------------------
# Weighted particle measures
# ---------------------------------------------------------------------------

def _sum_above(v: np.ndarray) -> np.ndarray:
    """Entry i: the sum of v[j] over j > i, added from the right."""
    return np.append(np.cumsum(v[:0:-1])[::-1], 0.0)


def _cell_edges(locations: np.ndarray) -> np.ndarray:
    """Edges that tile the grid on any spacing, whose gaps are the cells'
    widths: the midpoints between points, and half the end gap past each
    end (a unit cell around a single point), the first clamped at 0."""
    half = 0.5 * (np.diff(locations) if len(locations) > 1 else np.ones(1))
    mids = 0.5 * (locations[:-1] + locations[1:])
    return np.concatenate(([max(locations[0] - half[0], 0.0)], mids, [locations[-1] + half[-1]]))


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
    cell's width (``_cell_edges``) it is the cell's probability.
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

    def survival(self):
        """(knots, P(Z > knot), its standard error) at the cell edges
        (``_cell_edges``); linear between knots, as a cell spreads its mass
        evenly.  Survival sums ``tail_mass`` and the cells above, and its
        variance theirs, so a tail answer carries only its tail's noise."""
        knots = _cell_edges(self.locations)
        widths = np.diff(knots)
        surv = self.tail_mass + _sum_above(np.append(0.0, self.weights * widths))
        var = np.append(0.0, (self.stderr * widths) ** 2)
        return knots, surv, np.sqrt(self.tail_stderr ** 2 + _sum_above(var))


def _invert(knots: np.ndarray, surv: np.ndarray, p: float):
    """(v, i): the p-quantile v of the curve (knots, surv), linear between
    knots, and the first knot i with surv <= 1 - p; v = 0 at i = 0, in the
    atom at zero.  Raises ``TruncationError`` past the last knot."""
    i = int(np.searchsorted(-surv, p - 1.0, side="left"))
    if i == len(knots):
        raise TruncationError(f"particle mass {surv[-1]:.6g} lies beyond the grid top "
                              f"{knots[-1]:.6g}, more than 1 - p for p = {p}; widen the grid")
    if i == 0:
        return 0.0, 0
    t = (surv[i - 1] + (p - 1.0)) / (surv[i - 1] - surv[i])
    return float(knots[i - 1] + t * (knots[i] - knots[i - 1])), i


def quantile_from_measure(measure: WeightedParticleMeasure, p: float) -> float:
    """The p-quantile read off ``WeightedParticleMeasure.survival``, linear
    inside its cell; ``TruncationError`` when the mass beyond the grid's
    top alone exceeds 1 - p."""
    if not (0.0 < p <= 1.0):
        raise ValueError("quantile level must lie in (0, 1]")
    return _invert(*measure.survival()[:2], p)[0]


def risk_measures_from_measure(measure: WeightedParticleMeasure, alpha: float) -> dict:
    """One report row off the survival curve S (``survival``): ``var``,
    ``var_lo``, ``var_hi``, ``es``, ``stderr`` (the VaR's) and ``es_stderr``.
    A VaR beyond the grid's top raises ``TruncationError``.

    The VaR v is the alpha-quantile; its SE is the SE of S(v) over the
    density of v's cell (over P(N = 0) at v = 0), and the band reads S at
    alpha -+ 1.96 SE(S(v)), clamped to [1e-9, 1], or the grid top past it.
    ES = v + (integral of S from v to the top + ``tail_excess``) / (1 -
    alpha), and its SE holds v fixed.  The cells run on their own
    substreams, so their mass variances add, each times its weight in the
    integral squared: (midpoint - v) above v, (u - v)^2 / (2 w) for v's
    cell [u - w, u].  The two tail-start terms share paths, so their SEs
    add: (top - v) ``tail_stderr`` + ``tail_excess_stderr``.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("ES level must lie in (0, 1)")
    knots, surv, se = measure.survival()
    var, i = _invert(knots, surv, alpha)
    widths = np.diff(knots)
    cell_se = measure.stderr * widths
    if i:
        share = (knots[i] - var) / widths[i - 1]  # the part of v's cell above v
        surv_v, dens = 1.0 - alpha, (surv[i - 1] - surv[i]) / widths[i - 1]
        surv_se = math.hypot(se[i], share * cell_se[i - 1])
        partial_se = 0.5 * (knots[i] - var) * share * cell_se[i - 1]
    else:  # S is flat at S(0) from zero up to the first cell
        surv_v, dens, surv_se, partial_se = surv[0], max(measure.zero_mass, 1e-300), se[0], 0.0
    stop_loss = float(0.5 * (surv_v + surv[i]) * (knots[i] - var) + measure.tail_excess
                      + 0.5 * np.dot(surv[i:-1] + surv[i + 1:], widths[i:]))
    cells_se = (0.5 * (knots[i:-1] + knots[i + 1:]) - var) * cell_se[i:]
    tail_se = (knots[-1] - var) * measure.tail_stderr + measure.tail_excess_stderr
    es_se = math.sqrt(float(cells_se @ cells_se) + partial_se ** 2 + tail_se ** 2)
    levels = (max(alpha - 1.96 * surv_se, 1e-9), min(alpha + 1.96 * surv_se, 1.0))
    var_lo, var_hi = (float(knots[-1]) if surv[-1] > 1.0 - p else _invert(knots, surv, p)[0]
                      for p in levels)
    return {"var": var, "var_lo": var_lo, "var_hi": var_hi,
            "es": var + stop_loss / (1.0 - alpha), "stderr": float(surv_se / dens),
            "es_stderr": es_se / (1.0 - alpha)}


# ---------------------------------------------------------------------------
# Vectorized estimators
# ---------------------------------------------------------------------------

def _uniforms(streams, ids: np.ndarray, n: int) -> np.ndarray:
    """One uniform per path in ``ids`` (ascending), each drawn from the
    stream of its point ``streams[id // n]``, point after point.

    The draws line up with ``ids``, and every point takes from its stream
    exactly the uniforms it would take if it ran alone.
    """
    first, last = int(ids[0]) // n, int(ids[-1]) // n
    # point p's paths are ids[cuts[p - first]:cuts[p - first + 1]]
    cuts = np.searchsorted(ids, np.arange(first, last + 2) * n).tolist()
    return np.concatenate([streams[p].uniforms(b - a)
                           for p, a, b in zip(range(first, last + 1), cuts, cuts[1:]) if b > a])


def _checked_move(proposal, x, u, kernel: VolterraKernel, mass: float, table=None):
    """``proposal.move(x, u, kernel, mass, table)``, with its output checked.

    One mask per call covers every move: each new state must lie in
    [0, x] and each ratio must be finite and nonnegative.  Only when the
    mask fails is the fault classified -- a state that is NaN or outside
    [0, x] raises ``ProposalSupportError``, a negative or non-finite
    ratio (k / (mass q) at q = 0) ``SupportViolationError``.
    """
    x1, ratio = proposal.move(x, u, kernel, mass, table)
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


def _propagate(blocks, kernel: VolterraKernel, proposal: SizeBiasedProposal, p_d: float,
               streams, n: int, strata: int, low: int):
    """Run the paths of ``blocks`` to absorption in one pool of live paths,
    and yield each block's ``(lo, acc)`` once none of its paths is live.

    A block is ``(x0, w0, acc, table)``: its paths start at the states x0
    with the weights w0 and add to their entries of ``acc``.  They get the
    ids lo, lo + 1, ..., where lo counts the paths of the blocks before.
    The pool holds each live path's state, weight and id, in id order.  It
    takes in the next block whenever fewer than ``low`` of its paths are
    live, so a block's last, thin steps run with the next block's first.

    Each step draws one uniform u per live path from the stream of its
    point, ``streams[id // n]`` (``_uniforms``): u <= p_d absorbs, and
    otherwise v = (u - p_d) / (1 - p_d), again uniform on (0, 1], drives
    the proposal's move.  A moved path multiplies its weight by
    k / ((1 - p_d) q) and adds the new weight times g at the new state to
    its sum.  Paths whose weight or state underflows stop contributing.

    A block's paths take their first step in the step that admits it.  It
    is stratified over ``strata`` consecutive ids: path id takes
    (id mod strata + u) / strata, which lies in (r / strata, (r + 1) /
    strata] for its rank r = id mod strata and is still one uniform per
    path.  The grid passes its paths per point, so each point's first
    absorb-or-move draws cover (0, 1] evenly; with ``strata`` = 1 every
    draw is u itself.  The block's first moves also take its ``table``
    (``FirstMoveTable``), whose row for path id is id // n - lo // n; the
    paths carried from earlier blocks read its zero row, of share 0, and
    move in the same call exactly as without a table.
    """
    mass = 1.0 - p_d
    ids, x, w = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    pending = []  # (lo, acc) of each admitted block not yet yielded, by lo
    blocks, end = iter(blocks), 0  # end: the id of the next block's first path
    while True:
        while pending and not (ids.size and ids[0] < pending[0][0] + pending[0][1].size):
            yield pending.pop(0)
        fresh, table = ids.size, None  # an admitted block's paths are ids[fresh:]
        if ids.size < low:
            block = next(blocks, None)
            if block is None and not ids.size:
                return
            if block is not None:
                x0, w0, acc, table = block
                new = _drop_dead(np.arange(end, end + x0.size), x0, w0)
                ids, x, w = (np.concatenate(pair) for pair in zip((ids, x, w), new))
                pending.append((end, acc))
                end += acc.size
                del block, x0, w0, new  # the pool holds what the steps need of them
        if not ids.size:
            continue
        u = _uniforms(streams, ids, n)
        u[fresh:] = (ids[fresh:] % strata + u[fresh:]) / strata
        moving = np.flatnonzero(u > p_d)
        ids, x, w = ids[moving], x[moving], w[moving]
        if not ids.size:
            continue
        v = u[moving]
        v -= p_d
        v /= mass
        if table is not None:
            base = pending[-1][0]
            # the carried paths read the zero row
            table = table.at(np.where(ids < base, table.share.size - 1, ids // n - base // n))
        x1, ratio = _checked_move(proposal, x, v, kernel, mass, table)
        w *= ratio
        g = kernel.g(x1)
        g *= w
        # each pending block's live paths are a run of ids
        cuts = [0, *np.searchsorted(ids, [lo for lo, _ in pending[1:]]).tolist(), ids.size]
        for (lo, acc), a, b in zip(pending, cuts, cuts[1:]):
            acc[ids[a:b] - lo] += g[a:b]
        ids, x, w = _drop_dead(ids, x1, w)
        del u, moving, v, x1, ratio, g  # before the next step's move


def _drop_dead(ids, x, w):
    """The paths (ids, x, w) less those whose weight or state underflows,
    which contribute nothing more; as given when none does."""
    live = (w > 0.0) & (x > _DEAD_FLOOR)
    if live.all():
        return ids, x, w
    live = np.flatnonzero(live)
    return ids[live], x[live], w[live]


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
    ``p_d`` per step and start in chunks of at most ``_BLOCK_PARTICLES``,
    drawn from ``rng`` one after another: ``_propagate`` admits the next
    chunk once the last one's paths have all absorbed.
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
    over = {}  # x0 - t of each chunk, by its first id

    def chunks():
        for lo in range(0, n, _BLOCK_PARTICLES):
            # the uniform is the draw's survival probability, scaled to (0, sf(t)]
            x0 = sev.isf(sf_t * rng.uniforms(min(_BLOCK_PARTICLES, n - lo)))
            over[lo] = x0 - t
            w = sf_t / kernel.f(x0)
            yield x0, w, w * kernel.g(x0), None

    mass, excess = [], []  # _chunk_stats of each chunk
    # admitting a chunk only into an empty pool keeps the stream's draws in order
    for lo, acc in _propagate(chunks(), kernel, proposal, p_d, [rng], n, 1, 1):
        mass.append(_chunk_stats(acc))
        excess.append(_chunk_stats(over.pop(lo) * acc))
    return (*_pooled_mean_se(mass, n), *_pooled_mean_se(excess, n))


def estimate_density_grid(model: CompoundModel, grid, n_per_point: int,
                          p_d: float, rng: PcgStream) -> WeightedParticleMeasure:
    """Point-wise density estimates over a grid of positive, strictly
    increasing evaluation points, and the mass beyond its last cell.

    Paths absorb with probability ``p_d`` per step and otherwise move by
    ``SizeBiasedProposal`` over the model's severity.

    Each grid point gets its own batch of ``n_per_point`` particles and
    its own substream spawned from ``rng``, so a point's estimate depends
    only on its position in the grid and the seed.  Points join one pool
    of live paths (``_propagate``) in blocks of consecutive points holding
    at most ``_BLOCK_PARTICLES`` paths, the next block once fewer than
    ``_LOW_WATER`` of a block's paths are live; within a step each point
    draws its uniforms from its own substream, in path order, and every
    move is element-wise, so the draws and the estimates are those of a
    loop over single points.  A block's means and SEs are taken, one row
    per point, once none of its paths is live; numpy's pairwise summation
    gives each row the sum it would get alone.

    A point's first step is stratified over its paths (``_propagate``):
    path r draws its first uniform from (r/n, (r+1)/n].  The iid
    formula std / sqrt(n) would then report the unstratified spread, so
    the standard error is formed from successive differences of the
    path sums c_r in rank order, sqrt(sum_r (c_{r+1} - c_r)^2 /
    (2 n (n - 1))): unbiased for iid sums, conservative for stratified
    ones, and 0 at n = 1.

    A point's first move also draws, with probability ``TABLE_SHARE``,
    from a table built for the point (``FirstMoveTable``).

    The mass beyond the upper edge of the last cell comes from
    ``estimate_tail_probability``, with one path per
    ``_GRID_PATHS_PER_TAIL_PATH`` paths of the grid, on one more
    substream.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    n = int(n_per_point)
    if n < 1:
        raise ValueError("need at least one path per grid point")
    kernel, proposal = _path_sampler(model, p_d)
    streams = rng.spawn(len(grid) + 1)
    proxy = _sum_proxy(model)
    # a block's tables hold TABLE_CELLS entries per point
    per_block = max(1, _BLOCK_PARTICLES // max(n, TABLE_CELLS))
    # point j's paths have the ids j*n .. j*n + n - 1, so id mod n is the rank;
    # every path starts from the deterministic n = 0 term g(x0)
    blocks = ((np.repeat(x0, n), np.ones(x0.size * n), np.repeat(kernel.g(x0), n),
               _first_move_tables(kernel, proxy, x0))
              for x0 in (grid[lo:lo + per_block] for lo in range(0, len(grid), per_block)))
    est = np.empty(len(grid))
    se = np.zeros(len(grid))
    for lo, acc in _propagate(blocks, kernel, proposal, p_d, streams, n, n,
                              max(1, int(_LOW_WATER * per_block * n))):
        contrib = acc.reshape(-1, n)
        points = slice(lo // n, lo // n + len(contrib))
        est[points] = contrib.mean(axis=1)
        if n > 1:
            # successive differences in rank order: stratum neighbours
            se[points] = np.sqrt(np.sum(np.diff(contrib, axis=1) ** 2, axis=1)
                                 / (2.0 * n * (n - 1)))
    top = float(_cell_edges(grid)[-1])
    n_tail = -(-len(grid) * n // _GRID_PATHS_PER_TAIL_PATH)
    tail_mass, tail_stderr, tail_excess, tail_excess_stderr = estimate_tail_probability(
        model, top, n_tail, p_d, streams[-1])
    return WeightedParticleMeasure(locations=grid, weights=est, stderr=se, tail_mass=tail_mass,
                                   tail_stderr=tail_stderr, tail_excess=tail_excess,
                                   tail_excess_stderr=tail_excess_stderr,
                                   zero_mass=float(model.frequency.pmf(0)))

