"""Multilevel splitting for rare tail events of a compound loss.

Conditioning the compound law on a rare set {Z > t} is handled by a
Feynman-Kac pipeline over a fixed ladder of increasing thresholds:
potentials whose mean is the level's conditional probability, particle
selection by the Boltzmann-Gibbs transform, and mutation by a kernel
that leaves the law restricted to the current level set invariant.  Each
particle carries its claims and the kernel is an exact random-scan Gibbs
step on one claim (:class:`ClaimPopulation`; Botev & Kroese's
generalized splitting).  Every level p >= 1 weighs its particles by a
look-ahead potential: the chance that a Gibbs move of the particle's
largest claim, confined to the previous level set, clears the level
(the fully adapted construction; Pitt & Shephard 1999, Del Moral 2004).
It replaces the crude fraction of survivors by a conditional Monte Carlo
mean (Asmussen & Kroese 2006), and the move it looks ahead to is the
level's first mutation; the last level is read by it too, with no move
after it.  The first level uses either that potential or the
random-claim one, the Asmussen-Kroese estimator as the fully adapted
potential of the Gibbs move of one uniformly picked claim, whichever a
pilot population finds sharper (:func:`pilot_first_potential`).  The
first population stratifies its claim counts and selection draws its
ancestors by stratified keys: neither changes a particle's expected
share, so the running product of the first p success fractions is an
unbiased estimate of P(Z > t_p) at every level p, and
:func:`replicate_smc` reads every threshold of a ladder off one
replicated run.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compound import CompoundModel, claim_sums
# no caller here: benchmarks/tracing.py patches rare_event.simulate_compound by name
from .compound import simulate_compound  # noqa: F401
from .distributions import _guide_table, _guided_search
from .errors import ExtinctionError
from .rng import PcgStream, UniformStream


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class LevelSequence:
    """Nested events A_p = {x : x > z_p} from strictly increasing, finite
    thresholds z_p."""

    thresholds: np.ndarray

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        if self.thresholds.ndim != 1 or len(self.thresholds) == 0:
            raise ValueError("thresholds must be a nonempty vector")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError(f"thresholds must be finite, got {self.thresholds.tolist()}")
        if np.any(np.diff(self.thresholds) <= 0.0):
            raise ValueError("thresholds must be strictly increasing")

    def __len__(self) -> int:
        return len(self.thresholds)


def _stratify(u: np.ndarray) -> np.ndarray:
    """(i + u_i) / n for a block of n uniforms on (0, 1], in place: key i
    lies in (i/n, (i + 1)/n]."""
    u += np.arange(len(u))
    u /= len(u)
    return u


class _Stratified(UniformStream):
    """A stream whose every block of n uniforms is stratified over (0, 1]."""

    def __init__(self, rng: UniformStream):
        self._rng = rng

    def uniforms(self, n: int) -> np.ndarray:
        return _stratify(self._rng.uniforms(n))


def _below(x: np.ndarray) -> np.ndarray:
    """np.nextafter(x, 0) for nonnegative x, by one step of the bit
    pattern (several times faster): the largest double below a positive
    x, and 0 at 0."""
    bits = np.ascontiguousarray(x).view(np.int64)
    return (bits - (bits > 0)).view(np.float64)


@dataclass
class ClaimPopulation:
    """Particles of a compound model, each carrying its own claims.

    Particle i has ``counts[i]`` claims, stored in
    ``severities[starts[i]:starts[i] + counts[i]]``, and its loss, the
    value the levels test, in ``states[i]``.  The layout is ragged, so
    memory follows the total number of claims, not N times the largest
    count.  ``_row``, each claim's particle, is built on first use and
    kept, since counts never change; both potentials read the claims
    around their pick through it (:meth:`_around`).
    """

    counts: np.ndarray
    severities: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.starts = np.cumsum(self.counts) - self.counts
        self.has_claims = self.counts > 0

    @functools.cached_property
    def _row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def _around(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest claim before its claim at ``at`` (A) and after
        it (B), 0 where there is none, by one maximum over 2N + 1 bins: 2i
        for row i's claims before, 2i + 1 after, 2N for the claims at
        ``at`` (read in rows with claims only)."""
        row = self._row
        after = np.arange(row.size) > at[row]
        bins = 2 * row
        bins += after
        bins[at[self.has_claims]] = 2 * len(self.counts)
        split = np.zeros(2 * len(self.counts) + 1)
        np.maximum.at(split, bins, self.severities)
        return split[:-1:2], split[1::2]

    @classmethod
    def sample(cls, model: CompoundModel, n: int, rng: UniformStream) -> "ClaimPopulation":
        """n particles of the compound law, their counts stratified.

        Reads n + sum(counts) uniforms, in the order :func:`sample_claims`
        reads them: one block of n for the counts, then every severity.
        Particle i inverts its count from (i + u_i) / n instead of u_i, so
        the population holds each count about n p_k times.  Averaged over
        i, that uniform is uniform on (0, 1]: the particles are not
        independent, but their empirical measure has the compound law as
        its mean, which is all the product estimator needs.
        """
        counts = model.frequency.sample(_Stratified(rng), size=n)
        total = int(counts.sum())
        severities = model.severity.sample(rng, size=total) if total else np.zeros(0)
        return cls(counts, severities, claim_sums(counts, severities))

    def take(self, idx: np.ndarray) -> "ClaimPopulation":
        """The particles at ``idx``, whole rows of claims copied."""
        counts = self.counts[idx]
        starts = np.cumsum(counts) - counts
        src = np.repeat(self.starts[idx] - starts, counts) + np.arange(int(counts.sum()))
        return ClaimPopulation(counts, self.severities[src], self.states[idx])

    def gibbs_step(self, severity, threshold: float, rng: UniformStream) -> int:
        """Move one claim of every particle; return how many particles moved.

        Reads 2N uniforms, u then v.  Particle i picks claim j uniformly
        among its ``counts[i]`` by u_i and redraws it by inversion from
        X | X > c, the claim's exact law given the other claims and
        Z > t: with c = t - (Z - X_j), X_j' = isf(v_i sf(max(c, 0))).  The
        move therefore needs no proposal loop and leaves the base law
        restricted to {Z > t} invariant.

        A particle keeps its claim when it has none, when v sf(c)
        underflows to 0, or when rounding puts its new loss at or below
        t.  Counts never change.
        """
        n = len(self.states)
        u = rng.uniforms(2 * n)
        if not self.severities.size:
            return 0
        # a particle without claims reads a neighbour's claim here (at =
        # starts - 1) and is left out of ``moved`` below
        at = np.ceil(u[:n] * self.counts).astype(np.intp)
        at += self.starts - 1
        rest = self.states - self.severities[at]
        q = u[n:]  # v sf(max(c, 0)), and sf(max(c, 0)) = 1 where c <= 0
        above = np.flatnonzero(rest < threshold)
        q[above] *= severity.sf(threshold - rest[above])
        return self._redraw(severity, threshold, at, rest, q)

    def largest_claim_potential(self, severity, threshold: float,
                                previous: float = -math.inf):
        """The chance that a Gibbs move of each particle's largest claim
        clears ``threshold``, the move being confined to {Z > previous},
        with what the move needs.

        Given its other claims and Z > t', particle i's largest claim has
        the law X | X > max(t' - R, M), where R = Z - X_max and M is the
        largest other claim (0 for a single claim).  The claim that moves
        is the row's last tied maximum, and M = max(A, B) around it, read
        by :meth:`_around` over the row index.  With t = ``threshold``,
        t' = ``previous`` (-inf at the first level) and M- the largest
        double below M, so that a claim tied with M stays admissible (M-
        is 0 where M is 0: a positive severity has sf(x) = 1 for x <= 0),

            G_i = sf(max(t - R, M-)) / sf(max(t' - R, M-)).

        The move leaves the base law restricted to {Z > t'} invariant, so
        the mean of G over that law is P(Z > t | Z > t').  G_i is the
        indicator 1{Z > t} for a particle without claims or where the
        denominator underflows to 0; a point mass gives the indicator
        too, since its ties make the denominator 1.

        Returns ``(g, tail, rest, offset)``, each of length N: the
        potentials, the numerator sf(max(t - R, M-)) (0 where G is the
        indicator), R, and the largest claim's position in its row.
        Reads no uniform.
        """
        n = len(self.states)
        row = self._row
        top = np.zeros(n)
        np.maximum.at(top, row, self.severities)
        # the last of a row's largest claims moves; a tie stays among the others
        at = np.zeros(n, dtype=np.intp)
        tops = np.flatnonzero(self.severities == top[row])
        at[row[tops]] = tops
        # M- where there is a runner-up; elsewhere 0, where sf is 1 as at M-
        floor = _below(np.maximum(*self._around(at)))
        rest = self.states - top
        low = np.maximum(previous - rest, floor)
        # sf is 1 at or below 0
        inside = np.flatnonzero(low > 0.0)
        den = np.ones(n)
        den[inside] = severity.sf(low[inside])
        tail = np.minimum(severity.sf(np.maximum(threshold - rest, floor)), den)
        adapted = self.has_claims & (den > 0.0)
        tail *= adapted
        g = (self.states > threshold).astype(float)
        np.divide(tail, den, out=g, where=adapted)
        return g, tail, rest, at - self.starts

    def random_claim_potential(self, severity, threshold: float, rng: UniformStream):
        """N_i times the chance that a redraw of a uniformly picked claim of
        each particle makes it the row's first maximum and lifts Z over
        ``threshold``, with what the redraw needs.

        Reads N uniforms u.  Particle i picks claim j = ceil(u_i N_i) of
        its N_i claims, as :meth:`gibbs_step` picks.  With R = Z - X_j, A
        the largest claim before j in its row, B the largest after it (0
        where there is none; both read by :meth:`_around` over the row
        index) and B- the largest double below B,

            G_i = N_i sf(max(A, B-, t - R)):

        a redrawn X_j is the row's first maximum exactly when it exceeds
        A and is at least B.  j is uniform and independent of the
        redrawn row, and exactly one claim of a row is its first maximum,
        so the mean of G over the base law is P(Z > t), point masses and
        their ties included; it is the Asmussen-Kroese conditional
        estimator written as the fully adapted potential of the Gibbs
        move.  G can exceed 1.  A particle without claims gets
        1{Z > t}.

        Returns ``(g, tail, rest, offset)`` as
        :meth:`largest_claim_potential` does: the numerator
        sf(max(A, B-, t - R)) (0 for a particle without claims), R and the
        picked claim's position in its row.
        """
        n = len(self.states)
        u = rng.uniforms(n)
        sev = self.severities
        indicator = (self.states > threshold).astype(float)
        if not sev.size:
            return indicator, np.zeros(n), self.states.copy(), np.zeros(n, dtype=np.intp)
        offset = np.ceil(u * self.counts).astype(np.intp) - 1
        # a particle without claims reads a neighbour's claim here (at =
        # starts - 1); its tail is set to 0 below
        at = self.starts + offset
        rest = self.states - sev[at]
        before, after = self._around(at)
        floor = np.maximum(before, _below(after))
        tail = severity.sf(np.maximum(threshold - rest, floor))
        tail *= self.has_claims
        g = np.where(self.has_claims, self.counts * tail, indicator)
        return g, tail, rest, offset

    def redraw_picked_claims(self, severity, threshold: float, tail: np.ndarray,
                             rest: np.ndarray, offset: np.ndarray,
                             rng: UniformStream) -> int:
        """After selection on :meth:`largest_claim_potential` or
        :meth:`random_claim_potential`, whose outputs ``tail``, ``rest``
        and ``offset`` were taken along with the particles: redraw each
        particle's picked claim, at ``offset`` in its row, above the
        potential's floor, and return how many particles moved.

        Reads N uniforms u; the new claim is isf(u tail), a Gibbs move
        that leaves the base law invariant and, given the selection, puts
        the population in {Z > t}.  A particle keeps its claims where
        u tail is 0 (its potential was the indicator) or where rounding
        puts its new loss at or below t.
        """
        q = rng.uniforms(len(self.states))
        q *= tail
        return self._redraw(severity, threshold, self.starts + offset, rest, q)

    def _redraw(self, severity, threshold: float, at, rest, q) -> int:
        """Give each particle the claim isf(q) at ``at`` and the loss
        ``rest`` plus it; return how many particles moved.

        A particle keeps its claims where it has none, where q is 0 or
        where its new loss is at or below ``threshold``."""
        drawn = q > 0.0
        moved = self.has_claims
        if not drawn.all():
            q = np.where(drawn, q, 1.0)
            moved = moved & drawn
        claims = severity.isf(q)
        states = rest + claims
        moved = moved & (states > threshold)
        if moved.all():
            self.severities[at] = claims
        else:
            self.severities[at[moved]] = claims[moved]
        np.copyto(self.states, states, where=moved)
        return int(np.count_nonzero(moved))


@dataclass
class SmcEstimate:
    """Output of the multilevel splitting run.

    ``estimate`` is the product of per-level success fractions; a run
    that dies out stops at the level whose fraction is 0.  ``trace``
    holds one diagnostic dict per level reached: its level, threshold,
    success fraction (the mean potential), ess = (sum g)^2 / sum g^2 and
    the acceptance rate of its moves (None at the last level, which does
    not move).
    """

    estimate: float
    level_fractions: list
    trace: list | None = None

    def __post_init__(self):
        # finite and nonnegative, not capped at 1: the random-claim
        # potential is unbiased but can average above 1 where P(Z > t) ~ 1
        if not (0.0 <= self.estimate < math.inf):
            raise ValueError("probability estimate must be finite and nonnegative")


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def selection_transition(g, rng: UniformStream) -> np.ndarray:
    """Ancestor indices of one selection on the potentials ``g``: particle
    i keeps itself with probability g_i, else draws its ancestor from the
    Boltzmann-Gibbs reweighting of the population.

    This is the acceptance-rejection-with-recycling scheme: it realizes
    the optimal coupling, changing a particle with probability exactly
    1 - eta(g) on average.  Reads n keep uniforms, then one uniform u_j
    per replaced particle.  The k replaced particles draw their ancestors
    by stratified resampling: redraw j uses the key (j + u_j) / k, so
    particle i is drawn k g_i / sum(g) times on average, as by k
    independent draws, and within two of that (Douc, Cappe & Moulines
    2005).  The selected population's empirical measure therefore still
    has the Boltzmann-Gibbs transform of the population as its mean.

    A redraw key u in (0, 1] picks the first particle whose normalized
    cumulative potential reaches u.  That particle always has positive
    potential, so the search runs, through a guide table built per call,
    over the positive-potential particles only.  A key above the last
    cumulative value (which can round below 1 for fractional potentials)
    picks the last positive-potential particle.
    """
    g = np.asarray(g, dtype=float)
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError("selection potential must take values in [0, 1] (NaN is not)")
    total = g.sum()
    if total <= 0.0:
        raise ExtinctionError("population extinct: every selection potential is zero")
    n = len(g)
    keep = rng.uniforms(n) <= g
    keys = _stratify(rng.uniforms(int((~keep).sum())))
    live = np.flatnonzero(g > 0.0)
    cum = np.cumsum(g[live]) / total
    ancestors = np.arange(n)
    ancestors[~keep] = live[_guided_search(cum, _guide_table(cum), keys)]
    return ancestors


# ---------------------------------------------------------------------------
# The multilevel splitting pipeline
# ---------------------------------------------------------------------------

def _confined(states: np.ndarray, threshold: float, phase: str) -> None:
    if not np.all(states > threshold):
        raise RuntimeError(f"{phase} left particles outside the level set")


def _check_run(model, N: int, mutation_steps: int) -> None:
    if not isinstance(model, CompoundModel):
        raise TypeError(f"model must be a CompoundModel, got {type(model).__name__}")
    if N < 2:
        raise ValueError("need at least two particles")
    if mutation_steps < 0:
        raise ValueError("need a nonnegative number of mutation steps")


def smc_rare_event(model: CompoundModel, levels: LevelSequence, mutation_steps: int,
                   N: int, rng: UniformStream, first_potential: str = "largest") -> SmcEstimate:
    """Estimate P(Z > t) at the last threshold t of ``levels`` by the
    multiplicative level-fraction formula.

    Every particle carries its claims (:class:`ClaimPopulation`, drawn
    with stratified counts).  Level p's success fraction is the
    mean of its potentials, and the running product of the fractions is
    the unbiased normalizing-constant estimate.  Every level p >= 1 uses
    the look-ahead potential: the chance that a Gibbs move of each
    particle's largest claim, confined to {Z > t_{p-1}}, clears t_p
    (:meth:`ClaimPopulation.largest_claim_potential`, fully adapted
    selection), whose mean is P(Z > t_p | Z > t_{p-1}).  The first level
    uses it too when ``first_potential`` is ``"largest"``; with
    ``"random"`` it uses the random-claim potential
    (:meth:`ClaimPopulation.random_claim_potential`, the Asmussen-Kroese
    conditional estimator), whose mean is P(Z > t_0).  A last level
    p >= 1 is read by the look-ahead with no selection after it, and no
    population is returned.  Each level but the last copies whole
    particles by their ancestor indices (:func:`selection_transition`, on
    the potentials divided by max(1, max g), since the random-claim
    potential can exceed 1) and makes ``mutation_steps`` moves that leave
    the compound law restricted to the level set invariant.  The first
    move is the redraw of each selected particle's picked claim above the
    potential's floor (:meth:`ClaimPopulation.redraw_picked_claims`),
    which the selection needs to land in the level set, so a level makes
    it even with ``mutation_steps`` 0.  Every other move is a sweep of an
    exact random-scan Gibbs sampler: each particle redraws one uniformly
    chosen claim X_j from its law given the others and Z > t, by
    inversion (:meth:`ClaimPopulation.gibbs_step`; Botev & Kroese's
    generalized splitting).  A level's ``acceptance_rate`` counts the
    redraw with the sweeps; it is near 1, and counts never change.

    Extinction at any level returns a zero estimate carrying the level
    index rather than retrying, so unbiasedness is preserved.  A model
    other than a :class:`CompoundModel` raises ``TypeError``; a
    population found outside the level set after a selection or a sweep
    raises ``RuntimeError``.
    """
    _check_run(model, N, mutation_steps)
    if first_potential not in ("largest", "random"):
        raise ValueError(f"first_potential must be 'largest' or 'random', "
                         f"got {first_potential!r}")
    N, mutation_steps = int(N), int(mutation_steps)
    severity = model.severity
    pop = ClaimPopulation.sample(model, N, rng)
    thresholds = levels.thresholds
    fractions = []
    trace = []
    previous = -math.inf
    for p, threshold in enumerate(thresholds):
        last = p + 1 == len(thresholds)
        if p == 0 and first_potential == "random":
            g, tail, rest, offset = pop.random_claim_potential(severity, threshold, rng)
        else:
            g, tail, rest, offset = pop.largest_claim_potential(severity, threshold, previous)
        total = float(g.sum())
        frac = total / N
        fractions.append(frac)
        row = {
            "level": p,
            "threshold": float(threshold),
            "success_fraction": frac,
            "ess": total * total / float(g @ g) if total else 0.0,
            "acceptance_rate": None,
        }
        trace.append(row)
        if frac == 0.0:
            return SmcEstimate(estimate=0.0, level_fractions=fractions, trace=trace)
        if last:
            break
        top = float(g.max())
        ancestors = selection_transition(g / top if top > 1.0 else g, rng)
        pop = pop.take(ancestors)
        accepted = pop.redraw_picked_claims(severity, threshold, tail[ancestors],
                                            rest[ancestors], offset[ancestors], rng)
        _confined(pop.states, threshold, "selection")
        sweeps = max(mutation_steps - 1, 0)
        for _ in range(sweeps):
            accepted += pop.gibbs_step(severity, threshold, rng)
            _confined(pop.states, threshold, "mutation")
        row["acceptance_rate"] = accepted / (N * (sweeps + 1))
        previous = threshold
    return SmcEstimate(estimate=float(np.prod(fractions)), level_fractions=fractions,
                       trace=trace)


def _relative_variance(g: np.ndarray) -> float:
    """var(g) / mean(g)^2 over the population; inf at a zero mean."""
    mean = float(g.mean())
    return float(g.var()) / (mean * mean) if mean > 0.0 else math.inf


def pilot_first_potential(model: CompoundModel, threshold: float, N: int,
                          rng: UniformStream) -> dict:
    """Pick the sharper first-level potential on N base-law particles.

    Draws a population from ``rng`` and evaluates both first-level
    potentials at ``threshold`` on it.  Returns ``{"potential": name,
    "relvar_largest": .., "relvar_random": ..}``: the relative variances
    var(g) / mean(g)^2, inf at a zero mean, and ``"random"`` only where
    its relative variance is strictly the lower, else ``"largest"``.
    """
    pop = ClaimPopulation.sample(model, N, rng)
    largest = _relative_variance(pop.largest_claim_potential(model.severity, threshold)[0])
    random = _relative_variance(pop.random_claim_potential(model.severity, threshold, rng)[0])
    return {"potential": "random" if random < largest else "largest",
            "relvar_largest": largest, "relvar_random": random}


def replicate_smc(model: CompoundModel, levels: LevelSequence, mutation_steps: int, N: int,
                  rng: PcgStream, n_replicates: int) -> tuple[list, dict]:
    """Repeat the splitting run, replicate i on the i-th child stream of
    ``rng``; return one (estimate, relative SE) pair per level, and the
    pilot that chose the first-level potential.

    The first-level potential is chosen once, before any replicate, by
    :func:`pilot_first_potential` on N particles of child stream
    ``n_replicates`` (an extra child: the replicates' streams are those
    of ``rng.spawn(n_replicates)``).  The choice does not depend on the
    replicates, so each replicate stays unbiased.

    Element p's estimate is the replicate mean of the running product of
    the first p + 1 success fractions (zero past an extinction), an
    unbiased estimate of P(Z > t_p), and its relative SE is inf at 0.  One
    ladder run thus answers every level; the estimates fall with p.
    """
    _check_run(model, N, mutation_steps)
    if n_replicates < 2:
        raise ValueError("need at least two replicates for a standard error")
    streams = rng.spawn(n_replicates + 1)
    pilot = pilot_first_potential(model, levels.thresholds[0], int(N), streams[-1])
    # one contiguous row per level, so each mean reduces like a 1-d array
    products = np.zeros((len(levels), n_replicates))
    for i in range(n_replicates):
        fractions = smc_rare_event(model, levels, mutation_steps, N, streams[i],
                                   first_potential=pilot["potential"]).level_fractions
        products[:len(fractions), i] = np.cumprod(fractions)
    estimates = []
    for values in products:
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(n_replicates))
        estimates.append((mean, se / mean if mean > 0 else math.inf))
    return estimates, pilot
