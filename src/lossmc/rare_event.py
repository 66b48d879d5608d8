"""Multilevel splitting for rare tail events.

Conditioning a base law on a rare set {Z > t} is handled by a
Feynman-Kac pipeline over a fixed ladder of increasing thresholds:
indicator potentials, particle selection by the Boltzmann-Gibbs
transform, and mutation by a kernel that leaves the base law restricted
to the current level set invariant.  On a compound model each particle
carries its claims and the kernel is an exact random-scan Gibbs step on
one claim (:class:`ClaimPopulation`; Botev & Kroese's generalized
splitting); otherwise the particles are their scores alone and a
proposal is kept only inside the level set.  The running product of the
first p success fractions is an unbiased estimate of P(Z > t_p) at every
level p, so :func:`replicate_smc` reads every threshold of a ladder off
one replicated run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compound import CompoundModel, claim_sums, sample_claims, simulate_compound
from .distributions import _guide_table, _guided_search
from .errors import ExtinctionError
from .rng import UniformStream


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


@dataclass
class ParticlePopulation:
    """Particles that are their scores alone: ``states[i]`` is the value
    the levels test."""

    states: np.ndarray
    generation: int = 0
    acceptance: list = field(default_factory=list)

    def take(self, idx: np.ndarray) -> "ParticlePopulation":
        """The particles at ``idx``, copied."""
        return ParticlePopulation(states=self.states[idx], generation=self.generation)


@dataclass
class ClaimPopulation:
    """Particles of a compound model, each carrying its own claims.

    Particle i has ``counts[i]`` claims, stored in
    ``severities[starts[i]:starts[i] + counts[i]]``, and its loss, the
    value the levels test, in ``states[i]``.  The layout is ragged, so
    memory follows the total number of claims, not N times the largest
    count.
    """

    counts: np.ndarray
    severities: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.starts = np.cumsum(self.counts) - self.counts

    @classmethod
    def sample(cls, model: CompoundModel, n: int, rng: UniformStream) -> "ClaimPopulation":
        """n independent particles, drawn as :func:`simulate_compound` draws
        n years: the same uniforms give the same losses."""
        counts, severities = sample_claims(model, n, rng)
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
        drawn = q > 0.0
        redrawn = severity.isf(np.where(drawn, q, 1.0))
        states = rest + redrawn
        moved = drawn & (states > threshold) & (self.counts > 0)
        self.severities[at[moved]] = redrawn[moved]
        np.copyto(self.states, states, where=moved)
        return int(np.count_nonzero(moved))


@dataclass
class SmcEstimate:
    """Output of the multilevel splitting run.

    ``estimate`` is the product of per-level success fractions;
    ``replicate_rse`` is filled by :func:`replicate_smc` when the run
    is repeated.  ``trace`` holds one diagnostic dict per level reached:
    its level, threshold, success fraction, ess and the acceptance rate
    of its moves (None at the last level, which does not move).
    ``population`` is the final population, selected into the last level
    set: a sample of the base law given the rare event (None after
    extinction).
    """

    estimate: float
    level_fractions: list
    thresholds: np.ndarray | None = None
    extinct_level: int | None = None
    replicate_rse: float | None = None
    trace: list | None = None
    population: ClaimPopulation | ParticlePopulation | None = None

    def __post_init__(self):
        if not (0.0 <= self.estimate <= 1.0):
            raise ValueError("probability estimate must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def selection_transition(population: ParticlePopulation, G_p,
                         rng: UniformStream) -> ParticlePopulation:
    """Keep each particle with probability G_p, else redraw from the
    Boltzmann-Gibbs reweighting of the current population.

    This is the acceptance-rejection-with-recycling scheme: it realizes
    the optimal coupling, changing a particle's state with probability
    exactly 1 - eta(G_p) on average.  The replaced particles are redrawn
    by independent multinomial draws.

    A redraw key u in (0, 1] picks the first particle whose normalized
    cumulative potential reaches u.  That particle always has positive
    potential, so the search runs, through a guide table built per call,
    over the positive-potential particles only.  A key above the last
    cumulative value (which can round below 1 for fractional potentials)
    picks the last positive-potential particle.
    """
    states = population.states
    n = len(states)
    g = np.asarray(G_p(states) if callable(G_p) else G_p, dtype=float)
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError("selection potential must take values in [0, 1] (NaN is not)")
    total = g.sum()
    if total <= 0.0:
        raise ExtinctionError(
            f"population extinct at level {population.generation}",
            level=population.generation,
        )
    u = rng.uniforms(n)
    keep = u <= g
    n_redraw = int((~keep).sum())
    keys = rng.uniforms(n_redraw)
    live = np.flatnonzero(g > 0.0)
    cum = np.cumsum(g[live]) / total
    redraw_idx = live[_guided_search(cum, _guide_table(cum), keys)]
    new_states = states.copy()
    new_states[~keep] = states[redraw_idx]
    pop = ParticlePopulation(
        states=new_states,
        generation=population.generation,
        acceptance=list(population.acceptance) + [float(np.mean(keep))],
    )
    return pop


# ---------------------------------------------------------------------------
# The multilevel splitting pipeline
# ---------------------------------------------------------------------------

def _base_sampler(model):
    if isinstance(model, CompoundModel):
        return lambda size, rng: simulate_compound(model, size, rng).values
    if callable(model):
        return model
    raise TypeError("model must be a CompoundModel or a batch sampler")


def _confined(states: np.ndarray, threshold: float, phase: str) -> None:
    if not np.all(states > threshold):
        raise RuntimeError(f"{phase} left particles outside the level set")


def smc_rare_event(model, levels: LevelSequence, mutation_steps: int,
                   N: int, rng: UniformStream, mutation=None) -> SmcEstimate:
    """Estimate P(Z > t) at the last threshold t of ``levels`` by the
    multiplicative level-fraction formula.

    Each level p selects on the indicator of {Z > t_p}, copying whole
    particles by their ancestor indices; the running product of success
    fractions is the unbiased normalizing-constant estimate.  Every level
    but the last then runs ``mutation_steps`` moves, each invariant for
    the base law restricted to the level set, which is all the product
    estimator needs.

    On a :class:`CompoundModel` every particle carries its claims, and a
    move is one sweep of an exact random-scan Gibbs sampler: each
    particle redraws one uniformly chosen claim X_j from its law given
    the others and Z > t, by inversion
    (:meth:`ClaimPopulation.gibbs_step`; Botev & Kroese's generalized
    splitting).  ``mutation_steps`` (the report's ``mh_steps``) counts
    these Gibbs sweeps, each moving one claim of every particle, and a
    level's ``acceptance_rate`` is near 1.  Counts never change.

    For a callable batch sampler, or when ``mutation`` is given, the
    particles are their scores alone: ``mutation`` performs one
    base-invariant transition ``(states, level_index, rng) -> states``
    and proposals outside the level set are rejected; by default it
    redraws independently from the base law.  Extinction at any level
    returns a zero estimate carrying the level index rather than
    retrying, so unbiasedness is preserved.  A population found outside
    the level set after a selection or a move raises ``RuntimeError``.
    """
    if N < 2:
        raise ValueError("need at least two particles")
    if mutation_steps < 0:
        raise ValueError("need a nonnegative number of mutation steps")
    N, mutation_steps = int(N), int(mutation_steps)
    if isinstance(model, CompoundModel) and mutation is None:
        pop = ClaimPopulation.sample(model, N, rng)

        def move(pop, p, threshold):
            return pop.gibbs_step(model.severity, threshold, rng)
    else:
        sampler = _base_sampler(model)
        if mutation is None:
            def mutation(states, level, stream):
                return sampler(len(states), stream)
        pop = ParticlePopulation(states=np.asarray(sampler(N, rng), dtype=float))

        def move(pop, p, threshold):
            proposal = np.asarray(mutation(pop.states, p, rng), dtype=float)
            inside = proposal > threshold
            pop.states = np.where(inside, proposal, pop.states)
            return int(inside.sum())

    thresholds = levels.thresholds
    index = np.arange(N)
    fractions = []
    trace = []
    for p, threshold in enumerate(thresholds):
        g = (pop.states > threshold).astype(float)
        frac = float(np.mean(g))
        fractions.append(frac)
        row = {
            "level": p,
            "threshold": float(threshold),
            "success_fraction": frac,
            "ess": N * frac,  # indicator weights: (sum w)^2 / sum w^2 = N * frac
            "acceptance_rate": None,
        }
        trace.append(row)
        if frac == 0.0:
            return SmcEstimate(estimate=0.0, level_fractions=fractions,
                               thresholds=thresholds, extinct_level=p, trace=trace)
        ancestors = selection_transition(
            ParticlePopulation(states=index, generation=p), g, rng).states
        pop = pop.take(ancestors)
        _confined(pop.states, threshold, "selection")
        if p + 1 == len(thresholds):
            break
        accepted = 0
        for _ in range(mutation_steps):
            accepted += move(pop, p, threshold)
            _confined(pop.states, threshold, "mutation")
        row["acceptance_rate"] = accepted / (N * mutation_steps) if mutation_steps else None
    return SmcEstimate(estimate=float(np.prod(fractions)), level_fractions=fractions,
                       thresholds=thresholds, trace=trace, population=pop)


def replicate_smc(model, levels: LevelSequence, mutation_steps: int, N: int,
                  rng, n_replicates: int, mutation=None) -> list:
    """Repeat the splitting run; return one estimate per level.

    Element p is the replicate mean of the running product of the first
    p + 1 success fractions (zero past an extinction), an unbiased
    estimate of P(Z > t_{p+1}), with its relative SE.  One ladder run thus
    answers every level, and the estimates are nonincreasing in p.
    """
    if n_replicates < 2:
        raise ValueError("need at least two replicates for a standard error")
    streams = rng.spawn(n_replicates) if hasattr(rng, "spawn") else [rng] * n_replicates
    # one contiguous row per level, so each mean reduces like a 1-d array
    products = np.zeros((len(levels), n_replicates))
    for i in range(n_replicates):
        fractions = smc_rare_event(model, levels, mutation_steps, N, streams[i],
                                   mutation=mutation).level_fractions
        products[:len(fractions), i] = np.cumprod(fractions)
    estimates = []
    for p, values in enumerate(products):
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(n_replicates))
        estimates.append(SmcEstimate(
            estimate=mean, level_fractions=[], thresholds=levels.thresholds[:p + 1],
            replicate_rse=(se / mean if mean > 0 else math.inf)))
    return estimates
