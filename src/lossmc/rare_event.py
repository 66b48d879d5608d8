"""Interacting-particle machinery for rare tail events.

Conditioning a base law on a rare set A is handled by a Feynman-Kac
pipeline: indicator potentials over a nested family of sets, particle
selection by the Boltzmann-Gibbs transform, and mutation by a
Metropolis-Hastings kernel restricted to the current set.  One loop
(:func:`_split`) runs the levels for both the fixed ladder and the
adaptively placed one; they differ only in how the next level is
chosen.  The running product of the first p success fractions is an
unbiased estimate of P(A_p) at every level p, so
:func:`replicate_smc` reads every threshold of a ladder off one
replicated run.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .compound import CompoundModel, simulate_compound
from .errors import (
    DominationViolationError,
    ExtinctionError,
    InvalidTargetError,
    StuckKernelWarning,
)
from .rng import UniformStream


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class LevelSequence:
    """Nested events A_p = {x : x > z_p} from increasing thresholds.

    General predicate handles may be supplied instead; they must be
    nested by construction, which the engine re-checks empirically at
    every selection step.
    """

    thresholds: np.ndarray | None = None
    predicates: list | None = None

    def __post_init__(self):
        if (self.thresholds is None) == (self.predicates is None):
            raise ValueError("supply exactly one of thresholds or predicates")
        if self.thresholds is not None:
            self.thresholds = np.asarray(self.thresholds, dtype=float)
            if self.thresholds.ndim != 1 or len(self.thresholds) == 0:
                raise ValueError("thresholds must be a nonempty vector")
            if np.any(np.diff(self.thresholds) <= 0.0):
                raise ValueError("thresholds must be strictly increasing")

    def __len__(self) -> int:
        seq = self.thresholds if self.thresholds is not None else self.predicates
        return len(seq)

    def indicator(self, p: int, states: np.ndarray) -> np.ndarray:
        """Indicator of A_{p+1} evaluated on the states."""
        if self.thresholds is not None:
            return (states > self.thresholds[p]).astype(float)
        return np.asarray(self.predicates[p](states), dtype=float)


@dataclass
class ParticlePopulation:
    states: np.ndarray
    generation: int = 0
    fractions: list = field(default_factory=list)
    acceptance: list = field(default_factory=list)


@dataclass
class SmcEstimate:
    """Output of the multilevel splitting run.

    ``estimate`` is the product of per-level success fractions;
    ``replicate_rse`` is filled by :func:`replicate_smc` when the run
    is repeated.  ``trace`` holds one diagnostic dict per level (see
    :func:`trace_to_csv`), and ``adaptive`` marks runs whose thresholds
    were chosen on the fly rather than supplied.
    """

    estimate: float
    level_fractions: list
    thresholds: np.ndarray | None = None
    extinct_level: int | None = None
    replicate_rse: float | None = None
    trace: list | None = None
    adaptive: bool = False

    def __post_init__(self):
        if not (0.0 <= self.estimate <= 1.0):
            raise ValueError("probability estimate must lie in [0, 1]")


@dataclass
class MixingDiagnostic:
    """Exact total-variation decay of a finite restricted chain."""

    eps_a: float
    tv: np.ndarray           # max over starting states, per iteration
    bound: np.ndarray        # (1 - eps_a)^m
    tv_by_start: np.ndarray  # shape (m_max, n_states)


@dataclass
class DiscreteMeasure:
    """A finitely supported probability measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must align")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if total <= 0.0:
            raise ValueError("measure must carry positive mass")
        self.weights = self.weights / total


# ---------------------------------------------------------------------------
# Restricted Metropolis-Hastings
# ---------------------------------------------------------------------------

class RestrictedMhSampler:
    """M(x, .) = K(x, .) 1_A + (1 - K(x, A)) delta_x, as a step handle.

    ``propose`` performs one unrestricted base-invariant transition;
    proposals outside A are rejected in place.  If a chain rejects for
    ``patience`` consecutive steps a stuck-kernel warning is emitted
    (once) so callers can spot a dead proposal.
    """

    def __init__(self, propose, predicate, patience: int = 1000):
        self.propose = propose
        self.predicate = predicate
        self.patience = int(patience)
        self._rejects = 0
        self._warned = False

    def step(self, x, rng: UniformStream):
        y = self.propose(x, rng)
        if self.predicate(y):
            self._rejects = 0
            return y
        self._rejects += 1
        if self._rejects >= self.patience and not self._warned:
            warnings.warn(
                f"restricted chain rejected {self._rejects} proposals in a row",
                StuckKernelWarning,
            )
            self._warned = True
        return x


def restricted_mh_kernel(K, A):
    """Restrict a proposal transition to the set A.

    With a finite transition matrix K and a boolean membership vector
    A, returns the exact restricted matrix.  With a callable proposal,
    returns a :class:`RestrictedMhSampler` handle.
    """
    if isinstance(K, np.ndarray):
        K = np.asarray(K, dtype=float)
        inside = np.asarray(A, dtype=bool)
        M = K * inside[None, :]
        reject = 1.0 - M.sum(axis=1)
        return M + np.diag(reject)
    return RestrictedMhSampler(K, A)


def tv_convergence_check(M: np.ndarray, eta: np.ndarray, m_max: int) -> MixingDiagnostic:
    """Exact TV distance to the target along matrix powers.

    Also computes the largest valid minorization constant
    eps_A = sum_y min_x M(x, y) and the geometric bound (1 - eps_A)^m
    it implies.  Raises if eta is not invariant for M.
    """
    M = np.asarray(M, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.max(np.abs(eta @ M - eta)) > 1e-12:
        raise InvalidTargetError("eta is not invariant for M")
    eps_a = float(M.min(axis=0).sum())
    powers = np.eye(len(M))
    tv_by_start = np.empty((int(m_max), len(M)))
    for m in range(int(m_max)):
        powers = powers @ M
        tv_by_start[m] = 0.5 * np.abs(powers - eta[None, :]).sum(axis=1)
    tv = tv_by_start.max(axis=1)
    bound = (1.0 - eps_a) ** np.arange(1, int(m_max) + 1)
    return MixingDiagnostic(eps_a=eps_a, tv=tv, bound=bound, tv_by_start=tv_by_start)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def boltzmann_gibbs(measure: DiscreteMeasure, G) -> DiscreteMeasure:
    """Reweight a measure by a potential and renormalize."""
    g = np.asarray(G(measure.points) if callable(G) else G, dtype=float)
    w = measure.weights * g
    total = w.sum()
    if total <= 0.0:
        raise ExtinctionError("potential annihilates the measure")
    return DiscreteMeasure(points=measure.points, weights=w / total)


def selection_transition(population: ParticlePopulation, G_p,
                         rng: UniformStream,
                         scheme: str = "multinomial") -> ParticlePopulation:
    """Keep each particle with probability G_p, else redraw from the
    Boltzmann-Gibbs reweighting of the current population.

    This is the acceptance-rejection-with-recycling scheme: it realizes
    the optimal coupling, changing a particle's state with probability
    exactly 1 - eta(G_p) on average.  ``scheme`` picks how the replaced
    particles are redrawn: independent multinomial draws by default, or
    a single stratified sweep ("systematic") for variance comparison.
    """
    if scheme not in ("multinomial", "systematic"):
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    states = population.states
    n = len(states)
    g = np.asarray(G_p(states) if callable(G_p) else G_p, dtype=float)
    if np.any((g < 0.0) | (g > 1.0)):
        raise ValueError("selection potential must take values in [0, 1]")
    total = g.sum()
    if total <= 0.0:
        raise ExtinctionError(
            f"population extinct at level {population.generation}",
            level=population.generation,
        )
    u = rng.uniforms(n)
    keep = u <= g
    cum = np.cumsum(g) / total
    n_redraw = int((~keep).sum())
    if scheme == "systematic" and n_redraw > 0:
        offsets = (np.arange(n_redraw) + rng.next_uniform()) / n_redraw
        redraw_idx = np.searchsorted(cum, offsets)
    else:
        redraw_idx = np.searchsorted(cum, rng.uniforms(n_redraw))
    redraw_idx = np.minimum(redraw_idx, n - 1)
    new_states = states.copy()
    new_states[~keep] = states[redraw_idx]
    pop = ParticlePopulation(
        states=new_states,
        generation=population.generation,
        fractions=list(population.fractions),
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


def _split(model, next_level, mutation_steps: int, N: int, rng: UniformStream,
           mutation, resampling: str, max_levels: int) -> SmcEstimate:
    """The one select/mutate loop behind both splitting entry points.

    ``next_level(p, states)`` returns the level's indicator potential
    G, its threshold (None for predicate levels) and whether it is the
    last level.  Each level selects on G and, unless it is the last,
    mutates with proposals accepted where G > 0.
    """
    if N < 2:
        raise ValueError("need at least two particles")
    sampler = _base_sampler(model)
    if mutation is None:
        def mutation(states, level, stream):
            return sampler(len(states), stream)

    pop = ParticlePopulation(states=np.asarray(sampler(int(N), rng), dtype=float))
    fractions = []
    trace = []
    for p in range(int(max_levels)):
        G, threshold, final = next_level(p, pop.states)
        g = G(pop.states)
        frac = float(np.mean(g))
        fractions.append(frac)
        row = {
            "level": p,
            "threshold": None if threshold is None else float(threshold),
            "success_fraction": frac,
            "ess": N * frac,  # indicator weights: (sum w)^2 / sum w^2 = N * frac
            "acceptance_rate": None,
        }
        trace.append(row)
        if frac == 0.0:
            return SmcEstimate(estimate=0.0, level_fractions=fractions,
                               extinct_level=p, trace=trace)
        pop.generation = p
        pop = selection_transition(pop, g, rng, scheme=resampling)
        assert np.all(G(pop.states) > 0.0), \
            "selection must confine the population to the level set"
        if final:
            return SmcEstimate(estimate=float(np.prod(fractions)),
                               level_fractions=fractions, trace=trace)
        accepted = proposed = 0
        for _ in range(int(mutation_steps)):
            proposal = np.asarray(mutation(pop.states, p, rng), dtype=float)
            inside = G(proposal) > 0.0
            pop.states = np.where(inside, proposal, pop.states)
            accepted += int(inside.sum())
            proposed += len(inside)
        row["acceptance_rate"] = accepted / proposed if proposed else None
    raise ExtinctionError(
        f"splitting did not reach its target in {max_levels} levels",
        level=int(max_levels),
    )


def smc_rare_event(model, levels: LevelSequence, mutation_steps: int,
                   N: int, rng: UniformStream, mutation=None,
                   resampling: str = "multinomial") -> SmcEstimate:
    """Estimate P(A_n) by the multiplicative level-fraction formula.

    Alternates indicator selection and restricted-MH mutation through
    the nested levels; the running product of success fractions is the
    unbiased normalizing-constant estimate.  ``mutation`` performs one
    base-invariant transition ``(states, level_index, rng) -> states``
    before restriction; by default it redraws independently from the
    base law, which makes the restricted step an exact conditional
    refresh (accepted proposals are precisely those inside the set).
    Extinction at any level returns a zero estimate carrying the level
    index rather than retrying, so unbiasedness is preserved.
    """
    n_levels = len(levels)
    thresholds = levels.thresholds

    def next_level(p, states):
        threshold = None if thresholds is None else thresholds[p]
        return (lambda s: levels.indicator(p, s)), threshold, p + 1 == n_levels

    est = _split(model, next_level, mutation_steps, N, rng, mutation,
                 resampling, n_levels)
    est.thresholds = thresholds
    return est


def smc_rare_event_adaptive(model, final_threshold: float, mutation_steps: int,
                            N: int, rng: UniformStream, rho: float = 0.5,
                            mutation=None, resampling: str = "multinomial",
                            max_levels: int = 64) -> SmcEstimate:
    """Splitting with thresholds chosen on the fly.

    Each intermediate threshold is the rho-quantile of the current
    population (capped at the final threshold), so roughly a fraction
    1 - rho of the particles survive every level regardless of how the
    tail decays.  Choosing levels from the same particles that are then
    selected makes the product estimator slightly biased, vanishing as
    N grows, so adaptive runs are marked and reported separately from
    the fixed-level ones.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    final_threshold = float(final_threshold)

    def next_level(p, states):
        t = min(float(np.quantile(states, rho)), final_threshold)
        if t < final_threshold and not np.any(states > t):
            # the rho-quantile equals the population maximum: no room
            # left to split, so finish against the real target instead
            t = final_threshold
        return (lambda s: (s > t).astype(float)), t, t >= final_threshold

    est = _split(model, next_level, mutation_steps, N, rng, mutation,
                 resampling, max_levels)
    est.thresholds = np.asarray([row["threshold"] for row in est.trace])
    est.adaptive = True
    return est


def trace_to_csv(estimate: SmcEstimate, path) -> None:
    """Write one splitting run's per-level diagnostics as CSV.

    Columns: level, threshold, success_fraction, ess, acceptance_rate.
    The final level performs no mutation, so its acceptance rate is
    written as n/a; predicate-based level sequences have no numeric
    threshold and get n/a there too.
    """
    import csv

    if estimate.trace is None:
        raise ValueError("estimate carries no per-level trace")

    def cell(v):
        return "n/a" if v is None else f"{v:.10g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level", "threshold", "success_fraction",
                         "ess", "acceptance_rate"])
        for row in estimate.trace:
            writer.writerow([row["level"], cell(row["threshold"]),
                             cell(row["success_fraction"]), cell(row["ess"]),
                             cell(row["acceptance_rate"])])


def replicate_smc(model, levels: LevelSequence, mutation_steps: int, N: int,
                  rng, n_replicates: int, mutation=None) -> list:
    """Repeat the splitting run; return one estimate per level.

    Element p is the replicate mean of the running product of the first
    p + 1 success fractions (zero past an extinction), an unbiased
    estimate of P(A_{p+1}), with its relative SE.  One ladder run thus
    answers every level, and the estimates are nonincreasing in p.
    """
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
        thresholds = None if levels.thresholds is None else levels.thresholds[:p + 1]
        estimates.append(SmcEstimate(
            estimate=mean, level_fractions=[], thresholds=thresholds,
            replicate_rse=(se / mean if mean > 0 else math.inf)))
    return estimates


# ---------------------------------------------------------------------------
# Twisted-measure importance sampling
# ---------------------------------------------------------------------------

@dataclass
class TwistedSampler:
    """A proposal law Y plus the density ratio dP_X/dP_Y."""

    sample: callable          # (size, rng) -> states
    density_ratio: callable   # states -> ratio values


def is_tail_estimator(base_model, twist: TwistedSampler, A, N: int,
                      rng: UniformStream):
    """Importance-sampling estimate of P(X in A) under the twist.

    estimate = (1/N) sum 1_A(Y_i) * ratio(Y_i); the variance reported
    is the plug-in (1/N) (mean of squared terms - estimate^2).  The
    twist must dominate the base law on A: a non-finite ratio on any
    sampled point inside A aborts the run.
    """
    y = np.asarray(twist.sample(int(N), rng), dtype=float)
    ind = np.asarray(A(y), dtype=float)
    ratio = np.asarray(twist.density_ratio(y), dtype=float)
    terms = ind * ratio
    if np.any(~np.isfinite(terms)):
        raise DominationViolationError(
            "importance ratio non-finite on a sampled point in A"
        )
    estimate = float(terms.mean())
    variance = float((np.mean(terms ** 2) - estimate ** 2) / N)
    return estimate, variance
