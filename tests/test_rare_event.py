import math

import numpy as np
import pytest

from lossmc import (
    ClaimPopulation,
    CompoundModel,
    DegenerateSeverity,
    ExtinctionError,
    LevelSequence,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParticlePopulation,
    PcgStream,
    PoissonFrequency,
    SequenceStream,
    SmcEstimate,
    norm_sf,
    oracle_compound_pmf,
    replicate_smc,
    selection_transition,
    smc_rare_event,
)

import lossmc.rare_event
from lossmc.distributions import _guide_table, _guided_search

from conftest import (
    gauss_sampler,
    oracle_tail,
    pareto_poisson_model,
    restricted_matrix,
    sigma05_model,
    sigma1_model,
    tv_decay,
    twisted_estimate,
)


def octo_sampler(size, rng):
    """Uniform draws on the eight integers 0..7."""
    return np.ceil(rng.uniforms(size) * 8.0) - 1.0


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_selection_keeps_certain_particles():
    rng = PcgStream(5)
    states = np.arange(10.0)
    pop = ParticlePopulation(states=states.copy())
    out = selection_transition(pop, np.ones(10), rng)
    assert np.array_equal(out.states, states)
    assert out.acceptance[-1] == 1.0


def test_selection_validates_inputs():
    pop = ParticlePopulation(states=np.arange(4.0))
    with pytest.raises(ValueError):
        selection_transition(pop, np.full(4, 1.5), PcgStream(1))
    # NaN passes a range test written as (g < 0) | (g > 1)
    with pytest.raises(ValueError, match="NaN"):
        selection_transition(pop, np.array([np.nan, 1.0, 1.0, 1.0]), PcgStream(1))
    with pytest.raises(ExtinctionError):
        selection_transition(pop, np.zeros(4), PcgStream(1))


def test_selection_change_rate_matches_coupling():
    """Acceptance-rejection selection changes ~ 1 - eta(G) of the states."""
    rng = PcgStream(2424)
    R, N = 200, 500
    replaced = []
    changed = []
    for _ in range(R):
        states = np.ceil(rng.uniforms(N) * 4.0) - 1.0
        pop = ParticlePopulation(states=states.copy())
        g = (states >= 2.0).astype(float)
        out = selection_transition(pop, g, rng)
        replaced.append(np.sum(out.states != states))
        changed.append(np.mean(out.states != states))
    replaced = np.array(replaced, dtype=float)
    changed = np.array(changed)
    se_r = replaced.std(ddof=1) / math.sqrt(R)
    assert abs(replaced.mean() - N * 0.5) <= 3.0 * se_r
    se_c = changed.std(ddof=1) / math.sqrt(R)
    assert abs(changed.mean() - 0.5) <= 3.0 * se_c


def test_selection_never_picks_a_zero_potential_ancestor():
    """Fractional potentials can sum, cumulatively, to just below 1; a redraw
    key of exactly 1.0 must still land on a particle with positive potential.
    A binary search over the whole population maps every such key to the
    last particle, here with g = 0."""
    draws = np.random.default_rng(1)
    while True:
        g = draws.random(12)
        g[-1] = 0.0
        if (np.cumsum(g) / g.sum())[-1] < 1.0:
            break
    pop = ParticlePopulation(states=np.arange(12.0))
    out = selection_transition(pop, g, SequenceStream([1.0] * 24))
    # every particle is replaced (u = 1 > g), every key is 1.0
    assert out.acceptance[-1] == 0.0
    assert np.all(out.states == 10.0)


_POTENTIALS = {
    "indicator": (np.arange(500) % 7 == 3).astype(float),
    "fractional": PcgStream(4141).uniforms(500) * (np.arange(500) % 3 != 0),
    "all-ones": np.ones(500),
    "single-live": np.eye(1, 500, 317).ravel(),
}


@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_guided_ancestor_search_matches_binary_search(name):
    """On the positive-potential cumulative array, the guide lookup returns
    the binary search's index for random keys, evenly spaced keys, every
    entry and its neighbours, u = 1, cum[-1] and the float just above it."""
    g = _POTENTIALS[name]
    cum = np.cumsum(g[g > 0.0]) / g.sum()
    rng = PcgStream(4242)
    keys = np.concatenate([
        rng.uniforms(20_000),
        (np.arange(997) + rng.next_uniform()) / 997,
        (np.arange(10) + 1.0) / 10,
        cum, np.nextafter(cum, 2.0), np.nextafter(cum, -1.0),
        [1.0, cum[-1], np.nextafter(cum[-1], 2.0)],
    ])
    keys = keys[(keys > 0.0) & (keys <= 1.0)]
    found = _guided_search(cum, _guide_table(cum), keys)
    assert np.array_equal(found, np.minimum(np.searchsorted(cum, keys), len(cum) - 1))


@pytest.mark.parametrize("name", sorted(_POTENTIALS))
def test_selection_matches_whole_population_binary_search(name):
    """Searching only the positive-potential particles gives the ancestors
    the binary search over the whole population's cumulative potential
    gave, wherever that search lands inside the population."""
    g = _POTENTIALS[name]
    n = len(g)
    states = np.arange(float(n))
    out = selection_transition(ParticlePopulation(states=states), g,
                               PcgStream(4343))
    rng = PcgStream(4343)
    keep = rng.uniforms(n) <= g
    keys = rng.uniforms(int((~keep).sum()))
    cum = np.cumsum(g) / g.sum()
    assert np.all(keys <= cum[-1])
    expected = states.copy()
    expected[~keep] = states[np.minimum(np.searchsorted(cum, keys), n - 1)]
    assert np.array_equal(out.states, expected)
    assert np.all(g[out.states.astype(int)] > 0.0)


# ---------------------------------------------------------------------------
# restricted Metropolis-Hastings and mixing on a finite chain (the toys of
# acceptance criterion 8, in conftest)
# ---------------------------------------------------------------------------

def test_restricted_matrix_parks_rejected_mass_on_diagonal():
    K = np.full((3, 3), 1.0 / 3.0)
    M = restricted_matrix(K, np.array([True, True, False]))
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 2 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(M, expected, atol=1e-15)
    assert np.allclose(M.sum(axis=1), 1.0)


def test_tv_decay_of_restricted_chain():
    K = np.full((3, 3), 1.0 / 3.0)
    M = restricted_matrix(K, np.array([True, True, False]))
    eta = np.array([0.5, 0.5, 0.0])
    eps, tv, bound = tv_decay(M, eta, 50)
    assert eps == pytest.approx(2.0 / 3.0, abs=1e-15)
    # the worst start is the outside state, which leaks inward at rate 1/3
    assert tv[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert np.all(tv <= bound + 1e-12)
    assert tv.shape == (50,)


def test_tv_check_requires_invariance():
    M = np.array([[0.5, 0.5], [0.5, 0.5]])
    eps, tv, _ = tv_decay(M, np.array([0.5, 0.5]), 3)
    assert np.all(tv == 0.0)
    assert eps == 1.0
    with pytest.raises(ValueError, match="not invariant"):
        tv_decay(M, np.array([0.4, 0.6]), 3)


# ---------------------------------------------------------------------------
# multilevel splitting
# ---------------------------------------------------------------------------

def test_level_sequence_validation():
    with pytest.raises(ValueError):
        LevelSequence(thresholds=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        LevelSequence(thresholds=np.array([]))
    # NaN slips past the increasing check, since NaN <= 0 is False
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LevelSequence(thresholds=np.array([100.0, bad]))


def test_smc_estimate_validation():
    with pytest.raises(ValueError):
        SmcEstimate(estimate=1.2, level_fractions=[])
    with pytest.raises(ValueError):
        SmcEstimate(estimate=-0.1, level_fractions=[])


def test_smc_needs_two_particles():
    lev = LevelSequence(thresholds=np.array([1.0]))
    with pytest.raises(ValueError):
        smc_rare_event(octo_sampler, lev, 1, 1, PcgStream(1))


def test_single_level_equals_crude_fraction():
    lev = LevelSequence(thresholds=np.array([3.5]))
    est = smc_rare_event(octo_sampler, lev, 3, 400, PcgStream(606))
    crude = float(np.mean(octo_sampler(400, PcgStream(606)) > 3.5))
    assert est.estimate == crude


def test_estimate_is_product_of_level_fractions():
    lev = LevelSequence(thresholds=np.array([3.5, 5.5]))
    est = smc_rare_event(octo_sampler, lev, 3, 500, PcgStream(11))
    assert est.estimate == float(np.prod(est.level_fractions))
    assert est.extinct_level is None
    # one trace row per level; the last level does not move
    assert [row["threshold"] for row in est.trace] == [3.5, 5.5]
    assert [row["ess"] for row in est.trace] == [500 * f for f in est.level_fractions]
    assert 0.0 < est.trace[0]["acceptance_rate"] <= 1.0
    assert est.trace[1]["acceptance_rate"] is None


def test_extinction_returns_zero_with_level_index():
    lev = LevelSequence(thresholds=np.array([8.5]))
    est = smc_rare_event(octo_sampler, lev, 3, 100, PcgStream(13))
    assert est.estimate == 0.0
    assert est.extinct_level == 0
    assert est.level_fractions == [0.0]
    assert len(est.trace) == 1


def test_splitting_unbiased_on_enumerable_toy():
    """500 runs against the exactly known P(X > 5.5) = 1/4."""
    lev = LevelSequence(thresholds=np.array([3.5, 5.5]))
    streams = PcgStream(2323).spawn(500)
    vals = np.array([smc_rare_event(octo_sampler, lev, 3, 100, s).estimate
                     for s in streams])
    se = vals.std(ddof=1) / math.sqrt(500)
    assert abs(vals.mean() - 0.25) <= 4.0 * se


def test_splitting_hits_compound_tail_benchmark():
    """Splitting through 20, 40, 57 recovers the 1% tail of the loss law."""
    model = sigma05_model()
    lev = LevelSequence(thresholds=np.array([20.0, 40.0, 57.0]))
    streams = PcgStream(2222).spawn(20)
    vals = np.array([smc_rare_event(model, lev, 5, 2000, s).estimate
                     for s in streams])
    se = vals.std(ddof=1) / math.sqrt(20)
    # the oracle's P(Z > 57), as in the acceptance tests
    assert abs(vals.mean() - 0.010226) <= 3.0 * se


# ---------------------------------------------------------------------------
# compound models: claim populations and the Gibbs step
# ---------------------------------------------------------------------------

def _ladder_z_scores(model, thresholds, oracle, N, seed, replicates=16):
    """(estimate - oracle) / SE at every level of one replicated ladder run;
    the oracle's tail counts its lattice deficit as tail mass."""
    levels = LevelSequence(thresholds=np.asarray(thresholds, dtype=float))
    estimates = replicate_smc(model, levels, 5, N, PcgStream(seed), replicates)
    return [(est.estimate - oracle_tail(oracle, t)) / (est.replicate_rse * est.estimate)
            for est, t in zip(estimates, thresholds)]


def test_claim_gibbs_ladder_matches_oracle_to_1200():
    """sigma = 1: every level of a ladder down to P(Z > 1200) = 4.0e-7."""
    model = sigma1_model()
    oracle = oracle_compound_pmf(model, step=0.05, x_max=1300.0)
    thresholds = [100, 200, 300, 400, 500, 600, 800, 1000, 1200]
    z = _ladder_z_scores(model, thresholds, oracle, 2000, 1717)
    assert np.all(np.abs(z) <= 4.0), z


@pytest.mark.parametrize("case", ["negbinomial", "pareto"])
def test_claim_gibbs_deep_level_for_other_laws(case):
    if case == "negbinomial":
        model = CompoundModel(NegativeBinomialFrequency(2.0, 1.0), LogNormalSeverity(2.0, 1.0))
        thresholds, step, x_max = [100, 200, 300, 400], 0.05, 500.0
    else:
        model = pareto_poisson_model()
        thresholds, step, x_max = [5, 10, 20, 50, 100], 0.01, 200.0
    oracle = oracle_compound_pmf(model, step=step, x_max=x_max)
    z = _ladder_z_scores(model, thresholds, oracle, 2000, 1818)
    assert abs(z[-1]) <= 4.0, z


def test_degenerate_claims_cannot_move_yet_the_ladder_is_exact():
    """With unit claims Z = N: the kernel has nowhere to move a claim, the
    product estimator stays unbiased, and the truth is the Poisson tail."""
    model = CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0))
    levels = LevelSequence(thresholds=np.array([2.5, 4.5, 6.5]))
    est = replicate_smc(model, levels, 5, 1000, PcgStream(1919), 16)[-1]
    truth = 1.0 - sum(math.exp(-2.0) * 2.0 ** k / math.factorial(k) for k in range(7))
    assert abs(est.estimate - truth) <= 4.0 * est.replicate_rse * est.estimate


def test_claim_scores_stay_the_sums_of_their_own_claims():
    """Below zero every particle with claims redraws one claim per sweep,
    unconditionally (c < 0); after selection above 0, each particle's
    score is still the sum of its own claims."""
    model = sigma1_model()
    levels = LevelSequence(thresholds=np.array([-1.0, 0.0]))
    est = smc_rare_event(model, levels, 5, 500, PcgStream(2020))
    pop = est.population
    assert isinstance(pop, ClaimPopulation)
    assert est.level_fractions[0] == 1.0
    # every move at t = -1 is accepted, except for particles without claims
    assert est.trace[0]["acceptance_rate"] >= 0.8
    assert np.all(pop.counts >= 1) and np.all(pop.states > 0.0)
    sums = np.add.reduceat(pop.severities, pop.starts)
    assert np.allclose(pop.states, sums, rtol=1e-12, atol=1e-12)


def test_claim_rows_are_copied_whole():
    pop = ClaimPopulation(counts=np.array([2, 0, 1]),
                          severities=np.array([1.0, 2.0, 3.0]),
                          states=np.array([3.0, 0.0, 3.0]))
    out = pop.take(np.array([2, 0, 0, 1]))
    assert out.counts.tolist() == [1, 2, 2, 0]
    assert out.severities.tolist() == [3.0, 1.0, 2.0, 1.0, 2.0]
    assert out.starts.tolist() == [0, 1, 3, 5]
    assert out.states.tolist() == [3.0, 3.0, 3.0, 0.0]


def test_claim_gibbs_step_redraws_one_claim_above_the_floor():
    """Hand-traced step at t = 10: particle 0 (claims 4, 8) picks claim 2
    (u = 0.9) and redraws it above c = 6; particle 1 has no claim; particle
    2 picks its claim, with c = 10 - 0 = 10."""
    sev = LogNormalSeverity(2.0, 1.0)
    pop = ClaimPopulation(counts=np.array([2, 0, 1]),
                          severities=np.array([4.0, 8.0, 12.0]),
                          states=np.array([12.0, 0.0, 12.0]))
    moved = pop.gibbs_step(sev, 10.0, SequenceStream([0.9, 0.5, 0.3, 0.5, 0.5, 0.25]))
    assert moved == 2
    x0, x2 = sev.isf(0.5 * sev.sf(6.0)), sev.isf(0.25 * sev.sf(10.0))
    assert pop.severities.tolist() == [4.0, x0, x2]
    assert pop.states.tolist() == [4.0 + x0, 0.0, x2]
    assert x0 > 6.0 and x2 > 10.0


def test_claim_gibbs_step_keeps_a_claim_whose_floor_underflows():
    """Above about 1e17 the sigma = 1 survival is 0: the claim stays."""
    sev = LogNormalSeverity(2.0, 1.0)
    pop = ClaimPopulation(counts=np.array([1]), severities=np.array([1e20]),
                          states=np.array([1e20]))
    assert sev.sf(1e19) == 0.0
    assert pop.gibbs_step(sev, 1e19, SequenceStream([0.5, 0.5])) == 0
    assert pop.severities.tolist() == [1e20]


def _select_a_zero_potential_ancestor(population, g, rng):
    """A broken selection: every particle descends from one outside the level."""
    return ParticlePopulation(states=np.full(len(g), int(np.argmin(g))))


def _push_below_the_level(pop, severity, threshold, rng):
    """A broken move: the first particle's loss lands on the threshold."""
    pop.states[0] = threshold
    return 0


@pytest.mark.parametrize("phase", ["selection", "mutation"])
def test_population_outside_the_level_set_raises(phase, monkeypatch):
    """Checked by raising, not by assert, so ``python -O`` keeps the check."""
    if phase == "selection":
        monkeypatch.setattr(lossmc.rare_event, "selection_transition",
                            _select_a_zero_potential_ancestor)
    else:
        monkeypatch.setattr(ClaimPopulation, "gibbs_step", _push_below_the_level)
    levels = LevelSequence(thresholds=np.array([20.0, 40.0]))
    with pytest.raises(RuntimeError, match=phase):
        smc_rare_event(sigma05_model(), levels, 1, 100, PcgStream(1))


def test_replicate_runner_reports_relative_error():
    lev = LevelSequence(thresholds=np.array([3.5, 5.5]))
    first, rep = replicate_smc(octo_sampler, lev, 3, 100, PcgStream(707), 10)
    assert rep.replicate_rse is not None and rep.replicate_rse > 0.0
    assert abs(rep.estimate - 0.25) <= 3.0 * rep.replicate_rse * rep.estimate
    # the first level's running product is the crude fraction above 3.5
    assert list(first.thresholds) == [3.5]
    assert abs(first.estimate - 0.5) <= 3.0 * first.replicate_rse * first.estimate


def test_model_argument_type_is_checked():
    lev = LevelSequence(thresholds=np.array([1.0]))
    with pytest.raises(TypeError):
        smc_rare_event("not a model", lev, 1, 10, PcgStream(1))


# ---------------------------------------------------------------------------
# twisted-measure importance sampling (the toy of acceptance criterion 7,
# in conftest)
# ---------------------------------------------------------------------------

def test_unit_ratio_twist_reduces_to_crude():
    in_a = lambda y: y > 1.5
    est, var = twisted_estimate(gauss_sampler, lambda y: np.ones_like(y), in_a, 2000,
                                PcgStream(909))
    crude = float(np.mean(in_a(gauss_sampler(2000, PcgStream(909)))))
    assert est == crude
    assert var > 0.0


def test_conditional_twist_has_zero_variance():
    """Sampling A itself with the exact ratio leaves nothing random."""

    def cond_sampler(size, rng):
        return 6.0 + np.ceil(rng.uniforms(size) * 2.0) - 1.0

    est, var = twisted_estimate(cond_sampler, lambda y: np.full_like(y, 0.25),
                                lambda y: y >= 6.0, 1000, PcgStream(1001))
    assert est == 0.25
    assert var == 0.0


def test_gaussian_tilt_cuts_variance():
    """A mean-3 tilt targets P(X > 3) with a large efficiency gain."""
    truth = float(norm_sf(3.0))
    in_a = lambda y: y > 3.0
    tilted = lambda n, r: gauss_sampler(n, r) + 3.0
    ratio = lambda y: np.exp(-3.0 * y + 4.5)
    R, N = 100, 2000
    streams = PcgStream(2525).spawn(2 * R)
    tilt = np.array([twisted_estimate(tilted, ratio, in_a, N, streams[i])[0]
                     for i in range(R)])
    crude = np.array([np.mean(in_a(gauss_sampler(N, streams[R + i])))
                      for i in range(R)])
    se = tilt.std(ddof=1) / math.sqrt(R)
    assert abs(tilt.mean() - truth) <= 3.0 * se
    assert crude.var(ddof=1) / tilt.var(ddof=1) >= 20.0


def test_undominated_twist_is_rejected():
    with pytest.raises(RuntimeError, match="non-finite"):
        twisted_estimate(lambda n, r: gauss_sampler(n, r) + 3.0,
                         lambda y: np.where(y > 3.0, np.inf, 1.0),
                         lambda y: y > 3.0, 100, PcgStream(31))
