import csv
import math

import numpy as np
import pytest

from lossmc import (
    ClaimPopulation,
    CompoundModel,
    DegenerateSeverity,
    DiscreteMeasure,
    DominationViolationError,
    ExtinctionError,
    InvalidTargetError,
    LevelSequence,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParticlePopulation,
    PcgStream,
    PoissonFrequency,
    SequenceStream,
    SmcEstimate,
    TwistedSampler,
    boltzmann_gibbs,
    is_tail_estimator,
    norm_sf,
    oracle_compound_pmf,
    replicate_smc,
    restricted_mh_kernel,
    selection_transition,
    smc_rare_event,
    smc_rare_event_adaptive,
    trace_to_csv,
    tv_convergence_check,
)

from lossmc.distributions import _guide_table, _guided_search

from conftest import (
    gauss_sampler,
    oracle_tail,
    pareto_poisson_model,
    rw_mutation,
    sigma05_model,
    sigma1_model,
)


def octo_sampler(size, rng):
    """Uniform draws on the eight integers 0..7."""
    return np.ceil(rng.uniforms(size) * 8.0) - 1.0


# ---------------------------------------------------------------------------
# measures, potentials, selection
# ---------------------------------------------------------------------------

def test_discrete_measure_normalizes_and_validates():
    m = DiscreteMeasure(points=np.array([0.0, 1.0]), weights=np.array([2.0, 2.0]))
    assert np.allclose(m.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(points=np.array([0.0]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(points=np.array([0.0]), weights=np.array([-1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(points=np.array([0.0, 1.0]), weights=np.array([0.0, 0.0]))


def test_boltzmann_gibbs_reweighting():
    m = DiscreteMeasure(points=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
    out = boltzmann_gibbs(m, np.array([1.0 / 3.0, 1.0]))
    assert np.allclose(out.weights, [0.25, 0.75])
    same = boltzmann_gibbs(m, lambda pts: np.ones_like(pts))
    assert np.allclose(same.weights, m.weights)
    with pytest.raises(ExtinctionError):
        boltzmann_gibbs(m, np.zeros(2))


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
# restricted Metropolis-Hastings and mixing diagnostics
# ---------------------------------------------------------------------------

def test_restricted_matrix_parks_rejected_mass_on_diagonal():
    K = np.full((3, 3), 1.0 / 3.0)
    M = restricted_mh_kernel(K, np.array([True, True, False]))
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 2 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(M, expected, atol=1e-15)
    assert np.allclose(M.sum(axis=1), 1.0)


def test_tv_decay_of_restricted_chain():
    K = np.full((3, 3), 1.0 / 3.0)
    M = restricted_mh_kernel(K, np.array([True, True, False]))
    eta = np.array([0.5, 0.5, 0.0])
    diag = tv_convergence_check(M, eta, 50)
    assert diag.eps_a == pytest.approx(2.0 / 3.0, abs=1e-15)
    # the worst start is the outside state, which leaks inward at rate 1/3
    assert diag.tv[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert np.all(diag.tv <= diag.bound + 1e-12)
    assert diag.tv_by_start.shape == (50, 3)


def test_tv_check_requires_invariance():
    M = np.array([[0.5, 0.5], [0.5, 0.5]])
    diag = tv_convergence_check(M, np.array([0.5, 0.5]), 3)
    assert np.all(diag.tv == 0.0)
    assert diag.eps_a == 1.0
    with pytest.raises(InvalidTargetError):
        tv_convergence_check(M, np.array([0.4, 0.6]), 3)


# ---------------------------------------------------------------------------
# multilevel splitting
# ---------------------------------------------------------------------------

def test_level_sequence_validation():
    with pytest.raises(ValueError):
        LevelSequence()
    with pytest.raises(ValueError):
        LevelSequence(thresholds=np.array([1.0]), predicates=[lambda s: s > 1])
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
    with pytest.raises(ValueError):
        smc_rare_event_adaptive(octo_sampler, 1.0, 1, 1, PcgStream(1))


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
    assert abs(vals.mean() - 0.01) <= 3.0 * se


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
    G = lambda s: (s > 10.0).astype(float)
    moved = pop.gibbs_step(sev, 10.0, G, SequenceStream([0.9, 0.5, 0.3, 0.5, 0.5, 0.25]))
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
    G = lambda s: (s > 1e19).astype(float)
    assert pop.gibbs_step(sev, 1e19, G, SequenceStream([0.5, 0.5])) == 0
    assert pop.severities.tolist() == [1e20]


def _flaky_level(n_true):
    """A predicate true for its first ``n_true`` calls, false afterwards."""
    calls = []

    def predicate(s):
        calls.append(None)
        return np.full(len(s), len(calls) <= n_true)

    return LevelSequence(predicates=[predicate, lambda s: s > 0.0])


@pytest.mark.parametrize("n_true,phase", [(1, "selection"), (3, "mutation")])
def test_population_outside_the_level_set_raises(n_true, phase):
    """Checked by raising, not by assert, so ``python -O`` keeps the check.
    Calls of the first level's predicate: 1 selects, 2 checks the
    selection, 3 accepts a move, 4 checks the move."""
    with pytest.raises(RuntimeError, match=phase):
        smc_rare_event(gauss_sampler, _flaky_level(n_true), 1, 10, PcgStream(1))


def test_predicate_levels_estimate_gaussian_tail():
    lev = LevelSequence(predicates=[lambda s: s > 1.0])
    est = smc_rare_event(gauss_sampler, lev, 1, 500, PcgStream(808))
    truth = float(norm_sf(1.0))
    se = math.sqrt(truth * (1.0 - truth) / 500)
    assert abs(est.estimate - truth) <= 3.0 * se
    assert est.trace[0]["threshold"] is None


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
# adaptive thresholds
# ---------------------------------------------------------------------------

def test_adaptive_splitting_reaches_fixed_target():
    target = 3.0902
    est = smc_rare_event_adaptive(gauss_sampler, target, 5, 5000, PcgStream(2626))
    truth = float(norm_sf(target))
    assert abs(est.estimate / truth - 1.0) <= 0.2
    assert np.all(np.diff(est.thresholds) > 0.0)
    assert est.thresholds[-1] == target
    assert est.adaptive


def test_adaptive_splitting_gives_up_past_max_levels():
    with pytest.raises(ExtinctionError) as err:
        smc_rare_event_adaptive(gauss_sampler, 3.0902, 2, 100, PcgStream(42),
                                max_levels=3)
    assert err.value.level == 3


def test_adaptive_rho_validated():
    with pytest.raises(ValueError):
        smc_rare_event_adaptive(gauss_sampler, 1.0, 1, 100, PcgStream(1), rho=1.0)


# ---------------------------------------------------------------------------
# trace output
# ---------------------------------------------------------------------------

def test_trace_csv_layout(tmp_path):
    lev = LevelSequence(thresholds=np.array([1.0, 2.0]))
    est = smc_rare_event(gauss_sampler, lev, 5, 1000, PcgStream(21),
                         mutation=rw_mutation(1.0))
    path = tmp_path / "trace.csv"
    trace_to_csv(est, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "threshold", "success_fraction", "ess",
                       "acceptance_rate"]
    assert len(rows) == 3
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][3]) == pytest.approx(1000 * est.level_fractions[0])
    assert rows[2][4] == "n/a"  # no mutation after the final level
    with pytest.raises(ValueError):
        trace_to_csv(SmcEstimate(estimate=0.5, level_fractions=[0.5]), path)


# ---------------------------------------------------------------------------
# twisted-measure importance sampling
# ---------------------------------------------------------------------------

def test_unit_ratio_twist_reduces_to_crude():
    unit = TwistedSampler(sample=gauss_sampler,
                          density_ratio=lambda y: np.ones_like(y))
    in_a = lambda y: y > 1.5
    est, var = is_tail_estimator(gauss_sampler, unit, in_a, 2000, PcgStream(909))
    crude = float(np.mean(in_a(gauss_sampler(2000, PcgStream(909)))))
    assert est == crude
    assert var > 0.0


def test_conditional_twist_has_zero_variance():
    """Sampling A itself with the exact ratio leaves nothing random."""

    def cond_sampler(size, rng):
        return 6.0 + np.ceil(rng.uniforms(size) * 2.0) - 1.0

    twist = TwistedSampler(sample=cond_sampler,
                           density_ratio=lambda y: np.full_like(y, 0.25))
    est, var = is_tail_estimator(octo_sampler, twist, lambda y: y >= 6.0,
                                 1000, PcgStream(1001))
    assert est == 0.25
    assert var == 0.0


def test_gaussian_tilt_cuts_variance():
    """A mean-3 tilt targets P(X > 3) with a large efficiency gain."""
    truth = float(norm_sf(3.0))
    in_a = lambda y: y > 3.0
    twist = TwistedSampler(sample=lambda n, r: gauss_sampler(n, r) + 3.0,
                           density_ratio=lambda y: np.exp(-3.0 * y + 4.5))
    R, N = 100, 2000
    streams = PcgStream(2525).spawn(2 * R)
    tilt = np.array([is_tail_estimator(gauss_sampler, twist, in_a, N, streams[i])[0]
                     for i in range(R)])
    crude = np.array([np.mean(in_a(gauss_sampler(N, streams[R + i])))
                      for i in range(R)])
    se = tilt.std(ddof=1) / math.sqrt(R)
    assert abs(tilt.mean() - truth) <= 3.0 * se
    assert crude.var(ddof=1) / tilt.var(ddof=1) >= 20.0


def test_undominated_twist_is_rejected():
    twist = TwistedSampler(
        sample=lambda n, r: gauss_sampler(n, r) + 3.0,
        density_ratio=lambda y: np.where(y > 3.0, np.inf, 1.0))
    with pytest.raises(DominationViolationError):
        is_tail_estimator(gauss_sampler, twist, lambda y: y > 3.0, 100,
                          PcgStream(31))
