import functools
import math
import warnings

import numpy as np
import pytest

from lossmc import (
    BinomialFrequency,
    ClaimPopulation,
    CompoundModel,
    DegenerateSeverity,
    ExtinctionError,
    GeneralizedPoissonFrequency,
    LevelSequence,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    PcgStream,
    PoissonFrequency,
    SmcEstimate,
    norm_sf,
    oracle_compound_pmf,
    replicate_smc,
    selection_transition,
    smc_rare_event,
)

import lossmc.rare_event
from lossmc.compound import claim_sums
from lossmc.distributions import _guide_table, _guided_search

from conftest import (
    SequenceStream,
    gauss_sampler,
    oracle_tail,
    pareto_poisson_model,
    restricted_matrix,
    sigma05_model,
    sigma1_model,
    tv_decay,
    twisted_estimate,
)


def coin_model():
    """Z = N with N ~ Binomial(2, 1/2): P(Z > 0.5) = 3/4, P(Z > 1.5) = 1/4
    and P(Z > 2.5) = 0.  Unit claims cannot move, so only selection acts."""
    return CompoundModel(BinomialFrequency(2, 0.5), DegenerateSeverity(atom=1.0))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_selection_keeps_certain_particles():
    ancestors = selection_transition(np.ones(10), PcgStream(5))
    assert np.array_equal(ancestors, np.arange(10))


def test_selection_validates_inputs():
    with pytest.raises(ValueError):
        selection_transition(np.full(4, 1.5), PcgStream(1))
    # NaN passes a range test written as (g < 0) | (g > 1)
    with pytest.raises(ValueError, match="NaN"):
        selection_transition(np.array([np.nan, 1.0, 1.0, 1.0]), PcgStream(1))
    with pytest.raises(ExtinctionError):
        selection_transition(np.zeros(4), PcgStream(1))


def test_selection_change_rate_matches_coupling():
    """Acceptance-rejection selection changes ~ 1 - eta(G) of the states."""
    rng = PcgStream(2424)
    R, N = 200, 500
    replaced = []
    changed = []
    for _ in range(R):
        states = np.ceil(rng.uniforms(N) * 4.0) - 1.0
        g = (states >= 2.0).astype(float)
        selected = states[selection_transition(g, rng)]
        replaced.append(np.sum(selected != states))
        changed.append(np.mean(selected != states))
    replaced = np.array(replaced, dtype=float)
    changed = np.array(changed)
    se_r = replaced.std(ddof=1) / math.sqrt(R)
    assert abs(replaced.mean() - N * 0.5) <= 3.0 * se_r
    se_c = changed.std(ddof=1) / math.sqrt(R)
    assert abs(changed.mean() - 0.5) <= 3.0 * se_c


def test_selection_never_picks_a_zero_potential_ancestor():
    """Fractional potentials can sum, cumulatively, to just below 1; the
    last redraw key, (k - 1 + u) / k, is exactly 1.0 at u = 1 and must
    still land on a particle with positive potential.  A binary search
    over the whole population maps such a key to the last particle, here
    with g = 0."""
    draws = np.random.default_rng(1)
    while True:
        g = draws.random(12)
        g[-1] = 0.0
        if (np.cumsum(g) / g.sum())[-1] < 1.0:
            break
    # every particle is replaced (u = 1 > g) and every redraw uniform is 1,
    # so the keys are j / 12 for j = 1..12
    ancestors = selection_transition(g, SequenceStream([1.0] * 24))
    cum = np.cumsum(g[:-1]) / g.sum()
    assert cum[-1] < 1.0 and ancestors[-1] == 10
    keys = np.arange(1, 13) / 12
    assert np.array_equal(ancestors, np.minimum(np.searchsorted(cum, keys), 10))
    assert np.all(g[ancestors] > 0.0)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_stratified_redraws_match_their_expected_counts(seed):
    """The k replaced particles draw their ancestors by the keys
    (j + u_j) / k, so particle i is drawn within 2 of k g_i / sum(g)
    times; independent keys spread those counts by about their square
    root."""
    n = 2000
    g = PcgStream(seed).uniforms(n) ** 3
    ancestors = selection_transition(g, PcgStream(seed + 100))
    keep = PcgStream(seed + 100).uniforms(n) <= g
    k = int((~keep).sum())
    drawn = np.bincount(ancestors[~keep], minlength=n)
    assert k > 1000 and drawn.sum() == k
    assert np.all(np.abs(drawn - k * g / g.sum()) <= 2.0)


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
    gives for the stratified keys (j + u_j) / k, wherever that search
    lands inside the population."""
    g = _POTENTIALS[name]
    n = len(g)
    ancestors = selection_transition(g, PcgStream(4343))
    rng = PcgStream(4343)
    keep = rng.uniforms(n) <= g
    k = int((~keep).sum())
    keys = (np.arange(k) + rng.uniforms(k)) / k
    cum = np.cumsum(g) / g.sum()
    assert np.all(keys <= cum[-1])
    expected = np.arange(n)
    expected[~keep] = np.minimum(np.searchsorted(cum, keys), n - 1)
    assert np.array_equal(ancestors, expected)
    assert np.all(g[ancestors] > 0.0)


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
    # the random-claim potential is unbiased, not bounded by 1
    assert SmcEstimate(estimate=1.2, level_fractions=[1.2]).estimate == 1.2
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SmcEstimate(estimate=bad, level_fractions=[])


def test_smc_needs_two_particles():
    lev = LevelSequence(thresholds=np.array([1.0]))
    with pytest.raises(ValueError):
        smc_rare_event(sigma05_model(), lev, 1, 1, PcgStream(1))


def _look_ahead_reference(pop, severity, threshold, previous=-math.inf):
    """G of :meth:`ClaimPopulation.largest_claim_potential`, row by row: the
    chance that the largest claim, redrawn given the other claims and
    Z > ``previous``, clears ``threshold``."""
    g = []
    for count, start, z in zip(pop.counts, pop.starts, pop.states):
        claims = sorted(pop.severities[start:start + count])
        floor = np.nextafter(claims[-2] if count > 1 else 0.0, -np.inf)
        rest = z - claims[-1] if count else z
        den = severity.sf(max(previous - rest, floor)) if count else 0.0
        if den == 0.0:
            g.append(float(z > threshold))
        else:
            g.append(min(severity.sf(max(threshold - rest, floor)), den) / den)
    return np.array(g)


def test_single_level_equals_crude_fraction():
    """The population reads the uniforms crude Monte Carlo reads for as
    many years, its counts inverted from the stratified (i + u_i) / N, and
    one level's estimate is the mean look-ahead potential over it."""
    model = sigma05_model()
    lev = LevelSequence(thresholds=np.array([20.0]))
    est = smc_rare_event(model, lev, 3, 400, PcgStream(606))
    pop = ClaimPopulation.sample(model, 400, PcgStream(606))
    rng = PcgStream(606)
    counts = model.frequency.sample(SequenceStream((np.arange(400) + rng.uniforms(400)) / 400),
                                    400)
    severities = model.severity.sample(rng, int(counts.sum()))
    assert np.array_equal(pop.counts, counts)
    assert np.array_equal(pop.severities, severities)
    sums = [severities[start:start + count].sum() for start, count in zip(pop.starts, counts)]
    assert np.allclose(pop.states, sums, rtol=1e-12, atol=1e-12)
    g = _look_ahead_reference(pop, model.severity, 20.0)
    assert est.estimate == pytest.approx(g.mean(), rel=1e-12)
    assert np.allclose(pop.largest_claim_potential(model.severity, 20.0)[0], g,
                       rtol=1e-12, atol=0.0)


def test_estimate_is_product_of_level_fractions():
    """Every level, the last included, weighs its particles by the chance
    that a move of the largest claim, confined to the previous level set,
    clears it.  The populations are rebuilt by hand from the same stream:
    selection, the redraw of the largest claims and two sweeps per level."""
    model = sigma05_model()
    sev = model.severity
    thresholds = [20.0, 40.0, 57.0]
    rng = PcgStream(11)
    pop = ClaimPopulation.sample(model, 500, rng)
    potentials = []
    previous = -math.inf
    for t in thresholds:
        g, tail, rest, offset = pop.largest_claim_potential(sev, t, previous)
        assert np.allclose(g, _look_ahead_reference(pop, sev, t, previous),
                           rtol=1e-12, atol=0.0)
        potentials.append(g)
        idx = selection_transition(g, rng)
        pop = pop.take(idx)
        pop.redraw_picked_claims(sev, t, tail[idx], rest[idx], offset[idx], rng)
        for _ in range(2):
            pop.gibbs_step(sev, t, rng)
        previous = t
    for levels in (2, 3):
        lev = LevelSequence(thresholds=np.array(thresholds[:levels]))
        est = smc_rare_event(model, lev, 3, 500, PcgStream(11))
        assert est.estimate == float(np.prod(est.level_fractions))
        # no level died out: every fraction is positive
        assert len(est.level_fractions) == levels and min(est.level_fractions) > 0.0
        # one trace row per level; the last level does not move
        assert [row["threshold"] for row in est.trace] == thresholds[:levels]
        for row, frac, g in zip(est.trace, est.level_fractions, potentials):
            assert frac == pytest.approx(g.mean(), rel=1e-12)
            # ess = (sum g)^2 / sum g^2; g <= 1 gives sum g^2 <= sum g, so
            # the ess lies between the success count an indicator would
            # give and N, strictly for fractional potentials
            assert row["ess"] == pytest.approx(g.sum() ** 2 / (g @ g), rel=1e-12)
            assert 500 * frac < row["ess"] < 500
        for row in est.trace[:-1]:
            assert 0.0 < row["acceptance_rate"] <= 1.0
        assert est.trace[-1]["acceptance_rate"] is None


def test_extinction_returns_zero_with_level_index():
    lev = LevelSequence(thresholds=np.array([0.5, 2.5]))
    est = smc_rare_event(coin_model(), lev, 3, 100, PcgStream(13))
    assert est.estimate == 0.0
    # the run died at level 1: it holds two fractions and the last is 0
    assert len(est.level_fractions) == 2
    assert est.level_fractions[1] == 0.0 and est.level_fractions[0] > 0.0
    assert len(est.trace) == 2
    assert est.trace[1]["ess"] == 0.0


@pytest.mark.parametrize("first_potential", ["largest", "random"])
def test_splitting_unbiased_on_enumerable_toy(first_potential):
    """500 runs against the exactly known P(Z > 1.5) = 1/4, with either
    first-level potential."""
    lev = LevelSequence(thresholds=np.array([0.5, 1.5]))
    streams = PcgStream(2323).spawn(500)
    vals = np.array([smc_rare_event(coin_model(), lev, 3, 100, s,
                                    first_potential=first_potential).estimate
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
    estimates, _ = replicate_smc(model, levels, 5, N, PcgStream(seed), replicates)
    return [(p - oracle_tail(oracle, t)) / (rse * p)
            for (p, rse), t in zip(estimates, thresholds)]


def test_claim_gibbs_ladder_matches_oracle_to_1200(sigma1_pmf):
    """sigma = 1: every level of a ladder down to P(Z > 1200) = 4.0e-7."""
    thresholds = [100, 200, 300, 400, 500, 600, 800, 1000, 1200]
    z = _ladder_z_scores(sigma1_model(), thresholds, sigma1_pmf, 2000, 1717)
    assert np.all(np.abs(z) <= 4.0), z


@pytest.mark.parametrize("case", ["sigma1", "sigma05", "negbinomial", "pareto"])
def test_look_ahead_ladder_matches_oracle_at_every_level(case, request):
    """Every level selects on the look-ahead but the last: the running
    product stays unbiased at each level, against the oracle within 4 SE
    (sigma = 1 on the benchmark ladder, sigma = 0.5 to its 1 % tail, and
    the negative binomial and Pareto ladders of the deep-level test)."""
    if case == "sigma1":
        model, thresholds, seed = sigma1_model(), [100, 200, 300], 2424
        oracle = request.getfixturevalue("sigma1_pmf")
    elif case == "sigma05":
        model, thresholds, seed = sigma05_model(), [20, 40, 57], 2525
        oracle = request.getfixturevalue("sigma05_pmf")
    else:
        (model, thresholds, oracle), seed = _other_law(case), 2626
    z = _ladder_z_scores(model, thresholds, oracle, 2000, seed)
    assert np.all(np.abs(z) <= 4.0), z


@functools.cache
def _other_law(case):
    """(model, ladder, oracle) of negative binomial (2, 1) counts with
    sigma = 1 claims, or of Pareto (2, 1) claims."""
    if case == "negbinomial":
        model = CompoundModel(NegativeBinomialFrequency(2.0, 1.0), LogNormalSeverity(2.0, 1.0))
        thresholds, step, x_max = [100, 200, 300, 400], 0.05, 500.0
    else:
        model = pareto_poisson_model()
        thresholds, step, x_max = [5, 10, 20, 50, 100], 0.01, 200.0
    return model, thresholds, oracle_compound_pmf(model, step=step, x_max=x_max)


@pytest.mark.parametrize("case", ["negbinomial", "pareto"])
def test_claim_gibbs_deep_level_for_other_laws(case):
    model, thresholds, oracle = _other_law(case)
    z = _ladder_z_scores(model, thresholds, oracle, 2000, 1818)
    assert abs(z[-1]) <= 4.0, z


@functools.cache
def _calibration_law(case):
    """(model, oracle) of Poisson (2) or negative binomial (2, 1) counts
    with sigma = 1 claims, the oracle on the step-0.01 lattice."""
    frequency = PoissonFrequency(2.0) if case == "poisson" else NegativeBinomialFrequency(2.0, 1.0)
    model = CompoundModel(frequency, LogNormalSeverity(2.0, 1.0))
    return model, oracle_compound_pmf(model, step=0.01, x_max=400.0)


@pytest.mark.parametrize("case", ["poisson", pytest.param("negbinomial", marks=pytest.mark.xfail(
    strict=True,
    reason="at 300 the mean z is -0.62 and its sd 1.54 (ROADMAP item 30; the CHANGES.md "
           "FOUND on 16-replicate negative binomial splitting SEs)"))])
def test_splitting_error_bar_is_calibrated_over_seeds(case):
    """The reported relative SE means what it says (ROADMAP item 30): over
    seeds 0-19 of the ladder 100/200/300 at the ladder tests' budget (N
    2000, 16 replicates, about 1 s a case), z = (estimate - oracle) / SE
    has, per level, |mean| <= 0.6 and sd in [0.7, 1.4], and max |z| <= 5."""
    model, oracle = _calibration_law(case)
    z = np.array([_ladder_z_scores(model, [100, 200, 300], oracle, 2000, seed)
                  for seed in range(20)])
    mean, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
    assert np.all(np.abs(mean) <= 0.6), mean
    assert np.all((sd >= 0.7) & (sd <= 1.4)), sd
    assert np.abs(z).max() <= 5.0, z


def test_stratified_counts_sharpen_the_count_driven_ladder():
    """sigma = 0.5, where the count carries the event: ladder 20/40/57,
    N 2000, 16 replicates.  Six seeds read a relative SE at 57 of
    0.030-0.044 with independent counts and keys, and 0.008-0.019 with
    stratified ones (N 1e4, 32 replicates, seeds 9100-9109: median
    0.0114 against 0.0039, lower at every seed)."""
    levels = LevelSequence(thresholds=np.array([20.0, 40.0, 57.0]))
    estimates, _ = replicate_smc(sigma05_model(), levels, 5, 2000, PcgStream(9100), 16)
    assert estimates[-1][1] < 0.02, estimates


def test_degenerate_claims_cannot_move_yet_the_ladder_is_exact():
    """With unit claims Z = N: the kernel has nowhere to move a claim, the
    product estimator stays unbiased, and the truth is the Poisson tail."""
    model = CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0))
    levels = LevelSequence(thresholds=np.array([2.5, 4.5, 6.5]))
    p, rse = replicate_smc(model, levels, 5, 1000, PcgStream(1919), 16)[0][-1]
    assert abs(p - _exact_poisson_tail(2.0, 6)) <= 4.0 * rse * p


@pytest.mark.parametrize("frequency", [
    PoissonFrequency(2.0), NegativeBinomialFrequency(2.0, 1.0),
    GeneralizedPoissonFrequency(1.5, 0.3), BinomialFrequency(10, 0.3),
], ids=["poisson", "negbinomial", "genpoisson", "binomial"])
def test_first_population_stratifies_the_claim_count(frequency):
    """Particle i inverts its count from (i + u_i) / N: the population
    holds each count k within 2 of N p_k, where independent counts miss
    by about sqrt(N p_k)."""
    N = 10_000
    pop = ClaimPopulation.sample(CompoundModel(frequency, DegenerateSeverity(atom=1.0)), N,
                                 PcgStream(5151))
    k = np.arange(pop.counts.max() + 10)
    held = np.bincount(pop.counts, minlength=len(k))
    assert np.all(np.abs(held - N * frequency.pmf(k)) <= 2.0)


@pytest.mark.parametrize("model", [sigma1_model(), pareto_poisson_model()],
                         ids=["lognormal", "pareto"])
def test_population_reads_one_uniform_per_count_and_claim(model):
    """A population of n reads n + sum(counts) uniforms, as n crude Monte
    Carlo years do: the stream goes on where that many draws leave it."""
    rng = PcgStream(5252)
    pop = ClaimPopulation.sample(model, 3000, rng)
    read = 3000 + int(pop.counts.sum())
    assert np.array_equal(rng.uniforms(5), PcgStream(5252).uniforms(read + 5)[read:])


def test_claim_scores_stay_the_sums_of_their_own_claims():
    """Below zero every particle with claims redraws one claim per sweep,
    unconditionally (c < 0); after a selection into Z > 20 and more
    sweeps there, each particle's score is still the sum of its own
    claims."""
    model = sigma1_model()
    rng = PcgStream(2020)
    pop = ClaimPopulation.sample(model, 500, rng)
    moved = [pop.gibbs_step(model.severity, -1.0, rng) for _ in range(5)]
    assert moved == [np.count_nonzero(pop.counts)] * 5
    pop = pop.take(np.flatnonzero(pop.states > 20.0))
    for _ in range(5):
        pop.gibbs_step(model.severity, 20.0, rng)
    assert len(pop.states) > 0 and np.all(pop.states > 20.0)
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


def test_largest_claim_look_ahead_hand_trace():
    """t = 10.  Particle 0 has no claim: G = 1{0 > 10} = 0.  Particle 1
    has one claim, so R = 0 and no runner-up: G = sf(10).  Particle 2
    has claims 2, 6, 1 (Z = 9): its largest claim 6 moves above
    max(10 - 3, 2) = 7, so G = sf(7) / sf(2-).  Selecting 2, 1, 2 and
    redrawing by u = 0.5, 0.25, 0.75 puts isf(u tail) in each row's
    largest slot."""
    sev = LogNormalSeverity(2.0, 1.0)
    pop = ClaimPopulation(counts=np.array([0, 1, 3]),
                          severities=np.array([4.0, 2.0, 6.0, 1.0]),
                          states=np.array([0.0, 4.0, 9.0]))
    g, tail, rest, offset = pop.largest_claim_potential(sev, 10.0)
    below_2 = np.nextafter(2.0, -np.inf)
    assert g[0] == 0.0 and g[1] == sev.sf(10.0)
    assert g[2] == sev.sf(7.0) / sev.sf(below_2) and 0.0 < g[2] < 1.0
    assert tail.tolist() == [0.0, sev.sf(10.0), sev.sf(7.0)]
    assert rest.tolist() == [0.0, 0.0, 3.0] and offset[1:].tolist() == [0, 1]

    idx = np.array([2, 1, 2])
    out = pop.take(idx)
    moved = out.redraw_picked_claims(sev, 10.0, tail[idx], rest[idx], offset[idx],
                                      SequenceStream([0.5, 0.25, 0.75]))
    assert moved == 3
    x0, x1, x2 = (sev.isf(u * sev.sf(c)) for u, c in ((0.5, 7.0), (0.25, 10.0), (0.75, 7.0)))
    assert out.severities.tolist() == [2.0, x0, 1.0, x1, 2.0, x2, 1.0]
    assert out.states.tolist() == [3.0 + x0, x1, 3.0 + x2]
    assert np.all(out.states > 10.0)


@pytest.mark.parametrize("case", ["sigma1", "sigma05", "pareto"])
def test_look_ahead_past_the_first_level_matches_the_reference(case):
    """On a population confined to Z > t', row by row: G = sf(max(t - R,
    M-)) / sf(max(t' - R, M-)), single-claim rows included."""
    model, previous, threshold = {
        "sigma1": (sigma1_model(), 100.0, 200.0),
        "sigma05": (sigma05_model(), 20.0, 40.0),
        "pareto": (pareto_poisson_model(), 10.0, 20.0),
    }[case]
    pop = ClaimPopulation.sample(model, 20000, PcgStream(3131))
    pop = pop.take(np.flatnonzero(pop.states > previous))
    assert np.any(pop.counts == 1) and np.any(pop.counts > 1)
    g = pop.largest_claim_potential(model.severity, threshold, previous)[0]
    ref = _look_ahead_reference(pop, model.severity, threshold, previous)
    assert np.allclose(g, ref, rtol=1e-12, atol=0.0)
    assert np.all((g > 0.0) & (g <= 1.0))
    # not the indicator: a move can take a particle above t below it
    assert np.any((pop.states > threshold) & (g < 1.0))


def test_atom_ties_give_indicator_potentials():
    """With a point mass every claim ties with the runner-up, the
    denominator is 1 and G = 1{Z > t} at every level, the population
    confined to Z > t' past the first: the coin toy and the Z = N ladder
    stay exact, and the redraw returns the atom."""
    poisson_units = CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0))
    for model, previous, t in ((coin_model(), -math.inf, 0.5), (coin_model(), -math.inf, 1.5),
                               (coin_model(), 0.5, 1.5), (poisson_units, -math.inf, 2.5),
                               (poisson_units, 2.5, 4.5), (poisson_units, 0.5, 1.5)):
        pop = ClaimPopulation.sample(model, 1000, PcgStream(2121))
        pop = pop.take(np.flatnonzero(pop.states > previous))
        g, tail, rest, offset = pop.largest_claim_potential(model.severity, t, previous)
        assert np.array_equal(g, (pop.states > t).astype(float))
        assert np.array_equal(g, _look_ahead_reference(pop, model.severity, t, previous))
        live = np.flatnonzero(g)
        out = pop.take(live)
        out.redraw_picked_claims(model.severity, t, tail[live], rest[live], offset[live],
                                  PcgStream(2222))
        assert np.array_equal(out.severities, np.ones(out.severities.size))
        assert np.array_equal(out.states, pop.states[live])


def test_runner_up_survival_underflow_gives_the_indicator():
    """Above about 1e17 the sigma = 1 survival is 0: a particle whose
    runner-up claim is there selects on 1{Z > t} and keeps its claims;
    no division by the zero survival warns."""
    sev = LogNormalSeverity(2.0, 1.0)
    pop = ClaimPopulation(counts=np.array([2, 2, 1]),
                          severities=np.array([1e20, 1e20, 1e20, 3e20, 5.0]),
                          states=np.array([2e20, 4e20, 5.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, tail, rest, offset = pop.largest_claim_potential(sev, 3e20)
        assert g.tolist() == [0.0, 1.0, sev.sf(3e20)]
        assert tail[:2].tolist() == [0.0, 0.0]
        out = pop.take(np.array([1]))
        assert out.redraw_picked_claims(sev, 3e20, tail[[1]], rest[[1]], offset[[1]],
                                         SequenceStream([0.5])) == 0
    assert out.severities.tolist() == [1e20, 3e20]


def _ragged_population(claims, seed, n=400):
    """n particles of 0-4 claims each (empty and one-claim rows included):
    lognormal claims, claims repeated from {1, 2, 3}, or a point mass."""
    rng = PcgStream(seed)
    counts = np.floor(rng.uniforms(n) * 5).astype(np.int64)
    total = int(counts.sum())
    if claims == "continuous":
        severities = sigma1_model().severity.sample(rng, size=total)
    elif claims == "repeated":
        severities = np.ceil(rng.uniforms(total) * 3)
    else:
        severities = np.full(total, 2.0)
    pop = ClaimPopulation(counts, severities, claim_sums(counts, severities))
    assert np.any(counts == 0) and np.any(counts == 1)
    return pop


def _last_maximum(pop):
    """Each row's last tied maximum (its start in an empty row)."""
    return np.array([start + count - 1 - int(np.argmax(pop.severities[start:start + count][::-1]))
                     if count else start for count, start in zip(pop.counts, pop.starts)])


@pytest.mark.parametrize("claims", ["continuous", "repeated", "point-mass"])
@pytest.mark.parametrize("pick", ["uniform", "last-maximum"])
def test_claims_around_a_pick_match_a_row_loop(claims, pick):
    """:meth:`ClaimPopulation._around` gives, bit for bit, each row's
    largest claim before the pick (A) and after it (B), 0 where there is
    none, as a loop over the rows does, for a uniform pick (as the
    random-claim potential draws it) and for the last tied maximum (the
    look-ahead's moving claim, which it reports as its offset)."""
    pop = _ragged_population(claims, 3232)
    if pick == "uniform":
        u = PcgStream(3233).uniforms(len(pop.counts))
        at = pop.starts + np.ceil(u * pop.counts).astype(np.intp) - 1
    else:
        at = _last_maximum(pop)
        offset = pop.largest_claim_potential(sigma1_model().severity, 20.0)[3]
        has = pop.has_claims
        assert np.array_equal(offset[has], (at - pop.starts)[has])
    before, after = pop._around(at)
    ref_before, ref_after = np.zeros(len(pop.counts)), np.zeros(len(pop.counts))
    for i, (count, start) in enumerate(zip(pop.counts, pop.starts)):
        if count:
            row, j = list(pop.severities[start:start + count]), at[i] - start
            ref_before[i] = max(row[:j], default=0.0)
            ref_after[i] = max(row[j + 1:], default=0.0)
    assert before.tobytes() == ref_before.tobytes()
    assert after.tobytes() == ref_after.tobytes()


@pytest.mark.parametrize("claims", ["continuous", "repeated", "point-mass"])
def test_potentials_leave_the_population_as_it_was(claims):
    """Neither potential writes to the population it reads: counts,
    claims and losses stay byte-equal, at the first level and past it."""
    pop = _ragged_population(claims, 3434)
    sev = sigma1_model().severity
    held = [a.tobytes() for a in (pop.counts, pop.severities, pop.states)]
    pop.largest_claim_potential(sev, 6.0)
    pop.largest_claim_potential(sev, 6.0, 3.0)
    pop.random_claim_potential(sev, 6.0, PcgStream(3435))
    assert [a.tobytes() for a in (pop.counts, pop.severities, pop.states)] == held


def test_random_claim_potential_hand_trace():
    """t = 10.  Particle 0 has no claim: G = 1{0 > 10} = 0.  Particle 1
    picks its only claim (u = 0.9): R = 0, no claim before or after it, so
    G = 1 x sf(10).  Particle 2 (claims 2, 6, 1, 6; Z = 15) picks the 6 in
    slot 1 (u = 0.5): A = 2, B = 6, R = 9, so G = 4 sf(max(2, 6-, 1)) =
    4 sf(6-).  Particle 3 (claims 7, 3, 2; Z = 12) picks slot 2 (u = 1):
    A = 7, R = 10, so G = 3 sf(7).  Redrawing by u = 0.5, 0.25, 0.75 puts
    isf(u tail) in each picked slot, which becomes the row's first maximum
    with Z > 10."""
    sev = LogNormalSeverity(2.0, 1.0)
    pop = ClaimPopulation(counts=np.array([0, 1, 4, 3]),
                          severities=np.array([4.0, 2.0, 6.0, 1.0, 6.0, 7.0, 3.0, 2.0]),
                          states=np.array([0.0, 4.0, 15.0, 12.0]))
    g, tail, rest, offset = pop.random_claim_potential(
        sev, 10.0, SequenceStream([0.3, 0.9, 0.5, 1.0]))
    below_6 = np.nextafter(6.0, 0.0)
    assert tail.tolist() == [0.0, sev.sf(10.0), sev.sf(below_6), sev.sf(7.0)]
    assert g.tolist() == [0.0, sev.sf(10.0), 4 * sev.sf(below_6), 3 * sev.sf(7.0)]
    assert g[2] > 1.0
    assert rest[1:].tolist() == [0.0, 9.0, 10.0] and offset[1:].tolist() == [0, 1, 2]

    idx = np.array([1, 2, 3])
    out = pop.take(idx)
    moved = out.redraw_picked_claims(sev, 10.0, tail[idx], rest[idx], offset[idx],
                                     SequenceStream([0.5, 0.25, 0.75]))
    assert moved == 3
    x1, x2, x3 = (sev.isf(u * t) for u, t in zip((0.5, 0.25, 0.75), tail[idx]))
    assert out.severities.tolist() == [x1, 2.0, x2, 1.0, 6.0, 7.0, 3.0, x3]
    assert out.states.tolist() == [x1, 9.0 + x2, 10.0 + x3]
    assert np.all(out.states > 10.0)
    # particle i of ``out`` picked slot i
    for i in range(3):
        claims = out.severities[out.starts[i]:out.starts[i] + out.counts[i]]
        assert int(np.argmax(claims)) == i
    # no claim in the whole population: the indicator, and nothing to redraw
    empty = ClaimPopulation(counts=np.array([0, 0]), severities=np.array([]),
                            states=np.array([0.0, 0.0]))
    g, tail, _, _ = empty.random_claim_potential(sev, -1.0, SequenceStream([0.5, 0.5]))
    assert g.tolist() == [1.0, 1.0] and tail.tolist() == [0.0, 0.0]


def test_random_claim_potential_keeps_first_maximum_ties():
    """A point mass ties every claim: only the first claim can be the row's
    first maximum, so G = N 1{j = 1} 1{Z > t}, and the redraw returns the
    atom."""
    model = CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0))
    pop = ClaimPopulation.sample(model, 2000, PcgStream(77))
    rng = PcgStream(78)
    g, tail, rest, offset = pop.random_claim_potential(model.severity, 2.5, rng)
    picks = np.ceil(PcgStream(78).uniforms(2000) * pop.counts)
    assert np.array_equal(g, pop.counts * ((picks == 1) & (pop.states > 2.5)))
    live = np.flatnonzero(g)
    out = pop.take(live)
    out.redraw_picked_claims(model.severity, 2.5, tail[live], rest[live], offset[live], rng)
    assert np.array_equal(out.severities, np.ones(out.severities.size))


def _random_claim_reference(pop, severity, threshold, u):
    """G of :meth:`ClaimPopulation.random_claim_potential`, row by row, for
    the picking uniforms ``u``."""
    g = []
    for count, start, z, ui in zip(pop.counts, pop.starts, pop.states, u):
        if not count:
            g.append(float(z > threshold))
            continue
        claims = list(pop.severities[start:start + count])
        j = math.ceil(ui * count) - 1
        before, after = max(claims[:j], default=0.0), max(claims[j + 1:], default=0.0)
        floor = max(before, np.nextafter(after, 0.0), threshold - (z - claims[j]))
        g.append(count * severity.sf(floor))
    return np.array(g)


def _exact_poisson_tail(lam, k):
    """P(N > k) for N ~ Poisson(lam)."""
    return 1.0 - sum(math.exp(-lam) * lam ** i / math.factorial(i) for i in range(k + 1))


_RANDOM_CLAIM_CASES = {
    "sigma1": (sigma1_model, 100.0,
               lambda m: oracle_tail(oracle_compound_pmf(m, step=0.05, x_max=300.0), 100.0)),
    "negbinomial": (lambda: CompoundModel(NegativeBinomialFrequency(2.0, 1.0),
                                          LogNormalSeverity(2.0, 1.0)), 100.0,
                    lambda m: oracle_tail(oracle_compound_pmf(m, step=0.05, x_max=300.0), 100.0)),
    "pareto": (pareto_poisson_model, 5.0,
               lambda m: oracle_tail(oracle_compound_pmf(m, step=0.01, x_max=100.0), 5.0)),
    # Z = N: ties everywhere, against the exact tail
    "point-mass": (lambda: CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0)),
                   2.5, lambda m: _exact_poisson_tail(2.0, 2)),
}


@pytest.mark.parametrize("case", sorted(_RANDOM_CLAIM_CASES))
def test_random_claim_potential_is_unbiased(case):
    """The mean of G over 2e5 base-law particles is P(Z > t) within 4 SE
    (the Asmussen-Kroese identity), and the first 2000 rows match the
    row-by-row reference."""
    build, t, truth = _RANDOM_CLAIM_CASES[case]
    model = build()
    pop = ClaimPopulation.sample(model, 200_000, PcgStream(4545))
    g = pop.random_claim_potential(model.severity, t, PcgStream(4546))[0]
    head = pop.take(np.arange(2000))
    ref = _random_claim_reference(head, model.severity, t, PcgStream(4546).uniforms(2000))
    assert np.allclose(g[:2000], ref, rtol=1e-12, atol=0.0)
    assert abs(g.mean() - truth(model)) <= 4.0 * g.std(ddof=1) / math.sqrt(g.size), \
        (g.mean(), truth(model))


def test_pilot_picks_the_sharper_first_potential():
    """Where the largest claim carries the event the random-claim
    potential is sharper; where the count carries it (sigma = 0.5) or
    claims tie (a point mass) the largest-claim one is."""
    cases = [
        (sigma1_model(), 100.0, "random"),
        (CompoundModel(NegativeBinomialFrequency(2.0, 1.0), LogNormalSeverity(2.0, 1.0)),
         100.0, "random"),
        (pareto_poisson_model(), 5.0, "random"),
        (sigma05_model(), 20.0, "largest"),
        (CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0)), 2.5, "largest"),
    ]
    for model, t, expected in cases:
        pilot = lossmc.rare_event.pilot_first_potential(model, t, 10_000, PcgStream(4747))
        assert pilot["potential"] == expected, pilot
        sharper = min(pilot["relvar_largest"], pilot["relvar_random"])
        assert pilot[f"relvar_{expected}"] == sharper


def test_random_first_potential_may_average_above_one():
    """Poisson(10) unit claims at t = 0.5, where P(Z > t) is nearly 1: the
    random-claim potential N 1{j = 1} is unbiased but its mean can exceed
    1, and the run returns it, also through a selection into the next
    level."""
    model = CompoundModel(PoissonFrequency(10.0), DegenerateSeverity(atom=1.0))
    for thresholds in ([0.5], [0.5, 5.5]):
        lev = LevelSequence(thresholds=np.array(thresholds))
        est = smc_rare_event(model, lev, 2, 200, PcgStream(4), first_potential="random")
        assert est.level_fractions[0] > 1.0
        assert 0.0 < est.estimate < math.inf
    with pytest.raises(ValueError, match="first_potential"):
        smc_rare_event(model, lev, 2, 200, PcgStream(3), first_potential="largest-claim")


def test_random_first_potential_locks_in_the_benchmark_gain():
    """Benchmark ladder (sigma = 1, 100/200/300), N 2000, 64 replicates:
    the pilot picks the random-claim potential and the relative SE at 300
    is below 0.007.  With the largest-claim potential at the first level
    and the last level read as the fraction above it, 12 seeds read
    0.0091-0.0129; with this ladder 0.0033-0.0057."""
    levels = LevelSequence(thresholds=np.array([100.0, 200.0, 300.0]))
    estimates, pilot = replicate_smc(sigma1_model(), levels, 5, 2000, PcgStream(2600), 64)
    assert pilot["potential"] == "random"
    assert estimates[-1][1] < 0.007, estimates


def test_point_mass_ladder_is_unchanged():
    """The pilot keeps the largest-claim potential for a point mass, whose
    look-ahead is the indicator, and Z = N: every level of the ladder
    reads the closed-form Poisson tails P(N >= 3), P(N >= 5) and
    P(N >= 7) within 4 SE.  Stratified counts make the first level nearly
    exact (rse 0.00035, against 0.0084 with independent counts)."""
    model = CompoundModel(PoissonFrequency(2.0), DegenerateSeverity(atom=1.0))
    levels = LevelSequence(thresholds=np.array([2.5, 4.5, 6.5]))
    estimates, pilot = replicate_smc(model, levels, 5, 1000, PcgStream(1919), 16)
    assert pilot["potential"] == "largest"
    for (p, rse), k in zip(estimates, (2, 4, 6)):
        assert abs(p - _exact_poisson_tail(2.0, k)) <= 4.0 * rse * p, (estimates, k)
    assert estimates[0][1] < 0.002


def test_replicate_runner_validates_before_it_draws():
    """Bad arguments raise before the pilot touches the stream: this one
    has no spawn to call."""
    lev = LevelSequence(thresholds=np.array([1.0]))
    untouchable = object()
    for model, N, steps, replicates, error in (("not a model", 10, 1, 2, TypeError),
                                               (sigma05_model(), 1, 1, 2, ValueError),
                                               (sigma05_model(), 10, -1, 2, ValueError),
                                               (sigma05_model(), 10, 1, 1, ValueError)):
        with pytest.raises(error):
            replicate_smc(model, lev, steps, N, untouchable, replicates)


def _select_a_zero_potential_ancestor(g, rng):
    """A broken selection: every particle descends from one outside the level."""
    return np.full(len(g), int(np.argmin(g)))


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
    # two moves, so one ordinary sweep follows the first level's redraw
    with pytest.raises(RuntimeError, match=phase):
        smc_rare_event(sigma05_model(), levels, 2, 100, PcgStream(1))


def test_replicate_runner_reports_relative_error():
    lev = LevelSequence(thresholds=np.array([0.5, 1.5]))
    [(p_first, rse_first), (p, rse)], _ = replicate_smc(coin_model(), lev, 3, 100,
                                                        PcgStream(707), 10)
    assert 0.0 < rse < math.inf
    assert abs(p - 0.25) <= 3.0 * rse * p
    # the first level's running product is the crude fraction above 0.5
    assert abs(p_first - 0.75) <= 3.0 * rse_first * p_first


def test_model_argument_type_is_checked():
    """Only a compound model splits: a batch sampler has no claims to move."""
    lev = LevelSequence(thresholds=np.array([1.0]))
    for model in ("not a model", gauss_sampler):
        with pytest.raises(TypeError, match="CompoundModel"):
            smc_rare_event(model, lev, 1, 10, PcgStream(1))
        with pytest.raises(TypeError, match="CompoundModel"):
            replicate_smc(model, lev, 1, 10, PcgStream(1), 2)


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
