"""End-to-end acceptance checks for the benchmark table and estimator laws.

Each test function carries the criterion number it certifies, so a verbose
run reads as a scoreboard: one pass/fail line per criterion (criteria with
independent sub-claims get one line per sub-claim).  Expensive inputs (the
5e6-draw Monte Carlo batches, the full-budget particle grids, the fine-step
recursion pmf) come from the session fixtures in conftest.py.

The two full-budget particle rows at the 99% level are marked strict-xfail:
the point estimate lands just above the printed bracket at both benchmark
parameterizations, but the recursion oracle gives 57.20 and 129.47 there,
so the grid is right and it is the printed brackets that disagree.
"""
import math

import numpy as np
import pytest

from lossmc import (
    LevelSequence,
    LogNormalSeverity,
    ParetoSeverity,
    PcgStream,
    empirical_quantile_ci,
    estimate_density_grid,
    norm_sf,
    oracle_compound_pmf,
    quantile_from_measure,
    second_order_constants,
    sla_var_first_order,
    smc_rare_event,
    subexp_tail_ratio,
    tail_probability_mc,
)

from conftest import (
    QUANTILE_LEVELS,
    gauss_sampler,
    oracle_tail,
    particle_config,
    restricted_matrix,
    rw_mutation,
    sigma05_model,
    sigma1_model,
    tv_decay,
    twisted_estimate,
)


# Printed benchmark columns (levels 0.5 .. 0.9995, the 0.999 row standing in
# for the mislabelled 99.5% row of the source table).
SLA_FLOORS = {
    "sigma05": (10, 14, 16, 19, 26, 38, 42),
    "sigma1": (14, 26, 38, 52, 97, 198, 240),
}
MC_PRINTED = {
    "sigma05": (14, 27, 35, 42, 57, 77, 83),
    "sigma1": (16, 39, 57, 77, 129, 234, 276),
}
PARTICLE_BRACKETS = {
    "sigma05": ((14, 16), (26, 28), (31, 35), (38, 43), (54, 56), (68, 79), (73, 91)),
    "sigma1": ((13, 17), (39, 43), (52, 59), (70, 79), (119, 127), (218, 240), (261, 282)),
}


# ---------------------------------------------------------------------------
# criterion 1: closed-form approximation column
# ---------------------------------------------------------------------------

def test_criterion_1_sla_column_matches_printed_integers():
    for model, floors in ((sigma05_model(), SLA_FLOORS["sigma05"]),
                          (sigma1_model(), SLA_FLOORS["sigma1"])):
        got = tuple(math.floor(sla_var_first_order(model, a))
                    for a in QUANTILE_LEVELS)
        assert got == floors


# ---------------------------------------------------------------------------
# criterion 2: Monte Carlo column at desk scale (T = 5e6)
# ---------------------------------------------------------------------------

def test_criterion_2_mc_column_sigma05(sigma05_batch, sigma05_pmf):
    qs = [empirical_quantile_ci(sigma05_batch, a, 0.95)[0]
          for a in QUANTILE_LEVELS]
    for q, printed in zip(qs, MC_PRINTED["sigma05"]):
        assert abs(q - printed) <= 2.0
    assert 56.0 <= qs[4] <= 58.0
    # the 99% row's tail is the oracle's P(Z > 57) = 0.010226, not 0.01
    est, var = tail_probability_mc(sigma05_batch, 57.0)
    assert abs(est - oracle_tail(sigma05_pmf, 57.0)) <= 3.0 * math.sqrt(var)


def test_criterion_2_mc_column_sigma1(sigma1_batch):
    qs = [empirical_quantile_ci(sigma1_batch, a, 0.95)[0]
          for a in QUANTILE_LEVELS]
    for q, printed in zip(qs, MC_PRINTED["sigma1"]):
        assert abs(q - printed) <= 2.0
    assert 273.0 <= qs[6] <= 279.0


# ---------------------------------------------------------------------------
# criterion 3: particle column, full and reduced budgets
# ---------------------------------------------------------------------------

def _grid_quantiles(measure):
    return [quantile_from_measure(measure, a) for a in QUANTILE_LEVELS]


def test_criterion_3_particle_full_budget_sigma05(sigma05_grid_full):
    qs = _grid_quantiles(sigma05_grid_full)
    brackets = PARTICLE_BRACKETS["sigma05"]
    for row in (0, 1, 2, 3, 5, 6):
        lo, hi = brackets[row]
        assert lo <= qs[row] <= hi


def test_criterion_3_particle_full_budget_sigma1(sigma1_grid_full):
    qs = _grid_quantiles(sigma1_grid_full)
    brackets = PARTICLE_BRACKETS["sigma1"]
    for row in (0, 1, 2, 3, 5, 6):
        lo, hi = brackets[row]
        assert lo <= qs[row] <= hi


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's 99% quantile is 57.20, so the grid's 57 is right "
           "and the printed bracket [54, 56] disagrees",
)
def test_criterion_3_particle_99_row_sigma05(sigma05_grid_full):
    q = quantile_from_measure(sigma05_grid_full, 0.99)
    assert 54.0 <= q <= 56.0


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's 99% quantile is 129.47, so the grid's estimate "
           "is right and the printed bracket [119, 127] disagrees",
)
def test_criterion_3_particle_99_row_sigma1(sigma1_grid_full):
    q = quantile_from_measure(sigma1_grid_full, 0.99)
    assert 119.0 <= q <= 127.0


def test_criterion_3_particle_reduced_budget_sigma05(sigma05_grid_reduced):
    qs = _grid_quantiles(sigma05_grid_reduced)
    for q, (lo, hi) in zip(qs, PARTICLE_BRACKETS["sigma05"]):
        assert lo - 2.0 <= q <= hi + 2.0


def test_criterion_3_particle_reduced_budget_sigma1(sigma1_grid_reduced):
    qs = _grid_quantiles(sigma1_grid_reduced)
    for q, (lo, hi) in zip(qs, PARTICLE_BRACKETS["sigma1"]):
        assert lo - 2.0 <= q <= hi + 2.0


# ---------------------------------------------------------------------------
# criterion 4: particle density agrees with the recursion oracle
# ---------------------------------------------------------------------------

def test_criterion_4_particle_matches_recursion_oracle(sigma05_pmf):
    model = sigma05_model()
    dens = sigma05_pmf.density()
    cfg = particle_config(model)
    root = PcgStream(1313)
    for x0 in (10.0, 20.0, 40.0):
        truth = float(dens[round(x0 / sigma05_pmf.step)])
        streams = root.spawn(200)
        reps = np.array([
            float(estimate_density_grid(model, [x0], 1000, cfg,
                                        streams[r]).weights[0])
            for r in range(200)])
        se = reps.std(ddof=1) / math.sqrt(200)
        assert abs(reps.mean() - truth) <= 3.0 * se


# ---------------------------------------------------------------------------
# criterion 5: unbiasedness and 1/N variance scaling for both engines
# ---------------------------------------------------------------------------

def test_criterion_5_particle_density_bias_and_variance_slope(sigma05_pmf):
    model = sigma05_model()
    truth = float(sigma05_pmf.density()[round(20.0 / sigma05_pmf.step)])
    cfg = particle_config(model)
    root = PcgStream(1414)
    x0, R = 20.0, 200
    sizes = (100, 1000, 10000)
    variances = []
    for N in sizes:
        streams = root.spawn(R)
        reps = np.array([
            float(estimate_density_grid(model, [x0], N, cfg,
                                        streams[r]).weights[0])
            for r in range(R)])
        se = reps.std(ddof=1) / math.sqrt(R)
        variances.append(reps.var(ddof=1))
        assert abs(reps.mean() - truth) <= 3.0 * se
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_criterion_5_splitting_bias_and_variance_slope():
    truth = float(norm_sf(2.0))
    levels = LevelSequence(thresholds=np.array([1.0, 2.0]))
    mutate = rw_mutation(1.0)
    root = PcgStream(1515)
    R = 200
    sizes = (250, 1000, 4000)
    variances = []
    for N in sizes:
        streams = root.spawn(R)
        reps = np.array([
            smc_rare_event(gauss_sampler, levels, 5, N, streams[r],
                           mutation=mutate).estimate
            for r in range(R)])
        se = reps.std(ddof=1) / math.sqrt(R)
        variances.append(reps.var(ddof=1))
        assert abs(reps.mean() - truth) <= 3.0 * se
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) <= 0.15


# ---------------------------------------------------------------------------
# criterion 6: rare-event engine accuracy and efficiency
# ---------------------------------------------------------------------------

def test_criterion_6_gaussian_tail_level_product():
    truth = 1.3499e-3
    levels = LevelSequence(thresholds=np.array([1.0, 2.0, 3.0]))
    mutate = rw_mutation(1.0)
    streams = PcgStream(1616).spawn(20)
    reps = np.array([
        smc_rare_event(gauss_sampler, levels, 5, 10_000, streams[r],
                       mutation=mutate).estimate
        for r in range(20)])
    se = reps.std(ddof=1) / math.sqrt(20)
    assert abs(reps.mean() - truth) <= 3.0 * se


def test_criterion_6_splitting_beats_crude_at_equal_budget():
    truth = float(norm_sf(4.75))
    thresholds = np.array([1.2816, 2.3263, 3.0902, 3.7190, 4.2649, 4.75])
    levels = LevelSequence(thresholds=thresholds)
    N, steps, n_rep = 20_000, 5, 10
    mutate = rw_mutation(1.0)
    streams = PcgStream(1717).spawn(n_rep)
    vals = np.array([
        smc_rare_event(gauss_sampler, levels, steps, N, streams[r],
                       mutation=mutate).estimate
        for r in range(n_rep)])
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(n_rep)
    assert abs(mean - truth) <= 3.0 * se
    rse_split = se / mean
    # a crude sampler spending the same total number of particle moves
    budget = n_rep * N * (1 + len(thresholds) * steps)
    rse_crude = math.sqrt((1.0 - mean) / (mean * budget))
    assert rse_crude >= 10.0 * rse_split


# ---------------------------------------------------------------------------
# criterion 7: exact conditional twist has zero weight variance
# ---------------------------------------------------------------------------

def test_criterion_7_conditional_twist_zero_variance():
    """Sampling {X >= 6} of the uniform law on 0..7 itself, with the exact
    ratio 1/4, leaves nothing random."""

    def cond_sampler(size, rng):
        return 6.0 + np.ceil(rng.uniforms(size) * 2.0) - 1.0

    est, var = twisted_estimate(cond_sampler, lambda y: np.full_like(y, 0.25),
                                lambda y: y >= 6.0, 1000, PcgStream(1001))
    assert est == 0.25
    assert var == 0.0


# ---------------------------------------------------------------------------
# criterion 8: restricted-chain certificates on the 3-state toy
# ---------------------------------------------------------------------------

def test_criterion_8_restricted_chain_certificates():
    K = np.full((3, 3), 1.0 / 3.0)
    M = restricted_matrix(K, np.array([True, True, False]))
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 2 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(M, expected, atol=1e-15)
    # confinement: states inside the target set place no mass outside
    assert M[0, 2] == 0.0 and M[1, 2] == 0.0

    eta = np.array([0.5, 0.5, 0.0])
    # stationarity residual <= 1e-12 is enforced inside the check itself
    eps, tv, bound = tv_decay(M, eta, 50)
    assert eps == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.all(tv <= bound + 1e-12)

    dist = eta.copy()
    for _ in range(50):
        dist = dist @ M
        assert dist[2] == 0.0


# ---------------------------------------------------------------------------
# criterion 9: heavy-tail diagnostics
# ---------------------------------------------------------------------------

def test_criterion_9_convolution_tail_ratios():
    assert subexp_tail_ratio(ParetoSeverity(a=2.0, s=1.0),
                             1000.0) == pytest.approx(2.0, abs=0.01)
    sev = LogNormalSeverity(2.0, 0.5)
    vals = [subexp_tail_ratio(sev, x)
            for x in (50.0, 100.0, 200.0, 300.0, 400.0, 500.0)]
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(np.asarray(vals) > 2.0)


def test_criterion_9_second_order_limit_trend():
    model = sigma05_model()
    sev = model.severity
    _, _, limit = second_order_constants(model)
    pmf = oracle_compound_pmf(model, step=0.05, x_max=1400.0)
    # sum the tail from the right: 1 - cumsum loses the deep tail to rounding
    tail = np.cumsum(pmf.masses[::-1])[::-1]
    ratios = []
    for x in (100.0, 200.0, 400.0, 800.0):
        tail_z = float(tail[round(x / pmf.step) + 1])
        ratios.append((tail_z - 2.0 * float(sev.sf(x))) / float(sev.pdf(x)))
    assert np.all(np.asarray(ratios) > limit)
    assert np.all(np.diff(ratios) < 0.0)
