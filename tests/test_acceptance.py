"""End-to-end acceptance checks for the benchmark table and estimator laws.

Each test function carries the criterion number it certifies, so a verbose
run reads as a scoreboard: one pass/fail line per criterion (criteria with
independent sub-claims get one line per sub-claim).  Expensive inputs (the
5e6-draw Monte Carlo batches, the full-budget particle grids, the fine-step
recursion pmf) come from the session fixtures in conftest.py.

The two full-budget particle rows at the 99% level are marked strict-xfail:
the point estimate, read linearly between grid points, lands above the
printed bracket at both benchmark parameterizations, within one SE of the
recursion oracle's 57.20 and 129.47, so the grid is right and it is the
printed brackets that disagree.
"""
import math

import numpy as np
import pytest

from lossmc import (
    LevelSequence,
    LogNormalSeverity,
    ParetoSeverity,
    PcgStream,
    default_absorption,
    empirical_quantile_ci,
    estimate_density_grid,
    oracle_compound_pmf,
    oracle_tail_stats,
    quantile_from_measure,
    sla_var_first_order,
    smc_rare_event,
)

from conftest import (
    QUANTILE_LEVELS,
    lattice_density,
    oracle_tail,
    restricted_matrix,
    sigma05_model,
    sigma1_model,
    subexp_tail_ratio,
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
    qs = [q for q, _, _ in empirical_quantile_ci(sigma05_batch, QUANTILE_LEVELS, 0.95)]
    for q, printed in zip(qs, MC_PRINTED["sigma05"]):
        assert abs(q - printed) <= 2.0
    assert 56.0 <= qs[4] <= 58.0
    # the 99% row's tail is the oracle's P(Z > 57) = 0.010226, not 0.01
    est = np.mean(sigma05_batch.values > 57.0)
    se = math.sqrt(est * (1.0 - est) / sigma05_batch.count)
    assert abs(est - oracle_tail(sigma05_pmf, 57.0)) <= 3.0 * se


def test_criterion_2_mc_column_sigma1(sigma1_batch):
    qs = [q for q, _, _ in empirical_quantile_ci(sigma1_batch, QUANTILE_LEVELS, 0.95)]
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
    reason="the oracle's 99% quantile is 57.20 and the grid's linear read "
           "57.19 matches it, so the printed bracket [54, 56] disagrees",
)
def test_criterion_3_particle_99_row_sigma05(sigma05_grid_full):
    q = quantile_from_measure(sigma05_grid_full, 0.99)
    assert 54.0 <= q <= 56.0


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's 99% quantile is 129.47 and the grid's linear read "
           "129.45 matches it, so the printed bracket [119, 127] disagrees",
)
def test_criterion_3_particle_99_row_sigma1(sigma1_grid_full):
    q = quantile_from_measure(sigma1_grid_full, 0.99)
    assert 119.0 <= q <= 127.0


def test_criterion_3_particle_reduced_budget_sigma05(sigma05_grid_reduced):
    qs = _grid_quantiles(sigma05_grid_reduced)
    for q, (lo, hi) in zip(qs, PARTICLE_BRACKETS["sigma05"]):
        assert lo - 2.0 <= q <= hi + 2.0


def test_criterion_3_particle_reduced_budget_sigma1(sigma1_grid_reduced):
    """The 99 % row is checked against the oracle, as at full budget: its
    quantile 129.47 lies 0.03 below the cell edge 129.5, so a correct
    reading is 129 or 130, and the printed bracket plus 2 stops at 129."""
    qs = _grid_quantiles(sigma1_grid_reduced)
    brackets = PARTICLE_BRACKETS["sigma1"]
    for row in (0, 1, 2, 3, 5, 6):
        lo, hi = brackets[row]
        assert lo - 2.0 <= qs[row] <= hi + 2.0
    pmf = oracle_compound_pmf(sigma1_model(), step=0.01, x_max=400.0)
    oracle_q = oracle_tail_stats(pmf, [0.99])[0][0]
    assert abs(oracle_q - 129.47) <= 0.01
    assert abs(qs[4] - oracle_q) <= 1.0


# ---------------------------------------------------------------------------
# criterion 4: particle density agrees with the recursion oracle
# ---------------------------------------------------------------------------

def test_criterion_4_particle_matches_recursion_oracle(sigma05_pmf):
    model = sigma05_model()
    dens = lattice_density(sigma05_pmf)
    p_d = default_absorption(model)
    root = PcgStream(1313)
    for x0 in (10.0, 20.0, 40.0):
        truth = float(dens[round(x0 / sigma05_pmf.step)])
        streams = root.spawn(200)
        reps = np.array([
            float(estimate_density_grid(model, [x0], 1000, p_d,
                                        streams[r]).weights[0])
            for r in range(200)])
        se = reps.std(ddof=1) / math.sqrt(200)
        assert abs(reps.mean() - truth) <= 3.0 * se


# ---------------------------------------------------------------------------
# criterion 5: unbiasedness and 1/N variance scaling for both engines
# ---------------------------------------------------------------------------

def test_criterion_5_particle_density_bias_and_variance_slope(sigma05_pmf):
    model = sigma05_model()
    truth = float(lattice_density(sigma05_pmf)[round(20.0 / sigma05_pmf.step)])
    p_d = default_absorption(model)
    root = PcgStream(1414)
    x0, R = 20.0, 200
    sizes = (100, 1000, 10000)
    variances = []
    for N in sizes:
        streams = root.spawn(R)
        reps = np.array([
            float(estimate_density_grid(model, [x0], N, p_d,
                                        streams[r]).weights[0])
            for r in range(R)])
        se = reps.std(ddof=1) / math.sqrt(R)
        variances.append(reps.var(ddof=1))
        assert abs(reps.mean() - truth) <= 3.0 * se
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_criterion_5_splitting_bias_and_variance_slope(sigma05_pmf):
    model = sigma05_model()
    truth = oracle_tail(sigma05_pmf, 40.0)
    levels = LevelSequence(thresholds=np.array([20.0, 40.0]))
    root = PcgStream(1515)
    R = 200
    sizes = (250, 1000, 4000)
    variances = []
    for N in sizes:
        streams = root.spawn(R)
        reps = np.array([
            smc_rare_event(model, levels, 5, N, streams[r]).estimate
            for r in range(R)])
        se = reps.std(ddof=1) / math.sqrt(R)
        variances.append(reps.var(ddof=1))
        assert abs(reps.mean() - truth) <= 3.0 * se
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) <= 0.15


# ---------------------------------------------------------------------------
# criterion 6: rare-event engine accuracy and efficiency
# ---------------------------------------------------------------------------

def test_criterion_6_compound_tail_level_product(sigma1_pmf):
    """The benchmark ladder 100/200/300 at sigma = 1: P(Z > 300) = 1.4e-3."""
    truth = oracle_tail(sigma1_pmf, 300.0)
    levels = LevelSequence(thresholds=np.array([100.0, 200.0, 300.0]))
    streams = PcgStream(1616).spawn(20)
    reps = np.array([
        smc_rare_event(sigma1_model(), levels, 5, 10_000, streams[r]).estimate
        for r in range(20)])
    se = reps.std(ddof=1) / math.sqrt(20)
    assert abs(reps.mean() - truth) <= 3.0 * se


def test_criterion_6_splitting_beats_crude_at_equal_budget(sigma1_pmf):
    """P(Z > 1200) = 4.0e-7 at sigma = 1, nine levels deep."""
    truth = oracle_tail(sigma1_pmf, 1200.0)
    thresholds = np.array([100, 200, 300, 400, 500, 600, 800, 1000, 1200], dtype=float)
    levels = LevelSequence(thresholds=thresholds)
    N, steps, n_rep = 2000, 5, 10
    streams = PcgStream(1717).spawn(n_rep)
    vals = np.array([
        smc_rare_event(sigma1_model(), levels, steps, N, streams[r]).estimate
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
    limit = sev.mean() * model.frequency.factorial_moment2()
    pmf = oracle_compound_pmf(model, step=0.05, x_max=1400.0)
    # sum the tail from the right: 1 - cumsum loses the deep tail to rounding
    tail = np.cumsum(pmf.masses[::-1])[::-1]
    ratios = []
    for x in (100.0, 200.0, 400.0, 800.0):
        tail_z = float(tail[round(x / pmf.step) + 1])
        ratios.append((tail_z - 2.0 * float(sev.sf(x))) / float(sev.pdf(x)))
    assert np.all(np.asarray(ratios) > limit)
    assert np.all(np.diff(ratios) < 0.0)
