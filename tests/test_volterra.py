import math

import numpy as np
import pytest
from scipy import stats

from lossmc import (
    BetaProposal,
    BinomialFrequency,
    CompoundModel,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    PathSample,
    PathSamplerConfig,
    PcgStream,
    PointMass,
    PoissonFrequency,
    ProposalSupportError,
    SequenceStream,
    SizeBiasedProposal,
    SupportViolationError,
    TruncationError,
    UniformInterval,
    UnsupportedModelError,
    WeightedParticleMeasure,
    build_volterra_kernel,
    default_absorption,
    estimate_density_grid,
    estimate_measure_interval,
    path_weight,
    quantile_from_measure,
    risk_measures_from_measure,
    simulate_absorbed_path,
)
from lossmc.volterra import INTERVAL, POINTWISE_GRID

from conftest import particle_config, sigma05_model, sigma1_model


def _lognormal_pdf(x, mu=2.0, sigma=0.5):
    return stats.lognorm.pdf(x, sigma, scale=math.exp(mu))


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_poisson_kernel_values():
    kernel = build_volterra_kernel(sigma05_model())
    assert not kernel.gpd_mode
    # k(x, x1) = lam * (x - x1)/x * f_X(x - x1) for the Poisson count
    assert kernel.k(20.0, 12.0) == pytest.approx(2.0 * 0.4 * _lognormal_pdf(8.0),
                                                 rel=1e-12)
    assert kernel.k(20.0, 12.0) == pytest.approx(0.0787877018, rel=1e-8)
    # g(x) = P(N = 1) f_X(x)
    assert kernel.g(12.0) == pytest.approx(2.0 * math.exp(-2.0) * _lognormal_pdf(12.0),
                                           rel=1e-12)
    assert kernel.g(12.0) == pytest.approx(0.0112451344, rel=1e-8)
    # the kernel vanishes off the strictly-decreasing region
    assert kernel.k(20.0, 20.0) == 0.0
    assert kernel.k(20.0, 25.0) == 0.0


def test_generalized_poisson_kernel_values():
    freq = GeneralizedPoissonFrequency(2.0, 0.3)
    model = CompoundModel(freq, LogNormalSeverity(2.0, 0.5))
    kernel = build_volterra_kernel(model)
    assert kernel.gpd_mode
    expected = (2.0 / 2.3) * (0.3 + 2.0 * 0.4) * _lognormal_pdf(8.0)
    assert kernel.k(20.0, 12.0) == pytest.approx(expected, rel=1e-12)
    assert kernel.g(12.0) == pytest.approx(freq.pmf(1) * _lognormal_pdf(12.0),
                                           rel=1e-12)


def test_kernel_rejects_sign_changing_counts():
    with pytest.raises(UnsupportedModelError):
        build_volterra_kernel(CompoundModel(BinomialFrequency(3, 0.4),
                                            LogNormalSeverity(2.0, 0.5)))
    with pytest.raises(UnsupportedModelError):
        build_volterra_kernel(CompoundModel(GeneralizedPoissonFrequency(2.0, -0.2),
                                            LogNormalSeverity(2.0, 0.5)))


# ---------------------------------------------------------------------------
# path mechanics and weights
# ---------------------------------------------------------------------------

def test_path_sample_validation():
    with pytest.raises(ValueError):
        PathSample(states=np.array([20.0, 12.0]), n=2)
    with pytest.raises(ValueError):
        PathSample(states=np.array([12.0, 20.0]), n=1)
    with pytest.raises(ValueError):
        PathSample(states=np.array([12.0, -1.0]), n=1)
    with pytest.raises(ValueError):
        PathSample(states=np.array([20.0]), n=0, weight=-1.0)
    with pytest.raises(ValueError):
        PathSample(states=np.array([20.0]), n=0, weight=float("inf"))


def test_hand_computed_single_step_weight():
    """One forced move 20 -> 12 under a uniform multiplicative proposal."""
    kernel = build_volterra_kernel(sigma05_model())
    cfg = PathSamplerConfig(proposal=BetaProposal(1.0, 1.0), p_d=0.5,
                            initial=PointMass(20.0))
    path = PathSample(states=np.array([20.0, 12.0]), n=1)
    w = path_weight(path, kernel, cfg)
    # q(20, 12) = 1/20; W = k/( (1-pd) q ) * g(12)/pd
    by_hand = kernel.k(20.0, 12.0) / (0.5 * 0.05) * kernel.g(12.0) / 0.5
    assert w == pytest.approx(by_hand, rel=1e-12)
    assert w == pytest.approx(0.0708782638, rel=1e-8)


def test_zero_length_path_weight_is_first_term():
    kernel = build_volterra_kernel(sigma05_model())
    cfg = PathSamplerConfig(proposal=BetaProposal(1.0, 1.0), p_d=0.5,
                            initial=PointMass(20.0))
    path = PathSample(states=np.array([20.0]), n=0)
    assert path_weight(path, kernel, cfg) == pytest.approx(
        kernel.g(20.0) / 0.5, rel=1e-12)


class _UpwardProposal:
    def sample(self, x, stream):
        return np.asarray(x, dtype=float) + 1.0

    def density(self, x, x1):
        return np.ones_like(np.asarray(x, dtype=float))


class _ZeroDensityProposal:
    def sample(self, x, stream):
        return np.asarray(x, dtype=float) / 2.0

    def density(self, x, x1):
        return np.zeros_like(np.asarray(x, dtype=float))


def test_upward_proposal_is_rejected():
    cfg = PathSamplerConfig(proposal=_UpwardProposal(), p_d=0.5,
                            initial=PointMass(20.0))
    with pytest.raises(ProposalSupportError):
        simulate_absorbed_path(cfg, SequenceStream([0.9, 0.9]))


def test_weight_requires_positive_proposal_density():
    kernel = build_volterra_kernel(sigma05_model())
    cfg = PathSamplerConfig(proposal=_ZeroDensityProposal(), p_d=0.5,
                            initial=PointMass(20.0))
    path = PathSample(states=np.array([20.0, 12.0]), n=1)
    with pytest.raises(SupportViolationError):
        path_weight(path, kernel, cfg)


def test_weight_requires_positive_initial_density():
    kernel = build_volterra_kernel(sigma05_model())
    cfg = PathSamplerConfig(proposal=BetaProposal(1.0, 1.0), p_d=0.5,
                            initial=UniformInterval(5.0, 10.0))
    path = PathSample(states=np.array([20.0, 12.0]), n=1)
    with pytest.raises(SupportViolationError):
        path_weight(path, kernel, cfg)


def test_config_and_proposal_validation():
    with pytest.raises(ValueError):
        PathSamplerConfig(proposal=None, p_d=0.0, initial=None)
    with pytest.raises(ValueError):
        PathSamplerConfig(proposal=None, p_d=1.2, initial=None)
    with pytest.raises(ValueError):
        BetaProposal(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformInterval(5.0, 5.0)
    with pytest.raises(ValueError):
        PointMass(0.0)
    with pytest.raises(UnsupportedModelError):
        SizeBiasedProposal(severity="not lognormal")


def test_default_absorption_matches_mean_path_length():
    assert default_absorption(sigma05_model()) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_path_length_is_geometric():
    """At p_d the number of moves is geometric with mean (1-p_d)/p_d."""
    cfg = PathSamplerConfig(proposal=BetaProposal(1.0, 1.0), p_d=0.5,
                            initial=PointMass(20.0))
    rng = PcgStream(2020)
    lengths = np.array([simulate_absorbed_path(cfg, rng).n for _ in range(100_000)])
    se = lengths.std(ddof=1) / math.sqrt(len(lengths))
    assert abs(lengths.mean() - 1.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# density estimates
# ---------------------------------------------------------------------------

ACCUMULATION_RULES = {
    "all_states": dict(use_all_states=True),
    "forced_first_move": dict(use_all_states=False, vr_pointwise=True),
    "endpoint": dict(use_all_states=False, vr_pointwise=False),
}


@pytest.mark.parametrize("rule", ACCUMULATION_RULES)
def test_pointwise_estimator_unbiased_at_benchmark_point(rule):
    """200 independent particle batches average to the recursion density."""
    model = sigma05_model()
    cfg = particle_config(model, **ACCUMULATION_RULES[rule])
    assert cfg.p_d < 1.0
    streams = PcgStream(2121).spawn(200)
    reps = np.array([float(estimate_density_grid(model, [20.0], 1000, cfg, s).weights[0])
                     for s in streams])
    se = reps.std(ddof=1) / math.sqrt(200)
    assert abs(reps.mean() - 0.0246406524) <= 3.0 * se


def test_certain_absorption_reduces_to_first_term():
    model = sigma05_model()
    kernel = build_volterra_kernel(model)
    cfg = particle_config(model, p_d=1.0, use_all_states=False, vr_pointwise=False)
    measure = estimate_density_grid(model, [20.0, 30.0], 50, cfg, PcgStream(8))
    assert measure.weights[0] == pytest.approx(kernel.g(20.0), rel=1e-14)
    assert measure.weights[1] == pytest.approx(kernel.g(30.0), rel=1e-14)
    assert np.all(measure.stderr < 1e-15)
    assert measure.zero_mass == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_grid_requires_positive_points():
    model = sigma05_model()
    with pytest.raises(ValueError):
        estimate_density_grid(model, [0.0, 1.0], 10, particle_config(model),
                              PcgStream(1))


def test_reduced_grid_median_in_benchmark_bracket(sigma05_grid_reduced):
    q = quantile_from_measure(sigma05_grid_reduced, 0.5)
    assert 14.0 <= q <= 16.0


@pytest.mark.xfail(
    strict=True,
    reason="half-cell grid convention lands the 99% quantile one unit-width "
           "cell above the published bracket at converged budgets",
)
def test_full_grid_99_percent_in_published_bracket(sigma1_grid_full):
    q = quantile_from_measure(sigma1_grid_full, 0.99)
    assert 119.0 <= q <= 127.0


# ---------------------------------------------------------------------------
# interval estimates
# ---------------------------------------------------------------------------

def test_interval_with_certain_absorption_recovers_first_term_mass():
    """With p_d = 1 the mean weight is P(N=1) F_X(x_b) exactly in law."""
    model = sigma05_model()
    cfg = particle_config(model, p_d=1.0)
    meas = estimate_measure_interval(model, (0.0, 120.0), 200_000, cfg,
                                     PcgStream(4040))
    p1 = 2.0 * math.exp(-2.0) * float(model.severity.cdf(120.0))
    est = meas.weights.mean()
    se = meas.weights.std(ddof=1) / math.sqrt(200_000)
    assert abs(est - p1) <= 3.0 * se


def test_interval_cdf_hits_deep_benchmark_level():
    model = sigma1_model()
    cfg = particle_config(model)
    meas = estimate_measure_interval(model, (0.0, 400.0), 200_000, cfg,
                                     PcgStream(2828))
    terms = meas.weights * (meas.locations <= 276.0)
    est = math.exp(-2.0) + terms.mean()
    se = terms.std(ddof=1) / math.sqrt(200_000)
    assert abs(est - 0.9995) <= 3.0 * se
    assert meas.cdf(276.0) == pytest.approx(est, rel=1e-12)


def test_interval_validates_endpoints():
    model = sigma05_model()
    cfg = particle_config(model)
    with pytest.raises(ValueError):
        estimate_measure_interval(model, (5.0, 5.0), 10, cfg, PcgStream(1))
    with pytest.raises(ValueError):
        estimate_measure_interval(model, (-1.0, 5.0), 10, cfg, PcgStream(1))


def _assert_grid_matches_interval(interval_cfg):
    """Two independent estimator routes match within combined errors."""
    model = sigma05_model()
    grid = np.arange(0.25, 60.01, 0.25)
    mg = estimate_density_grid(model, grid, 1500, particle_config(model),
                               PcgStream(2929))
    mi = estimate_measure_interval(model, (0.0, 60.0), 300_000,
                                   interval_cfg, PcgStream(3030))
    for z in (20.0, 57.0):
        fg = float(mg.cdf(z))
        keep = mg.locations <= z
        se_g = math.sqrt(np.sum((mg.stderr[keep] * 0.25) ** 2))
        terms = mi.weights * (mi.locations <= z)
        fi = math.exp(-2.0) + terms.mean()
        se_i = terms.std(ddof=1) / math.sqrt(len(terms))
        assert abs(fg - fi) <= 3.0 * math.hypot(se_g, se_i)


def test_grid_and_interval_estimates_agree():
    _assert_grid_matches_interval(particle_config(sigma05_model()))


def test_grid_and_endpoint_interval_estimates_agree():
    """The interval endpoint estimator at p_d < 1 matches the grid."""
    cfg = particle_config(sigma05_model(), use_all_states=False)
    assert cfg.p_d < 1.0
    _assert_grid_matches_interval(cfg)


# ---------------------------------------------------------------------------
# measures and risk functionals
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        WeightedParticleMeasure(locations=np.array([1.0]), weights=np.array([1.0]),
                                mode="histogram")
    with pytest.raises(ValueError):
        WeightedParticleMeasure(locations=np.array([1.0, 2.0]),
                                weights=np.array([1.0]), mode=INTERVAL)
    with pytest.raises(ValueError):
        WeightedParticleMeasure(locations=np.array([1.0]), weights=np.array([-1.0]),
                                mode=INTERVAL)


def test_single_atom_measure_quantile_and_risk():
    meas = WeightedParticleMeasure(locations=np.array([5.0]),
                                   weights=np.array([1.0]),
                                   mode=INTERVAL, n_paths=1)
    assert quantile_from_measure(meas, 0.7) == 5.0
    var, es, srm = risk_measures_from_measure(meas, 0.5)
    assert (var, es, srm) == (5.0, 5.0, None)
    with pytest.raises(ValueError):
        quantile_from_measure(meas, 0.0)
    with pytest.raises(ValueError):
        quantile_from_measure(meas, 1.0001)


def test_interval_atoms_include_zero_mass():
    meas = WeightedParticleMeasure(locations=np.array([5.0, 2.0]),
                                   weights=np.array([0.4, 0.2]),
                                   mode=INTERVAL, zero_mass=0.1, n_paths=2)
    locs, w = meas.probability_atoms()
    assert np.array_equal(locs, [0.0, 2.0, 5.0])
    assert np.allclose(w, [0.1, 0.1, 0.2])
    assert meas.cdf(1.9) == pytest.approx(0.1)
    assert meas.cdf(5.0) == pytest.approx(0.4)
    assert quantile_from_measure(meas, 0.15) == 2.0
    with pytest.raises(TruncationError):
        quantile_from_measure(meas, 0.9)


def test_short_grid_cannot_answer_deep_quantiles():
    model = sigma05_model()
    grid = np.arange(1.0, 31.0, 1.0)
    meas = estimate_density_grid(model, grid, 200, particle_config(model),
                                 PcgStream(17))
    with pytest.raises(TruncationError):
        quantile_from_measure(meas, 0.9995)


def test_grid_spectral_mean_matches_model(sigma05_grid_full):
    """phi == 1 turns the spectral measure into the plain mean."""
    _, _, srm = risk_measures_from_measure(sigma05_grid_full, 0.5,
                                           phi=lambda p: np.ones_like(p))
    mean_ref = 2.0 * math.exp(2.125)
    se = math.sqrt(np.sum(((sigma05_grid_full.locations - srm)
                           * sigma05_grid_full.stderr) ** 2))
    assert abs(srm - mean_ref) <= 3.0 * se


def test_interval_expected_shortfall_matches_recursion(sigma05_pmf):
    model = sigma05_model()
    cfg = particle_config(model)
    meas = estimate_measure_interval(model, (0.0, 120.0), 400_000, cfg,
                                     PcgStream(4141))
    var, es, _ = risk_measures_from_measure(meas, 0.99)
    grid, masses = sigma05_pmf.grid(), sigma05_pmf.masses
    tail = grid >= var
    ref = float(np.dot(grid[tail], masses[tail]) / masses[tail].sum())
    x, w = meas.locations, meas.weights
    sel = x >= var
    se = math.sqrt(np.sum((w[sel] * (x[sel] - es)) ** 2)) / w[sel].sum()
    assert abs(es - ref) <= 3.0 * se


def test_measure_csv_round_trip(tmp_path):
    import csv

    grid_meas = WeightedParticleMeasure(
        locations=np.array([1.0, 2.0]), weights=np.array([0.3, 0.1]),
        mode=POINTWISE_GRID, stderr=np.array([0.01, 0.02]), zero_mass=0.2)
    p1 = tmp_path / "grid.csv"
    grid_meas.to_csv(p1)
    with open(p1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "density", "stderr"]
    assert [float(r[1]) for r in rows[1:]] == [0.3, 0.1]

    int_meas = WeightedParticleMeasure(
        locations=np.array([5.0, 2.0]), weights=np.array([0.4, 0.2]),
        mode=INTERVAL, zero_mass=0.1, n_paths=2)
    p2 = tmp_path / "interval.csv"
    int_meas.to_csv(p2)
    with open(p2, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "weight", "cumulative"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 2.0, 5.0]
    cum = [float(r[2]) for r in rows[1:]]
    assert cum == sorted(cum)
    assert cum[-1] == pytest.approx(0.4)
