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
    NegativeBinomialFrequency,
    PathSamplerConfig,
    PcgStream,
    PoissonFrequency,
    ProposalSupportError,
    SequenceStream,
    SizeBiasedProposal,
    SupportViolationError,
    TruncationError,
    UniformStream,
    UnsupportedModelError,
    WeightedParticleMeasure,
    build_volterra_kernel,
    default_absorption,
    estimate_density_grid,
    estimate_measure_interval,
    oracle_compound_pmf,
    quantile_from_measure,
    risk_measures_from_measure,
)
from lossmc.volterra import _BLOCK_PARTICLES, _DEAD_FLOOR, INTERVAL, _checked_move

from conftest import particle_config, sigma05_model, sigma1_model


def _lognormal_pdf(x, mu=2.0, sigma=0.5):
    return stats.lognorm.pdf(x, sigma, scale=math.exp(mu))


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_poisson_kernel_values():
    kernel = build_volterra_kernel(sigma05_model())
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


def test_kernel_rejects_generalized_poisson():
    """Its pmf recursion shifts the rate, p_n(lam) ~ p_{n-1}(lam + theta),
    so no single-function Volterra equation holds for any theta."""
    for theta in (0.3, 0.0, -0.2):
        with pytest.raises(UnsupportedModelError):
            build_volterra_kernel(CompoundModel(GeneralizedPoissonFrequency(2.0, theta),
                                                LogNormalSeverity(2.0, 0.5)))


def test_kernel_rejects_sign_changing_counts():
    with pytest.raises(UnsupportedModelError):
        build_volterra_kernel(CompoundModel(BinomialFrequency(3, 0.4),
                                            LogNormalSeverity(2.0, 0.5)))


# ---------------------------------------------------------------------------
# path mechanics and weights
# ---------------------------------------------------------------------------

def _path_weight(proposal, draws):
    """Density estimate of one path from x0 = 20 on the sigma = 0.5 model
    at p_d = 0.5, drawing its uniforms from ``draws``."""
    cfg = PathSamplerConfig(proposal=proposal, p_d=0.5)
    measure = estimate_density_grid(sigma05_model(), [20.0], 1, cfg, SequenceStream(draws))
    return float(measure.weights[0])


def test_hand_computed_single_step_weight():
    """Move 20 -> 12 under a uniform multiplicative proposal, then absorb."""
    kernel = build_volterra_kernel(sigma05_model())
    w = _path_weight(BetaProposal(1.0, 1.0), [0.9, 0.6, 0.1])
    # q(20, 12) = 1/20; W = g(20) + k/((1-pd) q) * g(12), a term per visited state
    by_hand = kernel.g(20.0) + kernel.k(20.0, 12.0) / (0.5 * 0.05) * kernel.g(12.0)
    assert w == pytest.approx(by_hand, rel=1e-12)
    # 0.00148648357 + 0.0787877018 / 0.025 * 0.0112451344
    assert w == pytest.approx(0.0369256155, rel=1e-8)


def test_zero_length_path_weight_is_first_term():
    kernel = build_volterra_kernel(sigma05_model())
    w = _path_weight(BetaProposal(1.0, 1.0), [0.1])
    assert w == pytest.approx(kernel.g(20.0), rel=1e-12)
    assert w == pytest.approx(2.0 * math.exp(-2.0) * _lognormal_pdf(20.0), rel=1e-12)
    assert w == pytest.approx(0.00148648357, rel=1e-8)


class _UpwardProposal:
    def move(self, x, u, kernel, mass):
        x = np.asarray(x, dtype=float)
        return x + 1.0, np.ones_like(x)


class _ZeroDensityProposal:
    """Moves to x/2 where its density q is zero, and forms k / (mass q)
    without zeroing the ratio there."""

    def move(self, x, u, kernel, mass):
        x1 = np.asarray(x, dtype=float) / 2.0
        with np.errstate(divide="ignore"):
            return x1, kernel.k(x, x1) / (mass * np.zeros_like(x1))


class _FixedMove:
    """Moves every state to ``frac * x`` with the weight ratio ``ratio``."""

    def __init__(self, frac, ratio):
        self.frac, self.ratio = frac, ratio

    def move(self, x, u, kernel, mass):
        x = np.asarray(x, dtype=float)
        return self.frac * x, np.full_like(x, self.ratio)


def _assert_every_route_raises(proposal, error):
    """The first move raises ``error`` on both estimator routes: a grid
    point and an interval path."""
    draws = [0.9, 0.6, 0.1]
    with pytest.raises(error):
        _path_weight(proposal, draws)
    cfg = PathSamplerConfig(proposal=proposal, p_d=0.5)
    with pytest.raises(error):
        estimate_measure_interval(sigma05_model(), (0.0, 40.0), 1, cfg,
                                  SequenceStream([0.5, *draws]))


def test_upward_proposal_is_rejected():
    _assert_every_route_raises(_UpwardProposal(), ProposalSupportError)


def test_weight_requires_positive_proposal_density():
    _assert_every_route_raises(_ZeroDensityProposal(), SupportViolationError)


@pytest.mark.parametrize("frac,ratio,error", [
    (math.nan, 1.0, ProposalSupportError),
    (-0.5, 1.0, ProposalSupportError),
    (math.nan, math.nan, ProposalSupportError),
    (0.5, -1.0, SupportViolationError),
    (0.5, math.nan, SupportViolationError),
    (0.5, math.inf, SupportViolationError),
], ids=["nan-state", "negative-state", "nan-both", "negative-ratio", "nan-ratio",
        "inf-ratio"])
def test_support_check_classifies_the_fault(frac, ratio, error):
    """A bad state is a support fault whatever its ratio; only a state in
    [0, x] with a negative or non-finite ratio is a density fault."""
    _assert_every_route_raises(_FixedMove(frac, ratio), error)


def test_moves_to_either_end_with_zero_ratio_pass_the_check():
    """The library proposals reach x1 = 0 and x1 = x, where q vanishes,
    with ratio 0; the path then stops, keeping only its first term g(20)."""
    kernel = build_volterra_kernel(sigma05_model())
    x = np.array([20.0, 20.0])
    x1, ratio = _checked_move(BetaProposal(1.0, 1.0), x, np.array([0.0, 1.0]), kernel, 0.5)
    assert np.array_equal(x1, [0.0, 20.0]) and np.array_equal(ratio, [0.0, 0.0])
    assert _path_weight(BetaProposal(1.0, 1.0), [0.9, 0.0]) == kernel.g(20.0)
    assert _path_weight(BetaProposal(1.0, 1.0), [0.9, 1.0]) == kernel.g(20.0)


def test_config_and_proposal_validation():
    with pytest.raises(ValueError):
        PathSamplerConfig(proposal=None, p_d=0.0)
    with pytest.raises(ValueError):
        PathSamplerConfig(proposal=None, p_d=1.2)
    with pytest.raises(ValueError):
        BetaProposal(0.0, 1.0)
    with pytest.raises(UnsupportedModelError):
        SizeBiasedProposal(severity="not lognormal")


def test_default_absorption_matches_mean_path_length():
    assert default_absorption(sigma05_model()) == pytest.approx(1.0 / 3.0, abs=1e-15)


class _CountingStream(UniformStream):
    """Passes ``inner``'s uniforms through, counting them."""

    def __init__(self, inner):
        self.inner, self.drawn = inner, 0

    def uniforms(self, n):
        self.drawn += n
        return self.inner.uniforms(n)


def test_path_length_is_geometric():
    """At p_d the number of moves is geometric with mean (1-p_d)/p_d.

    A path draws one uniform per absorb-or-move step and one per move,
    1 + 2 moves in all, so the mean number of moves is (drawn / n - 1) / 2;
    its standard error is sqrt(2 / n) at p_d = 0.5.
    """
    n = 100_000
    cfg = PathSamplerConfig(proposal=BetaProposal(1.0, 1.0), p_d=0.5)
    rng = _CountingStream(PcgStream(2020))
    estimate_density_grid(sigma05_model(), [20.0], n, cfg, rng)
    moves = (rng.drawn / n - 1.0) / 2.0
    assert abs(moves - 1.0) <= 3.0 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("frequency", [
    PoissonFrequency(2.0),                   # a = 0
    NegativeBinomialFrequency(2.0, 1.5),     # a > 0
], ids=["poisson", "negbinomial"])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_size_biased_move_ratio_matches_kernel_over_density(frequency, sigma):
    """The closed-form ratio of the fused move is k / ((1 - p_d) q)."""
    model = CompoundModel(frequency, LogNormalSeverity(2.0, sigma))
    kernel = build_volterra_kernel(model)
    proposal = SizeBiasedProposal(model.severity)
    mass = 1.0 - default_absorption(model)
    xs = np.geomspace(1e-3, 400.0, 60)
    # u = 1 draws the largest decrement, which is capped at x for some x
    us = np.array([1e-12, 1e-6, 0.01, 0.3, 0.7, 0.999999, 1.0])
    x, u = (a.ravel() for a in np.meshgrid(xs, us))
    x1, ratio = proposal.move(x, u, kernel, mass)
    assert np.array_equal(x1, proposal.sample(x, u))
    ref = kernel.k(x, x1) / (mass * proposal.density(x, x1))
    assert np.all(ref > 0.0) and np.all(np.isfinite(ratio))
    assert np.allclose(ratio, ref, rtol=1e-12, atol=0.0)
    assert np.any(x1 == 0.0)
    assert np.array_equal(_checked_move(proposal, x, u, kernel, mass)[1], ratio)


# ---------------------------------------------------------------------------
# density estimates
# ---------------------------------------------------------------------------

def test_pointwise_estimator_unbiased_at_benchmark_point():
    """200 independent particle batches average to the recursion density."""
    model = sigma05_model()
    cfg = particle_config(model)
    assert cfg.p_d < 1.0
    streams = PcgStream(2121).spawn(200)
    reps = np.array([float(estimate_density_grid(model, [20.0], 1000, cfg, s).weights[0])
                     for s in streams])
    se = reps.std(ddof=1) / math.sqrt(200)
    assert abs(reps.mean() - 0.0246406524) <= 3.0 * se


@pytest.mark.parametrize("frequency", [
    PoissonFrequency(2.0),
    NegativeBinomialFrequency(2.0, 1.0),
    GeneralizedPoissonFrequency(2.0, 0.3),
], ids=["poisson", "negbinomial", "genpoisson"])
def test_particle_density_matches_oracle(frequency):
    """sigma = 1: every count law the route accepts matches the transform
    oracle within 4 SE at 5, 20, 60 and 150; the generalized Poisson,
    which it would get wrong, is rejected."""
    model = CompoundModel(frequency, LogNormalSeverity(2.0, 1.0))
    xs = np.array([5.0, 20.0, 60.0, 150.0])
    cfg = particle_config(model)
    if frequency.kind == "genpoisson":
        with pytest.raises(UnsupportedModelError):
            estimate_density_grid(model, xs, 10, cfg, PcgStream(11))
        return
    measure = estimate_density_grid(model, xs, 200_000, cfg, PcgStream(11))
    pmf = oracle_compound_pmf(model, step=0.01, x_max=1500.0)
    ref = pmf.density()[np.rint(xs / pmf.step).astype(int)]
    assert np.all(np.abs(measure.weights - ref) <= 4.0 * measure.stderr)


def _single_point_contributions(x0, n, kernel, cfg, stream):
    """Loop reference: one grid point's particles alone on ``stream``."""
    pd = cfg.p_d
    x, w = np.full(n, x0), np.ones(n)
    acc = np.full(n, kernel.g(x0))
    active = np.flatnonzero((w > 0.0) & (x > _DEAD_FLOOR))
    while active.size:
        active = active[stream.uniforms(active.size) > pd]
        if not active.size:
            break
        x1, ratio = cfg.proposal.move(x[active], stream.uniforms(active.size),
                                      kernel, 1.0 - pd)
        w[active] *= ratio
        x[active] = x1
        acc[active] += w[active] * kernel.g(x1)
        active = active[(w[active] > 0.0) & (x[active] > _DEAD_FLOOR)]
    return acc


def _single_point_grid(model, grid, n, cfg, streams):
    kernel = build_volterra_kernel(model)
    contrib = [_single_point_contributions(x0, n, kernel, cfg, s)
               for x0, s in zip(grid, streams)]
    return (np.array([c.mean() for c in contrib]),
            np.array([c.std(ddof=1) / math.sqrt(n) for c in contrib]))


@pytest.mark.parametrize("proposal", ["beta", "sizebias"])
def test_grid_blocks_match_single_points(proposal):
    """Blocks of grid points give the estimates of one point at a time,
    each on its own spawned substream."""
    model = sigma1_model()
    n = 1500
    grid = np.arange(2.0, 400.0, 9.0)
    assert 1 < _BLOCK_PARTICLES // n < len(grid)
    extra = {"proposal": BetaProposal(1.0, 1.2)} if proposal == "beta" else {}
    cfg = particle_config(model, **extra)
    measure = estimate_density_grid(model, grid, n, cfg, PcgStream(77))
    est, se = _single_point_grid(model, grid, n, cfg, PcgStream(77).spawn(len(grid)))
    if proposal == "beta":
        assert np.array_equal(measure.weights, est)
        assert np.array_equal(measure.stderr, se)
    else:
        assert np.allclose(measure.weights, est, rtol=1e-13, atol=0.0)
        assert np.allclose(measure.stderr, se, rtol=1e-13, atol=0.0)


def test_shared_stream_runs_grid_points_one_after_another():
    """A stream that cannot spawn is read point by point, as a loop would."""
    model = sigma05_model()
    cfg = particle_config(model)
    grid = [10.0, 20.0, 30.0]
    values = PcgStream(3).uniforms(400)
    blocked = SequenceStream(values)
    measure = estimate_density_grid(model, grid, 5, cfg, blocked)
    looped = SequenceStream(values)
    est, se = _single_point_grid(model, grid, 5, cfg, [looped] * len(grid))
    assert np.array_equal(measure.weights, est)
    assert np.array_equal(measure.stderr, se)
    assert blocked.remaining == looped.remaining < len(values)


def test_certain_absorption_reduces_to_first_term():
    model = sigma05_model()
    kernel = build_volterra_kernel(model)
    cfg = particle_config(model, p_d=1.0)
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
    # zero paths per point would give NaN estimates
    with pytest.raises(ValueError):
        estimate_density_grid(model, [1.0, 2.0], 0, particle_config(model),
                              PcgStream(1))


def test_reduced_grid_median_in_benchmark_bracket(sigma05_grid_reduced):
    q = quantile_from_measure(sigma05_grid_reduced, 0.5)
    assert 14.0 <= q <= 16.0


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's 99% quantile is 129.47, so the grid's estimate "
           "is right and the published bracket [119, 127] disagrees",
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


def test_grid_and_interval_estimates_agree():
    """Two independent estimator routes match within combined errors."""
    model = sigma05_model()
    cfg = particle_config(model)
    grid = np.arange(0.25, 60.01, 0.25)
    mg = estimate_density_grid(model, grid, 1500, cfg, PcgStream(2929))
    mi = estimate_measure_interval(model, (0.0, 60.0), 300_000, cfg, PcgStream(3030))
    for z in (20.0, 57.0):
        fg = float(mg.cdf(z))
        keep = mg.locations <= z
        se_g = math.sqrt(np.sum((mg.stderr[keep] * 0.25) ** 2))
        terms = mi.weights * (mi.locations <= z)
        fi = math.exp(-2.0) + terms.mean()
        se_i = terms.std(ddof=1) / math.sqrt(len(terms))
        assert abs(fg - fi) <= 3.0 * math.hypot(se_g, se_i)



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
