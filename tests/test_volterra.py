import math

import numpy as np
import pytest
from scipy import stats

from lossmc import (
    BinomialFrequency,
    CompoundModel,
    ExperimentConfig,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    PcgStream,
    PoissonFrequency,
    ProposalSupportError,
    SizeBiasedProposal,
    SupportViolationError,
    TruncationError,
    UniformStream,
    UnsupportedModelError,
    WeightedParticleMeasure,
    build_volterra_kernel,
    default_absorption,
    estimate_density_grid,
    estimate_tail_probability,
    oracle_compound_pmf,
    oracle_tail_stats,
    quantile_from_measure,
    risk_measures_from_measure,
    run_experiment,
)
from lossmc.volterra import (
    _BLOCK_PARTICLES,
    _DEAD_FLOOR,
    _GRID_PATHS_PER_TAIL_PATH,
    DEFENSIVE_SHARE,
    TABLE_CELLS,
    TABLE_SHARE,
    _checked_move,
    _first_move_tables,
    _positive_sum_moments,
    _sum_proxy,
)

from conftest import (
    QUANTILE_LEVELS,
    SequenceStream,
    lattice_density,
    oracle_tail,
    sigma05_model,
    sigma1_model,
)


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

class _SelfSpawningStream(SequenceStream):
    """A fixed sequence whose every spawned child is itself, so the grid
    point and then the tail start read one list of draws in turn."""

    def spawn(self, n):
        return [self] * n


def _path_weight(draws):
    """Density estimate of one path from x0 = 20 on the sigma = 0.5 model
    at p_d = 0.5, drawing its uniforms from ``draws``.  The one tail-start
    path that follows on the same stream gets uniforms that absorb it at
    once."""
    stream = _SelfSpawningStream([*draws, 0.25, 0.25])
    measure = estimate_density_grid(sigma05_model(), [20.0], 1, 0.5, stream)
    assert stream.remaining == 0
    return float(measure.weights[0])


def _mixture_density(x, x1, mu=2.0, sigma=0.5):
    """q(x, x1) of the defensive mixture, from scipy's lognormal."""
    d = x - x1
    sized = d * _lognormal_pdf(d, mu, sigma) / (
        math.exp(mu + 0.5 * sigma ** 2)
        * stats.norm.cdf((math.log(x) - mu - sigma ** 2) / sigma))
    return (1.0 - DEFENSIVE_SHARE) * sized + DEFENSIVE_SHARE / x


def _table_probabilities(x0, mu=2.0, sigma=0.5, lam=2.0):
    """Cell probabilities of the first-move table at x0 for a Poisson(lam)
    count and an LN(mu, sigma) severity, from scipy: k(x0, y) h(y) at
    each of the 256 cell midpoints y, where h is the lognormal with the
    mean m1 and second moment m2 of Z given N > 0 (for a Poisson count
    E[Z^2] = lam E[X^2] + lam^2 E[X]^2)."""
    ex, ex2, p0 = math.exp(mu + 0.5 * sigma ** 2), math.exp(2.0 * mu + 2.0 * sigma ** 2), \
        math.exp(-lam)
    m1, m2 = lam * ex / (1.0 - p0), (lam * ex2 + lam ** 2 * ex ** 2) / (1.0 - p0)
    s2 = math.log(m2 / m1 ** 2)
    y = x0 * (np.arange(TABLE_CELLS) + 0.5) / TABLE_CELLS
    w = (lam * (x0 - y) / x0 * _lognormal_pdf(x0 - y, mu, sigma)
         * stats.lognorm.pdf(y, math.sqrt(s2), scale=m1 * math.exp(-0.5 * s2)))
    return w / w.sum()


def _first_move_density(x0, x1):
    """pi_t q_t(x1) + (1 - pi_t) q(x0, x1): the first move's density."""
    q_t = _table_probabilities(x0)[int(x1 / x0 * TABLE_CELLS)] * TABLE_CELLS / x0
    return TABLE_SHARE * q_t + (1.0 - TABLE_SHARE) * _mixture_density(x0, x1)


def test_hand_computed_single_step_weight():
    """Two paths of one move from 20 each, by either share of the first
    move, then absorbed by 0.1 <= p_d.

    0.965 > p_d moves with v = 0.93 > pi_t, so the default mixture gets
    (v - pi_t) / (1 - pi_t) = 0.86 > 1 - pi and draws x1 = 20 (0.86 - 0.8)
    / 0.2 = 6 by its uniform share.  0.625 moves with v = 0.25 <= pi_t,
    so the table inverts v / pi_t = 0.5: x1 lies in the cell where the
    cumulative probability reaches 0.5, linearly placed.  Either way the
    ratio is k / ((1 - p_d)(pi_t q_t + (1 - pi_t) q))."""
    kernel = build_volterra_kernel(sigma05_model())

    def by_hand(x1):
        # W = g(20) + k/((1-pd) q) * g(x1), a term per visited state
        return kernel.g(20.0) + kernel.k(20.0, x1) / (0.5 * _first_move_density(20.0, x1)) \
            * kernel.g(x1)

    v = ((0.965 - 0.5) / 0.5 - TABLE_SHARE) / (1.0 - TABLE_SHARE)
    x1 = 20.0 * ((v - (1.0 - DEFENSIVE_SHARE)) / DEFENSIVE_SHARE)
    assert x1 == pytest.approx(6.0, rel=1e-13)
    w = _path_weight([0.965, 0.1])
    assert w == pytest.approx(by_hand(x1), rel=1e-13)
    assert w == pytest.approx(0.0620252019, rel=1e-8)

    prob = _table_probabilities(20.0)
    cum = np.cumsum(prob)
    j = int(np.searchsorted(cum, 0.5))
    x1 = 20.0 * (j + (0.5 - cum[j - 1]) / prob[j]) / TABLE_CELLS
    assert (j, x1) == (149, pytest.approx(11.6543375582, rel=1e-10))
    w = _path_weight([0.625, 0.1])
    assert w == pytest.approx(by_hand(x1), rel=1e-13)
    assert w == pytest.approx(0.0192455030, rel=1e-8)


def test_zero_length_path_weight_is_first_term():
    kernel = build_volterra_kernel(sigma05_model())
    w = _path_weight([0.1])
    assert w == pytest.approx(kernel.g(20.0), rel=1e-12)
    assert w == pytest.approx(2.0 * math.exp(-2.0) * _lognormal_pdf(20.0), rel=1e-12)
    assert w == pytest.approx(0.00148648357, rel=1e-8)


def _upward_move(self, x, u, kernel, mass, table=None):
    x = np.asarray(x, dtype=float)
    return x + 1.0, np.ones_like(x)


def _zero_density_move(self, x, u, kernel, mass, table=None):
    """Moves to x/2 where its density q is zero, and forms k / (mass q)
    without zeroing the ratio there."""
    x1 = np.asarray(x, dtype=float) / 2.0
    with np.errstate(divide="ignore"):
        return x1, kernel.k(x, x1) / (mass * np.zeros_like(x1))


def _fixed_move(frac, ratio):
    """A move that takes every state to ``frac * x`` with the weight ratio
    ``ratio``."""

    def move(self, x, u, kernel, mass, table=None):
        x = np.asarray(x, dtype=float)
        return frac * x, np.full_like(x, ratio)

    return move


def _assert_every_route_raises(monkeypatch, move, error):
    """With ``move`` in place of the proposal's, the first move raises
    ``error`` on both estimator routes: a grid point and a tail-start
    path, which takes one uniform for its start and then the same
    draws."""
    monkeypatch.setattr(SizeBiasedProposal, "move", move)
    draws = [0.9, 0.6, 0.1]
    with pytest.raises(error):
        _path_weight(draws)
    with pytest.raises(error):
        estimate_tail_probability(sigma05_model(), 20.0, 1, 0.5,
                                  SequenceStream([0.5, *draws]))


def test_upward_proposal_is_rejected(monkeypatch):
    _assert_every_route_raises(monkeypatch, _upward_move, ProposalSupportError)


def test_weight_requires_positive_proposal_density(monkeypatch):
    _assert_every_route_raises(monkeypatch, _zero_density_move, SupportViolationError)


@pytest.mark.parametrize("frac,ratio,error", [
    (math.nan, 1.0, ProposalSupportError),
    (-0.5, 1.0, ProposalSupportError),
    (math.nan, math.nan, ProposalSupportError),
    (0.5, -1.0, SupportViolationError),
    (0.5, math.nan, SupportViolationError),
    (0.5, math.inf, SupportViolationError),
], ids=["nan-state", "negative-state", "nan-both", "negative-ratio", "nan-ratio",
        "inf-ratio"])
def test_support_check_classifies_the_fault(monkeypatch, frac, ratio, error):
    """A bad state is a support fault whatever its ratio; only a state in
    [0, x] with a negative or non-finite ratio is a density fault."""
    _assert_every_route_raises(monkeypatch, _fixed_move(frac, ratio), error)


def test_moves_to_either_end_with_zero_ratio_pass_the_check():
    """The mixture's draws at either end of [0, x] pass the check.  The top
    uniform moves to just below x, where f_X(d) underflows, and the ratio
    is exactly 0, so the path keeps only its first term g(20).  The
    largest size-biased decrement, u = 1 - pi, moves to within rounding
    of 0, where the uniform share keeps q > 0 and the ratio is
    k / (mass q)."""
    model = sigma05_model()
    kernel = build_volterra_kernel(model)
    proposal = SizeBiasedProposal(model.severity)
    x = np.array([20.0, 20.0])
    x1, ratio = _checked_move(proposal, x, np.array([1.0, 1.0 - DEFENSIVE_SHARE]),
                              kernel, 0.5)
    top = 20.0 * ((1.0 - (1.0 - DEFENSIVE_SHARE)) / DEFENSIVE_SHARE)
    assert 20.0 - 1e-13 < top < 20.0 and x1[0] == top
    assert ratio[0] == 0.0
    assert 0.0 <= x1[1] < 1e-13
    assert np.allclose(ratio[1], kernel.k(20.0, x1[1]) / (0.5 * _mixture_density(20.0, x1[1])),
                       rtol=1e-13, atol=0.0)
    assert _path_weight([1.0]) == kernel.g(20.0)


@pytest.mark.parametrize("p_d", [0.0, 1.2, math.nan])
def test_estimators_reject_absorption_outside_unit_interval(p_d):
    model = sigma05_model()
    with pytest.raises(ValueError, match="absorption probability"):
        estimate_density_grid(model, [20.0], 10, p_d, PcgStream(1))
    with pytest.raises(ValueError, match="absorption probability"):
        estimate_tail_probability(model, 20.0, 10, p_d, PcgStream(1))


def test_proposal_requires_lognormal_severity():
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


def test_path_length_is_geometric(monkeypatch):
    """At p_d the number of moves is geometric with mean (1-p_d)/p_d.

    A tail-start path draws one uniform for its start and one per
    absorb-or-move step, 2 + moves in all, so the mean number of moves
    is drawn / n - 2; its standard error is sqrt(2 / n) at p_d = 0.5.
    The proposal halves the state at ratio 1, so no path ends early.
    """
    n = 100_000
    monkeypatch.setattr(SizeBiasedProposal, "move", _fixed_move(0.5, 1.0))
    rng = _CountingStream(PcgStream(2020))
    estimate_tail_probability(sigma05_model(), 20.0, n, 0.5, rng)
    moves = rng.drawn / n - 2.0
    assert abs(moves - 1.0) <= 3.0 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("frequency", [
    PoissonFrequency(2.0),                   # a = 0
    NegativeBinomialFrequency(2.0, 1.5),     # a > 0
], ids=["poisson", "negbinomial"])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_size_biased_move_ratio_matches_kernel_over_density(frequency, sigma):
    """The ratio of the fused move is k / ((1 - p_d) q) for the mixture
    density q, and each uniform lands in the share it selects."""
    model = CompoundModel(frequency, LogNormalSeverity(2.0, sigma))
    kernel = build_volterra_kernel(model)
    proposal = SizeBiasedProposal(model.severity)
    mass = 1.0 - default_absorption(model)
    xs = np.geomspace(1e-3, 400.0, 60)
    # u = 1 - pi draws the largest size-biased decrement, capped at x for
    # some x; u above 1 - pi draws from the uniform share
    us = np.array([1e-12, 1e-6, 0.01, 0.3, 0.7, 0.799999, 0.8, 0.800001, 0.9, 0.999999])
    x, u = (a.ravel() for a in np.meshgrid(xs, us))
    x1, ratio = proposal.move(x, u, kernel, mass)
    sized = u <= 1.0 - DEFENSIVE_SHARE
    assert np.array_equal(x1[sized],
                          proposal.sample(x[sized], u[sized] / (1.0 - DEFENSIVE_SHARE),
                                          proposal._cap(x[sized])))
    assert np.array_equal(x1[~sized], x[~sized] * ((u[~sized] - (1.0 - DEFENSIVE_SHARE))
                                                   / DEFENSIVE_SHARE))
    ref = kernel.k(x, x1) / (mass * proposal.density(x, x1))
    # where f_X(d) underflows k / q is 0 or subnormal, and so is the ratio
    normal = ref >= np.finfo(float).tiny
    assert np.all(normal[sized])
    assert np.all(np.isfinite(ratio)) and np.all(ratio[~normal] < np.finfo(float).tiny)
    assert np.allclose(ratio[normal], ref[normal], rtol=1e-12, atol=0.0)
    assert np.any(x1 == 0.0)
    assert np.array_equal(_checked_move(proposal, x, u, kernel, mass)[1], ratio)


@pytest.mark.parametrize("sigma,x", [(0.5, 1e-8), (1.0, 2e-16)])
def test_mixture_ratio_is_zero_where_its_terms_underflow(sigma, x):
    """At states this small E[X; X <= x] and f_X(d) underflow to 0; the
    ratio comes out 0, not NaN, and the move passes the check."""
    model = CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, sigma))
    kernel = build_volterra_kernel(model)
    proposal = SizeBiasedProposal(model.severity)
    u = np.array([1e-12, 0.5, 1.0 - DEFENSIVE_SHARE, 0.9, 1.0])
    assert proposal._cap(x) == 0.0
    x1, ratio = _checked_move(proposal, np.full(u.size, x), u, kernel, 0.6)
    assert np.all((x1 >= 0.0) & (x1 <= x))
    assert np.array_equal(ratio, np.zeros(u.size))


# ---------------------------------------------------------------------------
# the first move's table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("frequency", [
    PoissonFrequency(2.0),
    NegativeBinomialFrequency(2.0, 1.0),
], ids=["poisson", "negbinomial"])
def test_proxy_moments_match_oracle(frequency):
    """The proxy's m1 and m2 are the oracle's E[Z | Z > 0] and
    E[Z^2 | Z > 0] (sigma = 1), to within the lattice's rounding."""
    model = CompoundModel(frequency, LogNormalSeverity(2.0, 1.0))
    pmf = oracle_compound_pmf(model, step=0.02, x_max=4000.0)
    z, m = pmf.grid()[1:], pmf.masses[1:]
    m1, m2 = _positive_sum_moments(model)
    assert m1 == pytest.approx(z @ m / m.sum(), rel=1e-5)
    assert m2 == pytest.approx((z * z) @ m / m.sum(), rel=1e-4)


def test_first_move_table_integrates_to_one_and_its_draws_follow_it():
    """Each row's density integrates to its share of the move, and its
    fixed-seed draws follow the table's cdf, linear between the cell
    edges, and increase with their uniforms (inversion)."""
    model = sigma1_model()
    x0 = np.array([5.0, 60.0, 300.0])
    table = _first_move_tables(build_volterra_kernel(model), _sum_proxy(model), x0)
    assert np.array_equal(table.share, np.full(x0.size, TABLE_SHARE))
    assert np.all(table.edges[:, 0] == 0.0) and np.all(table.edges[:, -1] == 1.0)
    assert np.allclose(table.density.sum(axis=1) * x0 / TABLE_CELLS, TABLE_SHARE,
                       rtol=1e-13, atol=0.0)
    n = 20_000
    rows = np.repeat(np.arange(x0.size), n)
    s = PcgStream(4242).uniforms(rows.size)
    x1, density = table.draw(s, rows, x0[rows])
    assert np.array_equal(density, table.density_at(x1, rows, x0[rows]))
    for r, x in enumerate(x0):
        mine = rows == r
        assert np.all(np.diff(x1[mine][np.argsort(s[mine])]) >= 0.0)
        edges = np.linspace(0.0, x, TABLE_CELLS + 1)
        assert stats.kstest(x1[mine], lambda y: np.interp(y, edges, table.edges[r])).pvalue > 0.05


def test_first_move_table_draws_do_not_depend_on_the_row():
    """A point's draws, x1 and density, are bit-identical whether its table
    is row 0 of its own or row k of the sigma=1 grid's, uniforms on the
    cell edges and one ulp above them included: s + k would round those
    onto the edge."""
    model = sigma1_model()
    kernel, proxy = build_volterra_kernel(model), _sum_proxy(model)
    grid = np.arange(1.0, 401.0)
    own = _first_move_tables(kernel, proxy, grid[[299]])
    big = _first_move_tables(kernel, proxy, grid)
    edges = own.edges[0, 1:]
    s = np.concatenate([PcgStream(17).uniforms(50_000), edges,
                        np.nextafter(edges[:-1], 2.0)])
    x = np.full(s.size, 300.0)
    assert np.array_equal(own.edges[0], big.edges[299])
    x1, density = own.draw(s, np.zeros(s.size, dtype=np.intp), x)
    got = big.draw(s, np.full(s.size, 299), x)
    assert np.array_equal(got[0], x1) and np.array_equal(got[1], density)


def test_first_move_is_finite_where_table_or_severity_underflows():
    """sigma = 0.5, x0 -> 0: up to about 3e-6 every table weight underflows
    and the point moves by the default mixture alone; above it some cells
    hold density 0, and a move where f_X(d) underflows gives ratio 0.
    Every ratio passes the check, and the estimates are finite."""
    model = sigma05_model()
    kernel = build_volterra_kernel(model)
    x0 = np.geomspace(1e-9, 1.0, 19)
    table = _first_move_tables(kernel, _sum_proxy(model), x0)
    assert table.share[0] == 0.0 and table.share[-1] == TABLE_SHARE
    assert np.all(np.isfinite(table.density))
    assert np.any(table.density[table.share > 0.0] == 0.0)
    u = np.array([1e-12, 0.1, 0.25, 0.5, 0.6, 0.8, 0.9, 1.0 - 1e-6, 1.0])
    rows = np.repeat(np.arange(x0.size), u.size)
    x1, ratio = _checked_move(SizeBiasedProposal(model.severity), x0[rows],
                              np.tile(u, x0.size), kernel, 0.6, table.at(rows))
    under = (x1 < x0[rows]) & (kernel.f(x0[rows] - x1) == 0.0) & (table.share[rows] > 0.0)
    assert np.any(under) and np.all(ratio[under] == 0.0)
    measure = estimate_density_grid(model, x0, 200, default_absorption(model), PcgStream(3))
    assert np.all(np.isfinite(measure.weights)) and np.all(np.isfinite(measure.stderr))


def test_first_move_table_cuts_tail_point_rse():
    """sigma = 1, x0 = 300, 5000 paths: relative SE 0.028-0.030 with the
    table, 0.043-0.051 with the default mixture alone (12 seeds each)."""
    model = sigma1_model()
    measure = estimate_density_grid(model, [300.0], 5000, default_absorption(model),
                                    PcgStream(2929))
    assert measure.stderr[0] / measure.weights[0] <= 0.036


# ---------------------------------------------------------------------------
# density estimates
# ---------------------------------------------------------------------------

def test_pointwise_estimator_unbiased_at_benchmark_point():
    """200 independent particle batches average to the recursion density."""
    model = sigma05_model()
    p_d = default_absorption(model)
    assert p_d < 1.0
    streams = PcgStream(2121).spawn(200)
    reps = np.array([float(estimate_density_grid(model, [20.0], 1000, p_d, s).weights[0])
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
    p_d = default_absorption(model)
    if frequency.kind == "genpoisson":
        with pytest.raises(UnsupportedModelError):
            estimate_density_grid(model, xs, 10, p_d, PcgStream(11))
        return
    measure = estimate_density_grid(model, xs, 200_000, p_d, PcgStream(11))
    pmf = oracle_compound_pmf(model, step=0.01, x_max=1500.0)
    ref = lattice_density(pmf)[np.rint(xs / pmf.step).astype(int)]
    assert np.all(np.abs(measure.weights - ref) <= 4.0 * measure.stderr)


# ---------------------------------------------------------------------------
# the deep tail, where the size-biased proposal alone missed the big jump
# ---------------------------------------------------------------------------

DEEP_XS = np.array([400.0, 800.0, 1200.0, 2000.0])
DEEP_TS = (300.0, 1200.0)
DEEP_FREQUENCIES = {"poisson": PoissonFrequency(2.0),
                    "negbinomial": NegativeBinomialFrequency(2.0, 1.0)}
_deep_oracles = {}


def _deep_tail_z(kind, n_point, n_tail, seed):
    """z-scores against the oracle at one seed (sigma = 1): the particle
    densities at DEEP_XS, then the tail-start P(Z > t) at DEEP_TS."""
    model = CompoundModel(DEEP_FREQUENCIES[kind], LogNormalSeverity(2.0, 1.0))
    if kind not in _deep_oracles:
        pmf = oracle_compound_pmf(model, step=0.02, x_max=4000.0)
        _deep_oracles[kind] = (lattice_density(pmf)[np.rint(DEEP_XS / pmf.step).astype(int)],
                               [oracle_tail(pmf, t) for t in DEEP_TS])
    dens, tails = _deep_oracles[kind]
    p_d = default_absorption(model)
    root = PcgStream(seed)
    measure = estimate_density_grid(model, DEEP_XS, n_point, p_d, root)
    z = list((measure.weights - dens) / measure.stderr)
    for t, ref, stream in zip(DEEP_TS, tails, root.spawn(2)):
        p, se, _, _ = estimate_tail_probability(model, t, n_tail, p_d, stream)
        z.append((p - ref) / se)
    return np.array(z)


@pytest.mark.parametrize("kind", DEEP_FREQUENCIES)
def test_deep_tail_densities_and_tail_start_match_oracle(kind):
    """With the defensive mixture the density at 400-2000 and the tail
    start's P(Z > 300) and P(Z > 1200) lie within 4 SE of the oracle (the
    size-biased proposal alone read the density at 800 at -51 SE)."""
    z = _deep_tail_z(kind, 50_000, 100_000, seed=1616)
    assert np.all(np.abs(z) <= 4.0), z


@pytest.mark.parametrize("kind", DEEP_FREQUENCIES)
def test_deep_tail_z_scores_do_not_lean(kind):
    """Across 20 seeds the mean of those z-scores lies within +-0.6, so an
    SE that hides a heavy-tailed weight law fails even where each single
    z-score stays small."""
    zs = np.array([_deep_tail_z(kind, 20_000, 40_000, seed) for seed in range(20)])
    assert abs(zs.mean()) <= 0.6, zs.mean(axis=0)


_row_oracles = {}


@pytest.mark.parametrize("sigma, x_max, seed", [
    pytest.param(0.5, 120.0, 82_106, id="sigma05"),
    pytest.param(1.0, 400.0, 82_111, id="sigma1"),
    *(pytest.param(1.0, 400.0, seed, id=f"sigma1-{seed}") for seed in range(83_111, 83_116))])
def test_particle_report_rows_match_oracle(sigma, x_max, seed):
    """Every particle report row of the table1 presets, at the benchmark
    budget of 5000 paths per point (at sigma = 1 the benchmark's particle
    op, also at its seeds 83111-83115), lies within 4 reported SE of the
    oracle quantile, and its ES within 4 ES SE of the oracle ES: rows are
    read between grid points, so no grid width is allowed for.  Read at
    grid points, 18 of 42 VaR rows of the benchmark op at seeds
    83111-83116 lay beyond 4 SE, up to 13.3 SE off.  The VaR oracle runs
    at step 0.0025 to x_max, the ES oracle at step 0.01 to 3000, where
    the mass left out moves ES at 0.9995 by about 1e-3 at sigma = 1."""
    model_block = {"frequency": {"kind": "poisson", "lambda": 2.0},
                   "severity": {"kind": "lognormal", "mu": 2.0, "sigma": sigma}}
    report = run_experiment(ExperimentConfig(
        model=model_block, levels=list(QUANTILE_LEVELS), seed=seed,
        method={"kind": "particle", "grid_width": 1.0, "x_max": x_max,
                "n_per_point": 5000}))
    if sigma not in _row_oracles:
        model = CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, sigma))
        _row_oracles[sigma] = (
            [q for q, _ in oracle_tail_stats(oracle_compound_pmf(model, step=0.0025, x_max=x_max),
                                             QUANTILE_LEVELS)],
            [es for _, es in oracle_tail_stats(oracle_compound_pmf(model, step=0.01, x_max=3000.0),
                                               QUANTILE_LEVELS)])
    var_ref, es_ref = _row_oracles[sigma]
    diag = report.meta["diagnostics"]
    assert [row.alpha for row in report.rows] == list(QUANTILE_LEVELS)
    for row, q, es in zip(report.rows, var_ref, es_ref):
        assert row.stderr is not None and abs(row.var - q) <= 4.0 * row.stderr, (row, q)
        es_se = diag[f"es_stderr_{row.alpha:g}"]
        assert abs(row.es - es) <= 4.0 * es_se, (row, es, es_se)


def _single_point_contributions(x0, n, kernel, proposal, pd, stream, table):
    """Loop reference: one grid point's particles alone on ``stream``, one
    uniform per absorb-or-move step; on the first step particle r takes
    (r + u) / n, and the move takes the point's one-row ``table``."""
    x, w = np.full(n, x0), np.ones(n)
    acc = np.full(n, kernel.g(x0))
    active = np.flatnonzero((w > 0.0) & (x > _DEAD_FLOOR))
    first = True
    while active.size:
        u = stream.uniforms(active.size)
        if first:
            u = (np.arange(n) + u) / n
        active = active[u > pd]
        if not active.size:
            break
        x1, ratio = proposal.move(x[active], (u[u > pd] - pd) / (1.0 - pd), kernel, 1.0 - pd,
                                  table.at(np.zeros(active.size, dtype=int)) if first else None)
        first = False
        w[active] *= ratio
        x[active] = x1
        with np.errstate(divide="ignore"):
            acc[active] += w[active] * kernel.g(x1)
        active = active[(w[active] > 0.0) & (x[active] > _DEAD_FLOOR)]
    return acc


def _single_point_grid(model, grid, n, streams):
    kernel = build_volterra_kernel(model)
    proposal, pd = SizeBiasedProposal(model.severity), default_absorption(model)
    proxy = _sum_proxy(model)
    contrib = [_single_point_contributions(x0, n, kernel, proposal, pd, s,
                                           _first_move_tables(kernel, proxy, np.array([x0])))
               for x0, s in zip(grid, streams)]
    return (np.array([c.mean() for c in contrib]),
            np.array([math.sqrt(np.sum(np.diff(c) ** 2) / (2.0 * n * (n - 1)))
                      for c in contrib]))


def test_grid_blocks_match_single_points():
    """Blocks of grid points give the estimates of one point at a time,
    each on its own spawned substream and with its own first-move table;
    the tail start runs on the next substream."""
    model = sigma1_model()
    n = 1500
    grid = np.arange(2.0, 400.0, 9.0)
    assert 1 < _BLOCK_PARTICLES // n < len(grid)
    p_d = default_absorption(model)
    measure = estimate_density_grid(model, grid, n, p_d, PcgStream(77))
    streams = PcgStream(77).spawn(len(grid) + 1)
    est, se = _single_point_grid(model, grid, n, streams[:-1])
    assert np.allclose(measure.weights, est, rtol=1e-13, atol=0.0)
    assert np.allclose(measure.stderr, se, rtol=1e-13, atol=0.0)
    tail = estimate_tail_probability(model, grid[-1] + 4.5,
                                     len(grid) * n // _GRID_PATHS_PER_TAIL_PATH, p_d,
                                     streams[-1])
    assert (measure.tail_mass, measure.tail_stderr,
            measure.tail_excess, measure.tail_excess_stderr) == tail


def test_first_step_is_stratified_by_rank(monkeypatch):
    """Particle r of every grid point takes its first uniform from
    (r/n, (r+1)/n], one draw of the point's substream each; the tail
    start's draws are the stream's own.  The move ends every path at its
    first step (x1 = 0, ratio 0) and records the uniforms and the table it
    is given: the grid's names each particle's point, the tail start's is
    None."""
    seen = []

    def recording_move(self, x, u, kernel, mass, table=None):
        seen.append((np.array(u), table))
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x), np.zeros_like(x)

    monkeypatch.setattr(SizeBiasedProposal, "move", recording_move)
    model = sigma05_model()
    n, grid, pd = 7, [10.0, 20.0, 30.0], 2.0 ** -40
    estimate_density_grid(model, grid, n, pd, PcgStream(5))
    # one block holds every point, then one tail-start batch of 2 paths
    (grid_v, grid_table), (tail_v, tail_table) = seen
    assert tail_table is None
    assert np.array_equal(grid_table.rows, np.repeat(np.arange(len(grid)), n))
    assert np.array_equal(grid_table.share, np.full(len(grid), TABLE_SHARE))
    streams = PcgStream(5).spawn(len(grid) + 1)
    rank = np.arange(n)
    u = (rank + np.array([s.uniforms(n) for s in streams[:-1]])) / n
    assert np.all((rank / n < u) & (u <= (rank + 1) / n))
    assert np.array_equal(grid_v, ((u - pd) / (1.0 - pd)).ravel())
    # the tail start reads two start uniforms, then one per path and step
    assert np.array_equal(tail_v, (streams[-1].uniforms(4)[2:] - pd) / (1.0 - pd))


@pytest.mark.parametrize("sigma,x0", [(1.0, 300.0), (0.5, 10.0)],
                         ids=["sigma1-tail", "sigma05-bulk"])
def test_stratified_stderr_is_calibrated(sigma, x0):
    """Over 60 seeds the spread of a point's estimate matches its reported
    SE: the successive-difference SE neither hides the stratification's
    gain (the iid formula reads about 10x too wide at sigma = 0.5, x = 10)
    nor understates the spread."""
    model = CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, sigma))
    p_d = default_absorption(model)
    runs = [estimate_density_grid(model, [x0], 5000, p_d, s)
            for s in PcgStream(2323).spawn(60)]
    est = np.array([m.weights[0] for m in runs])
    se = np.array([m.stderr[0] for m in runs])
    assert 0.7 <= est.std(ddof=1) / se.mean() <= 1.4


def test_certain_absorption_reduces_to_first_term():
    model = sigma05_model()
    kernel = build_volterra_kernel(model)
    measure = estimate_density_grid(model, [20.0, 30.0], 50, 1.0, PcgStream(8))
    assert measure.weights[0] == pytest.approx(kernel.g(20.0), rel=1e-14)
    assert measure.weights[1] == pytest.approx(kernel.g(30.0), rel=1e-14)
    assert np.all(measure.stderr < 1e-15)
    assert measure.zero_mass == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_grid_requires_positive_points():
    model = sigma05_model()
    with pytest.raises(ValueError):
        estimate_density_grid(model, [0.0, 1.0], 10, default_absorption(model),
                              PcgStream(1))
    # zero paths per point would give NaN estimates
    with pytest.raises(ValueError):
        estimate_density_grid(model, [1.0, 2.0], 0, default_absorption(model),
                              PcgStream(1))


def test_reduced_grid_median_in_benchmark_bracket(sigma05_grid_reduced):
    q = quantile_from_measure(sigma05_grid_reduced, 0.5)
    assert 14.0 <= q <= 16.0


@pytest.mark.xfail(
    strict=True,
    reason="the oracle's 99% quantile is 129.47 and the grid's linear read "
           "129.45 matches it, so the published bracket [119, 127] disagrees",
)
def test_full_grid_99_percent_in_published_bracket(sigma1_grid_full):
    q = quantile_from_measure(sigma1_grid_full, 0.99)
    assert 119.0 <= q <= 127.0


# ---------------------------------------------------------------------------
# measures and risk functionals
# ---------------------------------------------------------------------------

def _measure(locations, weights, stderr=None, tail_mass=0.0, tail_stderr=0.0,
             tail_excess=0.0, tail_excess_stderr=0.0, zero_mass=0.0):
    """A hand-built measure; the standard errors default to zero."""
    stderr = np.zeros(len(locations)) if stderr is None else stderr
    return WeightedParticleMeasure(locations=locations, weights=weights, stderr=stderr,
                                   tail_mass=tail_mass, tail_stderr=tail_stderr,
                                   tail_excess=tail_excess,
                                   tail_excess_stderr=tail_excess_stderr,
                                   zero_mass=zero_mass)


def test_measure_validation():
    with pytest.raises(ValueError, match="must align"):
        _measure([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="must align"):
        _measure([1.0, 2.0], [1.0, 1.0], stderr=[0.1])
    with pytest.raises(ValueError):
        _measure([1.0], [-1.0])


@pytest.mark.parametrize("locations", [[30.0, 10.0, 20.0], [10.0, 10.0, 20.0],
                                       [0.0, 10.0, 20.0], [10.0, np.nan, 20.0]],
                         ids=["unsorted", "duplicate", "zero", "nan"])
def test_measure_rejects_grids_without_positive_cells(locations):
    """Unsorted points gave cell widths [-20, -5, 10] and negative atoms,
    duplicates a zero-width cell; both are refused."""
    with pytest.raises(ValueError, match="strictly increasing"):
        _measure(np.array(locations), np.ones(3))


def test_density_grid_rejects_unsorted_points():
    """Refused before any path runs: the run used to return negative
    atoms and a median of 0.0."""
    model = sigma05_model()
    with pytest.raises(ValueError, match="strictly increasing"):
        estimate_density_grid(model, [30.0, 10.0, 20.0], 10, default_absorption(model),
                              PcgStream(3))


def test_single_atom_measure_quantile_and_risk():
    """One unit cell [4.5, 5.5] holding all the mass: survival falls
    linearly from 1 to 0 across it, the 0.7-quantile is 5.2 and the 0.5-ES
    is the mean of the cell's upper half, 5.25, all without spread."""
    meas = _measure([5.0], [1.0])
    assert quantile_from_measure(meas, 0.7) == pytest.approx(5.2, rel=1e-12)
    assert risk_measures_from_measure(meas, 0.5) == {
        "var": 5.0, "var_lo": 5.0, "var_hi": 5.0, "es": 5.25, "stderr": 0.0,
        "es_stderr": 0.0}
    with pytest.raises(ValueError):
        quantile_from_measure(meas, 0.0)
    with pytest.raises(ValueError):
        quantile_from_measure(meas, 1.0001)


def test_grid_atoms_include_zero_mass():
    """Cells of width 3 at 2 and 5 hold density times width, 0.3 and 0.15;
    survival at the cell edges 0.5, 3.5 and 6.5 sums them from the right,
    with the mass beyond the grid on top, and its variance sums the cells'
    (3 SE)^2 above and the tail's SE^2.  With P(N = 0) at zero the measure
    holds the whole law.  The 0.15-quantile is a sixth of the way into the
    first cell."""
    meas = _measure([2.0, 5.0], [0.1, 0.05], stderr=[0.01, 0.02], tail_mass=0.45,
                    tail_stderr=0.04, zero_mass=0.1)
    knots, surv, se = meas.survival()
    assert meas.zero_mass + surv[0] == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(knots, [0.5, 3.5, 6.5])
    assert np.allclose(surv, [0.9, 0.6, 0.45])
    assert np.allclose(se, np.sqrt([0.0016 + 0.0009 + 0.0036, 0.0016 + 0.0036, 0.0016]))
    assert quantile_from_measure(meas, 0.15) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(TruncationError, match="beyond the grid top 6.5"):
        quantile_from_measure(meas, 0.9)


def test_uneven_grid_cells_tile_without_overlap():
    """On the grid 1, 10, 10.5 the edges are the midpoints 5.5 and 10.25,
    the top lies half the last width past 10.5 and the first edge, 3.5
    below 1, is clamped at 0: the knots increase, and every row reads a
    nonnegative VaR and a positive SE.  The cells hold 0.05 times the
    widths 9, 4.75 and 0.5, so the 0.2-quantile lies 0.0125 / 0.45 of the
    way into [0, 5.5] and the 0.89-quantile 0.6 of the way into the last
    cell."""
    meas = _measure([1.0, 10.0, 10.5], [0.05] * 3, stderr=[0.01] * 3, tail_mass=0.1,
                    tail_stderr=0.01, zero_mass=0.1875)
    knots, surv, _ = meas.survival()
    assert np.array_equal(knots, [0.0, 5.5, 10.25, 10.75])
    assert np.allclose(surv, [0.8125, 0.3625, 0.125, 0.1])
    assert quantile_from_measure(meas, 0.2) == pytest.approx(5.5 / 36.0, rel=1e-12)
    for alpha, var in ((0.2, 5.5 / 36.0), (0.89, 10.55)):
        row = risk_measures_from_measure(meas, alpha)
        assert row["var"] == pytest.approx(var, rel=1e-12)
        assert 0.0 <= row["var_lo"] <= row["var"] <= row["var_hi"] <= 10.75
        assert row["stderr"] > 0.0 and row["es_stderr"] > 0.0 and row["es"] > row["var"]


def test_short_grid_cannot_answer_deep_quantiles():
    model = sigma05_model()
    grid = np.arange(1.0, 31.0, 1.0)
    meas = estimate_density_grid(model, grid, 200, default_absorption(model),
                                 PcgStream(17))
    with pytest.raises(TruncationError):
        quantile_from_measure(meas, 0.9995)


def test_grid_mean_matches_model(sigma05_grid_full):
    """The mean of the grid's cells and the atom P(N = 0) at zero is the
    model mean."""
    locs, w = sigma05_grid_full.locations, sigma05_grid_full.weights
    w = w * np.gradient(locs)
    mean = float(np.dot(locs, w) / (sigma05_grid_full.zero_mass + w.sum()))
    mean_ref = 2.0 * math.exp(2.125)
    se = math.sqrt(np.sum(((sigma05_grid_full.locations - mean)
                           * sigma05_grid_full.stderr) ** 2))
    assert abs(mean - mean_ref) <= 3.0 * se


@pytest.fixture(scope="module")
def sigma1_deep_pmf():
    """The sigma=1 oracle to 5000, where the mass left out moves ES at
    0.9995 by about 1e-3."""
    return oracle_compound_pmf(sigma1_model(), step=0.05, x_max=5000.0)


def _es_stderr(measure, var, alpha):
    """Standard error of the ES read off the survival curve, v held fixed:
    a cell above the VaR weighs its mass SE by (its point - v), the cell
    [u - w, u] that holds v by (u - v)^2 / (2 w), and the cells are
    independent of the tail start, whose mass and stop-loss terms come
    from the same paths and are added as if fully correlated, an upper
    bound."""
    x, w = measure.locations, np.gradient(measure.locations)
    upper = x + 0.5 * w
    weight = np.where(upper - w >= var, x - var,
                      np.where(upper > var, (upper - var) ** 2 / (2.0 * w), 0.0))
    cells = math.sqrt(np.sum((weight * measure.stderr * w) ** 2))
    tail = (upper[-1] - var) * measure.tail_stderr + measure.tail_excess_stderr
    return math.hypot(cells, tail) / (1.0 - alpha)


@pytest.mark.parametrize("preset, alpha", [("sigma1", 0.99), ("sigma1", 0.999),
                                           ("sigma1", 0.9995), ("sigma05", 0.99)])
def test_grid_expected_shortfall_matches_oracle(request, preset, alpha):
    """ES read off the survival curve, v + E[(Z - v)+] / (1 - alpha), lies
    within 4 SE of the oracle's; the stop-loss counts the mass and the
    excess beyond the grid.  Averaging the grid cells at and beyond the VaR
    alone read 2.5-10 % low at sigma = 1."""
    if preset == "sigma1":
        measure, pmf = (request.getfixturevalue("sigma1_grid_full"),
                        request.getfixturevalue("sigma1_deep_pmf"))
    else:
        measure, pmf = (request.getfixturevalue("sigma05_grid_full"),
                        request.getfixturevalue("sigma05_pmf"))
    row = risk_measures_from_measure(measure, alpha)
    assert row["es_stderr"] == pytest.approx(_es_stderr(measure, row["var"], alpha), rel=1e-12)
    [(_, ref)] = oracle_tail_stats(pmf, [alpha])
    assert abs(row["es"] - ref) <= 4.0 * row["es_stderr"], (row, ref)


def test_expected_shortfall_adds_the_mass_beyond_the_grid():
    """Cells [0.5, 1.5], [1.5, 2.5] and [2.5, 3.5] with masses 0.5, 0.3 and
    0.15, and 0.05 beyond the top 3.5 with stop-loss 0.1 there: survival
    at the edges is 1, 0.5, 0.2 and 0.05, so the 0.75-VaR lies 5/6 of the
    way into the second cell, at 7/3.  The integral of survival above it
    is a trapezoid of (0.25 + 0.2)/2 x 1/6 in that cell and
    (0.2 + 0.05)/2 in the last, and the stop-loss adds 0.1."""
    meas = _measure([1.0, 2.0, 3.0], [0.5, 0.3, 0.15], tail_mass=0.05, tail_excess=0.1)
    row = risk_measures_from_measure(meas, 0.75)
    assert row["var"] == pytest.approx(7.0 / 3.0, rel=1e-12)
    stop_loss = 0.225 / 6.0 + 0.125 + 0.1
    assert row["es"] == pytest.approx(7.0 / 3.0 + stop_loss / 0.25, rel=1e-12)
    with pytest.raises(ValueError):
        risk_measures_from_measure(meas, 1.0)


def test_expected_shortfall_stderr_hand_trace():
    """The measure above with density SEs 0.1, 0.2, 0.3, tail-mass SE 0.01
    and stop-loss SE 0.02.  v = 7/3 holds fixed: the cell at 3 lies above
    it, giving (3 - 7/3) x 0.3; the cell [1.5, 2.5] holding it weighs its
    0.2 by (2.5 - 7/3)^2 / 2 = 1/72; and the tail start's terms add as
    fully correlated, (3.5 - 7/3) x 0.01 + 0.02.  The sum in quadrature
    goes over 1 - 0.75."""
    meas = _measure([1.0, 2.0, 3.0], [0.5, 0.3, 0.15], stderr=np.array([0.1, 0.2, 0.3]),
                    tail_mass=0.05, tail_stderr=0.01, tail_excess=0.1,
                    tail_excess_stderr=0.02)
    row = risk_measures_from_measure(meas, 0.75)
    assert row["var"] == pytest.approx(7.0 / 3.0, rel=1e-12)
    cells = math.hypot(2.0 / 3.0 * 0.3, 0.2 / 72.0)
    es_se = math.hypot(cells, 7.0 / 6.0 * 0.01 + 0.02) / 0.25
    assert row["es_stderr"] == pytest.approx(es_se, rel=1e-12)
    assert row["es_stderr"] == pytest.approx(_es_stderr(meas, row["var"], 0.75), rel=1e-12)


def test_var_stderr_and_band_hand_trace():
    """The measure above: S(7/3) = 0.25 has the variance of the survival
    at 2.5, 0.3^2 + 0.01^2, plus a sixth of the cell [1.5, 2.5]'s 0.2,
    squared; over that cell's density 0.3 it is the VaR's SE.  The band
    reads the curve at 0.75 -+ 1.96 x 0.302: the lower level's quantile
    lies in the first cell, and the upper level, clamped at 1, lies
    beyond the grid, so the band ends at its top 3.5."""
    meas = _measure([1.0, 2.0, 3.0], [0.5, 0.3, 0.15], stderr=np.array([0.1, 0.2, 0.3]),
                    tail_mass=0.05, tail_stderr=0.01, tail_excess=0.1)
    row = risk_measures_from_measure(meas, 0.75)
    surv_se = math.sqrt(0.3 ** 2 + 0.01 ** 2 + (0.2 / 6.0) ** 2)
    assert row["stderr"] == pytest.approx(surv_se / 0.3, rel=1e-12)
    lo_level = 0.75 - 1.96 * surv_se
    assert row["var_lo"] == pytest.approx(0.5 + lo_level / 0.5, rel=1e-12)
    assert row["var_hi"] == 3.5
