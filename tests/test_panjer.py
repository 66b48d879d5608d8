import math

import numpy as np
import pytest
from scipy import stats

from lossmc import (
    BinomialFrequency,
    CompoundModel,
    DegenerateSeverity,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    PoissonFrequency,
    TruncationError,
    discretize_severity,
    gpd_panjer_discrete,
    oracle_compound_pmf,
    oracle_tail_stats,
    panjer_discrete,
)
from lossmc import compound, panjer
from lossmc.panjer import DiscreteSeverity

from conftest import lattice_density, sigma05_model, sigma1_model


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_local_moments_preserve_truncated_mean():
    sev = LogNormalSeverity(2.0, 0.5)
    step, K = 0.01, 6000
    d = discretize_severity(sev, step, K)
    lattice_mean = float(np.dot(step * np.arange(K + 1), d.masses))
    C = K * step
    capped = math.exp(2.125) * stats.norm.cdf((math.log(C) - 2.25) / 0.5) \
        + C * stats.norm.sf((math.log(C) - 2.0) / 0.5)
    assert abs(lattice_mean - capped) / capped < 1e-3


@pytest.mark.parametrize("atom,expected", [
    (0.5, {1: 1.0}),
    (0.6, {1: 0.8, 2: 0.2}),
], ids=["on-lattice", "between-points"])
def test_local_moments_split_an_atom_between_its_cell_ends(atom, expected):
    """A point mass keeps its mass and its mean: on a lattice point it stays
    there, between two points it splits by its distance to each."""
    d = discretize_severity(DegenerateSeverity(atom=atom), 0.5, 4)
    want = np.zeros(5)
    for i, w in expected.items():
        want[i] = w
    assert np.max(np.abs(d.masses - want)) < 1e-12
    assert abs(float(np.dot(0.5 * np.arange(5), d.masses)) - atom) < 1e-12


def test_local_moments_keep_the_mass_below_the_last_edge():
    """Each cell hands all its mass to its two ends, so the lattice holds
    exactly the severity's mass up to K*step."""
    sev = LogNormalSeverity(2.0, 0.5)
    d = discretize_severity(sev, 0.25, 200)
    assert abs(d.masses.sum() - sev.cdf(50.0)) < 1e-12


@pytest.mark.parametrize("step", [0.0, -0.5])
def test_oracle_checks_the_step_before_sizing_the_lattice(step):
    """x_max / step must not run on a step the lattice cannot use."""
    with pytest.raises(ValueError, match="step must be positive"):
        oracle_compound_pmf(sigma05_model(), step=step, x_max=10.0)


@pytest.mark.parametrize("step", [7.4, 1e300])
def test_oracle_refuses_a_step_above_the_severity_median(step):
    """LN(2, 0.5) has median e^2 = 7.389: a coarser step puts more than
    half the severity mass in the first cell (1e300 left one cell and read
    VaR 0)."""
    with pytest.raises(ValueError, match="step .* exceeds the severity median 7.389"):
        oracle_compound_pmf(sigma05_model(), step=step, x_max=200.0)
    assert oracle_compound_pmf(sigma05_model(), step=7.38, x_max=200.0).masses.size == 29


def test_oracle_memory_refusal_is_a_lower_bound(monkeypatch):
    """The rfft spectrum and irfft output of M + 1 = 81 cells need at least
    32 * 81 = 2592 bytes: a memory of exactly that serves, one byte less
    refuses."""
    monkeypatch.setattr(compound, "physical_memory", lambda: 2592)
    assert oracle_compound_pmf(sigma05_model(), step=0.5, x_max=40.0).masses.size == 81
    monkeypatch.setattr(compound, "physical_memory", lambda: 2591)
    with pytest.raises(ValueError, match="makes M = 80 lattice cells, .* at least 2.59e"):
        oracle_compound_pmf(sigma05_model(), step=0.5, x_max=40.0)


def test_discrete_severity_validation():
    good = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteSeverity(step=0.0, masses=good)
    with pytest.raises(ValueError):
        DiscreteSeverity(step=1.0, masses=np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        DiscreteSeverity(step=1.0, masses=np.array([0.9, 0.9]))


# ---------------------------------------------------------------------------
# recursion identities
# ---------------------------------------------------------------------------

# Severities shorter (K = 2) and longer (K = 40) than the M = 25 lattice,
# so the recursion's slices run both with L = K and with L = k.
SHORT_SEVERITY = np.array([0.2, 0.5, 0.3])
LONG_SEVERITY = 0.1 * 0.9 ** np.arange(41)
MIXTURE_M = 25


def _explicit_mixture(freq, f, M, n_max):
    """sum_{n < n_max} p_n f^{*n} on the lattice points 0..M."""
    direct = np.zeros(M + 1)
    conv = np.array([1.0])
    for n in range(n_max):
        direct[:len(conv)] += freq.pmf(n) * conv
        conv = np.convolve(conv, f)[:M + 1]
    return direct


@pytest.mark.parametrize("f", [SHORT_SEVERITY, LONG_SEVERITY], ids=["short", "long"])
@pytest.mark.parametrize("freq", [PoissonFrequency(1.3),
                                  NegativeBinomialFrequency(2.0, 1.0),
                                  BinomialFrequency(5, 0.4)],
                         ids=["poisson", "negbinomial", "binomial"])
def test_recursion_matches_explicit_mixture(freq, f):
    """Aggregate masses equal the explicit sum of convolution powers.

    The three frequencies cover a = 0, a > 0 and a < 0.
    """
    sev = DiscreteSeverity(step=1.0, masses=f)
    g = panjer_discrete(freq, sev, MIXTURE_M)
    direct = _explicit_mixture(freq, f, MIXTURE_M, 80)
    assert np.max(np.abs(g.masses - direct)) < 1e-10
    assert abs(g.masses[0] - freq.pgf(f[0])) < 1e-10


def test_poisson_unit_severity_gives_count_law():
    sev = DiscreteSeverity(step=1.0, masses=np.array([0.0, 1.0]))
    g = panjer_discrete(PoissonFrequency(2.0), sev, 40)
    ref = stats.poisson.pmf(np.arange(41), 2.0)
    assert np.max(np.abs(g.masses - ref)) < 1e-12


def test_bernoulli_claim_mixes_atom_and_severity():
    """With at most one claim the compound is (1-q) delta_0 + q X."""
    q = 0.4
    model = CompoundModel(BinomialFrequency(1, q), LogNormalSeverity(2.0, 0.5))
    pmf = oracle_compound_pmf(model, step=0.05, x_max=80.0)
    d = discretize_severity(model.severity, 0.05, len(pmf.masses) - 1)
    expected = q * d.masses
    expected[0] += 1.0 - q
    assert np.max(np.abs(pmf.masses - expected)) < 1e-12


# ---------------------------------------------------------------------------
# generalized Poisson aggregation
# ---------------------------------------------------------------------------

def test_gpd_zero_dispersion_equals_poisson():
    sev = discretize_severity(LogNormalSeverity(2.0, 0.5), 0.05, 400)
    g = gpd_panjer_discrete(2.0, 0.0, sev, 400)
    p = panjer_discrete(PoissonFrequency(2.0), sev, 400)
    assert np.max(np.abs(g.masses - p.masses)) < 1e-12


def test_gpd_unit_severity_gives_count_law():
    """Branching-cluster aggregation reproduces the exact count pmf."""
    sev = DiscreteSeverity(step=1.0, masses=np.array([0.0, 1.0]))
    g = gpd_panjer_discrete(2.0, 0.3, sev, 80)
    freq = GeneralizedPoissonFrequency(2.0, 0.3)
    ref = np.array([freq.pmf(k) for k in range(81)])
    assert np.max(np.abs(g.masses - ref)) < 1e-10


@pytest.mark.parametrize("freq", [GeneralizedPoissonFrequency(1.3, 0.3),
                                  GeneralizedPoissonFrequency(2.0, -0.3)],
                         ids=["theta03", "theta-03"])
def test_gpd_matches_explicit_mixture(freq):
    """A short non-unit severity (K = 2 < M) against sum_n p_n f^{*n}; at
    theta < 0 the count's support ends at n = 6."""
    sev = DiscreteSeverity(step=1.0, masses=SHORT_SEVERITY)
    g = gpd_panjer_discrete(freq.lam, freq.theta, sev, MIXTURE_M)
    direct = _explicit_mixture(freq, SHORT_SEVERITY, MIXTURE_M, 150)
    assert np.max(np.abs(g.masses - direct)) < 1e-10


def test_gpd_lognormal_mass_accumulates():
    model = CompoundModel(GeneralizedPoissonFrequency(2.0, 0.3),
                          LogNormalSeverity(2.0, 0.5))
    pmf = oracle_compound_pmf(model, step=0.05, x_max=240.0)
    assert pmf.cdf()[-1] > 1.0 - 1e-5


def test_gpd_rejects_unusable_parameters():
    sev = DiscreteSeverity(step=1.0, masses=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="admissible"):
        gpd_panjer_discrete(2.0, -0.6, sev, 10)
    with pytest.raises(ValueError):
        gpd_panjer_discrete(2.0, 1.0, sev, 10)
    with pytest.raises(ValueError):
        gpd_panjer_discrete(0.0, 0.3, sev, 10)


# ---------------------------------------------------------------------------
# the transform against independent references
# ---------------------------------------------------------------------------

# x_max of two lattices of step 0.05 under the sigma=0.5 severity: the deep
# one's tail masses fall to 1e-28, which only the tilted pass resolves; the
# short one's buffer must double before the wrapped mass is negligible.
LATTICES = {"deep": 1400.0, "short": 30.0}


def _lattice(freq, lattice):
    """The oracle's pmf on a lattice, and the severity it discretized."""
    model = CompoundModel(freq, LogNormalSeverity(2.0, 0.5))
    pmf = oracle_compound_pmf(model, step=0.05, x_max=LATTICES[lattice])
    M = len(pmf.masses) - 1
    return pmf, discretize_severity(model.severity, 0.05, M)


def _assert_transform_gates(pmf, ref, deep):
    """<= 1e-15 absolute everywhere; on a deep lattice also <= 5e-5
    relative from x = 2 on, where the masses reach down to 1e-28."""
    assert np.all(np.isfinite(pmf.masses)) and np.all(pmf.masses >= 0.0)
    assert np.max(np.abs(pmf.masses - ref)) <= 1e-15
    if deep:
        far = pmf.grid() >= 2.0
        assert np.max(np.abs(pmf.masses[far] / ref[far] - 1.0)) <= 5e-5


@pytest.mark.parametrize("lattice", list(LATTICES))
@pytest.mark.parametrize("freq", [PoissonFrequency(2.0),
                                  BinomialFrequency(5, 0.4),
                                  NegativeBinomialFrequency(2.0, 1.0)],
                         ids=["poisson", "binomial", "negbinomial"])
def test_transform_matches_recursion(freq, lattice):
    pmf, sev = _lattice(freq, lattice)
    ref = panjer_discrete(freq, sev, len(pmf.masses) - 1)
    _assert_transform_gates(pmf, ref.masses, lattice == "deep")
    assert (pmf.tilt > 0.0) == (lattice == "deep")


def _borel_cluster_reference(lam, theta, sev, M):
    """Generalized Poisson compound masses by the branching-cluster recursion.

    A Poisson(lam) number of Borel(theta) clusters: one cluster's total
    severity h solves h = f * CP(theta, h), which leaves a 2x2 linear
    system in (h_k, c_k) at each k, c being the CP(theta, h) masses.
    """
    f = sev.masses
    h0 = f[0] * math.exp(-theta)
    for _ in range(200):
        h0 = f[0] * math.exp(-theta * (1.0 - h0))
    h, jh, c = np.zeros(M + 1), np.zeros(M + 1), np.zeros(M + 1)
    h[0], c[0] = h0, math.exp(-theta * (1.0 - h0))
    for k in range(1, M + 1):
        a_k = f[1:k + 1] @ c[k - 1::-1]
        b_k = (jh[1:k] @ c[k - 1:0:-1]) / k
        h[k] = (a_k + f[0] * b_k) / (1.0 - theta * c[0] * f[0])
        c[k] = b_k + theta * c[0] * h[k]
        jh[k] = theta * k * h[k]
    cluster = DiscreteSeverity(step=sev.step, masses=h)
    return panjer_discrete(PoissonFrequency(lam), cluster, M).masses


@pytest.mark.parametrize("freq", [NegativeBinomialFrequency(2.0, 3.0),
                                  NegativeBinomialFrequency(2.0, 9.0),
                                  GeneralizedPoissonFrequency(2.0, 0.9)],
                         ids=["negbinomial-beta3", "negbinomial-beta9",
                              "genpoisson-theta09"])
def test_transform_at_pgf_domain_edge(freq):
    """Counts whose pgf's domain ends close past s = 1, which caps the tilt.

    The negative binomial's pole at 1.33 leaves a smaller tilt than the
    severity alone allows; its pole at 1.11 and the Lambert-W branch point
    at 1.005 leave none.  The generalized Poisson's count tail is so heavy
    that its buffer is damped.
    """
    pmf, sev = _lattice(freq, "deep")
    M = len(pmf.masses) - 1
    if freq.kind == "genpoisson":
        ref = _borel_cluster_reference(freq.lam, freq.theta, sev, M)
    else:
        ref = panjer_discrete(freq, sev, M).masses
    _assert_transform_gates(pmf, ref, deep=True)


@pytest.mark.parametrize("theta", [0.3, 0.9])
def test_gpd_transform_matches_explicit_mixture(theta):
    """A 200-cell lognormal lattice against sum_n p_n f^{*n}."""
    freq = GeneralizedPoissonFrequency(1.5, theta)
    sev = discretize_severity(LogNormalSeverity(2.0, 0.5), 0.5, 200)
    g = gpd_panjer_discrete(freq.lam, theta, sev, 200)
    direct = _explicit_mixture(freq, sev.masses, 200, 150)
    _assert_transform_gates(g, direct, deep=False)


@pytest.mark.parametrize("sigma,var50,var99", [(0.1, 14.41, 44.73),
                                               (0.05, 14.58, 44.48),
                                               (0.01, 14.74, 44.36)])
def test_narrow_severity_skips_underflowing_tilt(sigma, var50, var99):
    """A narrow severity's tilt is so steep that e^{-theta x_max} underflows
    to 0: the pass is skipped rather than run into 0/0, and at sigma 0.01
    the tilt is found without overflowing the tilted mass.  Either fault
    would raise under the suite's RuntimeWarning filter."""
    model = CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, sigma))
    pmf = oracle_compound_pmf(model, step=0.01, x_max=40.0 * model.mean())
    assert pmf.tilt == 0.0
    [(q50, _), (q99, _)] = oracle_tail_stats(pmf, [0.5, 0.99])
    assert (q50, q99) == pytest.approx((var50, var99), abs=1e-9)


def _oracle_passes(monkeypatch, model, step, x_max, skip):
    """The oracle's pmf and its transform passes as (L, tilt, wrapped),
    with the length skip on or patched off."""
    passes = []
    run_pass = panjer._transform_pass

    def counted(freq, f, x, theta, L):
        out = run_pass(freq, f, x, theta, L)
        passes.append((L, theta, bool(out[2])))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(panjer, "_transform_pass", counted)
        if not skip:
            patch.setattr(panjer, "_certain_to_wrap", lambda *args: False)
        pmf = oracle_compound_pmf(model, step=step, x_max=x_max)
    return pmf, passes


BENCHMARK_FREQUENCIES = {"poisson": PoissonFrequency(2.0),
                         "negbinomial": NegativeBinomialFrequency(2.0, 1.0),
                         "genpoisson": GeneralizedPoissonFrequency(1.5, 0.3)}


# (frequency, severity sigma, step, x_max, untilted passes skipped)
SKIP_CASES = {
    **{f"benchmark-{k}": (freq, 1.0, 0.01, 400.0, 1)
       for k, freq in BENCHMARK_FREQUENCIES.items()},
    **{f"{lattice}-{freq.kind}": (freq, 0.5, 0.05, LATTICES[lattice], skipped)
       for lattice, skipped in (("short", 2), ("deep", 0))
       for freq in (PoissonFrequency(2.0), BinomialFrequency(5, 0.4),
                    NegativeBinomialFrequency(2.0, 1.0))},
    # its count tail damps the buffer at 9720 cells, after skipping two lengths
    "short-genpoisson-damped": (GeneralizedPoissonFrequency(2.0, 0.9), 0.5, 0.05, 30.0, 2),
}


@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_length_skip_is_exact(monkeypatch, case):
    """Skipping lengths that are certain to wrap leaves the masses, the
    tilt and L as they are with every pass run; each skipped pass is an
    untilted one that wrapped.  On the benchmark lattice one untilted pass
    runs per law, where 81000 cells used to run first and wrap."""
    freq, sigma, step, x_max, skipped = SKIP_CASES[case]
    model = CompoundModel(freq, LogNormalSeverity(2.0, sigma))
    pmf, passes = _oracle_passes(monkeypatch, model, step, x_max, skip=True)
    ref, all_passes = _oracle_passes(monkeypatch, model, step, x_max, skip=False)
    assert np.array_equal(pmf.masses, ref.masses)
    assert pmf.tilt == ref.tilt
    assert passes == [p for p in all_passes if p in passes]
    dropped = [p for p in all_passes if p not in passes]
    assert len(dropped) == skipped
    assert all(theta == 0.0 and wrapped for _, theta, wrapped in dropped)
    assert passes[-1][0] == all_passes[-1][0]
    if case.startswith("benchmark"):
        assert [L for L, theta, _ in passes if theta == 0.0] == [162000]
    if case.endswith("damped"):
        assert passes[-1][1] < 0.0


def test_fast_len_is_scipy_next_fast_len():
    """The transform length is the least 2^a 3^b 5^c at or above n, as
    scipy's real-input ``next_fast_len`` gives it, over a range and at
    the lengths the benchmark lattices reach."""
    from scipy.fft import next_fast_len

    for n in [*range(1, 20001), 80002, 80190, 160380, 162000, 10**6, 6 * 10**6 + 1]:
        assert panjer._fast_len(n) == next_fast_len(n, real=True), n


# ---------------------------------------------------------------------------
# benchmark values
# ---------------------------------------------------------------------------

def test_sigma05_reference_quantiles(sigma05_pmf):
    expected = {0.5: 14.410, 0.8: 27.085, 0.9: 34.970, 0.95: 42.135,
                0.99: 57.200, 0.999: 76.685, 0.9995: 82.270}
    for alpha, q_ref in expected.items():
        [(q, _)] = oracle_tail_stats(sigma05_pmf, [alpha])
        assert q == pytest.approx(q_ref, abs=1e-9)


def test_sigma05_reference_density_and_cdf(sigma05_pmf):
    dens = lattice_density(sigma05_pmf)
    step = sigma05_pmf.step
    for x, d_ref in ((10.0, 0.03215556724), (20.0, 0.0246406524),
                     (40.0, 0.006075519973)):
        assert dens[round(x / step)] == pytest.approx(d_ref, rel=1e-6)
    cdf = sigma05_pmf.cdf()
    assert cdf[round(20.0 / step)] == pytest.approx(0.654610503, rel=1e-8)
    assert cdf[round(57.0 / step)] == pytest.approx(0.989773979, rel=1e-8)
    mean = float(np.dot(sigma05_pmf.grid(), sigma05_pmf.masses))
    assert mean == pytest.approx(2.0 * math.exp(2.125), rel=5e-3)


def test_sigma05_quantiles_stable_under_step_halving(sigma05_pmf):
    coarse = oracle_compound_pmf(sigma05_model(), step=0.01, x_max=120.0)
    for alpha in (0.99, 0.9995):
        [(qc, _)] = oracle_tail_stats(coarse, [alpha])
        [(qf, _)] = oracle_tail_stats(sigma05_pmf, [alpha])
        assert abs(qc - qf) <= 0.02
    [(q99, _)] = oracle_tail_stats(coarse, [0.99])
    assert abs(q99 - 57.0) <= 1.0
    [(q9995, _)] = oracle_tail_stats(coarse, [0.9995])
    assert abs(q9995 - 83.0) <= 2.0


def test_sigma1_99_percent_quantile():
    pmf = oracle_compound_pmf(sigma1_model(), step=0.01, x_max=400.0)
    [(q, _)] = oracle_tail_stats(pmf, [0.99])
    assert abs(q - 129.0) <= 2.0


def test_sigma05_expected_shortfall():
    pmf = oracle_compound_pmf(sigma05_model(), step=0.01, x_max=400.0)
    [(q, tail_mean)] = oracle_tail_stats(pmf, [0.99])
    assert q == pytest.approx(57.2, abs=0.02)
    assert tail_mean == pytest.approx(65.731173, abs=0.02)
    # several levels read from one cumulative sum, each as if alone
    levels = [0.5, 0.99, 0.9995]
    stats = oracle_tail_stats(pmf, levels)
    assert stats == [oracle_tail_stats(pmf, [a])[0] for a in levels]
    assert stats[1] == (q, tail_mean)


def test_oracle_agrees_with_monte_carlo(sigma05_pmf, sigma05_batch):
    cdf = sigma05_pmf.cdf()
    step = sigma05_pmf.step
    T = sigma05_batch.count
    for x in (20.0, 57.0, 83.0):
        mc = float(np.mean(sigma05_batch.values <= x))
        se = math.sqrt(mc * (1.0 - mc) / T)
        assert abs(cdf[round(x / step)] - mc) <= 4.0 * se


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_quantile_validates_level_and_truncation():
    pmf = oracle_compound_pmf(sigma05_model(), step=0.05, x_max=20.0)
    with pytest.raises(TruncationError):
        oracle_tail_stats(pmf, [0.999])
    with pytest.raises(ValueError):
        oracle_tail_stats(pmf, [0.0])
    with pytest.raises(ValueError):
        oracle_tail_stats(pmf, [1.0])


def test_zero_atom_is_the_no_claim_probability():
    pmf = oracle_compound_pmf(sigma05_model(), step=0.05, x_max=30.0)
    assert pmf.masses[0] == pytest.approx(math.exp(-2.0), abs=1e-12)
