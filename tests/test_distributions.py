import math

import numpy as np
import pytest

from lossmc import (
    BinomialFrequency,
    DegenerateSeverity,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParetoSeverity,
    PcgStream,
    PoissonFrequency,
    SequenceStream,
    UnsupportedModelError,
    build_frequency,
    build_severity,
    frequency_pmf,
    panjer_params,
    severity_eval,
    severity_quantile,
)


# ---------------------------------------------------------------------------
# severity pointwise evaluations
# ---------------------------------------------------------------------------

def test_lognormal_at_scale_point():
    """At x = exp(mu) the lognormal sits exactly at its median."""
    sev = LogNormalSeverity(2.0, 0.5)
    x = math.exp(2.0)
    assert sev.cdf(x) == pytest.approx(0.5, abs=1e-12)
    assert sev.sf(x) == pytest.approx(0.5, abs=1e-12)
    # pdf = phi(0) / (x * sigma)
    assert sev.pdf(x) == pytest.approx(1.0 / (x * 0.5 * math.sqrt(2.0 * math.pi)),
                                       rel=1e-12)


def test_lognormal_pdf_matches_cdf_derivative():
    sev = LogNormalSeverity(2.0, 0.5)
    for x in (1.0, 5.0, 8.0, 20.0, 60.0):
        h = 1e-5 * x
        fd = (sev.cdf(x + h) - sev.cdf(x - h)) / (2.0 * h)
        assert sev.pdf(x) == pytest.approx(fd, rel=1e-6)


def test_pareto_survival_and_quantile():
    sev = ParetoSeverity(a=2.0, s=1.0)
    assert sev.sf(9.0) == pytest.approx(0.01, rel=1e-12)
    assert sev.quantile(0.99) == pytest.approx(9.0, rel=1e-10)
    assert sev.mean() == pytest.approx(1.0)
    assert sev.tail_index == 2.0


def test_lognormal_quantiles():
    assert LogNormalSeverity(2.0, 0.5).quantile(0.5) == pytest.approx(math.exp(2.0),
                                                                      rel=1e-10)
    q = LogNormalSeverity(2.0, 1.0).quantile(0.975)
    assert q == pytest.approx(math.exp(2.0 + 1.9599639845400545), rel=1e-8)


def test_quantile_cdf_roundtrip():
    """quantile and cdf invert each other across the body of each law."""
    ps = np.linspace(0.01, 0.99, 99)
    for sev in (LogNormalSeverity(2.0, 0.5), LogNormalSeverity(2.0, 1.0),
                ParetoSeverity(a=2.0, s=1.0)):
        qs = np.array([sev.quantile(p) for p in ps])
        back = np.array([sev.cdf(q) for q in qs])
        assert np.max(np.abs(back - ps)) < 1e-9


def test_cdf_plus_sf_is_one():
    sev = LogNormalSeverity(2.0, 0.5)
    for x in (0.5, 2.0, 7.0, 30.0, 100.0):
        assert sev.cdf(x) + sev.sf(x) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_severity():
    sev = DegenerateSeverity(atom=3.0)
    assert sev.mean() == 3.0
    assert sev.cdf(2.9) == 0.0
    assert sev.cdf(3.0) == 1.0


# ---------------------------------------------------------------------------
# severity sampling
# ---------------------------------------------------------------------------

def test_lognormal_sampler_scripted():
    """Two hand-traced draws through the polar sampler.

    The first uniform drives the angle, the second the radius: angle
    0.25 puts the cosine at zero (the median), angle 0.5 flips the unit
    radius to -1 (one sigma below).
    """
    sev = LogNormalSeverity(2.0, 0.5)
    assert sev.sample(SequenceStream([0.25, math.exp(-2.0)])) == pytest.approx(
        math.exp(2.0), rel=1e-12)
    assert sev.sample(SequenceStream([0.5, math.exp(-0.5)])) == pytest.approx(
        math.exp(2.0 - 0.5), rel=1e-12)


def test_lognormal_sampler_moments():
    sev = LogNormalSeverity(2.0, 0.5)
    x = sev.sample(PcgStream(3434), size=1_000_000)
    se_mean = x.std(ddof=1) / 1000.0
    assert abs(x.mean() - math.exp(2.125)) <= 3.0 * se_mean
    # the log of the draws must be N(2, 0.25)
    lx = np.log(x)
    assert abs(lx.mean() - 2.0) <= 4.0 * (0.5 / 1000.0)
    assert abs(lx.var(ddof=1) - 0.25) <= 4.0 * 0.25 * math.sqrt(2.0 / 1_000_000)


# ---------------------------------------------------------------------------
# frequency pmfs and Panjer parameters
# ---------------------------------------------------------------------------

def test_poisson_panjer_params():
    p = PoissonFrequency(3.0).panjer()
    assert (p.a, p.b) == (0.0, 3.0)
    assert p.p0 == pytest.approx(math.exp(-3.0), rel=1e-14)


def test_binomial_panjer_params_regenerate_pmf():
    freq = BinomialFrequency(2, 0.5)
    p = freq.panjer()
    assert (p.a, p.b, p.p0) == (-1.0, 3.0, 0.25)
    # p_{n+1} = (a + b/(n+1)) p_n walks out the exact binomial pmf
    pmf = [p.p0]
    for n in range(3):
        pmf.append((p.a + p.b / (n + 1)) * pmf[-1])
    assert pmf[:3] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert pmf[3] == pytest.approx(0.0, abs=1e-14)


def test_negbinomial_is_geometric_at_r_one():
    freq = NegativeBinomialFrequency(r=1.0, beta=1.0)
    p = freq.panjer()
    assert (p.a, p.b, p.p0) == (0.5, 0.0, 0.5)
    n = np.arange(12)
    assert freq.pmf(n) == pytest.approx(0.5 ** (n + 1), rel=1e-12)


def test_panjer_recursion_reproduces_pmfs():
    """(a, b, p0) regeneration matches each member's pmf up to n = 50."""
    for freq in (PoissonFrequency(2.0), BinomialFrequency(7, 0.35),
                 NegativeBinomialFrequency(r=2.5, beta=0.8)):
        p = freq.panjer()
        vals = [p.p0]
        for n in range(50):
            vals.append((p.a + p.b / (n + 1)) * vals[-1])
        vals = np.array(vals)
        assert np.max(np.abs(vals - freq.pmf(np.arange(51)))) < 1e-10


def test_panjer_params_helper_matches_method():
    assert panjer_params(PoissonFrequency(3.0)) == PoissonFrequency(3.0).panjer()


def test_pmf_mass_and_means():
    n = np.arange(400)
    for freq, mean in ((PoissonFrequency(3.0), 3.0),
                       (BinomialFrequency(5, 0.3), 1.5),
                       (NegativeBinomialFrequency(r=2.0, beta=3.0), 6.0)):
        pm = freq.pmf(n)
        assert pm.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.dot(n, pm) == pytest.approx(mean, abs=1e-8)
        assert freq.mean() == pytest.approx(mean)


def test_generalized_poisson_reduces_to_poisson():
    gp = GeneralizedPoissonFrequency(3.0, 0.0)
    po = PoissonFrequency(3.0)
    n = np.arange(60)
    assert np.max(np.abs(gp.pmf(n) - po.pmf(n))) < 1e-12


def test_generalized_poisson_mass():
    gp = GeneralizedPoissonFrequency(2.0, 0.3)
    assert gp.pmf(0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert gp.pmf(np.arange(201)).sum() == pytest.approx(1.0, abs=1e-8)


def test_generalized_poisson_negative_dispersion_truncates():
    """theta < 0 caps the support; the tiny mass defect stays unrenormalized."""
    gp = GeneralizedPoissonFrequency(2.0, -0.2)
    n = np.arange(40)
    pm = gp.pmf(n)
    assert pm[10:].sum() == 0.0          # lam + n*theta <= 0 from n = 10 on
    assert pm[9] > 0.0
    assert pm.sum() == pytest.approx(1.0, abs=1e-10)


def test_generalized_poisson_has_no_panjer_params():
    with pytest.raises(UnsupportedModelError):
        GeneralizedPoissonFrequency(2.0, 0.3).panjer()


# complex points on and inside the unit circle, plus s = 1 and s = -1
PGF_POINTS = np.concatenate([np.exp(1j * np.linspace(0.0, np.pi, 9)),
                             0.9 * np.exp(1j * np.linspace(0.3, 3.0, 5)),
                             [0.0, 0.4 + 0.3j]])


@pytest.mark.parametrize("freq", [
    PoissonFrequency(2.0),
    BinomialFrequency(5, 0.4),
    NegativeBinomialFrequency(2.0, 1.0),
    NegativeBinomialFrequency(2.0, 9.0),
    GeneralizedPoissonFrequency(1.5, 0.3),
    GeneralizedPoissonFrequency(2.0, 0.9),
    GeneralizedPoissonFrequency(2.0, -0.3),
], ids=["poisson", "binomial", "negbinomial", "negbinomial-beta9",
        "genpoisson", "genpoisson-theta09", "genpoisson-negative"])
def test_pgf_matches_power_series(freq):
    """pgf(s) = sum_n p_n s^n, elementwise on a complex array."""
    n = np.arange(20_000)      # the slowest tail, theta = 0.9, is below 1e-40
    pm = freq.pmf(n)
    series = np.array([np.sum(pm * s ** n) for s in PGF_POINTS])
    assert np.max(np.abs(freq.pgf(PGF_POINTS) - series)) < 1e-13
    # a real argument gives a real value: the total mass at s = 1
    assert np.isrealobj(freq.pgf(1.0))
    assert freq.pgf(1.0) == pytest.approx(pm.sum(), abs=1e-14)


# ---------------------------------------------------------------------------
# frequency sampling
# ---------------------------------------------------------------------------

def test_poisson_sampler_zero_rate():
    assert PoissonFrequency(0.0).sample(PcgStream(1)) == 0


def test_poisson_sampler_hand_trace():
    """lam = ln 2: the uniform product must undershoot 1/2.

    0.6 stays above, 0.6*0.9 = 0.54 stays above, 0.54*0.5 crosses, so
    exactly two factors survived and the draw is 2.
    """
    assert PoissonFrequency(math.log(2.0)).sample(SequenceStream([0.6, 0.9, 0.5])) == 2


def test_poisson_sampler_mean():
    draws = PoissonFrequency(3.0).sample(PcgStream(3131), size=1_000_000)
    assert abs(draws.mean() - 3.0) <= 3.0 * math.sqrt(3.0 / 1_000_000)


def test_binomial_table_sampler_mean():
    draws = BinomialFrequency(5, 0.3).sample(PcgStream(3232), size=100_000)
    assert np.all((draws >= 0) & (draws <= 5))
    assert abs(draws.mean() - 1.5) <= 4.0 * math.sqrt(5 * 0.3 * 0.7 / 100_000)


def test_generalized_poisson_sampler_mean():
    gp = GeneralizedPoissonFrequency(2.0, 0.3)
    draws = gp.sample(PcgStream(3333), size=200_000)
    var = 2.0 / 0.7 ** 3
    assert abs(draws.mean() - gp.mean()) <= 3.0 * math.sqrt(var / 200_000)


# ---------------------------------------------------------------------------
# validation and the contract helpers
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        LogNormalSeverity(2.0, 0.0)
    with pytest.raises(ValueError):
        ParetoSeverity(a=0.0, s=1.0)
    with pytest.raises(ValueError):
        DegenerateSeverity(atom=0.0)
    with pytest.raises(ValueError):
        PoissonFrequency(-1.0)
    with pytest.raises(ValueError):
        BinomialFrequency(0, 0.5)
    with pytest.raises(ValueError):
        BinomialFrequency(2, 1.0)
    with pytest.raises(ValueError):
        NegativeBinomialFrequency(r=0.0, beta=1.0)
    with pytest.raises(ValueError):
        GeneralizedPoissonFrequency(2.0, 1.0)
    with pytest.raises(ValueError):
        GeneralizedPoissonFrequency(2.0, -0.9)


def test_contract_helpers_validate_inputs():
    sev = LogNormalSeverity(2.0, 0.5)
    assert severity_eval(sev, 5.0) == pytest.approx(
        (sev.pdf(5.0), sev.cdf(5.0), sev.sf(5.0)))
    with pytest.raises(ValueError):
        severity_eval(sev, float("nan"))
    with pytest.raises(ValueError):
        severity_quantile(sev, 1.0)
    with pytest.raises(ValueError):
        frequency_pmf(PoissonFrequency(2.0), -1)


def test_builders_from_config_fragments():
    freq = build_frequency({"kind": "poisson", "lambda": 2.0})
    assert freq == PoissonFrequency(2.0)
    sev = build_severity({"kind": "lognormal", "mu": 2.0, "sigma": 0.5})
    assert sev == LogNormalSeverity(2.0, 0.5)
    assert build_frequency({"kind": "genpoisson", "lambda": 2.0, "theta": 0.3}) == \
        GeneralizedPoissonFrequency(2.0, 0.3)
    assert build_severity({"kind": "pareto", "a": 2.0, "s": 1.0}) == \
        ParetoSeverity(a=2.0, s=1.0)


def test_builders_reject_bad_fragments():
    with pytest.raises(ValueError, match="must be one of"):
        build_frequency({"kind": "zeta", "s": 2.0})
    with pytest.raises(ValueError, match="missing field"):
        build_frequency({"kind": "poisson"})
    with pytest.raises(ValueError, match="must be one of"):
        build_severity({"kind": "weibull", "k": 1.0})
    with pytest.raises(ValueError, match="missing field"):
        build_severity({"kind": "lognormal", "mu": 2.0})
