import math

import numpy as np
import pytest
from scipy.special import ndtri

from lossmc import (
    BinomialFrequency,
    DegenerateSeverity,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParetoSeverity,
    PcgStream,
    PoissonFrequency,
    UnsupportedModelError,
    build_frequency,
    build_severity,
    norm_cdf,
    norm_quantile,
    norm_sf,
)
from lossmc.distributions import _guide_table, _guided_search

from conftest import SequenceStream


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
    assert sev.isf(1.0 - 0.99) == pytest.approx(9.0, rel=1e-10)
    assert sev.mean() == pytest.approx(1.0)
    assert sev.tail_index == 2.0


def test_lognormal_quantiles():
    assert LogNormalSeverity(2.0, 0.5).isf(0.5) == pytest.approx(math.exp(2.0), rel=1e-10)
    q = LogNormalSeverity(2.0, 1.0).isf(1.0 - 0.975)
    assert q == pytest.approx(math.exp(2.0 + 1.9599639845400545), rel=1e-8)


def test_isf_sf_roundtrip_into_the_deep_tail():
    """sf(isf(u)) gives u back to relative 1e-12 from u = 0.99 down to
    1e-12, where 1 - u as a cdf level keeps only a few digits of u."""
    us = np.geomspace(0.99, 1e-12, 400)
    for sev in (LogNormalSeverity(2.0, 0.5), LogNormalSeverity(2.0, 1.0),
                ParetoSeverity(a=2.0, s=1.0), ParetoSeverity(a=0.5, s=3.0)):
        assert np.allclose(sev.sf(sev.isf(us)), us, rtol=1e-12, atol=0.0)


def test_cdf_plus_sf_is_one():
    """cdf + sf = 1 on the support, and the edges read exactly: 0 and 1 at
    and below x = 0, 1 and 0 at +inf.  A scalar returns a float and an
    array keeps its shape."""
    for sev in (LogNormalSeverity(2.0, 0.5), ParetoSeverity(a=2.0, s=1.0),
                ParetoSeverity(a=0.5, s=3.0), DegenerateSeverity(atom=3.0)):
        for x in (0.5, 2.0, 7.0, 30.0, 100.0):
            assert sev.cdf(x) + sev.sf(x) == pytest.approx(1.0, abs=1e-12)
        for x in (-1.0, 0.0):
            assert sev.cdf(x) == 0.0 and sev.sf(x) == 1.0
        assert sev.cdf(math.inf) == 1.0 and sev.sf(math.inf) == 0.0
        for fn in (sev.cdf, sev.sf):
            assert isinstance(fn(2.0), float)
            assert fn(np.full((2, 3), 2.0)).shape == (2, 3)
    ln = LogNormalSeverity(2.0, 0.5)
    for fn in (ln.pdf, ln.partial_expectation):
        assert fn(-1.0) == 0.0 and fn(0.0) == 0.0
        assert isinstance(fn(2.0), float)
        assert fn(np.full((2, 3), 2.0)).shape == (2, 3)


def test_degenerate_severity():
    sev = DegenerateSeverity(atom=3.0)
    assert sev.mean() == 3.0
    assert sev.cdf(2.9) == 0.0
    assert sev.cdf(3.0) == 1.0


def _per_cell_masses(sev, edges):
    """Each cell's mass from both ends' cdf (below the median) or sf."""
    lo, hi = edges[:-1], edges[1:]
    return np.maximum(np.where(hi <= sev.isf(0.5), sev.cdf(hi) - sev.cdf(lo),
                               sev.sf(lo) - sev.sf(hi)), 0.0)


def _per_cell_partial_expectation(sev, edges):
    """Each cell's E[X; lo < X <= hi] from both of its ends."""
    lo, hi = edges[:-1], edges[1:]
    if isinstance(sev, LogNormalSeverity):
        def z(x):
            return np.where(x > 0, sev._z(np.where(x > 0, x, 1.0)), -np.inf) - sev.sigma
        zlo, zhi = z(lo), z(hi)
        incr = np.where(zhi <= 0.0, norm_cdf(zhi) - norm_cdf(zlo), norm_sf(zlo) - norm_sf(zhi))
        return sev.mean() * np.maximum(incr, 0.0)
    if isinstance(sev, ParetoSeverity):
        integ = sev.integrated_survival(hi) - sev.integrated_survival(lo)
        return np.maximum(integ + lo * sev.sf(lo) - hi * sev.sf(hi), 0.0)
    return np.where((lo < sev.atom) & (sev.atom <= hi), sev.atom, 0.0)


@pytest.mark.parametrize("sev, edges", [
    # the median e^2 = 7.389 and e^{mu + sigma^2} = 9.488 inside cells
    (LogNormalSeverity(2.0, 0.5), 0.05 * np.arange(401)),
    (LogNormalSeverity(2.0, 1.0), 0.01 * np.arange(40001)),
    (LogNormalSeverity(2.0, 0.5), 0.25 * (np.arange(201) + 0.5)),
    # the median 10 (2^0.4 - 1) = 3.195 inside a cell
    (ParetoSeverity(2.5, 10.0), 0.05 * np.arange(2001)),
    (DegenerateSeverity(2.0), 0.5 * np.arange(9)),
    (DegenerateSeverity(2.03), 0.05 * np.arange(81)),
], ids=["lognormal", "lognormal-benchmark", "lognormal-rounding", "pareto",
        "degenerate-on-edge", "degenerate-in-cell"])
def test_shared_edge_cells_match_per_cell_differences(sev, edges):
    """Evaluating each edge once gives the per-cell masses and partial
    expectations bit for bit, the cells straddling a median included."""
    assert np.array_equal(sev.interval_masses(edges), _per_cell_masses(sev, edges))
    assert np.array_equal(sev.interval_partial_expectation(edges),
                          _per_cell_partial_expectation(sev, edges))


@pytest.mark.parametrize("p", [0.0, 1.0, math.nan, -0.5, 1.5, [0.5, 0.0], [0.3, math.nan, 0.7],
                               [0.5, 1.0], [-math.inf, 0.5]],
                         ids=["zero", "one", "nan", "below", "above", "array-zero", "array-nan",
                              "array-one", "array-minus-inf"])
def test_normal_quantile_refuses_p_outside_open_unit_interval(p):
    with pytest.raises(ValueError):
        norm_quantile(p)


def test_normal_quantile_is_ndtri_inside_unit_interval():
    p = np.array([1e-300, 0.25, 0.5, 1.0 - 1e-16])
    assert np.array_equal(norm_quantile(p), ndtri(p))
    assert norm_quantile(0.975) == ndtri(0.975) and np.ndim(norm_quantile(0.975)) == 0
    empty = norm_quantile(np.array([]))
    assert empty.shape == (0,) and empty.dtype == float


# ---------------------------------------------------------------------------
# severity sampling
# ---------------------------------------------------------------------------

def test_lognormal_sampler_scripted():
    """Two hand-traced inverse-transform draws, one uniform each.

    u is the draw's survival probability: u = 1/2 gives the median e^2,
    and u = Phi(1) puts the normal score at -1, one sigma below.
    """
    sev = LogNormalSeverity(2.0, 0.5)
    stream = SequenceStream([0.5, norm_cdf(1.0)])
    x = sev.sample(stream, 2)
    assert stream.remaining == 0
    assert x[0] == pytest.approx(math.exp(2.0), rel=1e-12)
    assert x[1] == pytest.approx(math.exp(2.0 - 0.5), rel=1e-12)


def test_lognormal_sampler_deep_tail_and_unit_endpoint():
    """The tiniest uniforms give finite draws; u = 1 gives exactly 0."""
    sev = LogNormalSeverity(2.0, 1.0)
    x = sev.sample(SequenceStream([1e-300, 1.0]), 2)
    assert math.isfinite(x[0])
    assert x[0] == math.exp(2.0 - 1.0 * ndtri(1e-300))
    assert x[1] == 0.0


def test_lognormal_sampler_moments():
    sev = LogNormalSeverity(2.0, 0.5)
    x = sev.sample(PcgStream(3434), size=1_000_000)
    se_mean = x.std(ddof=1) / 1000.0
    assert abs(x.mean() - math.exp(2.125)) <= 3.0 * se_mean
    # the log of the draws must be N(2, 0.25)
    lx = np.log(x)
    assert abs(lx.mean() - 2.0) <= 4.0 * (0.5 / 1000.0)
    assert abs(lx.var(ddof=1) - 0.25) <= 4.0 * 0.25 * math.sqrt(2.0 / 1_000_000)


_SEVERITIES = {
    "lognormal": LogNormalSeverity(2.0, 1.0),
    "pareto": ParetoSeverity(a=3.0, s=2.0),
    "degenerate": DegenerateSeverity(atom=3.0),
}


@pytest.mark.parametrize("name", sorted(_SEVERITIES))
def test_sample_is_isf_of_the_stream(name):
    """A draw is isf of its uniform; the point mass reads no uniform."""
    sev = _SEVERITIES[name]
    stream = PcgStream(3535)
    x = sev.sample(stream, 1000)
    u = PcgStream(3535).uniforms(1000)
    assert np.array_equal(x, sev.isf(u))
    if name == "degenerate":
        assert np.array_equal(stream.uniforms(1000), u)


@pytest.mark.parametrize("name", ["lognormal", "pareto"])
def test_isf_inverts_sf(name):
    """From the median to survival 1e-200, isf(sf(x)) gives x back."""
    sev = _SEVERITIES[name]
    x = sev.isf(np.geomspace(0.5, 1e-200, 400))
    assert np.allclose(sev.isf(sev.sf(x)), x, rtol=1e-12, atol=0.0)
    assert sev.isf(sev.sf(7.5)) == pytest.approx(7.5, rel=1e-12)
    deg = _SEVERITIES["degenerate"]
    assert deg.isf(deg.sf(3.0)) == 3.0


@pytest.mark.parametrize("name,c", [("lognormal", 100.0), ("pareto", 20.0)])
def test_isf_of_scaled_uniform_draws_the_law_above_a_floor(name, c):
    """isf(v sf(c)) for uniform v has the law of X given X > c: its survival
    is sf(y) / sf(c) above c and its mean is E[X; X > c] / sf(c), for the
    Pareto c + (s + c)/(a - 1)."""
    sev = _SEVERITIES[name]
    n = 200_000
    y = sev.isf(PcgStream(3636).uniforms(n) * sev.sf(c))
    assert y.min() >= c
    for ratio in (1.2, 1.5, 2.0, 4.0):
        p = float(sev.sf(ratio * c) / sev.sf(c))
        assert abs(np.mean(y > ratio * c) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    if name == "pareto":
        mean = c + (sev.s + c) / (sev.a - 1.0)
    else:
        mean = (sev.mean() - sev.partial_expectation(c)) / sev.sf(c)
    assert abs(y.mean() - mean) <= 4.0 * y.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# frequency pmfs and Panjer parameters
# ---------------------------------------------------------------------------

def test_poisson_panjer_params():
    freq = PoissonFrequency(3.0)
    a, b = freq.panjer()
    assert (a, b) == (0.0, 3.0)
    # p_{n+1} = (a + b/(n+1)) p_n from p_0 = e^-3 walks out the Poisson pmf
    pmf = [freq.pmf(0)]
    for n in range(10):
        pmf.append((a + b / (n + 1)) * pmf[-1])
    assert pmf == pytest.approx([math.exp(-3.0) * 3.0 ** n / math.factorial(n)
                                 for n in range(11)], rel=1e-12)


def test_binomial_panjer_params_regenerate_pmf():
    freq = BinomialFrequency(2, 0.5)
    a, b = freq.panjer()
    assert (a, b, freq.pmf(0)) == (-1.0, 3.0, 0.25)
    # p_{n+1} = (a + b/(n+1)) p_n walks out the exact binomial pmf
    pmf = [freq.pmf(0)]
    for n in range(3):
        pmf.append((a + b / (n + 1)) * pmf[-1])
    assert pmf[:3] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert pmf[3] == pytest.approx(0.0, abs=1e-14)


def test_negbinomial_is_geometric_at_r_one():
    freq = NegativeBinomialFrequency(r=1.0, beta=1.0)
    assert freq.panjer() == (0.5, 0.0)
    assert freq.pmf(0) == 0.5
    n = np.arange(12)
    assert freq.pmf(n) == pytest.approx(0.5 ** (n + 1), rel=1e-12)


def test_panjer_recursion_reproduces_pmfs():
    """(a, b) regeneration from p_0 matches each member's pmf up to n = 50."""
    for freq in (PoissonFrequency(2.0), BinomialFrequency(7, 0.35),
                 NegativeBinomialFrequency(r=2.5, beta=0.8)):
        a, b = freq.panjer()
        vals = [freq.pmf(0)]
        for n in range(50):
            vals.append((a + b / (n + 1)) * vals[-1])
        vals = np.array(vals)
        assert np.max(np.abs(vals - freq.pmf(np.arange(51)))) < 1e-10


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


@pytest.mark.parametrize("freq,top,deficit,top_drawn", [
    (GeneralizedPoissonFrequency(1.5, -0.3), 4, True, True),
    # the rate at n = 5 rounds to 2.2e-16 > 0, past the old ceil formula's 4
    (GeneralizedPoissonFrequency(1.8, -0.36), 5, True, True),
    # the rate at n = 7 is exactly 0, which the old ceil formula admitted
    (GeneralizedPoissonFrequency(2.1, -0.3), 6, True, True),
    # tables whose totals round to 1 or above, and whose last count has
    # too little mass to be drawn
    (GeneralizedPoissonFrequency(0.9, -0.18), 5, False, False),
    (GeneralizedPoissonFrequency(19.8, -0.09), 219, False, False),
    (BinomialFrequency(5, 0.4), 5, False, True),
], ids=["gp-1.5", "gp-1.8", "gp-2.1", "gp-0.9", "gp-19.8", "binomial"])
def test_truncated_generalized_poisson_draws_stay_in_support(freq, top, deficit, top_drawn):
    """The pmf, the pgf and the count table read one support, 0 to
    ``_support_max``: the pmf is 0 just outside it and finite on it, the
    pgf at 1 sums the pmf over it, and no draw passes it.  The table ends
    at the last count with positive mass, so where its total falls short
    of 1, keys above the total, the unrenormalized deficit, draw that
    count instead of one past it."""
    assert freq._support_max == top
    pm = freq.pmf(np.arange(-1, top + 2))
    assert pm[0] == pm[-1] == freq.pmf(-1) == freq.pmf(top + 1) == 0.0
    assert np.isfinite(pm).all()
    assert freq.pgf(1.0) == pytest.approx(pm.sum(), rel=1e-14)
    table, guide = freq._cdf_table()
    assert len(table) - 1 == np.flatnonzero(pm)[-1] - 1 <= top
    draws = freq.sample(PcgStream(1), 1_000_000)
    if top_drawn:
        assert draws.max() == len(table) - 1
    else:
        assert draws.max() <= top
    if deficit:
        assert table[-1] < 1.0
        above = np.array([np.nextafter(table[-1], 2.0), 0.5 * (table[-1] + 1.0), 1.0])
        assert np.array_equal(_guided_search(table, guide, above), [len(table) - 1] * 3)


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
    assert PoissonFrequency(0.0).sample(PcgStream(1), 1)[0] == 0


def test_poisson_sampler_hand_trace():
    """lam = ln 2 by inverse transform, one uniform per count.

    The cdf table starts 0.5, 0.8466, 0.9667: u = 0.6 lands in the second
    cell and u = 0.9 in the third, so the draws are 1 and 2.
    """
    stream = SequenceStream([0.6, 0.9])
    draws = PoissonFrequency(math.log(2.0)).sample(stream, 2)
    assert list(draws) == [1, 2]
    assert stream.remaining == 0


def _searchsorted_reference(cdf, u):
    """The binary-search inverse the guide table replaces."""
    return np.minimum(np.searchsorted(cdf, u), len(cdf) - 1)


def test_guide_table_hand_trace_poisson_ln2():
    """lam = ln 2: the table ends at entry 165, the last count whose pmf
    does not underflow, and starts 0.5, 0.8466, 0.9667, 0.9944, 0.99925,
    0.99991, 0.9999917, 0.9999993, so floor(166 cdf) starts 83, 140, 160,
    165, 165, ... and never reaches 166 (the table stops short of 1).
    Bucket j's guide is the first entry with floor >= j.
    """
    table, guide = PoissonFrequency(math.log(2.0))._cdf_table()
    assert len(table) == 166 and len(guide) == 167
    assert np.all(guide[:84] == 0)
    assert np.all(guide[84:141] == 1)
    assert np.all(guide[141:161] == 2)
    assert np.all(guide[161:166] == 3)
    assert guide[166] == 166  # past the table: no entry reaches 1
    # 0.5: bucket 83, guide 0, a tie with cdf[0]; 0.6, 0.9, 0.97: the
    # guide entry itself; 0.9995: bucket 165, two steps from 3 to 5;
    # 0.999995: two steps reach 5, still short, so the binary search
    # finds 7; 1.0: bucket 166, past the table, clamped to the last entry
    u = np.array([0.5, 0.6, 0.9, 0.97, 0.9995, 0.999995, 1.0])
    expected = [0, 1, 2, 3, 5, 7, 165]
    assert list(_guided_search(table, guide, u)) == expected
    assert list(_searchsorted_reference(table, u)) == expected


def _heavy_top_cdf():
    """Most of the mass in the top bucket: one entry at 0.9, then 999
    tiny ones."""
    g = np.concatenate([[0.9], np.full(999, 0.1 / 999)])
    return np.cumsum(g) / g.sum()


def _rounds_above_one_cdf():
    """A cdf whose last entries round above 1, so floor(m cdf) passes m."""
    cdf = np.cumsum(np.full(300, 1.0 / 300))
    cdf[-5:] = [np.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3]
    return cdf


def _skewed_cdf():
    """Random masses u^30: a few large steps among many tiny ones."""
    g = PcgStream(3737).uniforms(1000) ** 30
    return np.cumsum(g) / g.sum()


@pytest.mark.parametrize("cdf", [
    _heavy_top_cdf(),
    _rounds_above_one_cdf(),
    _skewed_cdf(),
    np.array([1.0]),
    np.array([0.25, 0.5, 0.5, 0.5, 1.0]),
], ids=["heavy-top", "rounds-above-1", "random-skewed", "single", "flat-runs"])
def test_guide_table_matches_searchsorted_construction(cdf):
    """Counting bucket indices gives the guide the m binary searches gave:
    entry j is the first index whose floor(m cdf) reaches j."""
    m = len(cdf)
    expected = np.searchsorted(np.floor(cdf * m), np.arange(m + 1))
    guide = _guide_table(cdf)
    assert guide.dtype == expected.dtype and np.array_equal(guide, expected)


@pytest.mark.parametrize("freq", [
    PoissonFrequency(math.log(2.0)),
    PoissonFrequency(3.0),
    PoissonFrequency(800.0),
    BinomialFrequency(30, 0.4),
    NegativeBinomialFrequency(2.0, 9.0),
    GeneralizedPoissonFrequency(5000.0, 0.1),
    GeneralizedPoissonFrequency(1.5, 0.9),
    GeneralizedPoissonFrequency(10.0, -0.5),
], ids=["poisson-ln2", "poisson3", "poisson800", "binomial", "negbinomial-2-9",
        "genpoisson-5000-0.1", "genpoisson-1.5-0.9", "genpoisson-truncated"])
def test_guided_search_matches_binary_search_on_count_tables(freq):
    """The guide lookup returns the binary search's index on random keys,
    on every table entry and its neighbours, and at the top end."""
    table, guide = freq._cdf_table()
    u = np.concatenate([
        PcgStream(3636).uniforms(50_000),
        table, np.nextafter(table, 2.0), np.nextafter(table, -1.0),
        [1.0, table[-1], np.nextafter(table[-1], 2.0)],
    ])
    u = u[(u > 0.0) & (u <= 1.0)]
    assert np.array_equal(_guided_search(table, guide, u),
                          _searchsorted_reference(table, u))


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


@pytest.mark.parametrize("freq,var", [
    (PoissonFrequency(800.0), 800.0),
    (PoissonFrequency(5000.0), 5000.0),
    (GeneralizedPoissonFrequency(5000.0, 0.1), 5000.0 / 0.9 ** 3),
], ids=["poisson800", "poisson5000", "genpoisson5000"])
def test_sampler_mean_when_mass_starts_past_first_table_block(freq, var):
    """The count table must reach a bulk that starts beyond entry 255, and
    exp(-lam) underflowing must not cap the draws."""
    draws = freq.sample(PcgStream(3535), size=100_000)
    assert abs(draws.mean() - freq.mean()) <= 4.0 * math.sqrt(var / 100_000)


# ---------------------------------------------------------------------------
# validation and the config builders
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
