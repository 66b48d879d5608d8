import math

import numpy as np
import pytest
from scipy import stats

from lossmc import compound
from lossmc import (
    CompoundModel,
    DegenerateSeverity,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParetoSeverity,
    PcgStream,
    PoissonFrequency,
    SampleBatch,
    UniformStream,
    empirical_quantile_ci,
    simulate_compound,
    simulate_compound_parallel,
)

from conftest import oracle_tail, sigma05_model


def test_zero_rate_gives_zero_losses():
    model = CompoundModel(PoissonFrequency(0.0), LogNormalSeverity(2.0, 0.5))
    batch = simulate_compound(model, 500, PcgStream(7))
    assert np.all(batch.values == 0.0)


def test_unit_severity_reduces_to_count():
    """With every loss equal to 1 the annual loss is the claim count."""
    model = CompoundModel(PoissonFrequency(4.0), DegenerateSeverity(atom=1.0))
    batch = simulate_compound(model, 200_000, PcgStream(11))
    assert np.all(batch.values == np.round(batch.values))
    se = batch.values.std(ddof=1) / math.sqrt(batch.count)
    assert abs(batch.values.mean() - 4.0) <= 3.0 * se


def test_compound_mean_wald():
    model = sigma05_model()
    assert model.mean() == pytest.approx(2.0 * math.exp(2.125), rel=1e-12)
    batch = simulate_compound(model, 1_000_000, PcgStream(23))
    se = batch.values.std(ddof=1) / 1000.0
    assert abs(batch.values.mean() - model.mean()) <= 3.0 * se


class _CountingStream(UniformStream):
    """A PCG stream that counts the uniforms it hands out."""

    def __init__(self, seed):
        self._inner = PcgStream(seed)
        self.drawn = 0

    def uniforms(self, n):
        self.drawn += int(n)
        return self._inner.uniforms(n)


@pytest.mark.parametrize("model", [
    sigma05_model(),
    CompoundModel(NegativeBinomialFrequency(2.0, 1.0), ParetoSeverity(a=2.0, s=1.0)),
    CompoundModel(GeneralizedPoissonFrequency(1.5, 0.3), LogNormalSeverity(2.0, 1.0)),
], ids=["poisson-lognormal", "negbinomial-pareto", "genpoisson-lognormal"])
def test_one_uniform_per_count_and_per_severity(model):
    """T years draw exactly T + sum(counts) uniforms: counts first, then
    one flat block of severities."""
    T = 10_000
    stream = _CountingStream(41)
    simulate_compound(model, T, stream)
    counts = model.frequency.sample(PcgStream(41), T)
    assert stream.drawn == T + int(counts.sum())


def test_sample_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SampleBatch(values=np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# empirical quantiles
# ---------------------------------------------------------------------------

def test_quantile_on_integer_grid():
    batch = SampleBatch(values=np.arange(1.0, 101.0))
    [(point, lo, hi)] = empirical_quantile_ci(batch, [0.5], 0.95)
    assert point == 50.0
    assert lo <= point <= hi


def test_interval_ranks_match_scipy_stats_binom_ppf():
    """The interval's two ranks come from scipy.special alone; they are the
    ranks scipy.stats.binom.ppf gives, both tails, on small and huge T,
    extreme alpha and CI levels from 0.01 to 0.999999.  T = 1e7 and up
    at CI level 0.01 is where a bdtr step-down test went one rank low."""
    Ts = list(range(1, 60)) + [100, 101, 999, 1000, 12345, 10**5, 10**6, 10**7,
                               10**8, 10**9]
    alphas = [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9995, 1.0 - 1e-6]
    levels = [0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.999, 0.999999]
    cases = [(q, T, a) for T in Ts for a in alphas for level in levels
             for q in (0.5 * (1.0 - level), 1.0 - 0.5 * (1.0 - level))]
    q, T, a = map(np.array, zip(*cases))
    want = stats.binom.ppf(q, T, a)
    got = np.array([compound._binom_ppf(*case) for case in cases])
    assert np.array_equal(got, want)


def test_quantile_levels_validated():
    batch = SampleBatch(values=np.arange(1.0, 11.0))
    with pytest.raises(ValueError):
        empirical_quantile_ci(batch, [0.5, 1.5], 0.95)
    with pytest.raises(ValueError):
        empirical_quantile_ci(batch, [0.5], 0.0)


def test_sigma05_benchmark_quantile(sigma05_batch):
    [(point, lo, hi)] = empirical_quantile_ci(sigma05_batch, [0.99], 0.95)
    assert abs(point - 57.0) <= 1.0
    assert lo <= point <= hi
    assert hi - lo < 1.0


def test_sigma1_benchmark_quantile(sigma1_batch):
    [(point, _, _)] = empirical_quantile_ci(sigma1_batch, [0.9995], 0.95)
    assert abs(point - 276.0) <= 3.0


# ---------------------------------------------------------------------------
# tail probabilities
# ---------------------------------------------------------------------------

def test_sigma05_tail_at_99_row(sigma05_batch, sigma05_pmf):
    """The 5e6-draw tail at the 99% row agrees with the oracle's P(Z > 57)."""
    est = np.mean(sigma05_batch.values > 57.0)
    se = math.sqrt(est * (1.0 - est) / sigma05_batch.count)
    assert abs(est - oracle_tail(sigma05_pmf, 57.0)) <= 3.0 * se


def test_tail_estimator_unbiased_against_reference():
    """100 small batches agree with a ten-million-draw reference run."""
    model = sigma05_model()
    streams = PcgStream(3101).spawn(100)
    reps = np.array([np.mean(simulate_compound(model, 10_000, s).values > 57.0)
                     for s in streams])
    ref = np.mean(simulate_compound(model, 10_000_000, PcgStream(3102)).values > 57.0)
    se = math.sqrt(reps.var(ddof=1) / 100 + ref * (1.0 - ref) / 10_000_000)
    assert abs(reps.mean() - ref) <= 4.0 * se


def test_tail_estimator_variance_scaling():
    """Replicate variance of the tail fraction drops like 1/T."""
    model = sigma05_model()
    root = PcgStream(3001)
    sizes = (100, 1000, 10_000, 100_000)
    variances = []
    for T in sizes:
        streams = root.spawn(100)
        ests = np.array([np.mean(simulate_compound(model, T, s).values > 20.0)
                         for s in streams])
        variances.append(ests.var(ddof=1))
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert abs(slope + 1.0) <= 0.15


# ---------------------------------------------------------------------------
# determinism and persistence
# ---------------------------------------------------------------------------

def test_single_stream_determinism():
    model = sigma05_model()
    a = simulate_compound(model, 5_000, PcgStream(99))
    b = simulate_compound(model, 5_000, PcgStream(99))
    assert np.array_equal(a.values, b.values)


def test_parallel_reduction_thread_invariant(monkeypatch):
    """Chunked runs combine in chunk order, so thread count is irrelevant."""
    monkeypatch.setattr(compound, "_CHUNK", 50_000)
    spawned = []
    spawn = PcgStream.spawn
    monkeypatch.setattr(PcgStream, "spawn",
                        lambda self, n: spawned.append(n) or spawn(self, n))
    model = sigma05_model()
    runs = [simulate_compound_parallel(model, 200_000, seed=55, threads=k).values
            for k in (1, 2, 4)]
    assert spawned == [4, 4, 4]
    assert all(np.array_equal(runs[0], run) for run in runs[1:])


def test_parallel_refuses_more_losses_than_memory(monkeypatch):
    """T = 9e18, a valid int64 count, used to spawn substreams without end;
    its float64 losses cannot fit, so it is refused before any spawn."""
    spawned = []
    monkeypatch.setattr(PcgStream, "spawn", lambda self, n: spawned.append(n))
    with pytest.raises(ValueError, match=r"T = 9000000000000000000 .*physical memory"):
        simulate_compound_parallel(sigma05_model(), 9 * 10**18, seed=1)
    assert spawned == []


def test_empty_batch_rejected():
    batch = SampleBatch(values=np.array([]))
    with pytest.raises(RuntimeError):
        empirical_quantile_ci(batch, [0.5], 0.95)
