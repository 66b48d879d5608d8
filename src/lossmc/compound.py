"""Crude Monte Carlo for the compound annual loss Z = sum of N severities."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import FrequencyModel, SeverityModel
from .rng import PcgStream, UniformStream

_CHUNK = 1_000_000  # losses per substream of simulate_compound_parallel


@dataclass
class CompoundModel:
    """A frequency law paired with a severity law."""

    frequency: FrequencyModel
    severity: SeverityModel

    def mean(self) -> float:
        """E[Z] = E[N] E[X] (Wald identity)."""
        return self.frequency.mean() * self.severity.mean()


@dataclass
class SampleBatch:
    """A batch of simulated annual losses: ``values`` is the vector of
    losses, and ``count`` its length."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be a vector")
        if np.any(self.values < 0.0):
            raise ValueError("annual losses must be nonnegative")

    @property
    def count(self) -> int:
        return len(self.values)


def sample_claims(model: CompoundModel, T: int, rng: UniformStream):
    """Draw the claims of T independent years in a ragged layout.

    Returns ``(counts, severities)``.  Counts come first (one block of T
    uniforms), then all severities in one block, year after year: year
    i's claims are ``severities[s:s + counts[i]]`` with s = counts[:i].sum().
    """
    counts = model.frequency.sample(rng, size=T)
    total = int(counts.sum())
    severities = model.severity.sample(rng, size=total) if total else np.zeros(0)
    return counts, severities


def claim_sums(counts: np.ndarray, severities: np.ndarray) -> np.ndarray:
    """Each year's loss from the ragged claims, by cumulative-sum
    differencing; N = 0 years contribute a zero loss."""
    cs = np.concatenate(([0.0], np.cumsum(severities)))
    ends = np.cumsum(counts)
    return cs[ends] - cs[ends - counts]


def simulate_compound(model: CompoundModel, T: int, rng: UniformStream) -> SampleBatch:
    """Draw T independent annual losses: :func:`sample_claims`, summed
    by :func:`claim_sums`."""
    T = int(T)
    if T < 1:
        raise ValueError("need at least one simulation")
    return SampleBatch(values=claim_sums(*sample_claims(model, T, rng)))


def physical_memory() -> int:
    """Bytes of physical memory: a run that would need more is refused
    before it allocates (``require_memory``)."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes: float, clause: str) -> None:
    """Raise ``ValueError`` when a run needs at least ``nbytes`` bytes, more
    than ``physical_memory()``.  ``clause`` says what needs them, naming
    the config keys that set it."""
    memory = physical_memory()
    if nbytes > memory:
        raise ValueError(f"{clause} need at least {nbytes:.3g} bytes, more than the "
                         f"{memory:.3g} bytes of physical memory")


def simulate_compound_parallel(model: CompoundModel, T: int, seed: int,
                               threads: int = 1) -> SampleBatch:
    """Chunked simulation with one child stream per chunk of ``_CHUNK`` losses.

    Chunk i always uses substream i and outputs are concatenated in
    chunk order, so the batch is identical for any thread count.  A T
    whose float64 losses would not fit in physical memory raises
    ``ValueError`` before any stream is spawned.
    """
    T = int(T)
    require_memory(8 * T, f"T = {T} losses as float64")
    n_chunks = max(1, (T + _CHUNK - 1) // _CHUNK)
    streams = PcgStream(seed).spawn(n_chunks)
    sizes = [_CHUNK] * (n_chunks - 1) + [T - _CHUNK * (n_chunks - 1)]

    def run(i):
        return simulate_compound(model, sizes[i], streams[i]).values

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(i) for i in range(n_chunks)]
    return SampleBatch(values=np.concatenate(parts))


def _binom_ppf(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for q in (0, 1): the
    rank ``scipy.stats.binom.ppf`` gives, from ``scipy.special`` alone.

    ceil(bdtrik) can overshoot the rank by one, so one step down is
    tested.  The test reads P(X <= k - 1) as I_{1-p}(n - k + 1, k) by
    ``betainc``: ``bdtr`` is off by about 1e-3 near the median once n
    reaches 1e7, and steps down one rank too far there.
    """
    k = math.ceil(special.bdtrik(q, n, p))
    return k - 1 if k > 0 and special.betainc(n - k + 1, k, 1.0 - p) >= q else k


def empirical_quantile_ci(batch: SampleBatch, alphas, level: float) -> list:
    """Generalized-inverse sample quantiles with order-statistic bounds,
    one (point, lo, hi) per level in ``alphas``, all read off one sort.

    The point estimate is inf{x in the sorted sample : F_hat(x) >=
    alpha}.  The interval inverts the binomial law of the rank count
    (Clopper-Pearson style), so it is valid at extreme alpha without
    any normality assumption.
    """
    if batch.count == 0:
        raise RuntimeError("empty batch")
    if not all(0.0 < alpha < 1.0 for alpha in alphas) or not (0.0 < level < 1.0):
        raise ValueError("alpha and level must lie in (0, 1)")
    s = np.sort(batch.values)
    T = batch.count
    tail = 0.5 * (1.0 - level)
    out = []
    for alpha in alphas:
        k = int(np.ceil(alpha * T))
        lo_rank = min(max(_binom_ppf(tail, T, alpha), 1), T)
        hi_rank = min(max(_binom_ppf(1.0 - tail, T, alpha) + 1, 1), T)
        out.append((float(s[max(k, 1) - 1]), float(s[lo_rank - 1]), float(s[hi_rank - 1])))
    return out
