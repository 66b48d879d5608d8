"""Frequency and severity models for compound-loss work.

The annual loss is a random sum Z = X_1 + ... + X_N: a counting law
(the frequency) and a positive continuous law (the severity).  This
module owns both layers plus the (a, b, 0)-class parameterization that
the recursive evaluators downstream consume.

Models are immutable after construction and safe to share across
threads; every sampler draws from an externally supplied uniform
stream (see :mod:`lossmc.rng`) so callers control substream layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import special

from .errors import UnsupportedModelError
from .normal import norm_cdf, norm_pdf, norm_quantile, norm_sf
from .rng import UniformStream

_TABLE_TAIL = 1e-12  # truncation point for inverse-cdf sampling tables


def _require_finite(model) -> None:
    """Reject NaN or infinite numeric parameters, which pass every range test."""
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{type(model).__name__}.{f.name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Panjer (a, b, 0) parameters
# ---------------------------------------------------------------------------

@dataclass
class PanjerParams:
    """Parameters of an (a, b, 0)-class counting law.

    Members satisfy p_n = (a + b/n) p_{n-1} for n >= 1 with the stated
    p0, which is what makes the compound distribution computable by a
    convolution-free recursion.
    """

    a: float
    b: float
    p0: float

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError("p0 must be a probability")
        if self.a >= 1.0:
            raise ValueError("a must be < 1 for a summable pmf")

    def pmf_vector(self, n_max: int) -> np.ndarray:
        """Regenerate p_0..p_n_max through the defining recursion."""
        p = np.zeros(n_max + 1)
        p[0] = self.p0
        for n in range(1, n_max + 1):
            p[n] = (self.a + self.b / n) * p[n - 1]
        return p


# ---------------------------------------------------------------------------
# Frequency models
# ---------------------------------------------------------------------------

class FrequencyModel:
    """Common interface for the counting laws.

    Subclasses provide ``pmf`` (vectorized in n), the first two
    factorial moments, the probability generating function, sampling
    from a uniform stream, and -- for (a, b, 0) members -- the Panjer
    parameters.
    """

    kind: str = "abstract"

    def pmf(self, n):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def factorial_moment2(self) -> float:
        """E[N(N-1)], the ingredient of the second-order constants."""
        raise NotImplementedError

    def pgf(self, s):
        """E[s^N], elementwise over real or complex numpy input."""
        raise NotImplementedError

    def pgf_radius(self) -> float:
        """Radius of convergence of the pgf's power series about 0."""
        return math.inf

    def panjer(self) -> PanjerParams:
        raise UnsupportedModelError(
            f"{self.kind} frequency is not an (a, b, 0) member"
        )

    def sample(self, stream: UniformStream, size=None):
        """Draw counts by inverting a precomputed cdf table."""
        table = self._cdf_table()
        if size is None:
            idx = int(np.searchsorted(table, stream.next_uniform()))
            return min(idx, len(table) - 1)
        u = stream.uniforms(size)
        idx = np.searchsorted(table, u).astype(np.int64)
        # draws landing past the table (tail mass < 1e-12, or the small
        # deficit of a truncated support) map onto the last entry
        return np.minimum(idx, len(table) - 1)

    # -- inverse-cdf table, built lazily and cached -------------------------
    def _cdf_table(self) -> np.ndarray:
        cached = getattr(self, "_table", None)
        if cached is None:
            n, cum, chunks = 0, 0.0, []
            while True:
                block = np.arange(n, n + 256)
                pm = self.pmf(block)
                c = cum + np.cumsum(pm)
                chunks.append(c)
                cum = c[-1]
                n += 256
                if 1.0 - cum < _TABLE_TAIL or not np.any(pm > 0.0) or n > 1_000_000:
                    break
            cached = np.concatenate(chunks)
            self._table = cached
        return cached


@dataclass
class PoissonFrequency(FrequencyModel):
    """Poisson counting law with rate lam."""

    lam: float
    kind: str = field(default="poisson", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.lam < 0.0:
            raise ValueError("rate must be nonnegative")

    def pmf(self, n):
        n = np.asarray(n)
        if self.lam == 0.0:
            out = np.where(n == 0, 1.0, 0.0)
            return out if out.ndim else float(out)
        nn = np.where(n >= 0, n, 0)
        out = np.exp(nn * math.log(self.lam) - self.lam - special.gammaln(nn + 1.0))
        out = np.where(n < 0, 0.0, out)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.lam

    def factorial_moment2(self) -> float:
        return self.lam ** 2

    def pgf(self, s):
        return np.exp(self.lam * (np.asarray(s) - 1.0))

    def panjer(self) -> PanjerParams:
        return PanjerParams(0.0, self.lam, math.exp(-self.lam))

    def sample(self, stream: UniformStream, size=None):
        """Multiplicative-uniform loop: multiply uniforms until the
        running product drops to exp(-lam); the number of factors needed
        minus one is the Poisson draw."""
        if size is None:
            return self._sample_one(stream)
        limit = math.exp(-self.lam)
        size = int(size)
        prod = np.ones(size)
        counts = np.zeros(size, dtype=np.int64)
        active = np.arange(size)
        while active.size:
            prod[active] *= stream.uniforms(active.size)
            alive = prod[active] > limit
            counts[active[alive]] += 1
            active = active[alive]
        return counts

    def _sample_one(self, stream: UniformStream) -> int:
        limit = math.exp(-self.lam)
        n, p = 0, 1.0
        while True:
            p *= stream.next_uniform()
            if p <= limit:
                return n
            n += 1


@dataclass
class BinomialFrequency(FrequencyModel):
    m: int
    q: float
    kind: str = field(default="binomial", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.m < 1 or int(self.m) != self.m:
            raise ValueError("m must be a positive integer")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        self.m = int(self.m)

    def pmf(self, n):
        n = np.asarray(n)
        valid = (n >= 0) & (n <= self.m)
        nn = np.where(valid, n, 0)
        logpm = (special.gammaln(self.m + 1.0) - special.gammaln(nn + 1.0)
                 - special.gammaln(self.m - nn + 1.0)
                 + nn * math.log(self.q) + (self.m - nn) * math.log1p(-self.q))
        out = np.where(valid, np.exp(logpm), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.m * self.q

    def factorial_moment2(self) -> float:
        return self.m * (self.m - 1) * self.q ** 2

    def pgf(self, s):
        return (1.0 - self.q + self.q * np.asarray(s)) ** self.m

    def panjer(self) -> PanjerParams:
        ratio = self.q / (1.0 - self.q)
        return PanjerParams(-ratio, (self.m + 1) * ratio, (1.0 - self.q) ** self.m)


@dataclass
class NegativeBinomialFrequency(FrequencyModel):
    """Negative binomial with shape r and scale beta: mean r*beta."""

    r: float
    beta: float
    kind: str = field(default="negbinomial", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.r <= 0.0 or self.beta <= 0.0:
            raise ValueError("r and beta must be positive")

    def pmf(self, n):
        n = np.asarray(n)
        pr = self.beta / (1.0 + self.beta)
        logpm = (special.gammaln(self.r + n) - special.gammaln(self.r)
                 - special.gammaln(n + 1.0)
                 + n * math.log(pr) - self.r * math.log1p(self.beta))
        out = np.where(n < 0, 0.0, np.exp(logpm))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.r * self.beta

    def factorial_moment2(self) -> float:
        return self.r * (self.r + 1.0) * self.beta ** 2

    def pgf(self, s):
        return (1.0 + self.beta * (1.0 - np.asarray(s))) ** (-self.r)

    def pgf_radius(self) -> float:
        return 1.0 + 1.0 / self.beta

    def panjer(self) -> PanjerParams:
        pr = self.beta / (1.0 + self.beta)
        return PanjerParams(pr, (self.r - 1.0) * pr, (1.0 + self.beta) ** (-self.r))


@dataclass
class GeneralizedPoissonFrequency(FrequencyModel):
    """Generalized Poisson law (rate lam, dispersion theta).

    pmf: p_n = lam (lam + n theta)^(n-1) exp(-lam - n theta) / n!.
    theta in [max(-1, -lam/4), 1) keeps the pmf well defined; for
    theta < 0 the support truncates at the largest m with lam + m*theta
    > 0 and the small total-mass defect of the truncated pmf is left
    unrenormalized, shrinking rapidly as theta moves away from the
    admissibility boundary.
    """

    lam: float
    theta: float
    kind: str = field(default="genpoisson", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0.0:
            raise ValueError("rate must be positive")
        if not (self.theta < 1.0):
            raise ValueError("dispersion must be < 1")
        if self.theta < 0.0 and self.theta < max(-1.0, -self.lam / 4.0):
            raise ValueError("dispersion below the admissible region")

    def _support_cap(self):
        if self.theta >= 0.0:
            return None
        # largest n with lam + n*theta > 0
        return int(np.ceil(self.lam / -self.theta)) - 1

    def pmf(self, n):
        n = np.asarray(n)
        lam, th = self.lam, self.theta
        rate = lam + n * th
        valid = (n >= 0) & (rate > 0.0)
        nn = np.where(valid, n, 0)
        rr = np.where(valid, rate, 1.0)
        logpm = (math.log(lam) + (nn - 1) * np.log(rr) - lam - nn * th
                 - special.gammaln(nn + 1.0))
        out = np.where(valid, np.exp(logpm), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.lam / (1.0 - self.theta)

    def factorial_moment2(self) -> float:
        mu = self.mean()
        var = self.lam / (1.0 - self.theta) ** 3
        return var + mu * mu - mu

    def pgf(self, s):
        """exp(lam (B(s) - 1)) for theta in [0, 1): a Poisson(lam) number of
        Borel(theta) clusters, whose size pgf B solves B = s e^{theta (B - 1)},
        so B = -W(-theta s e^{-theta}) / theta with W the principal Lambert W.
        For theta < 0 the support is finite and the pgf is its polynomial."""
        s = np.asarray(s)
        lam, th = self.lam, self.theta
        if th < 0.0:
            pm = self.pmf(np.arange(self._support_cap() + 1))
            out = 0.0
            for p in pm[::-1]:
                out = out * s + p
            return out
        if th == 0.0:
            return np.exp(lam * (s - 1.0))
        b = special.lambertw(-th * math.exp(-th) * s) / -th
        out = np.exp(lam * (b - 1.0))
        return out if np.iscomplexobj(s) else out.real

    def pgf_radius(self) -> float:
        # the branch point of W at -1/e: theta s e^{-theta} = 1/e
        if self.theta <= 0.0:
            return math.inf
        return math.exp(self.theta - 1.0) / self.theta


def _as_frequency(model) -> FrequencyModel:
    if not isinstance(model, FrequencyModel):
        raise TypeError("expected a FrequencyModel")
    return model


# ---------------------------------------------------------------------------
# Severity models
# ---------------------------------------------------------------------------

class SeverityModel:
    """Common interface for positive continuous severities.

    Besides the obvious pointwise evaluations, severities expose
    tail-safe interval masses and interval partial expectations: cells
    far in the tail are computed from survival-function differences so
    they do not cancel to zero, which the deep-tail diagnostics depend
    on.
    """

    kind: str = "abstract"
    tail_index = None  # regular-variation index of the survival, if any

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def partial_expectation(self, x):
        """E[X ; X <= x]."""
        raise NotImplementedError

    def sample(self, stream: UniformStream, size=None):
        raise NotImplementedError

    def integrated_survival(self, x):
        """Integral of the survival function over (0, x]."""
        return x * self.sf(x) + self.partial_expectation(x)

    def interval_masses(self, edges: np.ndarray) -> np.ndarray:
        """P(edges[i] < X <= edges[i+1]) without tail cancellation."""
        edges = np.asarray(edges, dtype=float)
        med = self.quantile(0.5)
        lo, hi = edges[:-1], edges[1:]
        below = hi <= med
        out = np.where(below,
                       self.cdf(hi) - self.cdf(lo),
                       self.sf(lo) - self.sf(hi))
        return np.maximum(out, 0.0)

    def interval_partial_expectation(self, lo, hi):
        """E[X ; lo < X <= hi], tail-safe."""
        raise NotImplementedError


@dataclass
class LogNormalSeverity(SeverityModel):
    mu: float
    sigma: float
    kind: str = field(default="lognormal", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def _z(self, x):
        return (np.log(x) - self.mu) / self.sigma

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = self._z(np.where(x > 0, x, 1.0))
            out = np.where(x > 0, norm_pdf(z) / (np.where(x > 0, x, 1.0) * self.sigma), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, norm_cdf(self._z(np.where(x > 0, x, 1.0))), 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, norm_sf(self._z(np.where(x > 0, x, 1.0))), 1.0)
        return out if out.ndim else float(out)

    def quantile(self, p):
        return np.exp(self.mu + self.sigma * norm_quantile(p))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)

    def partial_expectation(self, x):
        x = np.asarray(x, dtype=float)
        shifted = self._z(np.where(x > 0, x, 1.0)) - self.sigma
        out = np.where(x > 0, self.mean() * norm_cdf(shifted), 0.0)
        return out if out.ndim else float(out)

    def interval_partial_expectation(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        zlo = np.where(lo > 0, self._z(np.where(lo > 0, lo, 1.0)), -np.inf) - self.sigma
        zhi = self._z(np.where(hi > 0, hi, 1.0)) - self.sigma
        # same piecewise cdf/sf trick as interval_masses, on the shifted
        # normal whose median sits at exp(mu + sigma^2)
        below = zhi <= 0.0
        incr = np.where(below,
                        norm_cdf(zhi) - norm_cdf(zlo),
                        norm_sf(zlo) - norm_sf(zhi))
        out = self.mean() * np.maximum(incr, 0.0)
        return out if out.ndim else float(out)

    def sample(self, stream: UniformStream, size=None):
        """Box-Muller: Y = mu + sigma * sqrt(-2 ln U2) cos(2 pi U1)."""
        if size is None:
            u1 = stream.next_uniform()
            u2 = stream.next_uniform()
            z = math.sqrt(-2.0 * math.log(u2)) * math.cos(2.0 * math.pi * u1)
            return math.exp(self.mu + self.sigma * z)
        size = int(size)
        u1 = stream.uniforms(size)
        u2 = stream.uniforms(size)
        z = np.sqrt(-2.0 * np.log(u2)) * np.cos(2.0 * np.pi * u1)
        return np.exp(self.mu + self.sigma * z)


@dataclass
class ParetoSeverity(SeverityModel):
    """Pareto (Lomax) severity: survival (1 + x/s)^(-a)."""

    a: float
    s: float
    kind: str = field(default="pareto", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.a <= 0.0 or self.s <= 0.0:
            raise ValueError("tail index and scale must be positive")
        self.tail_index = self.a

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, (self.a / self.s) * (1.0 + x / self.s) ** (-self.a - 1.0), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, -np.expm1(-self.a * np.log1p(np.maximum(x, 0.0) / self.s)), 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, (1.0 + np.maximum(x, 0.0) / self.s) ** (-self.a), 1.0)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("quantile requires p in (0, 1)")
        out = self.s * ((1.0 - p) ** (-1.0 / self.a) - 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.a <= 1.0:
            return math.inf
        return self.s / (self.a - 1.0)

    def integrated_survival(self, x):
        x = np.asarray(x, dtype=float)
        if self.a == 1.0:
            out = self.s * np.log1p(x / self.s)
        else:
            out = self.s / (self.a - 1.0) * (1.0 - (1.0 + x / self.s) ** (1.0 - self.a))
        return out if out.ndim else float(out)

    def partial_expectation(self, x):
        x = np.asarray(x, dtype=float)
        out = self.integrated_survival(x) - x * self.sf(x)
        return out if out.ndim else float(out)

    def interval_partial_expectation(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        integ = self.integrated_survival(hi) - self.integrated_survival(lo)
        out = integ + lo * self.sf(lo) - hi * self.sf(hi)
        out = np.maximum(out, 0.0)
        return out if out.ndim else float(out)

    def sample(self, stream: UniformStream, size=None):
        # invert the survival function directly: U on (0, 1] is itself a
        # valid survival probability, so draws stay finite
        if size is None:
            u = stream.next_uniform()
            return self.s * (u ** (-1.0 / self.a) - 1.0)
        u = stream.uniforms(size)
        return self.s * (u ** (-1.0 / self.a) - 1.0)


@dataclass
class DegenerateSeverity(SeverityModel):
    """Point mass at a fixed positive atom; handy for exact checks."""

    atom: float
    kind: str = field(default="degenerate", init=False, repr=False)

    def __post_init__(self):
        _require_finite(self)
        if self.atom <= 0.0:
            raise ValueError("atom must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x == self.atom, np.inf, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.atom, 1.0, 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.atom, 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p > 1.0):
            raise ValueError("quantile requires p in (0, 1]")
        out = np.full_like(p, self.atom)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.atom

    def partial_expectation(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.atom, self.atom, 0.0)
        return out if out.ndim else float(out)

    def interval_masses(self, edges):
        edges = np.asarray(edges, dtype=float)
        lo, hi = edges[:-1], edges[1:]
        return np.where((lo < self.atom) & (self.atom <= hi), 1.0, 0.0)

    def interval_partial_expectation(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.where((lo < self.atom) & (self.atom <= hi), self.atom, 0.0)
        return out if out.ndim else float(out)

    def sample(self, stream: UniformStream, size=None):
        if size is None:
            return self.atom
        return np.full(int(size), self.atom)


# ---------------------------------------------------------------------------
# Contract-level operations
# ---------------------------------------------------------------------------

def severity_eval(model: SeverityModel, x: float):
    """Return (density, cdf, survival) of the severity at x."""
    if not np.isfinite(x):
        raise ValueError("severity evaluation requires finite x")
    return model.pdf(x), model.cdf(x), model.sf(x)


def severity_quantile(model: SeverityModel, p: float) -> float:
    if not (0.0 < p < 1.0):
        raise ValueError("quantile level must lie in (0, 1)")
    return float(model.quantile(p))


def sample_severity(model: SeverityModel, rng: UniformStream) -> float:
    return float(model.sample(rng))


def frequency_pmf(model: FrequencyModel, n: int) -> float:
    if n < 0:
        raise ValueError("count must be nonnegative")
    return float(model.pmf(n))


def panjer_params(model: FrequencyModel) -> PanjerParams:
    return _as_frequency(model).panjer()


def sample_frequency(model: FrequencyModel, rng: UniformStream) -> int:
    return int(model.sample(rng))


# ---------------------------------------------------------------------------
# Construction from config fragments
# ---------------------------------------------------------------------------

_FREQ_BUILDERS = {
    "poisson": lambda d: PoissonFrequency(lam=float(d["lambda"])),
    "binomial": lambda d: BinomialFrequency(m=int(d["m"]), q=float(d["q"])),
    "negbinomial": lambda d: NegativeBinomialFrequency(r=float(d["r"]), beta=float(d["beta"])),
    "genpoisson": lambda d: GeneralizedPoissonFrequency(lam=float(d["lambda"]), theta=float(d["theta"])),
}

_SEV_BUILDERS = {
    "lognormal": lambda d: LogNormalSeverity(mu=float(d["mu"]), sigma=float(d["sigma"])),
    "pareto": lambda d: ParetoSeverity(a=float(d["a"]), s=float(d["s"])),
    "degenerate": lambda d: DegenerateSeverity(atom=float(d["atom"])),
}


def build_frequency(fragment: dict) -> FrequencyModel:
    kind = str(fragment.get("kind", "")).lower()
    if kind not in _FREQ_BUILDERS:
        raise ValueError(f"frequency.kind must be one of {sorted(_FREQ_BUILDERS)}, got {kind!r}")
    try:
        return _FREQ_BUILDERS[kind](fragment)
    except KeyError as exc:
        raise ValueError(f"frequency config missing field {exc}") from exc


def build_severity(fragment: dict) -> SeverityModel:
    kind = str(fragment.get("kind", "")).lower()
    if kind not in _SEV_BUILDERS:
        raise ValueError(f"severity.kind must be one of {sorted(_SEV_BUILDERS)}, got {kind!r}")
    try:
        return _SEV_BUILDERS[kind](fragment)
    except KeyError as exc:
        raise ValueError(f"severity config missing field {exc}") from exc
