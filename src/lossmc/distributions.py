"""Frequency and severity models for compound-loss work.

The annual loss is a random sum Z = X_1 + ... + X_N: a counting law
(the frequency) and a positive continuous law (the severity).  This
module owns both layers plus the (a, b, 0)-class parameterization that
the recursive evaluators downstream consume.

Models are immutable after construction and safe to share across
threads; every sampler draws from an externally supplied uniform
stream (see :mod:`lossmc.rng`) so callers control substream layout.
Every sampler is an inverse transform that reads exactly one uniform
per draw (a point mass reads none): counts invert a cached cdf table,
severities their inverse survival function ``isf``, which the splitting
route also uses to redraw a claim above a floor.  A table is inverted
through a guide table (:func:`_guided_search`), which finds the entry of
a draw in O(1) expected steps instead of a binary search; the splitting
selection step uses the same lookup for its ancestors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import special

from .config import COUNT, REAL, REQUIRED, read_block
from .errors import UnsupportedModelError
from .normal import norm_cdf, norm_pdf, norm_quantile, norm_sf
from .rng import UniformStream

_TABLE_TAIL = 1e-12  # truncation point for inverse-cdf sampling tables
_TABLE_MAX = 1_000_000  # entries an inverse-cdf table may hold


def _require_finite(model) -> None:
    """Reject NaN or infinite numeric parameters, which pass every range test."""
    for f in fields(model):
        value = getattr(model, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{type(model).__name__}.{f.name} must be finite, got {value}")


def _cell_increments(u: np.ndarray, pivot: float, cdf, sf) -> np.ndarray:
    """Increments of a law over the cells [u[i], u[i+1]], tail-safe.

    A cell at or below the pivot (the law's median) takes cdf(u[i+1]) -
    cdf(u[i]), any other sf(u[i]) - sf(u[i+1]), clipped at 0.  Each point
    is evaluated once: by the cdf at or below the pivot, by the sf above
    it; the lower end of the cell that straddles the pivot takes both.
    """
    low = u <= pivot
    need_sf = ~low
    need_sf[:-1] |= ~low[1:]
    c, s = np.zeros(u.shape), np.zeros(u.shape)
    c[low] = cdf(u[low])
    s[need_sf] = sf(u[need_sf])
    return np.maximum(np.where(low[1:], c[1:] - c[:-1], s[:-1] - s[1:]), 0.0)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a nondecreasing cdf cut into m = len(cdf) buckets.

    Entry j (j = 0..m) is the first index i with floor(m cdf[i]) >= j,
    about the first i with cdf[i] >= j/m; the floor is taken in the same
    arithmetic as the lookup's, so a key in bucket j never has its entry
    before guide[j] (Chen & Asau 1974; Devroye 1986, III.2.4).
    """
    m = len(cdf)
    # guide[j] counts the entries whose bucket lies below j; an entry past
    # bucket m (a cdf rounding above 1) counts for no guide entry
    buckets = np.minimum(np.floor(cdf * m), m).astype(np.intp)
    guide = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(buckets, minlength=m + 1)[:m], out=guide[1:])
    return guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.minimum(np.searchsorted(cdf, u), len(cdf) - 1)`` for non-NaN keys,
    through the guide table of ``cdf``.

    Each key starts at its bucket's guide entry and takes at most two
    vectorized steps forward; keys still short of their entry (buckets
    holding many entries, as the top bucket of a heavy-tailed count law
    does) fall back to a binary search on that subset only.  Keys past
    ``cdf[-1]`` map to the last entry.
    """
    m = len(guide) - 1
    i = guide.take((u * m).astype(np.intp), mode="clip")
    for _ in range(2):
        i += cdf.take(i, mode="clip") < u
    short = np.flatnonzero(cdf.take(i, mode="clip") < u)
    if short.size:
        i[short] = np.searchsorted(cdf, u[short])
    return np.minimum(i, len(cdf) - 1)


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

    def sample(self, stream: UniformStream, size: int) -> np.ndarray:
        """Draw counts by inverse transform, one uniform per count.

        Every law inverts the same precomputed cdf table: the draw for u
        is the smallest n with F(n) >= u, found through the table's
        cached guide.  The table ends at the last count with positive
        mass; draws landing past its total (tail mass < 1e-12, or the
        small deficit of a truncated support) map onto that count.
        """
        table, guide = self._cdf_table()
        return _guided_search(table, guide, stream.uniforms(size))

    # -- inverse-cdf table and its guide, built lazily and cached -----------
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        cached = getattr(self, "_table", None)
        if cached is None:
            n, cum, chunks, last = 0, 0.0, [], 0
            while True:
                block = np.arange(n, n + 256)
                pm = self.pmf(block)
                c = cum + np.cumsum(pm)
                chunks.append(c)
                cum = c[-1]
                pos = np.flatnonzero(pm > 0.0)
                if pos.size:
                    last = n + int(pos[-1])
                n += 256
                # an empty block ends the support only once the bulk is
                # behind us; before it, the pmf has not started yet
                if 1.0 - cum < _TABLE_TAIL or (cum > 0.0 and not pos.size):
                    break
                if n >= _TABLE_MAX:
                    raise ValueError(
                        f"{self.kind} count table needs more than {_TABLE_MAX} "
                        f"entries (mass {1.0 - cum:.3g} still missing)")
            # end at the last count with positive mass, so a key above the
            # total (a truncated support's deficit) draws that count
            table = np.concatenate(chunks)[:last + 1]
            cached = self._table = (table, _guide_table(table))
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

    def isf(self, u):
        """Inverse survival function: the x with sf(x) = u, for u in (0, 1]."""
        raise NotImplementedError

    def sample(self, stream: UniformStream, size: int) -> np.ndarray:
        """Inverse transform, one uniform per draw: ``isf(U)``.

        U is the survival probability of the draw, so the large draws come
        from small u, which are finely spaced: every draw is finite.
        """
        return self.isf(stream.uniforms(size))

    def integrated_survival(self, x):
        """Integral of the survival function over (0, x]."""
        return x * self.sf(x) + self.partial_expectation(x)

    def interval_masses(self, edges: np.ndarray) -> np.ndarray:
        """P(edges[i] < X <= edges[i+1]) for increasing ``edges``, without
        tail cancellation: cdf differences below the median, sf
        differences above it, each edge evaluated once."""
        edges = np.asarray(edges, dtype=float)
        return _cell_increments(edges, self.quantile(0.5), self.cdf, self.sf)

    def interval_partial_expectation(self, edges: np.ndarray) -> np.ndarray:
        """E[X ; edges[i] < X <= edges[i+1]] for increasing ``edges``,
        tail-safe."""
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

    def interval_partial_expectation(self, edges):
        edges = np.asarray(edges, dtype=float)
        z = np.where(edges > 0, self._z(np.where(edges > 0, edges, 1.0)), -np.inf) - self.sigma
        # E[X; X <= x] = E[X] Phi(z(x) - sigma): the increments of the
        # shifted normal, whose median sits at x = exp(mu + sigma^2)
        return self.mean() * _cell_increments(z, 0.0, norm_cdf, norm_sf)

    def isf(self, u):
        """exp(mu - sigma ndtri(u)); the endpoint u = 1 maps to exactly 0."""
        u = np.asarray(u, dtype=float)
        # in place: (-sigma) x + mu rounds as mu - sigma x does
        out = special.ndtri(u, out=np.empty(u.shape))
        out *= -self.sigma
        out += self.mu
        np.exp(out, out=out)
        return out if out.ndim else float(out)


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

    def interval_partial_expectation(self, edges):
        edges = np.asarray(edges, dtype=float)
        integ, xsf = self.integrated_survival(edges), edges * self.sf(edges)
        return np.maximum(integ[1:] - integ[:-1] + xsf[:-1] - xsf[1:], 0.0)

    def isf(self, u):
        u = np.asarray(u, dtype=float)
        out = self.s * (u ** (-1.0 / self.a) - 1.0)
        return out if out.ndim else float(out)


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

    def interval_partial_expectation(self, edges):
        return self.atom * self.interval_masses(edges)

    def isf(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, self.atom)
        return out if out.ndim else float(out)

    def sample(self, stream: UniformStream, size: int) -> np.ndarray:
        """The atom ``size`` times, reading no uniform: isf is constant."""
        return np.full(int(size), self.atom)


# ---------------------------------------------------------------------------
# Construction from config fragments
# ---------------------------------------------------------------------------

# kind -> (model class, {config key: (argument, value kind)})
_FREQUENCIES = {
    "poisson": (PoissonFrequency, {"lambda": ("lam", REAL)}),
    "binomial": (BinomialFrequency, {"m": ("m", COUNT), "q": ("q", REAL)}),
    "negbinomial": (NegativeBinomialFrequency, {"r": ("r", REAL), "beta": ("beta", REAL)}),
    "genpoisson": (GeneralizedPoissonFrequency,
                   {"lambda": ("lam", REAL), "theta": ("theta", REAL)}),
}
_SEVERITIES = {
    "lognormal": (LogNormalSeverity, {"mu": ("mu", REAL), "sigma": ("sigma", REAL)}),
    "pareto": (ParetoSeverity, {"a": ("a", REAL), "s": ("s", REAL)}),
    "degenerate": (DegenerateSeverity, {"atom": ("atom", REAL)}),
}


def _build(fragment, laws: dict, block: str):
    kind = str(fragment.get("kind", "")).lower() if isinstance(fragment, dict) else None
    if kind not in laws:
        raise ValueError(f"{block}.kind must be one of {sorted(laws)}, got {kind!r}")
    cls, args = laws[kind]
    values = read_block(fragment, {key: (vkind, REQUIRED) for key, (_, vkind) in args.items()},
                        f"{kind} {block}", kinded=True)
    return cls(**{args[key][0]: value for key, value in values.items()})


def build_frequency(fragment: dict) -> FrequencyModel:
    return _build(fragment, _FREQUENCIES, "frequency")


def build_severity(fragment: dict) -> SeverityModel:
    return _build(fragment, _SEVERITIES, "severity")
