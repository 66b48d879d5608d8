"""Shared fixtures: benchmark models, big simulation batches, oracle pmfs
and their lattice densities, the finite-chain and twisted-sampler toys of
the Feynman-Kac claims, a stream that replays fixed uniforms, and the
convolution-tail ratio of the heavy-tail diagnostics.

The expensive objects (5e6-draw sample batches, the fine-step recursion
pmf, full-budget particle grids) are session-scoped so the acceptance
tests and the per-module tests reuse one computation.
"""
import warnings

import numpy as np
import pytest

from lossmc import (
    CompoundModel,
    LogNormalSeverity,
    PcgStream,
    PoissonFrequency,
    UniformStream,
    default_absorption,
    estimate_density_grid,
    norm_quantile,
    oracle_compound_pmf,
    simulate_compound,
)


class StreamExhaustedError(RuntimeError):
    """A fixed-sequence uniform stream ran out of values."""


class SequenceStream(UniformStream):
    """Replays a fixed list of uniforms; used for hand-traced tests."""

    def __init__(self, values):
        self._values = np.array(values, dtype=float)
        self._pos = 0

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` values; asking past the end consumes nothing."""
        end = self._pos + int(n)
        if end > len(self._values):
            raise StreamExhaustedError(
                "fixed uniform sequence exhausted after "
                f"{len(self._values)} draws"
            )
        out = self._values[self._pos:end].copy()
        self._pos = end
        return out

    @property
    def remaining(self) -> int:
        return len(self._values) - self._pos


class NumericError(RuntimeError):
    """A quadrature failed to reach its tolerance.

    Attributes
    ----------
    achieved : float or None
        Error estimate actually achieved, when available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def subexp_tail_ratio(model, x: float) -> float:
    """Two-fold convolution tail over the single tail at x.

    Evaluates survival_{X1+X2}(x) / survival_X(x); for sub-exponential
    severities it tends to 2 as x grows.  The two-fold survival is
    computed in its survival form

        sf2(x) = sf(x) + integral_0^x sf(x - y) pdf(y) dy,

    algebraically identical to 1 - integral F(x-y) dF(y) but free of
    the catastrophic cancellation that form suffers deep in the tail.
    """
    from scipy import integrate

    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            # epsabs=0 forces the relative criterion; the integral is of
            # the order of sf(x) and can sit far below quad's default
            # absolute floor deep in the tail
            integral, abserr = integrate.quad(
                lambda y: model.sf(x - y) * model.pdf(y),
                0.0, x, points=[0.5 * x], epsrel=1e-6, epsabs=0.0, limit=200,
            )
        except integrate.IntegrationWarning as exc:
            raise NumericError(
                f"convolution-tail quadrature did not converge at x={x}",
            ) from exc
    sfx = float(model.sf(x))
    if sfx <= 0.0:
        raise NumericError("single tail underflows at this x")
    if abserr > 2e-6 * max(abs(integral), sfx):
        raise NumericError(
            "convolution-tail quadrature above tolerance", achieved=abserr
        )
    return 1.0 + integral / sfx


def sigma05_model():
    return CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, 0.5))


def sigma1_model():
    return CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, 1.0))


def pareto_poisson_model(a=2.0, s=1.0, lam=2.0):
    from lossmc import ParetoSeverity

    return CompoundModel(PoissonFrequency(lam), ParetoSeverity(a=a, s=s))


def gauss_sampler(size, rng):
    """Standard normal draws through the package's uniform stream."""
    return norm_quantile(rng.uniforms(size))


def restricted_matrix(K, inside):
    """The finite proposal matrix K restricted to the states ``inside``:
    moves into the set keep their probability, the rest stays put."""
    M = np.asarray(K, dtype=float) * np.asarray(inside, dtype=bool)[None, :]
    return M + np.diag(1.0 - M.sum(axis=1))


def tv_decay(M, eta, m_max):
    """(eps, tv, bound) of the finite chain M with invariant law eta: the
    minorization constant eps = sum_y min_x M(x, y), the worst-start total
    variation distance to eta after 1..m_max steps, and the geometric
    bound (1 - eps)^m it implies."""
    M, eta = np.asarray(M, dtype=float), np.asarray(eta, dtype=float)
    if np.max(np.abs(eta @ M - eta)) > 1e-12:
        raise ValueError("eta is not invariant for M")
    eps = float(M.min(axis=0).sum())
    powers, tv = np.eye(len(M)), np.empty(m_max)
    for m in range(m_max):
        powers = powers @ M
        tv[m] = (0.5 * np.abs(powers - eta[None, :]).sum(axis=1)).max()
    return eps, tv, (1.0 - eps) ** np.arange(1, m_max + 1)


def twisted_estimate(sample, ratio, in_a, n, rng):
    """Importance-sampling estimate of P(X in A) from n draws of a twisted
    law, weighted by the density ratio dP_X/dP_Y, and its plug-in
    variance (mean of squared terms - estimate^2) / n."""
    y = np.asarray(sample(n, rng), dtype=float)
    terms = np.asarray(in_a(y), dtype=float) * np.asarray(ratio(y), dtype=float)
    if not np.all(np.isfinite(terms)):
        raise RuntimeError("importance ratio non-finite on a sampled point in A")
    estimate = float(terms.mean())
    return estimate, float((np.mean(terms ** 2) - estimate ** 2) / n)


QUANTILE_LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9995)


@pytest.fixture(scope="session")
def sigma05_batch():
    return simulate_compound(sigma05_model(), 5_000_000, PcgStream(406))


@pytest.fixture(scope="session")
def sigma1_batch():
    return simulate_compound(sigma1_model(), 5_000_000, PcgStream(401))


@pytest.fixture(scope="session")
def sigma05_pmf():
    """Fine-step recursion distribution for the sigma=0.5 benchmark."""
    return oracle_compound_pmf(sigma05_model(), step=0.005, x_max=120.0)


@pytest.fixture(scope="session")
def sigma1_pmf():
    """Recursion distribution for the sigma=1 benchmark, deep enough for
    the splitting ladder to 1200 (P(Z > 1200) = 4.0e-7)."""
    return oracle_compound_pmf(sigma1_model(), step=0.05, x_max=1300.0)


def oracle_tail(pmf, t):
    """P(Z > t) from a lattice law: 1 minus the masses at or below t, so
    the lattice's missing mass counts as tail."""
    return 1.0 - float(pmf.masses[:round(t / pmf.step) + 1].sum())


def lattice_density(pmf):
    """Masses rescaled to lattice density values (mass / step).

    The k = 0 entry is left as a mass: it carries the genuine atom of the
    compound law at zero, not a density value.
    """
    d = pmf.masses / pmf.step
    d[0] = pmf.masses[0]
    return d


def _grid_measure(model, x_max, n_per_point, seed):
    grid = np.arange(1.0, x_max + 0.5, 1.0)
    return estimate_density_grid(model, grid, n_per_point, default_absorption(model),
                                 PcgStream(seed))


@pytest.fixture(scope="session")
def sigma05_grid_full():
    return _grid_measure(sigma05_model(), 120.0, 50_000, 901)


@pytest.fixture(scope="session")
def sigma1_grid_full():
    return _grid_measure(sigma1_model(), 400.0, 50_000, 901)


@pytest.fixture(scope="session")
def sigma05_grid_reduced():
    return _grid_measure(sigma05_model(), 120.0, 5_000, 911)


@pytest.fixture(scope="session")
def sigma1_grid_reduced():
    return _grid_measure(sigma1_model(), 400.0, 5_000, 952)
