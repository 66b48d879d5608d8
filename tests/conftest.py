"""Shared fixtures: benchmark models, big simulation batches, oracle pmfs.

The expensive objects (5e6-draw sample batches, the fine-step recursion
pmf, full-budget particle grids) are session-scoped so the acceptance
tests and the per-module tests reuse one computation.
"""
import numpy as np
import pytest

from lossmc import (
    CompoundModel,
    LogNormalSeverity,
    PathSamplerConfig,
    PcgStream,
    PoissonFrequency,
    SizeBiasedProposal,
    default_absorption,
    estimate_density_grid,
    norm_quantile,
    oracle_compound_pmf,
    simulate_compound,
)


def sigma05_model():
    return CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, 0.5))


def sigma1_model():
    return CompoundModel(PoissonFrequency(2.0), LogNormalSeverity(2.0, 1.0))


def pareto_poisson_model(a=2.0, s=1.0, lam=2.0):
    from lossmc import ParetoSeverity

    return CompoundModel(PoissonFrequency(lam), ParetoSeverity(a=a, s=s))


def particle_config(model, **overrides):
    """Default particle sampler setup used by the benchmark runs."""
    kw = dict(proposal=SizeBiasedProposal(model.severity),
              p_d=default_absorption(model))
    kw.update(overrides)
    return PathSamplerConfig(**kw)


def gauss_sampler(size, rng):
    """Standard normal draws through the package's uniform stream."""
    return norm_quantile(rng.uniforms(size))


def rw_mutation(width):
    """Random-walk Metropolis step leaving the standard normal invariant."""

    def mutate(states, level, rng):
        prop = states + width * (2.0 * rng.uniforms(len(states)) - 1.0)
        accept = rng.uniforms(len(states)) <= np.exp(-0.5 * (prop ** 2 - states ** 2))
        return np.where(accept, prop, states)

    return mutate


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


def oracle_tail(pmf, t):
    """P(Z > t) from a lattice law: 1 minus the masses at or below t, so
    the lattice's missing mass counts as tail."""
    return 1.0 - float(pmf.masses[:round(t / pmf.step) + 1].sum())


def _grid_measure(model, x_max, n_per_point, seed):
    grid = np.arange(1.0, x_max + 0.5, 1.0)
    cfg = particle_config(model)
    return estimate_density_grid(model, grid, n_per_point, cfg, PcgStream(seed))


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
