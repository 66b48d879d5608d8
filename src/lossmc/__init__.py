"""Quantile and tail-risk estimation for compound loss sums.

Engines: crude Monte Carlo, recursive probability-mass oracles, a
path-space particle solver for the occupation-measure equation,
single-loss asymptotic approximations, and a level-splitting rare-event
sampler that mutates claims by an exact Gibbs step.
"""
from ._version import __version__
from .asymptotics import (
    c_beta_constant,
    sla_var_first_order,
    sla_var_second_order,
)
from .compound import (
    CompoundModel,
    SampleBatch,
    empirical_quantile_ci,
    sample_claims,
    simulate_compound,
    simulate_compound_parallel,
)
from .distributions import (
    BinomialFrequency,
    DegenerateSeverity,
    FrequencyModel,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    ParetoSeverity,
    PoissonFrequency,
    SeverityModel,
    build_frequency,
    build_severity,
)
from .errors import (
    ExtinctionError,
    LevelRangeError,
    ProposalSupportError,
    RecursionInstabilityError,
    SupportViolationError,
    TruncationError,
    UnsupportedModelError,
)
from .normal import norm_cdf, norm_pdf, norm_quantile, norm_sf
from .panjer import (
    CompoundPmf,
    DiscreteSeverity,
    discretize_severity,
    gpd_panjer_discrete,
    oracle_compound_pmf,
    oracle_tail_stats,
    panjer_discrete,
)
from .rare_event import (
    ClaimPopulation,
    LevelSequence,
    SmcEstimate,
    replicate_smc,
    selection_transition,
    smc_rare_event,
)
from .report import (
    ExperimentConfig,
    ReportRow,
    RiskReport,
    emit_report,
    parse_report,
    reproduce_table1,
    run_experiment,
)
from .rng import PcgStream, UniformStream
from .volterra import (
    SizeBiasedProposal,
    VolterraKernel,
    WeightedParticleMeasure,
    build_volterra_kernel,
    default_absorption,
    estimate_density_grid,
    estimate_tail_probability,
    quantile_from_measure,
    risk_measures_from_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
