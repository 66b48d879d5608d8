"""Quantile and tail-risk estimation for compound loss sums.

Engines: crude Monte Carlo, recursive probability-mass oracles, a
path-space particle solver for the occupation-measure equation,
single-loss asymptotic approximations, and a level-splitting rare-event
sampler that mutates claims by an exact Gibbs step.
"""
from ._version import __version__
from .asymptotics import (
    SlaResult,
    c_beta_constant,
    second_order_constants,
    sla_es_srm,
    sla_var_first_order,
    sla_var_second_order,
    srm_multiplier,
    subexp_tail_ratio,
)
from .compound import (
    CompoundModel,
    SampleBatch,
    empirical_quantile_ci,
    sample_claims,
    simulate_compound,
    simulate_compound_parallel,
    tail_probability_mc,
)
from .distributions import (
    BinomialFrequency,
    DegenerateSeverity,
    FrequencyModel,
    GeneralizedPoissonFrequency,
    LogNormalSeverity,
    NegativeBinomialFrequency,
    PanjerParams,
    ParetoSeverity,
    PoissonFrequency,
    SeverityModel,
    build_frequency,
    build_severity,
)
from .errors import (
    ExtinctionError,
    LevelRangeError,
    NumericError,
    ProposalSupportError,
    RecursionInstabilityError,
    StreamExhaustedError,
    SupportViolationError,
    TruncationError,
    UnsupportedModelError,
)
from .normal import norm_cdf, norm_pdf, norm_quantile, norm_sf
from .panjer import (
    CompoundPmf,
    DiscreteSeverity,
    LOCAL_MOMENTS,
    ROUNDING,
    compound_cdf_quantile,
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
from .rng import PcgStream, SequenceStream, UniformStream
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
