"""Quantile and tail-risk estimation for compound loss sums.

Engines: crude Monte Carlo, recursive probability-mass oracles, a
path-space particle solver for the occupation-measure equation,
single-loss asymptotic approximations, and a level-splitting rare-event
sampler with restricted Markov kernels.
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
    load_batch_csv,
    save_batch_csv,
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
    frequency_pmf,
    panjer_params,
    sample_frequency,
    sample_severity,
    severity_eval,
    severity_quantile,
)
from .errors import (
    DominationViolationError,
    EmptyTailError,
    ExtinctionError,
    InvalidTargetError,
    LevelRangeError,
    NumericError,
    ProposalSupportError,
    RecursionInstabilityError,
    StreamExhaustedError,
    StuckKernelWarning,
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
    DiscreteMeasure,
    LevelSequence,
    MixingDiagnostic,
    ParticlePopulation,
    RestrictedMhSampler,
    SmcEstimate,
    TwistedSampler,
    boltzmann_gibbs,
    is_tail_estimator,
    replicate_smc,
    restricted_mh_kernel,
    selection_transition,
    smc_rare_event,
    smc_rare_event_adaptive,
    trace_to_csv,
    tv_convergence_check,
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
from .rng import PcgStream, SequenceStream, UniformStream, spawn_streams
from .volterra import (
    BetaProposal,
    INTERVAL,
    POINTWISE_GRID,
    PathSample,
    PathSamplerConfig,
    PointMass,
    SizeBiasedProposal,
    UniformInterval,
    VolterraKernel,
    WeightedParticleMeasure,
    build_volterra_kernel,
    default_absorption,
    estimate_density_grid,
    estimate_measure_interval,
    path_weight,
    quantile_from_measure,
    risk_measures_from_measure,
    simulate_absorbed_path,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
