"""Extended probabilities for histories of finite closed quantum systems.

Core objects: states, projector sets, history sets built from
Heisenberg-picture alternatives, the decoherence functional, records,
coarse grainings, tensor-product composites, and the fine-grained
fundamental distribution. Worked examples (two-slit, three-box, bet
gains) live in their own modules, and a line-oriented model-file format
plus CLI drive everything from text files.
"""

__version__ = "0.1.0"

from .errors import (
    AllBranchesZero,
    CapExceeded,
    DimensionMismatch,
    EngineError,
    InvariantViolation,
    NotDecoherent,
    ParseError,
)
from .hilbert import (
    TOL_HERM,
    TOL_NORM,
    TOL_OP,
    EvolutionSpec,
    HermitianOperator,
    Projector,
    ProjectorSet,
    ProjectorSetReport,
    StateVector,
    heisenberg_projector,
    hermitian_exponential,
    projector_set_from_basis,
    rank_one_projector,
    validate_projector_set,
)
from .histories import (
    DEFAULT_DEC_TOL,
    M_CAP,
    DecoherenceReport,
    HistorySet,
    all_extended_probabilities,
    branch_matrix,
    dec_measure,
    decoherence_functional,
    offdiagonal_offenders,
)
from .records import (
    CorrelationReport,
    RecordCheckReport,
    RecordSet,
    construct_records,
    record_correlation_report,
    verify_strong_records,
    verify_weak_records,
)
from .coarsegrain import (
    GreedySearchResult,
    Partition,
    class_sums,
    coarse_decoherence_functional,
    coarse_extended_probabilities,
    greedy_decohering_search,
    greedy_merge_functional,
    group_slots,
    partition_from_literal,
)
from .composite import (
    JOINT_DIM_CAP,
    CompositeSystem,
    ProductRuleReport,
    product_rule_report,
)
from .finegrained import (
    FineGrainedDistribution,
    FineGrainedSpec,
    fundamental_distribution,
)
from .twoslit import (
    BINS_CAP,
    SWEEP_K_DELTAS,
    SweepRow,
    TwoSlitConfig,
    amplitude,
    arrival_density,
    binned_extended_probabilities,
    deepest_fringe_location,
    default_config,
    delta_sweep,
    extended_density,
    interference_integrals,
    path_length,
    self_convergence,
)
from .threebox import (
    SECTOR_FLATS,
    BoxSetReport,
    ThreeBoxModel,
    ThreeBoxReport,
    box_coarse_set,
    three_box_model,
    three_box_report,
)
from .dutchbook import BetSpec, GainReport, dutch_book_gains, exploit_negative_price, gain_report
from .modelfile import (
    DIM_CAP,
    ModelDocument,
    build_composites,
    build_evolution,
    build_finegrained,
    build_history_set,
    build_state,
    format_complex,
    load_model,
    parse_complex,
    parse_model,
)

__all__ = [
    # errors
    "AllBranchesZero", "CapExceeded", "DimensionMismatch", "EngineError", "InvariantViolation",
    "NotDecoherent", "ParseError",
    # hilbert
    "TOL_HERM", "TOL_NORM", "TOL_OP", "EvolutionSpec", "HermitianOperator", "Projector",
    "ProjectorSet", "ProjectorSetReport", "StateVector", "heisenberg_projector",
    "hermitian_exponential", "projector_set_from_basis", "rank_one_projector",
    "validate_projector_set",
    # histories
    "DEFAULT_DEC_TOL", "M_CAP", "DecoherenceReport", "HistorySet", "all_extended_probabilities",
    "branch_matrix", "dec_measure", "decoherence_functional", "offdiagonal_offenders",
    # records
    "CorrelationReport", "RecordCheckReport", "RecordSet", "construct_records",
    "record_correlation_report", "verify_strong_records", "verify_weak_records",
    # coarsegrain
    "GreedySearchResult", "Partition", "class_sums", "coarse_decoherence_functional",
    "coarse_extended_probabilities", "greedy_decohering_search", "greedy_merge_functional",
    "group_slots", "partition_from_literal",
    # composite
    "JOINT_DIM_CAP", "CompositeSystem", "ProductRuleReport", "product_rule_report",
    # finegrained
    "FineGrainedDistribution", "FineGrainedSpec", "fundamental_distribution",
    # twoslit
    "BINS_CAP", "SWEEP_K_DELTAS", "SweepRow", "TwoSlitConfig", "amplitude", "arrival_density",
    "binned_extended_probabilities", "deepest_fringe_location", "default_config", "delta_sweep",
    "extended_density", "interference_integrals", "path_length", "self_convergence",
    # threebox
    "SECTOR_FLATS", "BoxSetReport", "ThreeBoxModel", "ThreeBoxReport", "box_coarse_set",
    "three_box_model", "three_box_report",
    # dutchbook
    "BetSpec", "GainReport", "dutch_book_gains", "exploit_negative_price", "gain_report",
    # modelfile
    "DIM_CAP", "ModelDocument", "build_composites", "build_evolution", "build_finegrained",
    "build_history_set", "build_state", "format_complex", "load_model", "parse_complex",
    "parse_model",
]
