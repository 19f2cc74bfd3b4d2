"""Core contribution: ECiM and TRiM protection schemes, external checkers,
functional protected executors, SEP analysis, the design-space model and the
iso-area reclaim accounting."""

from repro.core.area import (
    ArrayBudget,
    RowFootprint,
    area_reclaims,
    reclaim_cost_bits,
    scratch_capacity,
)
from repro.core.backend import (
    BACKEND_NAMES,
    BatchedBackend,
    BitpackedBackend,
    ExecutionBackend,
    FaultSite,
    ScalarBackend,
    TrialOutcomes,
    derive_seed,
    make_backend,
)
from repro.core.batched import (
    BatchResult,
    ExecutionPlan,
    batched_golden_outputs,
    compile_plan,
    run_batch,
    sample_input_matrix,
)
from repro.core.bitpacked import (
    lower_plan,
    pack_trials,
    run_packed,
    unpack_trials,
)
from repro.core.checker import (
    DEFAULT_CHECKER_COSTS,
    CheckerCostModel,
    CheckResult,
    EcimChecker,
    TrimChecker,
)
from repro.core.coverage import (
    coverage_table,
    expected_uncorrectable_levels,
    level_failure_probability,
    run_survival_probability,
)
from repro.core.design_space import (
    DesignPoint,
    Granularity,
    design_space_table,
    ecim_costs,
    sep_guaranteed,
    trim_costs,
)
from repro.core.executor import (
    EcimExecutor,
    ExecutionReport,
    TrimExecutor,
    UnprotectedExecutor,
)
from repro.core.pipeline import (
    ParityUpdatePipeline,
    PipelineSchedule,
    PipelineSlot,
    skewed_row_overlap,
)
from repro.core.protection import (
    EcimScheme,
    LevelProfile,
    MetadataCounts,
    ProtectionScheme,
    TrimScheme,
    UnprotectedScheme,
)
from repro.core.sep import (
    FaultOutcome,
    MultiFaultAnalysis,
    MultiFaultOutcome,
    SepAnalysis,
    and_gate_example_netlist,
    circuit_granularity_counterexample,
    enumerate_fault_sites,
    exhaustive_multi_fault_injection,
    exhaustive_single_fault_injection,
    fig6_case_table,
    multi_fault_coverage_table,
)

__all__ = [
    # protection schemes
    "ProtectionScheme",
    "UnprotectedScheme",
    "EcimScheme",
    "TrimScheme",
    "LevelProfile",
    "MetadataCounts",
    # checkers
    "EcimChecker",
    "TrimChecker",
    "CheckResult",
    "CheckerCostModel",
    "DEFAULT_CHECKER_COSTS",
    # executors
    "UnprotectedExecutor",
    "EcimExecutor",
    "TrimExecutor",
    "ExecutionReport",
    # execution backends
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ScalarBackend",
    "BatchedBackend",
    "BitpackedBackend",
    "TrialOutcomes",
    "make_backend",
    "derive_seed",
    # batched trial engine
    "ExecutionPlan",
    "BatchResult",
    "compile_plan",
    "run_batch",
    "sample_input_matrix",
    "batched_golden_outputs",
    # bit-sliced trial engine
    "lower_plan",
    "pack_trials",
    "unpack_trials",
    "run_packed",
    # SEP analysis
    "SepAnalysis",
    "MultiFaultAnalysis",
    "MultiFaultOutcome",
    "FaultSite",
    "FaultOutcome",
    "and_gate_example_netlist",
    "enumerate_fault_sites",
    "exhaustive_single_fault_injection",
    "exhaustive_multi_fault_injection",
    "multi_fault_coverage_table",
    "fig6_case_table",
    "circuit_granularity_counterexample",
    # coverage analysis
    "level_failure_probability",
    "run_survival_probability",
    "expected_uncorrectable_levels",
    "coverage_table",
    # design space
    "Granularity",
    "DesignPoint",
    "design_space_table",
    "sep_guaranteed",
    "trim_costs",
    "ecim_costs",
    # pipeline
    "ParityUpdatePipeline",
    "PipelineSchedule",
    "PipelineSlot",
    "skewed_row_overlap",
    # iso-area accounting
    "ArrayBudget",
    "RowFootprint",
    "scratch_capacity",
    "area_reclaims",
    "reclaim_cost_bits",
]
