"""Nonvolatile PiM substrate: arrays, in-array gates, technology and
electrical parameters, fault models, timing, energy and peripheral costs.

This subpackage is the behavioural + analytical re-implementation of the
resistive processing-in-memory substrates the paper evaluates (ReRAM,
STT-MRAM and SOT/SHE-MRAM arrays with in-array NOR/THR gates).
"""

from repro.pim.array import DEFAULT_ARRAY_COLS, DEFAULT_ARRAY_ROWS, PartitionLayout, PimArray
from repro.pim.electrical import (
    MINIMUM_NOISE_MARGIN_PERCENT,
    BiasWindow,
    NoiseMarginPoint,
    OutputTopology,
    bias_voltage_curve,
    max_feasible_outputs,
    mram_bias_window,
    mram_nor_window_with_dummies,
    mram_thr_window,
    noise_margin_curve,
    noise_margin_percent,
    parallel_resistance,
    reram_nor_window,
    reram_thr_window,
)
from repro.pim.energy import EnergyBreakdown, EnergyModel, LevelEnergyStats
from repro.pim.faults import (
    FAULT_MODEL_KINDS,
    DeterministicFaultInjector,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultLog,
    FaultModel,
    FaultModelSpec,
    NoFaultInjector,
    ScheduledFaultInjector,
    StuckAtFaultInjector,
    parse_fault_model,
)
from repro.pim.gates import (
    GateSpec,
    GateType,
    gate_output,
    majority,
    nand,
    nor,
    not_,
    table1_rows,
    thr,
    xor_reference,
    xor_three_step,
    xor_two_step,
)
from repro.pim.operations import (
    GateOperation,
    NullTrace,
    OperationKind,
    OperationTrace,
    PresetOperation,
    ReadOperation,
    WriteOperation,
)
from repro.pim.peripheral import DEFAULT_PERIPHERAL, PeripheralModel
from repro.pim.vector import TABLE_MAX_INPUTS, truth_table, vector_gate_output
from repro.pim.technology import (
    RERAM,
    SOT_SHE_MRAM,
    STT_MRAM,
    ResistiveFamily,
    TechnologyParameters,
    available_technologies,
    get_technology,
    register_technology,
)
from repro.pim.timing import LevelTimingStats, TimingBreakdown, TimingModel

__all__ = [
    # array
    "PimArray",
    "PartitionLayout",
    "DEFAULT_ARRAY_ROWS",
    "DEFAULT_ARRAY_COLS",
    # gates
    "GateType",
    "GateSpec",
    "gate_output",
    "nor",
    "nand",
    "not_",
    "thr",
    "majority",
    "xor_two_step",
    "xor_three_step",
    "xor_reference",
    "table1_rows",
    # vectorized gates
    "vector_gate_output",
    "truth_table",
    "TABLE_MAX_INPUTS",
    # technology
    "TechnologyParameters",
    "ResistiveFamily",
    "STT_MRAM",
    "SOT_SHE_MRAM",
    "RERAM",
    "get_technology",
    "register_technology",
    "available_technologies",
    # electrical
    "BiasWindow",
    "NoiseMarginPoint",
    "OutputTopology",
    "mram_bias_window",
    "mram_thr_window",
    "mram_nor_window_with_dummies",
    "reram_nor_window",
    "reram_thr_window",
    "noise_margin_percent",
    "noise_margin_curve",
    "bias_voltage_curve",
    "max_feasible_outputs",
    "parallel_resistance",
    "MINIMUM_NOISE_MARGIN_PERCENT",
    # faults
    "FaultKind",
    "FaultEvent",
    "FaultLog",
    "FaultModel",
    "FaultModelSpec",
    "FAULT_MODEL_KINDS",
    "parse_fault_model",
    "ScheduledFaultInjector",
    "FaultInjector",
    "NoFaultInjector",
    "DeterministicFaultInjector",
    "StuckAtFaultInjector",
    # operations
    "OperationKind",
    "OperationTrace",
    "NullTrace",
    "GateOperation",
    "PresetOperation",
    "ReadOperation",
    "WriteOperation",
    # timing / energy / peripheral
    "TimingModel",
    "TimingBreakdown",
    "LevelTimingStats",
    "EnergyModel",
    "EnergyBreakdown",
    "LevelEnergyStats",
    "PeripheralModel",
    "DEFAULT_PERIPHERAL",
]
