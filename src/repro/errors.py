"""Exception hierarchy for the ``repro`` package.

All library-specific failures derive from :class:`ReproError` so that callers
can catch a single base class.  Sub-classes are grouped by subsystem:

* :class:`PimError` — PiM substrate (arrays, gates, controller).
* :class:`EccError` — coding substrate (Hamming, BCH, parity, redundancy).
* :class:`CompilerError` — application-mapping / synthesis / allocation.
* :class:`ProtectionError` — ECiM / TRiM / checker layer.
* :class:`EvaluationError` — experiment harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every library-specific exception."""


class PimError(ReproError):
    """Base class for errors raised by the PiM substrate."""


class ArrayBoundsError(PimError):
    """A row/column address fell outside the PiM array dimensions."""


class PartitionError(PimError):
    """An operation violated the partition (logic-line switch) semantics."""


class GateOperandError(PimError):
    """A gate operation received malformed operands (bad cells, overlap)."""


class BiasVoltageError(PimError):
    """No feasible bias-voltage window exists for the requested gate."""


class TechnologyError(PimError):
    """Unknown technology name or inconsistent technology parameters."""


class EccError(ReproError):
    """Base class for errors raised by the coding substrate."""


class CodeConstructionError(EccError):
    """Invalid (n, k) combination or malformed generator / check matrix."""


class DecodingError(EccError):
    """The decoder could not produce a codeword (too many errors)."""


class RedundancyError(EccError):
    """Modular redundancy (DMR/TMR) could not reach a verdict."""


class CompilerError(ReproError):
    """Base class for errors raised by the PiM compiler."""


class SynthesisError(CompilerError):
    """Boolean synthesis failed (unsupported op, inconsistent widths)."""


class AllocationError(CompilerError):
    """The scratch allocator ran out of cells even after reclaiming."""


class SchedulingError(CompilerError):
    """The scheduler could not place an operation on the array fleet."""


class ProtectionError(ReproError):
    """Base class for errors raised by the protection (ECiM/TRiM) layer."""


class CheckerError(ProtectionError):
    """The external checker received inconsistent metadata."""


class CoverageError(ProtectionError):
    """A configuration cannot guarantee the requested error coverage."""


class EvaluationError(ReproError):
    """Base class for errors raised by the evaluation harness."""


class UnknownExperimentError(EvaluationError):
    """An experiment id was requested that the registry does not know."""


class UnknownWorkloadError(EvaluationError):
    """A workload name was requested that the registry does not know."""


class WorkerDiedError(EvaluationError):
    """A campaign worker process died; the shards already recorded resume."""
