"""repro — reproduction of "On Error Correction for Nonvolatile
Processing-In-Memory" (Cılasun et al., ISCA 2024 / arXiv:2207.13261).

The package is organised by subsystem:

* :mod:`repro.pim` — the resistive PiM substrate: arrays with in-array
  NOR/THR gates, technology parameters (ReRAM, STT-MRAM, SOT/SHE-MRAM),
  electrical characterisation, fault models, timing and energy accounting.
* :mod:`repro.ecc` — the coding substrate: Hamming, BCH, parity, Berger
  codes and modular redundancy.
* :mod:`repro.compiler` — NOR-based synthesis, netlists with logic levels
  and greedy scratch allocation (area reclaims).
* :mod:`repro.core` — the paper's contribution: the ECiM and TRiM protection
  schemes, external checkers, bit-exact protected executors, the SEP
  guarantee analysis and the iso-area design-space models.
* :mod:`repro.workloads` — the evaluation benchmarks (dense matmul, MNIST
  MLP, FFT) as functional netlists and analytic specifications.
* :mod:`repro.eval` — the experiment registry regenerating every table and
  figure of the paper's evaluation.
* :mod:`repro.campaign` — the sharded, resumable Monte-Carlo fault-injection
  campaign engine measuring empirical error-coverage curves at scale
  (``python -m repro campaign``).

Quick start::

    from repro.eval import run_experiment
    print(run_experiment("fig7")["rendered"])
"""

from repro.errors import (
    CompilerError,
    EccError,
    EvaluationError,
    PimError,
    ProtectionError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "PimError",
    "EccError",
    "CompilerError",
    "ProtectionError",
    "EvaluationError",
]
