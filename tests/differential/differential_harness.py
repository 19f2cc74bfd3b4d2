"""Cross-backend differential harness: shared grid, factories and fixtures.

This package is the single systematic scalar-vs-batched equivalence surface
(ISSUE 5): every *(workload x scheme x gate-style x fault-model)* cell is
compiled once per session and every registered candidate backend must
produce **byte-identical** :class:`~repro.core.backend.TrialOutcomes`
against the scalar reference from one shared trial stream — counters, all
five per-trial vectors and the captured output bit matrix that application
scoring consumes.

Registering a new execution backend (e.g. a GPU tape interpreter) in the
harness takes one line: add a ``name -> factory(netlist, scheme,
multi_output)`` entry to :data:`BACKEND_FACTORIES` and the full differential
grid applies to it automatically.

The four fault models of the grid mirror the scalar injector family:

* ``stochastic`` — independent Bernoulli flips (gate + memory + preset +
  metadata rates), one fault schedule shared across backends;
* ``burst`` — correlated bursts (trigger rate, length, correlation window)
  plus independent memory errors;
* ``stuck-at`` — permanent faults on a data output column and the last
  metadata column of the cell's layout;
* ``plan`` — deterministic two-flip plans per trial, drawn from the trial's
  plan stream over the backend-enumerated site list.

Rates are deliberately high so that a significant fraction of trials
injects faults — a differential test on an all-clean batch proves nothing.
"""

import itertools

import numpy as np

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream
from repro.pim.faults import FaultModelSpec

#: The object-model engine every candidate is measured against.
REFERENCE_BACKEND = "scalar"

#: Candidate backends under differential test.  A future backend joins the
#: whole grid by registering a factory here.
BACKEND_FACTORIES = {
    "batched": lambda netlist, scheme, multi_output: make_backend(
        "batched", netlist, scheme, multi_output=multi_output
    ),
    "bitpacked": lambda netlist, scheme, multi_output: make_backend(
        "bitpacked", netlist, scheme, multi_output=multi_output
    ),
}

WORKLOADS = ("and2", "dot2", "fft4")
SCHEMES = ("ecim", "trim")
GATE_STYLES = (True, False)  # multi-output vs single-output
MODEL_KINDS = ("stochastic", "burst", "stuck-at", "plan")
TRIALS = 16
SEED = 2024

#: Per-workload trial budgets.  The application netlists are orders of
#: magnitude bigger than the arithmetic kernels (mlp16 is 5112 gates; the
#: scalar reference costs ~1 s/trial on it), so mlp16 runs a reduced batch
#: — still enough that every grid fault model injects into every trial.
TRIAL_COUNTS = {"mlp16": 4}

#: The grid, with human-readable pytest ids.  The full product covers the
#: cheap workloads (fft4's 200-gate netlist rides along at full width);
#: mlp16 joins as a single runtime-bounded cell that still exercises every
#: fault model and every candidate backend.
GRID = tuple(itertools.product(WORKLOADS, SCHEMES, GATE_STYLES)) + (
    ("mlp16", "ecim", True),
)


def _grid_id(cell):
    workload, scheme, multi_output = cell
    return f"{workload}-{scheme}-{'mo' if multi_output else 'so'}"


class DifferentialCell:
    """One compiled grid cell: reference + candidate backends and the shared
    inputs and trial stream every fault model reuses."""

    def __init__(self, workload, scheme, multi_output):
        self.workload = workload
        self.scheme = scheme
        self.multi_output = multi_output
        netlist = get_campaign_workload(workload).netlist
        self.reference = make_backend(
            REFERENCE_BACKEND, netlist, scheme, multi_output=multi_output
        )
        self.candidates = {
            name: build(netlist, scheme, multi_output)
            for name, build in BACKEND_FACTORIES.items()
        }
        self.trials = TRIAL_COUNTS.get(workload, TRIALS)
        self.stream = TrialStream.keyed((SEED, workload, scheme, multi_output), range(self.trials))
        self.inputs = sample_input_matrix(netlist, self.stream)
        # Column layout is shared between backends (the tape compiler reuses
        # the scalar executor's layout verbatim), so the batched plan is the
        # cheap way to pick valid stuck columns for both.
        plan = self.candidates["batched"].plan
        self.stuck_columns = (int(plan.output_cols[0]), plan.n_cols - 1)
        self._sites = None
        self._reference_outcomes = {}

    @property
    def sites(self):
        if self._sites is None:
            self._sites = self.reference.enumerate_sites()
        return self._sites

    def reference_outcomes(self, kind):
        """The scalar reference :class:`TrialOutcomes` for one fault model,
        computed once per cell: the reference run is deterministic, and on
        the big application netlists it dominates the grid's runtime."""
        if kind not in self._reference_outcomes:
            self._reference_outcomes[kind] = self.reference.run_trials(
                self.inputs, capture_outputs=True, **self.run_kwargs(kind)
            )
        return self._reference_outcomes[kind]

    def run_kwargs(self, kind):
        """The ``run_trials`` keyword set realising one fault model."""
        if kind == "stochastic":
            return dict(
                fault_model=FaultModelSpec.stochastic(
                    gate_error_rate=0.02,
                    memory_error_rate=0.01,
                    preset_error_rate=0.005,
                    metadata_error_rate=0.03,
                ),
                stream=self.stream,
            )
        if kind == "burst":
            return dict(
                fault_model=FaultModelSpec.burst(
                    burst_length=3,
                    correlation_window=5,
                    gate_error_rate=0.01,
                    memory_error_rate=0.005,
                ),
                stream=self.stream,
            )
        if kind == "stuck-at":
            return dict(
                fault_model=FaultModelSpec.stuck_at(self.stuck_columns, stuck_polarity=1)
            )
        if kind == "plan":
            return dict(fault_plan=self._two_flip_plans())
        raise ValueError(f"unknown differential fault-model kind {kind!r}")

    def _two_flip_plans(self):
        """Deterministic two-flip plans per trial, campaign-style: uniform
        site pairs drawn from each trial's plan stream."""
        plans = []
        for chosen in self.stream.subsets(len(self.sites), 2).tolist():
            entry = {}
            for index in chosen:
                site = self.sites[index]
                entry.setdefault(site.operation_index, []).append(site.output_position)
            plans.append({op: tuple(positions) for op, positions in entry.items()})
        return plans


_CELL_CACHE = {}


def get_cell(workload, scheme, multi_output) -> DifferentialCell:
    """Session-level cell cache: each grid cell compiles exactly once no
    matter how many fault models and candidates exercise it."""
    key = (workload, scheme, multi_output)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = DifferentialCell(*key)
    return _CELL_CACHE[key]


def assert_outcomes_identical(reference, candidate, context=""):
    """Byte-identical :class:`TrialOutcomes`: summed counters, every
    per-trial vector and, when either side captured them, the raw output
    bit matrices."""
    assert reference.counts() == candidate.counts(), context
    if reference.outputs is not None or candidate.outputs is not None:
        assert reference.outputs is not None and candidate.outputs is not None, (
            f"{context}: only one side captured its outputs"
        )
        assert reference.outputs.dtype == candidate.outputs.dtype, context
        assert np.array_equal(reference.outputs, candidate.outputs), (
            f"{context}: captured output bits differ"
        )
    for field in (
        "outputs_correct",
        "detected",
        "corrections",
        "uncorrectable_levels",
        "faults_injected",
    ):
        assert np.array_equal(
            getattr(reference, field), getattr(candidate, field)
        ), f"{context}: per-trial {field} vectors differ"
