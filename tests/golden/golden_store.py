"""Golden regression store: pinned trial counters per fault model.

Each JSON file under this directory pins the summed ``TrialOutcomes``
counters of the ``dot2`` campaign unit block under one protection scheme,
for every fault-model kind, at fixed seeds — so *silent numerical drift*
anywhere in the stack (gate tables, tape compilation, ECC decode, fault
streams, outcome classification) fails loudly instead of shifting published
numbers.

The model definitions here are deliberately **self-contained** (not shared
with ``tests/differential``): goldens pin semantics, and must not drift
because a test harness retuned its rates.  The stuck columns are derived
from the compiled plan's column layout, so a layout change is *also* caught
as drift (the columns are recorded in the payload for debuggability).

Counters are computed on the batched backend and re-verified against the
same pins on every other byte-identical engine (``PINNED_BACKENDS``; the
differential harness separately proves scalar produces byte-identical
outcomes for every kind).  Inputs come from the module's own per-trial
``random.Random`` sampler, so the kinds that draw nothing (stuck-at, plan)
pin the same numbers under any RNG contract; the stochastic and burst kinds
draw their faults from an RNG-contract-2 trial stream.

A separate file, ``legacy_bitpacked.json``, pins the default fault model
plain campaigns run — the stochastic model at the cell's rates, inputs and
faults both from the cell's trial stream — on every backend
(``DEFAULT_CELLS``): the dot2 cells under both schemes on all three, plus
one paper-scale mlp16 + ECiM cell, whose captured outputs are also scored
against the integer oracle (``application_counts``), on the two tape
engines.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/golden/golden_store.py --write

and justify the refresh in the commit message.
"""

import json
import os
import random
import sys

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOAD = "dot2"
SCHEMES = ("ecim", "trim")
MODEL_KINDS = ("stochastic", "burst", "stuck-at", "plan")
TRIALS = 32
SEED = 7
BACKEND = "batched"
#: Backends whose counters must reproduce the stored pins byte-for-byte
#: (all four golden kinds run the byte-identical declarative / plan paths).
PINNED_BACKENDS = ("batched", "bitpacked")


#: The default-model pins, per cell: (workload, scheme, trials, stochastic
#: rates, whether to score application counters, backends that must
#: reproduce the pin).  The backend the pin was computed on comes first.
DEFAULT_CELLS = {
    "dot2/ecim": ("dot2", "ecim", TRIALS, dict(
        gate_error_rate=0.003, memory_error_rate=0.002, preset_error_rate=0.002
    ), False, ("bitpacked", "batched", "scalar")),
    "dot2/trim": ("dot2", "trim", TRIALS, dict(
        gate_error_rate=0.003, memory_error_rate=0.002, preset_error_rate=0.002
    ), False, ("bitpacked", "batched", "scalar")),
    "mlp16/ecim": ("mlp16", "ecim", 64, dict(
        gate_error_rate=1e-3, memory_error_rate=1e-3, preset_error_rate=1e-3
    ), True, ("bitpacked", "batched")),
}


def golden_path(scheme: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{WORKLOAD}_{scheme}.json")


def load_golden(scheme: str) -> dict:
    """Load one scheme's pinned payload (the tests' entry point)."""
    with open(golden_path(scheme), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _backend(scheme: str, backend: str = BACKEND):
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.backend import make_backend

    netlist = get_campaign_workload(WORKLOAD).netlist
    return make_backend(backend, netlist, scheme)


def _seeds(stream: str):
    from repro.core.backend import derive_seed

    return [derive_seed(SEED, "golden", WORKLOAD, trial, stream) for trial in range(TRIALS)]


def _inputs(netlist):
    """Per-trial inputs from the module's own seeded sampler."""
    import numpy as np

    return np.array(
        [
            [rng.getrandbits(1) for _ in netlist.inputs]
            for rng in (random.Random(seed) for seed in _seeds("inputs"))
        ],
        dtype=np.uint8,
    )


def _stream():
    from repro.core.rng import TrialStream

    return TrialStream.keyed((SEED, "golden", WORKLOAD), range(TRIALS))


def _stuck_columns(backend) -> tuple:
    plan = backend.plan
    return (int(plan.output_cols[0]), plan.n_cols - 1)


def _run_kwargs(backend, kind: str) -> dict:
    from repro.pim.faults import FaultModelSpec

    if kind == "stochastic":
        return dict(
            fault_model=FaultModelSpec.stochastic(
                gate_error_rate=0.015,
                memory_error_rate=0.008,
                preset_error_rate=0.004,
                metadata_error_rate=0.02,
            ),
            stream=_stream(),
        )
    if kind == "burst":
        return dict(
            fault_model=FaultModelSpec.burst(
                burst_length=3,
                correlation_window=6,
                gate_error_rate=0.008,
                memory_error_rate=0.004,
            ),
            stream=_stream(),
        )
    if kind == "stuck-at":
        return dict(
            fault_model=FaultModelSpec.stuck_at(_stuck_columns(backend), stuck_polarity=1)
        )
    if kind == "plan":
        sites = backend.enumerate_sites()
        plans = []
        for seed in _seeds("faults"):
            chosen = random.Random(seed).sample(range(len(sites)), 2)
            entry = {}
            for index in chosen:
                site = sites[index]
                entry.setdefault(site.operation_index, []).append(site.output_position)
            plans.append({op: tuple(positions) for op, positions in entry.items()})
        return dict(fault_plan=plans)
    raise ValueError(f"unknown golden fault-model kind {kind!r}")


def compute_counts(scheme: str, kind: str, backend: str = BACKEND) -> dict:
    """Current counters for one (scheme, fault model) golden cell."""
    engine = _backend(scheme, backend)
    return engine.run_trials(_inputs(engine.netlist), **_run_kwargs(engine, kind)).counts()


def compute_payload(scheme: str) -> dict:
    backend = _backend(scheme)
    return {
        "workload": WORKLOAD,
        "scheme": scheme,
        "backend": BACKEND,
        "trials": TRIALS,
        "seed": SEED,
        "stuck_columns": list(_stuck_columns(backend)),
        "counters": {kind: compute_counts(scheme, kind) for kind in MODEL_KINDS},
    }


def legacy_golden_path() -> str:
    return os.path.join(GOLDEN_DIR, "legacy_bitpacked.json")


def load_legacy_golden() -> dict:
    with open(legacy_golden_path(), "r", encoding="utf-8") as handle:
        return json.load(handle)


def compute_legacy_cell(name: str, backend: str = "bitpacked") -> dict:
    """Current counters (and application counters, where scored) of one
    default-model golden cell on ``backend``."""
    from repro.campaign.application import application_counts, get_application_workload
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.backend import make_backend
    from repro.core.batched import sample_input_matrix
    from repro.core.rng import TrialStream
    from repro.pim.faults import FaultModelSpec

    workload, scheme, trials, rates, scored, _ = DEFAULT_CELLS[name]
    engine = make_backend(backend, get_campaign_workload(workload).netlist, scheme)
    stream = TrialStream.keyed((SEED, "golden-default", workload), range(trials))
    inputs = sample_input_matrix(engine.netlist, stream)
    outcomes = engine.run_trials(
        inputs,
        fault_model=FaultModelSpec.stochastic(**rates),
        stream=stream,
        capture_outputs=scored,
    )
    cell = {"trials": trials, "rates": rates, "counters": outcomes.counts()}
    if scored:
        cell["application"] = application_counts(
            get_application_workload(workload), inputs, outcomes.outputs
        )
    return cell


def compute_legacy_payload() -> dict:
    return {
        "seed": SEED,
        "cells": {
            name: compute_legacy_cell(name, cell[5][0]) for name, cell in DEFAULT_CELLS.items()
        },
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv) -> int:
    if argv[1:] != ["--write"]:
        print(__doc__)
        print(f"usage: PYTHONPATH=src python {argv[0]} --write", file=sys.stderr)
        return 2
    for scheme in SCHEMES:
        _write_json(golden_path(scheme), compute_payload(scheme))
    _write_json(legacy_golden_path(), compute_legacy_payload())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
