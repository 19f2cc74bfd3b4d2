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
outcomes for every kind).

A separate file, ``legacy_bitpacked.json``, pins the legacy
``model=FaultModel(...)`` path that plain campaigns run by default.  Legacy
fault streams are owned by each backend, so those pins hold for
``LEGACY_BACKEND`` only: the dot2 cells under both schemes, plus one
paper-scale mlp16 + ECiM cell whose captured outputs are also scored
against the integer oracle (``application_counts``).

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


#: The legacy-model pins: backend, and per cell (workload, scheme, trials,
#: FaultModel rates, whether to score application counters).
LEGACY_BACKEND = "bitpacked"
LEGACY_CELLS = {
    "dot2/ecim": ("dot2", "ecim", TRIALS, dict(
        gate_error_rate=0.003, memory_error_rate=0.002, preset_error_rate=0.002
    ), False),
    "dot2/trim": ("dot2", "trim", TRIALS, dict(
        gate_error_rate=0.003, memory_error_rate=0.002, preset_error_rate=0.002
    ), False),
    "mlp16/ecim": ("mlp16", "ecim", 64, dict(
        gate_error_rate=1e-3, memory_error_rate=1e-3, preset_error_rate=1e-3
    ), True),
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


def _stuck_columns(backend) -> tuple:
    plan = backend.plan
    return (int(plan.output_cols[0]), plan.n_cols - 1)


def _run_kwargs(backend, kind: str) -> dict:
    from repro.pim.faults import FaultModelSpec

    fault_seeds = _seeds("faults")
    if kind == "stochastic":
        return dict(
            fault_model=FaultModelSpec.stochastic(
                gate_error_rate=0.015,
                memory_error_rate=0.008,
                preset_error_rate=0.004,
                metadata_error_rate=0.02,
            ),
            fault_seeds=fault_seeds,
        )
    if kind == "burst":
        return dict(
            fault_model=FaultModelSpec.burst(
                burst_length=3,
                correlation_window=6,
                gate_error_rate=0.008,
                memory_error_rate=0.004,
            ),
            fault_seeds=fault_seeds,
        )
    if kind == "stuck-at":
        return dict(
            fault_model=FaultModelSpec.stuck_at(_stuck_columns(backend), stuck_polarity=1)
        )
    if kind == "plan":
        sites = backend.enumerate_sites()
        plans = []
        for seed in fault_seeds:
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
    from repro.core.batched import sample_input_matrix

    engine = _backend(scheme, backend)
    inputs = sample_input_matrix(engine.netlist, _seeds("inputs"))
    return engine.run_trials(inputs, **_run_kwargs(engine, kind)).counts()


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


def compute_legacy_cell(name: str) -> dict:
    """Current counters (and application counters, where scored) of one
    legacy-model golden cell on :data:`LEGACY_BACKEND`."""
    from repro.campaign.application import application_counts, get_application_workload
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.backend import derive_seed, make_backend
    from repro.core.batched import sample_input_matrix
    from repro.pim.faults import FaultModel

    workload, scheme, trials, rates, scored = LEGACY_CELLS[name]
    engine = make_backend(LEGACY_BACKEND, get_campaign_workload(workload).netlist, scheme)
    seeds = {
        stream: [
            derive_seed(SEED, "golden-legacy", workload, trial, stream)
            for trial in range(trials)
        ]
        for stream in ("inputs", "faults")
    }
    inputs = sample_input_matrix(engine.netlist, seeds["inputs"])
    outcomes = engine.run_trials(
        inputs,
        model=FaultModel(**rates),
        fault_seeds=seeds["faults"],
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
        "backend": LEGACY_BACKEND,
        "seed": SEED,
        "cells": {name: compute_legacy_cell(name) for name in LEGACY_CELLS},
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
