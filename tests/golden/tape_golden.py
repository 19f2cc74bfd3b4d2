"""Tape golden: SHA-256 digests of every compiled campaign tape.

The goldens next to this module pin what a campaign *counts*; this one pins
what the tape compiler and the int-tape lowering *build*, so a change to
set-up code (plan compile, code construction, lowering) that keeps the
counters but moves a column, an operation index or a decode entry still
fails.  One tape is one (campaign workload, scheme, gate style), plus ECiM
under a BCH-t2 ``code_factory`` on the smallest workloads.

Each tape is digested per section, so a failure names what drifted:

* ``plan`` — the :class:`~repro.core.batched.ExecutionPlan` fields and
  every step's dataclass fields, in tape order;
* ``site_map`` and ``fault_sites`` — where each fault class sits on the
  tape, and the class sizes a fault schedule is drawn over;
* ``records`` — the int-tape records, the golden netlist's records and
  the input / output columns (a ``_TABLE`` record's program is replaced
  by its truth table, since a closure has no stable identity);
* ``ranks`` — ``rank_of_entry``, ``rank_step`` and ``rank_col``;
* ``gate_slots`` — ``gate_slot_of_op`` and ``gate_entry_ptr``.

Values are digested, not their containers: a numpy array and a tuple of
the same ints hash alike, and dicts are hashed as sorted items.

Regenerate after an *intentional* change to a tape with::

    PYTHONPATH=src python tests/golden/tape_golden.py --write

and say why in the commit message.
"""

import dataclasses
import hashlib
import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tape_digests.json")

WORKLOADS = ("and2", "dot2", "fft4", "mlp16")
SCHEMES = ("unprotected", "ecim", "trim")
STYLES = {"mo": True, "so": False}
#: Workloads whose ECiM tapes are also pinned under a BCH-t2 code.
BCH_WORKLOADS = ("and2", "dot2")
BCH_T = 2

#: ``name -> (workload, scheme, multi_output, BCH t or None)``.
TAPES = {
    f"{workload}/{scheme}/{style}": (workload, scheme, multi_output, None)
    for workload in WORKLOADS
    for scheme in SCHEMES
    for style, multi_output in STYLES.items()
}
TAPES.update(
    {
        f"{workload}/ecim-bch{BCH_T}/{style}": (workload, "ecim", multi_output, BCH_T)
        for workload in BCH_WORKLOADS
        for style, multi_output in STYLES.items()
    }
)

def _canon(value):
    """``value`` as plain JSON-able lists, ints and strings."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return [[_canon(key), _canon(item)] for key, item in sorted(value.items())]
    if isinstance(value, (tuple, list)):
        return [_canon(item) for item in value]
    if dataclasses.is_dataclass(value):
        return [
            type(value).__name__,
            [[field.name, _canon(getattr(value, field.name))] for field in dataclasses.fields(value)],
        ]
    if callable(value):
        raise TypeError(f"cannot digest a callable ({value!r}): replace it by its table")
    return value


def _truth_table(program, n_inputs: int) -> int:
    """A ``_TABLE`` program's truth table as one int: bit ``i`` is the
    output for the input combination whose bit ``j`` drives input ``j``."""
    rows = 1 << n_inputs
    values = [
        sum(1 << index for index in range(rows) if (index >> j) & 1) for j in range(n_inputs)
    ]
    return program(values, (1 << rows) - 1)


def _record(record: tuple) -> list:
    from repro.core.bitpacked import _TABLE

    if record[0] == _TABLE:
        op, program, ins, outs = record
        return [op, ["table", len(ins), _truth_table(program, len(ins))], _canon(ins), _canon(outs)]
    return _canon(record)


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_tape(name: str):
    """Compile and lower one tape of :data:`TAPES` from scratch."""
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.batched import compile_plan
    from repro.core.bitpacked import lower_plan
    from repro.ecc.bch import bch_code_factory

    workload, scheme, multi_output, bch_t = TAPES[name]
    kwargs = {} if bch_t is None else {"code_factory": bch_code_factory(bch_t)}
    plan = compile_plan(
        get_campaign_workload(workload).netlist, scheme, multi_output=multi_output, **kwargs
    )
    return plan, lower_plan(plan)


def tape_digests(name: str, built=None) -> dict:
    """Each section's digest of one tape, plus its step and record counts;
    ``built`` is the tape's ``(plan, tape)`` when the caller has built it."""
    plan, tape = build_tape(name) if built is None else built
    plan_fields = [
        [field.name, _canon(getattr(plan, field.name))]
        for field in dataclasses.fields(plan)
        if field.name not in ("netlist", "steps")
    ]
    sections = {
        "plan": [plan_fields, [_canon(step) for step in plan.steps]],
        "site_map": _canon(plan.site_map),
        "fault_sites": _canon(plan.fault_sites),
        "records": [
            [_record(record) for record in tape.records],
            [_record(record) for record in tape.golden],
            _canon(tape.input_cols),
            _canon(tape.output_cols),
        ],
        "ranks": _canon([tape.rank_of_entry, tape.rank_step, tape.rank_col]),
        "gate_slots": _canon([tape.gate_slot_of_op, tape.gate_entry_ptr]),
    }
    digests = {section: _digest(payload) for section, payload in sections.items()}
    digests["n_steps"] = len(plan.steps)
    digests["n_records"] = len(tape.records)
    return digests


def load_digests() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv) -> int:
    if argv[1:] != ["--write"]:
        print(__doc__)
        print(f"usage: PYTHONPATH=src python {argv[0]} --write", file=sys.stderr)
        return 2
    payload = {name: tape_digests(name) for name in TAPES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload)} tapes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
