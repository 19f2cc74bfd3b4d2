#!/usr/bin/env python3
"""Quickstart: compute in a nonvolatile PiM array, break it, and protect it.

This example walks through the library's core loop in a few dozen lines:

1. synthesise a small arithmetic circuit (a 4-bit adder) into the PiM gate
   set (NOR / THR) with explicit logic levels;
2. execute it bit-exactly inside a simulated resistive array (STT-MRAM
   parameters from the paper's Table III);
3. inject a single computation error and watch the unprotected execution
   silently produce a wrong sum;
4. run the same circuit under ECiM (in-memory Hamming parity + external
   syndrome checker) and TRiM (triple redundancy + majority voter) and watch
   the error get corrected at logic-level granularity.

Run with::

    python examples/quickstart.py
"""

from repro.compiler import CircuitBuilder
from repro.core import (
    EcimExecutor,
    TrimExecutor,
    UnprotectedExecutor,
    enumerate_fault_sites,
    make_backend,
)
from repro.eval import format_table
from repro.pim import DeterministicFaultInjector, STT_MRAM, table1_rows


def build_adder(width=4):
    """Synthesise a ripple-carry adder into NOR/THR gates."""
    builder = CircuitBuilder()
    a = builder.input_word(width, "a")
    b = builder.input_word(width, "b")
    total, carry = builder.ripple_adder(a, b)
    builder.mark_output_word(total, "sum")
    builder.mark_output_bit(carry, "carry")
    return builder.netlist, a, b, total, carry


def encode_inputs(a_signals, b_signals, a_value, b_value):
    inputs = {s: (a_value >> i) & 1 for i, s in enumerate(a_signals)}
    inputs.update({s: (b_value >> i) & 1 for i, s in enumerate(b_signals)})
    return inputs


def decode_sum(report, total, carry):
    value = sum(report.outputs[s] << i for i, s in enumerate(total))
    return value + (report.outputs[carry] << len(total))


def main():
    print("=" * 72)
    print("Quickstart: error correction for nonvolatile processing-in-memory")
    print("=" * 72)

    # --- The in-array gate set -------------------------------------------
    print("\nThe paper's in-array XOR (Table I) — every arithmetic block below")
    print("is built from exactly these NOR / THR primitives:\n")
    rows = table1_rows()
    print(format_table(["in1", "in2", "s1=NOR", "s2=CP", "out=THR"],
                       [[r["in1"], r["in2"], r["s1"], r["s2"], r["out"]] for r in rows]))

    # --- Synthesis ---------------------------------------------------------
    netlist, a_sigs, b_sigs, total, carry = build_adder()
    stats = netlist.stats()
    print(f"\nSynthesised a 4-bit adder: {stats.n_gates} gates over "
          f"{stats.n_levels} logic levels (technology: {STT_MRAM.name.upper()}).")

    a_value, b_value = 11, 7
    inputs = encode_inputs(a_sigs, b_sigs, a_value, b_value)

    # --- Fault-free execution ----------------------------------------------
    report = UnprotectedExecutor(build_adder()[0]).run(dict(inputs))
    print(f"\nFault-free unprotected execution: {a_value} + {b_value} = "
          f"{decode_sum(report, total, carry)}")

    # --- A single computation error ----------------------------------------
    # Flip the data output of the 8th main-computation gate — a "logic error"
    # in the paper's terminology: the gate output fails to switch correctly
    # and, left uncorrected, propagates into the sum bits of later levels.
    # `enumerate_fault_sites` lets us target the *same* netlist gate in every
    # design even though the protected executions interleave metadata
    # operations with the main computation.
    faulty_gate_ordinal = 7
    results = []
    for name, scheme, executor_cls in (
        ("unprotected", "unprotected", UnprotectedExecutor),
        ("ECiM", "ecim", EcimExecutor),
        ("TRiM", "trim", TrimExecutor),
    ):
        data_sites = [
            site
            for site in enumerate_fault_sites(make_backend("scalar", netlist, scheme), inputs)
            if not site.is_metadata and site.output_position == 0
        ]
        target = data_sites[faulty_gate_ordinal]
        injector = DeterministicFaultInjector(
            target_output_positions={target.operation_index: target.output_position}
        )
        executor = executor_cls(netlist, fault_injector=injector)
        report = executor.run(dict(inputs))
        results.append(
            [
                name,
                decode_sum(report, total, carry),
                "yes" if report.outputs_correct else "NO",
                report.errors_detected,
                report.corrections,
                len(executor.array.trace),
            ]
        )

    print("\nSame circuit, same inputs, one injected gate error (main-computation gate #8):\n")
    print(
        format_table(
            ["design", "computed sum", "correct?", "errors detected", "corrections", "array operations"],
            results,
        )
    )
    print(
        "\nThe unprotected run silently returns a wrong sum; ECiM and TRiM both\n"
        "detect the error at the end of the affected logic level and write the\n"
        "corrected value back before it can propagate — the paper's single\n"
        "error protection (SEP) guarantee."
    )


if __name__ == "__main__":
    main()
