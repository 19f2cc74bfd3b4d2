#!/usr/bin/env python3
"""Fault-injection study: silent-data-corruption rate vs gate error rate.

The motivating scenario of the paper: a PiM accelerator performs bulk bitwise
computation whose gate operations occasionally misfire (the "direct" logic
errors of Section II-C).  Conventional memory ECC never sees those errors.
This study sweeps the gate error rate and measures, for a fixed-point
multiply-accumulate kernel, how often each design produces a wrong result:

* unprotected execution,
* ECiM (in-memory Hamming parity, logic-level syndrome checks),
* TRiM (in-memory triple redundancy, logic-level majority votes).

Every design is one cell of a single campaign
(:func:`repro.campaign.run_campaign`) over the registered ``mac4`` block, one
carry-save multiply-accumulate step with 4-bit operands, run on the
bit-sliced ``bitpacked`` backend (every backend prints the same table).

Run with::

    python examples/fault_injection_study.py [--trials 40]
"""

import argparse

from repro.campaign import CampaignSpec, get_campaign_workload, run_campaign
from repro.eval import format_table

SCHEMES = ("unprotected", "ecim", "trim")


def run_study(error_rates, trials, seed=2024):
    stats = get_campaign_workload("mac4").netlist.stats()
    print(
        f"Kernel: multiply-accumulate (mac4), {stats.n_gates} in-array gates over "
        f"{stats.n_levels} logic levels; {trials} trials per point.\n"
    )
    spec = CampaignSpec(
        workloads=("mac4",),
        schemes=SCHEMES,
        gate_error_rates=error_rates,
        trials=trials,
        seed=seed,
        backend="bitpacked",
        name="fault-injection-study",
    )
    reports = {
        (report.cell.gate_error_rate, report.cell.scheme): report
        for report in run_campaign(spec, workers=0).reports
    }
    rows = []
    for rate in spec.gate_error_rates:
        row = [f"{rate:.0e}"]
        for scheme in SCHEMES:
            counts = reports[rate, scheme].counts
            row.append(f"{counts['trials'] - counts['correct']}/{counts['trials']}")
            if scheme != "unprotected":
                row.append(counts["detected"])
        rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=30, help="trials per error rate")
    args = parser.parse_args()

    print("=" * 72)
    print("Silent-data-corruption study: unprotected vs ECiM vs TRiM")
    print("=" * 72 + "\n")

    error_rates = (2e-4, 2e-3, 1e-2)
    rows = run_study(error_rates, trials=args.trials)
    print(
        format_table(
            [
                "gate error rate",
                "unprotected wrong",
                "ecim wrong",
                "ecim runs w/ detection",
                "trim wrong",
                "trim runs w/ detection",
            ],
            rows,
        )
    )
    print(
        "\nAt realistic (low) error rates the protected designs absorb every\n"
        "fault: at most one error lands per logic level, which is exactly the\n"
        "coverage ECiM/TRiM guarantee.  At aggressively high error rates,\n"
        "multiple errors can hit a single logic level and exceed the single\n"
        "error correction budget — the motivation for the stronger BCH-based\n"
        "configurations of Fig. 8."
    )


if __name__ == "__main__":
    main()
