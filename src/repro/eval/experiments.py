"""Experiment registry: one runner per table and figure of the paper.

Every experiment returns a plain dictionary with the raw rows/series plus a
``rendered`` plain-text form (via :mod:`repro.eval.report`), so the benchmark
harness, the examples and EXPERIMENTS.md all print the same artefacts:

=============  ======================================================
Experiment id  Paper artefact
=============  ======================================================
``table1``     Table I   — 3-step XOR decomposition
``table2``     Table II  — SEP design-space asymptotics
``table3``     Table III — technology parameters
``table4``     Table IV  — number of area reclaims
``table5``     Table V   — energy overhead vs. unprotected baseline
``fig6``       Fig. 6    — SEP guarantee case analysis
``fig7``       Fig. 7    — time overhead vs. unprotected baseline
``fig8``       Fig. 8    — BCH parity bits vs. correctable errors
``fig9``       Fig. 9    — multi-output noise margins / bias voltages
=============  ======================================================

Plus the ablations called out in DESIGN.md: ``ablation_granularity``,
``ablation_partitions`` and ``ablation_codes``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.backend import DEFAULT_BACKEND, make_backend
from repro.core.design_space import design_space_table
from repro.core.pipeline import ParityUpdatePipeline
from repro.core.protection import EcimScheme, TrimScheme, UnprotectedScheme
from repro.core.sep import (
    and_gate_example_netlist,
    circuit_granularity_counterexample,
    exhaustive_single_fault_injection,
    fig6_case_table,
    multi_fault_coverage_table,
)
from repro.ecc.bch import bch_code_factory, parity_bits_vs_correctable_errors
from repro.ecc.hamming import HammingCode
from repro.errors import UnknownExperimentError
from repro.eval.models import EvaluationConfig, EvaluationModel
from repro.eval.report import format_series, format_table
from repro.pim.electrical import bias_voltage_curve, noise_margin_curve
from repro.pim.gates import table1_rows, xor_two_step
from repro.pim.technology import RERAM, SOT_SHE_MRAM, STT_MRAM
from repro.workloads import PAPER_BENCHMARKS, get_workload

__all__ = [
    "EXPERIMENTS",
    "available_experiments",
    "run_experiment",
    "experiment_table1",
    "experiment_table2",
    "experiment_table3",
    "experiment_table4",
    "experiment_table5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_fig9",
    "experiment_ablation_granularity",
    "experiment_ablation_partitions",
    "experiment_ablation_codes",
    "experiment_coverage",
    "experiment_campaign",
    "experiment_application",
    "experiment_rare_event",
    "experiment_multifault",
    "experiment_burst",
]

#: Technologies in the order Table V reports them.
_TECHNOLOGIES = ("reram", "stt", "sot")


@lru_cache(maxsize=None)
def _workload(name: str):
    """Workload specs are cached: block synthesis only happens once."""
    return get_workload(name)


def _model(config: Optional[EvaluationConfig] = None) -> EvaluationModel:
    return EvaluationModel(config)


# ---------------------------------------------------------------------- #
# Table I — XOR decomposition
# ---------------------------------------------------------------------- #
def experiment_table1() -> Dict[str, object]:
    """Table I: the 3-step XOR truth table, plus the 2-step NOR22 variant."""
    rows = table1_rows()
    two_step = [
        {"in1": a, "in2": b, "out": xor_two_step(a, b)[2]} for a in (0, 1) for b in (0, 1)
    ]
    rendered = format_table(
        ["in1", "in2", "s1=NOR", "s2=CP", "out=THR"],
        [[r["in1"], r["in2"], r["s1"], r["s2"], r["out"]] for r in rows],
        title="Table I: 3-step XOR (NOR, CP, THR)",
    )
    return {"rows": rows, "two_step_rows": two_step, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Table II — design space
# ---------------------------------------------------------------------- #
def experiment_table2(n_outputs: int = 256) -> Dict[str, object]:
    """Table II: SEP design space for protecting ``n_outputs`` gate outputs."""
    points = design_space_table(n_outputs)
    rendered = format_table(
        ["scheme", "update", "check", "SEP", "time", "energy", "checker metadata"],
        [
            [
                p.scheme,
                p.update_granularity,
                p.check_granularity,
                p.sep_guarantee,
                p.time_expression,
                p.energy_expression,
                p.metadata_expression,
            ]
            for p in points
        ],
        title=f"Table II: SEP design space (N = {n_outputs} gate outputs)",
    )
    return {"points": points, "n_outputs": n_outputs, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Table III — technology parameters
# ---------------------------------------------------------------------- #
def experiment_table3() -> Dict[str, object]:
    """Table III: the three technology parameter sets."""
    technologies = (STT_MRAM, SOT_SHE_MRAM, RERAM)
    rows = [t.as_table_row() for t in technologies]
    headers = list(rows[0].keys())
    rendered = format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
        title="Table III: technology parameters",
    )
    return {"rows": rows, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Table IV — area reclaims
# ---------------------------------------------------------------------- #
def experiment_table4(
    benchmarks: Sequence[str] = PAPER_BENCHMARKS,
    config: Optional[EvaluationConfig] = None,
) -> Dict[str, object]:
    """Table IV: number of area reclaims per benchmark for ECiM and TRiM."""
    model = _model(config)
    ecim = EcimScheme()
    trim = TrimScheme()
    rows = []
    per_benchmark: Dict[str, Dict[str, int]] = {}
    for name in benchmarks:
        spec = _workload(name)
        counts = {
            "unprotected": model.reclaims_for(spec, UnprotectedScheme()),
            "ecim": model.reclaims_for(spec, ecim),
            "trim": model.reclaims_for(spec, trim),
        }
        per_benchmark[name] = counts
        rows.append([name, counts["unprotected"], counts["ecim"], counts["trim"]])
    rendered = format_table(
        ["benchmark", "unprotected", "ECiM", "TRiM"],
        rows,
        title="Table IV: number of area reclaims",
    )
    return {"reclaims": per_benchmark, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Table V — energy overhead
# ---------------------------------------------------------------------- #
def experiment_table5(
    benchmarks: Sequence[str] = PAPER_BENCHMARKS,
    technologies: Sequence[str] = _TECHNOLOGIES,
    config: Optional[EvaluationConfig] = None,
) -> Dict[str, object]:
    """Table V: energy overhead (×, relative to the unprotected baseline).

    One row per benchmark; columns are scheme × technology × gate style
    (multi-output ``m-o`` vs single-output ``s-o``).
    """
    model = _model(config)
    schemes = {"ecim": EcimScheme(), "trim": TrimScheme()}
    results: Dict[str, Dict[str, float]] = {}
    rows = []
    headers = ["benchmark"]
    for scheme_name in schemes:
        for tech in technologies:
            for style in ("m-o", "s-o"):
                headers.append(f"{scheme_name}/{tech}/{style}")
    for name in benchmarks:
        spec = _workload(name)
        row: List[object] = [name]
        results[name] = {}
        baselines = {
            tech: model.evaluate_design(spec, UnprotectedScheme(), tech) for tech in technologies
        }
        for scheme_name, scheme in schemes.items():
            for tech in technologies:
                for style in ("m-o", "s-o"):
                    comparison = model.compare(
                        spec,
                        scheme,
                        tech,
                        multi_output=(style == "m-o"),
                        baseline=baselines[tech],
                    )
                    key = f"{scheme_name}/{tech}/{style}"
                    value = comparison.energy_overhead_factor
                    results[name][key] = value
                    row.append(round(value, 2))
        rows.append(row)
    rendered = format_table(
        headers, rows, title="Table V: energy overhead factor vs unprotected iso-area baseline"
    )
    return {"energy_overhead": results, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Fig. 6 — SEP guarantee
# ---------------------------------------------------------------------- #
def experiment_fig6(backend: str = DEFAULT_BACKEND) -> Dict[str, object]:
    """Fig. 6: exhaustive single-fault analysis of the Hamming(7,4) AND example.

    ``backend`` picks the execution substrate for the sweep; the per-site
    outcomes, and so the rendered artefact, are identical on every backend,
    which the test suite enforces against the ``scalar`` reference.
    """
    netlist = and_gate_example_netlist()
    inputs = {netlist.inputs[0]: 1, netlist.inputs[1]: 1}

    ecim = make_backend(backend, netlist, "ecim")
    trim = make_backend(backend, netlist, "trim")
    unprotected = make_backend(backend, netlist, "unprotected")

    ecim_analysis = exhaustive_single_fault_injection(ecim, inputs)
    trim_analysis = exhaustive_single_fault_injection(trim, inputs)
    case_table = fig6_case_table(ecim, inputs)
    escaped_without_checks = circuit_granularity_counterexample(unprotected, inputs)

    rendered = format_table(
        ["error site", "sites", "errors in level output", "final outcome"],
        [
            [row["error_site"], row["sites"], row["errors_in_level_output"], row["final_outcome"]]
            for row in case_table
        ],
        title=(
            "Fig. 6: SEP case analysis "
            f"(ECiM {ecim_analysis.protected_sites}/{ecim_analysis.total_sites} sites protected, "
            f"TRiM {trim_analysis.protected_sites}/{trim_analysis.total_sites})"
        ),
    )
    return {
        "backend": backend,
        "case_table": case_table,
        "ecim_sites": ecim_analysis.total_sites,
        "ecim_protected": ecim_analysis.protected_sites,
        "ecim_sep": ecim_analysis.sep_guaranteed,
        "trim_sites": trim_analysis.total_sites,
        "trim_protected": trim_analysis.protected_sites,
        "trim_sep": trim_analysis.sep_guaranteed,
        "error_escapes_without_checks": escaped_without_checks,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------- #
# Fig. 7 — time overhead
# ---------------------------------------------------------------------- #
def experiment_fig7(
    benchmarks: Sequence[str] = PAPER_BENCHMARKS,
    technology: str = "stt",
    config: Optional[EvaluationConfig] = None,
) -> Dict[str, object]:
    """Fig. 7: time overhead (%) of ECiM and TRiM with multi-output gates."""
    model = _model(config)
    ecim = EcimScheme()
    trim = TrimScheme()
    series: Dict[str, List[float]] = {"ecim": [], "trim": []}
    for name in benchmarks:
        spec = _workload(name)
        baseline = model.evaluate_design(spec, UnprotectedScheme(), technology)
        for scheme_name, scheme in (("ecim", ecim), ("trim", trim)):
            comparison = model.compare(spec, scheme, technology, baseline=baseline)
            series[scheme_name].append(round(comparison.time_overhead_percent, 2))
    rendered = format_series(
        "benchmark",
        list(benchmarks),
        series,
        title=f"Fig. 7: time overhead (%) vs unprotected iso-area baseline ({technology})",
    )
    return {"benchmarks": list(benchmarks), "time_overhead_percent": series, "rendered": rendered}


# ---------------------------------------------------------------------- #
# Fig. 8 — BCH parity bits
# ---------------------------------------------------------------------- #
def experiment_fig8(n: int = 255, max_t: int = 10) -> Dict[str, object]:
    """Fig. 8: parity bits vs correctable errors (BCH-255 vs Hamming(255,247))."""
    rows = parity_bits_vs_correctable_errors(n, tuple(range(1, max_t + 1)))
    hamming = HammingCode.from_codeword_length(255, 247)
    rendered = format_series(
        "correctable errors (t)",
        [row["t"] for row in rows],
        {"BCH-255 parity bits": [row["parity_bits"] for row in rows]},
        title=(
            "Fig. 8: parity bits vs correctable errors "
            f"(Hamming(255,247) reference: {hamming.n_parity} bits at t = 1)"
        ),
    )
    return {
        "rows": rows,
        "hamming_parity_bits": hamming.n_parity,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------- #
# Fig. 9 — electrical characterisation
# ---------------------------------------------------------------------- #
def experiment_fig9(max_outputs: int = 10) -> Dict[str, object]:
    """Fig. 9: noise margins (a) and bias voltages (b) vs output-cell count."""
    n_range = tuple(range(1, max_outputs + 1))
    margins = noise_margin_curve(STT_MRAM, n_range)
    voltages = bias_voltage_curve(STT_MRAM, n_range)
    parallel = [p for p in margins if p.topology == "parallel"]
    series = [p for p in margins if p.topology == "series"]
    rendered = format_series(
        "output cells",
        list(n_range),
        {
            "NM parallel (%)": [round(p.noise_margin_percent, 2) for p in parallel],
            "NM series (%)": [round(p.noise_margin_percent, 2) for p in series],
            "V_low parallel": [round(v, 3) for v in voltages["v_low_parallel"]],
            "V_high parallel": [round(v, 3) for v in voltages["v_high_parallel"]],
            "V_low series": [round(v, 3) for v in voltages["v_low_series"]],
            "V_high series": [round(v, 3) for v in voltages["v_high_series"]],
        },
        title="Fig. 9: multi-output gate noise margins and bias voltages (STT, Today's MTJ)",
    )
    return {
        "noise_margins": margins,
        "bias_voltages": voltages,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------- #
# Ablations
# ---------------------------------------------------------------------- #
def experiment_ablation_granularity(backend: str = DEFAULT_BACKEND) -> Dict[str, object]:
    """Check-granularity ablation: gate vs logic level vs circuit.

    Quantifies Table II's conclusion operationally: SEP holds at gate and
    logic-level granularity, and a single early fault escapes at circuit
    granularity (no intermediate correction).
    """
    netlist = and_gate_example_netlist()
    inputs = {netlist.inputs[0]: 1, netlist.inputs[1]: 1}

    logic_level = exhaustive_single_fault_injection(
        make_backend(backend, netlist, "ecim"), inputs
    )
    escapes = circuit_granularity_counterexample(
        make_backend(backend, netlist, "unprotected"), inputs
    )
    rows = [
        ["logic level (ECiM)", logic_level.total_sites, logic_level.protected_sites, logic_level.sep_guaranteed],
        ["circuit (no per-level check)", 1, 0 if escapes else 1, not escapes],
    ]
    rendered = format_table(
        ["check granularity", "fault sites", "protected", "SEP"],
        rows,
        title="Ablation: check granularity vs SEP",
    )
    return {
        "logic_level_protected": logic_level.protected_sites,
        "logic_level_sites": logic_level.total_sites,
        "circuit_granularity_escapes": escapes,
        "rendered": rendered,
    }


def experiment_ablation_partitions(
    block_counts: Sequence[int] = (1, 2, 3, 4),
    updates_per_gate: int = 4,
    level_gates: int = 64,
) -> Dict[str, object]:
    """Parity-block (pipeline depth) ablation: drain steps vs blocks per side."""
    rows = []
    for blocks in block_counts:
        pipeline = ParityUpdatePipeline(
            blocks_per_side=blocks, updates_per_gate=updates_per_gate, steps_per_update=2
        )
        schedule = pipeline.schedule_level(level_gates)
        rows.append(
            [
                blocks,
                schedule.total_steps,
                schedule.drain_steps,
                pipeline.sustains_full_rate(level_gates),
            ]
        )
    rendered = format_table(
        ["parity blocks per side", "total steps", "drain steps", "sustains full rate"],
        rows,
        title=f"Ablation: parity-block pipelining ({level_gates}-gate level, w = {updates_per_gate})",
    )
    return {"rows": rows, "rendered": rendered}


def experiment_coverage(
    benchmark: str = "mm8",
    gate_error_rates: Sequence[float] = (1e-6, 1e-5, 1e-4, 1e-3),
    correction_strengths: Sequence[int] = (1, 2, 3),
    backend: Optional[str] = None,
    empirical_workload: str = "dot2",
    empirical_trials: int = 300,
    seed: int = 0,
) -> Dict[str, object]:
    """Coverage extension: run-survival probability vs gate error rate.

    Quantifies the paper's "extension to higher-coverage codes" discussion:
    the probability that a whole per-row run of ``benchmark`` never exceeds
    the code's per-level correction budget, for Hamming (t = 1) and BCH
    (t = 2, 3) protection, using the binomial per-level error model over the
    workload's actual logic-level widths.

    When ``backend`` is given, the analytic table is complemented by an
    *empirical* Monte-Carlo coverage sweep of the same gate error rates on
    ``empirical_workload`` (a bit-exact campaign unit block under ECiM): one
    serial campaign on that backend with one cell per rate — the
    operational cross-check the default (analytic-only, byte-identical)
    artefact omits.  Every backend prints the same rows.
    """
    from repro.campaign import CampaignSpec, run_campaign
    from repro.core.coverage import coverage_table

    spec = _workload(benchmark)
    sites_per_level: List[int] = []
    for group in spec.level_groups:
        sites_per_level.extend([group.profile.output_bits] * group.count)
    rows = coverage_table(sites_per_level, gate_error_rates, correction_strengths)
    rendered = format_series(
        "gate error rate",
        [f"{row['gate_error_rate']:.0e}" for row in rows],
        {
            f"survival (t={t})": [round(row[f"survival_t{t}"], 6) for row in rows]
            for t in correction_strengths
        },
        title=f"Coverage extension: run-survival probability for {benchmark} "
        f"({len(sites_per_level)} logic levels)",
    )
    result: Dict[str, object] = {
        "benchmark": benchmark,
        "n_levels": len(sites_per_level),
        "rows": rows,
        "rendered": rendered,
    }
    if backend is not None:
        campaign = run_campaign(
            CampaignSpec(
                workloads=(empirical_workload,),
                schemes=("ecim",),
                gate_error_rates=tuple(gate_error_rates),
                trials=empirical_trials,
                seed=seed,
                backend=backend,
                name="coverage-empirical",
            ),
            workers=0,
        )
        empirical_rows = [
            {
                "gate_error_rate": report.cell.gate_error_rate,
                "coverage": report.coverage,
                "average_faults_per_run": report.average_faults_per_trial,
                "corrections": report.counts["corrections"],
            }
            for report in campaign.reports
        ]
        empirical_rendered = format_series(
            "gate error rate",
            [f"{row['gate_error_rate']:.0e}" for row in empirical_rows],
            {
                "empirical coverage": [round(r["coverage"], 4) for r in empirical_rows],
                "faults/run": [round(r["average_faults_per_run"], 3) for r in empirical_rows],
            },
            title=(
                "Empirical complement: Monte-Carlo coverage of "
                f"{empirical_workload} + ECiM ({empirical_trials} trials/rate, "
                f"{backend} backend, seed {seed})"
            ),
        )
        result["backend"] = backend
        result["empirical_rows"] = empirical_rows
        result["rendered"] = rendered + "\n\n" + empirical_rendered
    return result


def experiment_ablation_codes(
    benchmarks: Sequence[str] = ("mm16", "fft16"),
    t_values: Sequence[int] = (1, 2, 3),
    technology: str = "stt",
    config: Optional[EvaluationConfig] = None,
) -> Dict[str, object]:
    """Stronger-code ablation: ECiM energy overhead as coverage grows (BCH).

    ECiM's overhead scales with the number of parity bits maintained; this
    ablation sweeps the correctable-error count t (Hamming at t = 1, BCH-255
    beyond) and reports the modelled energy overhead factor.
    """
    from repro.ecc.bch import BchCode

    model = _model(config)
    rows = []
    results: Dict[str, Dict[int, float]] = {}
    schemes_by_t = {
        t: EcimScheme() if t == 1 else EcimScheme(code=BchCode(255, t)) for t in t_values
    }
    for name in benchmarks:
        spec = _workload(name)
        baseline = model.evaluate_design(spec, UnprotectedScheme(), technology)
        results[name] = {}
        for t in t_values:
            scheme = schemes_by_t[t]
            parity_bits = scheme.code.n_parity
            comparison = model.compare(spec, scheme, technology, baseline=baseline)
            overhead = comparison.energy_overhead_factor
            results[name][t] = overhead
            rows.append([name, t, parity_bits, round(overhead, 2)])
    rendered = format_table(
        ["benchmark", "t (correctable errors)", "parity bits", "energy overhead factor"],
        rows,
        title=f"Ablation: ECiM with stronger codes ({technology})",
    )
    return {"results": results, "rendered": rendered}


def experiment_burst(
    workload: str = "dot2",
    schemes: Sequence[str] = ("ecim", "trim"),
    burst_lengths: Sequence[int] = (1, 2, 3, 4, 6),
    gate_error_rate: float = 2e-3,
    correlation_window: int = 8,
    trials: int = 400,
    seed: int = 0,
    backend: str = DEFAULT_BACKEND,
) -> Dict[str, object]:
    """Burst sweep: silent-corruption rate vs burst length, ECiM vs TRiM.

    The paper's SEP guarantee covers one error per logic level; spatially /
    temporally correlated bursts (Section IV-E) are exactly the regime that
    exceeds it.  This experiment sweeps the burst length of the correlated
    fault model (:class:`~repro.pim.faults.FaultModelSpec`, ``burst`` kind)
    at a fixed trigger rate and reports, per scheme, the fraction of trials
    ending in silent corruption — the failure mode the schemes exist to
    eliminate — plus the recovered/detected rates.  ``burst_lengths`` of 1
    reduce to independent flips (the stochastic baseline).  Every cell reuses
    the same trial stream (keyed by ``(seed, "burst")``), so rows differ only
    in the model; fault-model trials are byte-identical on every
    ``backend``.
    """
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.batched import sample_input_matrix
    from repro.core.rng import TrialStream
    from repro.pim.faults import FaultModelSpec

    netlist = get_campaign_workload(workload).netlist
    stream = TrialStream.keyed((seed, "burst"), range(trials))
    inputs = sample_input_matrix(netlist, stream)

    rows: List[Dict[str, object]] = []
    series: Dict[str, List[float]] = {}
    for scheme in schemes:
        scheme_backend = make_backend(backend, netlist, scheme)
        silent_series: List[float] = []
        for length in burst_lengths:
            spec = FaultModelSpec.burst(
                burst_length=int(length),
                correlation_window=correlation_window,
                gate_error_rate=gate_error_rate,
            )
            counts = scheme_backend.run_trials(inputs, fault_model=spec, stream=stream).counts()
            silent_rate = counts["silent_corruption"] / trials
            silent_series.append(silent_rate)
            rows.append(
                {
                    "scheme": scheme,
                    "burst_length": int(length),
                    "silent_corruption_rate": silent_rate,
                    "recovered_rate": counts["recovered"] / trials,
                    "detected_corruption_rate": counts["detected_corruption"] / trials,
                    "faults_injected": counts["faults_injected"],
                    "counts": counts,
                }
            )
        series[f"{scheme} silent rate"] = [round(v, 4) for v in silent_series]
    rendered = format_series(
        "burst length",
        [int(length) for length in burst_lengths],
        series,
        title=(
            f"Burst sweep: {workload}, trigger rate {gate_error_rate:g}, "
            f"window {correlation_window} ({trials} trials/cell, {backend} backend, "
            f"seed {seed})"
        ),
    )
    return {
        "workload": workload,
        "backend": backend,
        "gate_error_rate": float(gate_error_rate),
        "correlation_window": int(correlation_window),
        "burst_lengths": [int(length) for length in burst_lengths],
        "rows": rows,
        "rendered": rendered,
    }


def experiment_campaign(
    workloads: Sequence[str] = ("and2",),
    schemes: Sequence[str] = ("unprotected", "ecim", "trim"),
    technologies: Sequence[str] = ("stt",),
    gate_error_rates: Sequence[float] = (1e-4, 1e-3, 1e-2),
    trials: int = 200,
    seed: int = 0,
    shard_size: int = 100,
    workers: int = 0,
    checkpoint: Optional[str] = None,
    backend: str = DEFAULT_BACKEND,
    fault_model: Optional[str] = None,
) -> Dict[str, object]:
    """Monte-Carlo coverage campaign: the empirical complement of Fig. 6.

    Where ``fig6`` proves SEP by exhausting every *single*-fault site, the
    campaign measures what happens under the paper's stochastic error model
    at realistic rates — including multi-fault trials that exceed the
    single-error budget — and reports per-cell coverage / detection /
    silent-corruption rates with 95% Wilson intervals.  Defaults are sized
    for the test suite; the CLI (``python -m repro campaign``) is the entry
    point for paper-scale sweeps.
    """
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        workloads=tuple(workloads),
        schemes=tuple(schemes),
        technologies=tuple(technologies),
        gate_error_rates=tuple(gate_error_rates),
        trials=trials,
        seed=seed,
        shard_size=shard_size,
        backend=backend,
        name="experiment-campaign",
        fault_model=fault_model,
    )
    result = run_campaign(spec, workers=workers, checkpoint=checkpoint)
    return {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "summary": result.summary(),
        "cells": {
            report.cell.key: {
                "counts": dict(report.counts),
                "coverage": report.coverage,
                "coverage_interval": report.coverage_interval,
                "silent_corruption_rate": report.silent_corruption_rate,
                "silent_corruption_interval": report.silent_corruption_interval,
                "detected_rate": report.detected_rate,
            }
            for report in result.reports
        },
        "rendered": result.rendered,
    }


def experiment_application(
    workloads: Sequence[str] = ("mlp16",),
    schemes: Sequence[str] = ("unprotected", "ecim"),
    technologies: Sequence[str] = ("stt",),
    gate_error_rates: Sequence[float] = (1e-3, 1e-2),
    trials: int = 100,
    seed: int = 0,
    shard_size: int = 50,
    workers: int = 0,
    checkpoint: Optional[str] = None,
    backend: str = DEFAULT_BACKEND,
    fault_model: Optional[str] = "stochastic",
) -> Dict[str, object]:
    """Application-level campaign: accuracy degradation under faults.

    Runs the functional application netlists (``mlp16``, ``fft4``) through
    the standard campaign engine with application scoring enabled: every
    trial's faulty output words are decoded and compared against the
    workload's integer oracle, yielding argmax-flip (accuracy degradation)
    rates and per-output bit-error/magnitude averages — the paper's
    application view (its mnist benchmarks are scored on classification
    accuracy, not gate-level corruption alone) — alongside the usual
    coverage counters.  Defaults use the declarative ``stochastic`` fault
    model so results are byte-identical across all three backends.
    """
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        workloads=tuple(workloads),
        schemes=tuple(schemes),
        technologies=tuple(technologies),
        gate_error_rates=tuple(gate_error_rates),
        trials=trials,
        seed=seed,
        shard_size=shard_size,
        backend=backend,
        name="experiment-application",
        fault_model=fault_model,
        application=True,
    )
    result = run_campaign(spec, workers=workers, checkpoint=checkpoint)
    return {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "summary": result.summary(),
        "cells": {
            report.cell.key: {
                "counts": dict(report.counts),
                "application": dict(report.application or {}),
                "coverage": report.coverage,
                "silent_corruption_rate": report.silent_corruption_rate,
                "argmax_flip_rate": report.argmax_flip_rate,
                "argmax_flip_interval": report.argmax_flip_interval,
                "output_bit_errors_avg": report.output_bit_errors_avg,
                "output_error_magnitude_avg": report.output_error_magnitude_avg,
            }
            for report in result.reports
        },
        "rendered": result.rendered,
    }


def experiment_rare_event(
    workload: str = "dot2",
    scheme: str = "ecim",
    technology: str = "stt",
    gate_error_rate: float = 1e-5,
    proposal_rate: float = 1e-3,
    metric: str = "detected_corruption",
    trials: int = 4000,
    seed: int = 0,
    shard_size: int = 1000,
    workers: int = 0,
    backend: str = DEFAULT_BACKEND,
) -> Dict[str, object]:
    """Rare-event demo: importance sampling vs. uniform Monte Carlo at 1e-5.

    At a 1e-5 gate error rate a uniform trial of the dot2+ECiM cell injects
    *anything* with probability ~1.7% (1702 Bernoulli sites), so estimating a
    per-trial error-class rate of ~5e-6 by direct simulation needs millions
    of trials before the Wilson interval tightens at all.  This experiment
    runs the same trial budget through three estimators — uniform, importance
    sampling tilted to ``proposal_rate``, and fault-count stratification —
    and reports each one's 95% CI half-width plus the number of *uniform*
    trials that would achieve the importance run's half-width (solved from
    the Wilson interval at the importance point estimate).  The ratio of
    that equivalent budget to the actual budget is the variance-reduction
    gain the CI test pins at >= 10x.
    """
    from repro.campaign import CampaignSpec, run_campaign
    from repro.stats import interval_halfwidth, wilson_interval

    def run(estimator: Optional[str]):
        spec = CampaignSpec(
            workloads=(workload,),
            schemes=(scheme,),
            technologies=(technology,),
            gate_error_rates=(gate_error_rate,),
            trials=trials,
            seed=seed,
            shard_size=shard_size,
            backend=backend,
            name="experiment-rare-event",
            estimator=estimator,
        )
        return run_campaign(spec, workers=workers)

    estimators = {
        "uniform": None,
        "importance": f"importance:rate={proposal_rate!r},metric={metric}",
        "stratified": f"stratified:k_max=2,metric={metric}",
    }
    rows: Dict[str, Dict[str, object]] = {}
    for label, estimator in estimators.items():
        report = run(estimator).reports[0]
        mean, interval = report.estimate(metric)
        rows[label] = {
            "estimator": estimator or "uniform",
            "trials": report.trials,
            "estimate": mean,
            "interval": interval,
            "halfwidth": interval_halfwidth(interval),
            "effective_sample_size": report.effective_sample_size,
        }

    # Smallest uniform budget whose Wilson half-width at the importance point
    # estimate matches the importance run's half-width: doubling then bisect
    # (half-width shrinks monotonically in n at fixed rate).
    target = rows["importance"]["halfwidth"]
    rate = rows["importance"]["estimate"]

    def uniform_halfwidth(n: int) -> float:
        return interval_halfwidth(wilson_interval(round(rate * n), n))

    low, high = trials, trials
    while uniform_halfwidth(high) > target:
        low, high = high, high * 2
    while low + 1 < high:
        mid = (low + high) // 2
        if uniform_halfwidth(mid) > target:
            low = mid
        else:
            high = mid
    equivalent = high
    gain = equivalent / trials

    rendered = format_table(
        ["estimator", "trials", metric, "95% CI", "halfwidth", "ESS"],
        [
            [
                row["estimator"],
                row["trials"],
                f"{row['estimate']:.3e}",
                f"[{row['interval'][0]:.3e}, {row['interval'][1]:.3e}]",
                f"{row['halfwidth']:.3e}",
                "-"
                if row["effective_sample_size"] is None
                else f"{row['effective_sample_size']:.1f}",
            ]
            for row in rows.values()
        ],
        title=(
            f"Rare-event estimators: {workload}+{scheme}, rate {gate_error_rate:g} "
            f"({trials} trials each, {backend} backend, seed {seed})"
        ),
    ) + (
        f"\n\nuniform Monte Carlo needs ~{equivalent} trials to match the importance "
        f"run's half-width ({gain:.0f}x the {trials}-trial budget)."
    )
    return {
        "workload": workload,
        "scheme": scheme,
        "gate_error_rate": float(gate_error_rate),
        "proposal_rate": float(proposal_rate),
        "metric": metric,
        "trials": trials,
        "backend": backend,
        "estimators": rows,
        "uniform_equivalent_trials": equivalent,
        "efficiency_gain": gain,
        "rendered": rendered,
    }


def experiment_multifault(
    workload: str = "and2",
    max_faults: int = 2,
    backend: str = DEFAULT_BACKEND,
    bch_t: int = 2,
    chunk_size: int = 4096,
    jobs: int = 1,
) -> Dict[str, object]:
    """Exhaustive multi-fault sweep: where the single-error budget breaks.

    For every k in 1..``max_faults``, injects every (sites choose k)
    combination of simultaneous flips into ``workload`` under Hamming ECiM
    (correction budget t = 1) and BCH-t ECiM (budget t = ``bch_t``), and
    splits the outcomes into SEP-guaranteed / code-corrected / detected /
    silent — the operational form of the paper's Fig. 8 claim that BCH-t
    parity buys back the coverage multi-fault trials cost Hamming.  The
    k = 1 rows reproduce the classic single-fault sweep byte-for-byte.
    """
    from repro.campaign.workloads import get_campaign_workload

    netlist = get_campaign_workload(workload).netlist
    inputs = {signal: 1 for signal in netlist.inputs}

    schemes = (
        ("ecim/hamming", make_backend(backend, netlist, "ecim"), 1),
        (
            f"ecim/bch-t{bch_t}",
            make_backend(backend, netlist, "ecim", code_factory=bch_code_factory(bch_t)),
            bch_t,
        ),
    )
    analyses: Dict[str, List] = {}
    rows = []
    for name, scheme_backend, budget in schemes:
        # Only the coverage table is rendered, so retain counters alone —
        # a large sweep must not hold O(combinations) outcome objects.
        analyses[name] = multi_fault_coverage_table(
            scheme_backend,
            inputs,
            max_faults=max_faults,
            correction_budget=budget,
            chunk_size=chunk_size,
            keep_outcomes=False,
            jobs=jobs,
        )
        for analysis in analyses[name]:
            row = analysis.coverage_row()
            rows.append(
                [
                    name,
                    row["k"],
                    row["combinations"],
                    row["sep_guaranteed"],
                    row["code_corrected"],
                    row["detected"],
                    row["silent"],
                    round(float(row["coverage"]), 4),
                ]
            )
    rendered = format_table(
        [
            "scheme",
            "k (simultaneous faults)",
            "combinations",
            "SEP-guaranteed",
            "code-corrected",
            "detected",
            "silent",
            "coverage",
        ],
        rows,
        title=(
            f"Multi-fault sweep: {workload}, k = 1..{max_faults} "
            f"({backend} backend; budgets t=1 vs t={bch_t})"
        ),
    )
    return {
        "workload": workload,
        "backend": backend,
        "max_faults": max_faults,
        "bch_t": bch_t,
        "coverage_rows": {
            name: [analysis.coverage_row() for analysis in per_k]
            for name, per_k in analyses.items()
        },
        "budget_violations": sum(
            analysis.budget_violations for per_k in analyses.values() for analysis in per_k
        ),
        "rendered": rendered,
    }


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
EXPERIMENTS: Dict[str, Callable[..., Dict[str, object]]] = {
    "table1": experiment_table1,
    "table2": experiment_table2,
    "table3": experiment_table3,
    "table4": experiment_table4,
    "table5": experiment_table5,
    "fig6": experiment_fig6,
    "fig7": experiment_fig7,
    "fig8": experiment_fig8,
    "fig9": experiment_fig9,
    "ablation_granularity": experiment_ablation_granularity,
    "ablation_partitions": experiment_ablation_partitions,
    "ablation_codes": experiment_ablation_codes,
    "coverage": experiment_coverage,
    "campaign": experiment_campaign,
    "application": experiment_application,
    "rare_event": experiment_rare_event,
    "multifault": experiment_multifault,
    "burst": experiment_burst,
}


def available_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> Dict[str, object]:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        runner = EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; available: {available_experiments()}"
        ) from None
    return runner(**kwargs)
