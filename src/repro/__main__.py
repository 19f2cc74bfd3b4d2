"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the available experiments (paper tables/figures + ablations).
``run EXPERIMENT [EXPERIMENT ...]``
    Regenerate and print one or more experiments.
``workloads``
    Show the registered benchmarks and their per-row statistics.
``technologies``
    Print the Table III technology parameter sets.
``sep``
    Run the exhaustive single-fault SEP analysis of Fig. 6 and print the
    per-category outcome; with ``--max-faults K`` run the exhaustive
    k-simultaneous-fault sweep instead and print the per-k coverage table
    (Hamming vs BCH-t ECiM).
``campaign``
    Run a (sharded, resumable) Monte-Carlo fault-injection campaign and
    print per-cell coverage rates with Wilson confidence intervals.
    ``--fault-model`` swaps the independent-flip error model for a
    declarative one (``burst:length=3,window=8``,
    ``stuck-at:cells=4+17,value=1``, ...) that runs byte-identically on
    either backend.  ``--db`` additionally records every completed shard
    into a persistent SQLite results store.
``store``
    Maintain the persistent results store: ``store ingest`` replays
    checkpoint JSONL files into the database idempotently, ``store
    campaigns`` lists every campaign the corpus has accumulated.
``query``
    Aggregate the results corpus: filter (``--scheme``, ``--workload``,
    ``--fault-model``, ``--min-error-rate``, ...), group (``--group-by``),
    and render rates with Wilson intervals as table, CSV or JSON.

Execution-bound commands take ``--backend {scalar,batched,bitpacked}``:
``scalar`` walks the behavioural array per trial (the reference),
``batched`` interprets a compiled instruction tape for all trials (or all
fault sites) at once, and ``bitpacked`` (the default) interprets the same
tape bit-sliced, one Python int per column holding every trial (see
:mod:`repro.core.backend`).  All three give byte-identical results, so a
campaign checkpoint resumes on any of them.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

from repro.core.backend import BACKEND_NAMES, DEFAULT_BACKEND
from repro.eval.experiments import EXPERIMENTS, available_experiments, run_experiment
from repro.eval.report import format_table

#: The execution-backend choice set, shared by every subcommand that runs
#: netlists (argparse rejects a typo'd name at parse time with this list).
BACKEND_CHOICES = list(BACKEND_NAMES)


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in available_experiments():
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    unknown = [name for name in args.experiments if name.lower() not in available_experiments()]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {available_experiments()}", file=sys.stderr)
        return 1
    for name in args.experiments:
        kwargs = {}
        if args.backend is not None:
            runner = EXPERIMENTS[name.lower()]
            if "backend" in inspect.signature(runner).parameters:
                kwargs["backend"] = args.backend
            else:
                print(
                    f"note: experiment {name!r} is analytic — --backend ignored",
                    file=sys.stderr,
                )
        result = run_experiment(name, **kwargs)
        print(result["rendered"])
        print()
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads import PAPER_BENCHMARKS, get_workload

    rows = []
    for name in PAPER_BENCHMARKS:
        spec = get_workload(name)
        rows.append(
            [
                spec.name,
                spec.family,
                spec.total_gates,
                spec.n_levels,
                round(spec.average_level_width, 1),
                spec.row_footprint.rows_used,
                spec.operand_bits,
            ]
        )
    print(
        format_table(
            ["benchmark", "family", "gates/row", "logic levels", "avg level width", "rows used", "operand bits"],
            rows,
            title="Registered paper benchmarks",
        )
    )
    return 0


def _cmd_technologies(_args: argparse.Namespace) -> int:
    result = run_experiment("table3")
    print(result["rendered"])
    return 0


def _cmd_sep(args: argparse.Namespace) -> int:
    if args.max_faults < 1:
        print("--max-faults must be >= 1", file=sys.stderr)
        return 1
    if args.max_faults == 1:
        result = run_experiment("fig6", backend=args.backend)
        print(result["rendered"])
        print()
        verdict = "holds" if result["ecim_sep"] and result["trim_sep"] else "VIOLATED"
        print(f"Single error protection: {verdict} "
              f"(ECiM {result['ecim_protected']}/{result['ecim_sites']} sites, "
              f"TRiM {result['trim_protected']}/{result['trim_sites']} sites).")
        return 0
    result = run_experiment(
        "multifault",
        workload=args.workload,
        max_faults=args.max_faults,
        backend=args.backend,
        bch_t=args.bch_t,
        jobs=args.jobs,
    )
    print(result["rendered"])
    print()
    violations = result["budget_violations"]
    verdict = "holds" if violations == 0 else f"VIOLATED ({violations} combinations)"
    print(
        f"Per-level correction budget: {verdict} — every combination with at "
        "most t simultaneous faults per logic level was corrected."
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignSpec,
        available_campaign_workloads,
        get_campaign_workload,
        run_campaign,
    )
    from repro.errors import ReproError, WorkerDiedError

    try:
        if args.spec is not None:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = CampaignSpec.from_json(handle.read())
            if args.backend is not None and args.backend != spec.backend:
                # An explicit flag overrides the spec file's backend (the
                # file may predate the backend field entirely).
                spec = CampaignSpec.from_dict({**spec.to_dict(), "backend": args.backend})
            if args.fault_model is not None:
                # Same for the fault model: the flag wins over the file.
                spec = CampaignSpec.from_dict(
                    {**spec.to_dict(), "fault_model": args.fault_model}
                )
            if args.estimator is not None:
                # And for the estimator: the flag wins over the file.
                spec = CampaignSpec.from_dict(
                    {**spec.to_dict(), "estimator": args.estimator}
                )
            if args.application:
                # And for application scoring: the flag turns it on on top
                # of a spec file that predates the field.
                spec = CampaignSpec.from_dict(
                    {**spec.to_dict(), "application": True}
                )
        else:
            spec = CampaignSpec(
                workloads=tuple(args.workloads),
                schemes=tuple(args.schemes),
                technologies=tuple(args.technologies),
                gate_error_rates=tuple(args.rates),
                memory_error_rate=args.memory_rate,
                trials=args.trials,
                seed=args.seed,
                shard_size=args.shard_size,
                multi_output=not args.single_output,
                backend=args.backend,
                name=args.name,
                faults_per_trial=args.faults_per_trial,
                fault_model=args.fault_model,
                estimator=args.estimator,
                application=args.application or None,
            )
        for workload in spec.workloads:
            get_campaign_workload(workload)
    except (ReproError, OSError, ValueError) as error:
        print(f"invalid campaign spec: {error}", file=sys.stderr)
        print(f"available workloads: {available_campaign_workloads()}", file=sys.stderr)
        return 1

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"\r  shards {done}/{total}", end="", file=sys.stderr, flush=True)

    def resume_hint() -> None:
        if args.checkpoint:
            print(
                f"completed shards are saved in {args.checkpoint}; "
                "re-run the same command to resume",
                file=sys.stderr,
            )

    try:
        result = run_campaign(
            spec,
            workers=args.workers,
            checkpoint=args.checkpoint,
            progress=progress,
            db=args.db,
            target_ci_halfwidth=args.target_ci_halfwidth,
            max_rounds=args.max_rounds,
        )
    except (ReproError, OSError) as error:
        print(f"\ncampaign failed: {error}", file=sys.stderr)
        if isinstance(error, WorkerDiedError):
            resume_hint()
        return 1
    except KeyboardInterrupt:
        print("\ncampaign interrupted", file=sys.stderr)
        resume_hint()
        return 130
    if not args.quiet:
        print(file=sys.stderr)
    print(result.rendered)
    summary = result.summary()
    print()
    print(
        f"{summary['total_trials']} trials across {summary['cells']} cells "
        f"(spec {summary['spec_hash']}, seed {spec.seed}); "
        f"{summary['executed_shards']} shards executed, "
        f"{summary['resumed_shards']} resumed from checkpoint, "
        f"{summary['workers']} worker(s)."
    )
    if "estimator" in summary:
        line = f"estimator {summary['estimator']}, {summary['rounds']} round(s)"
        if "target_ci_halfwidth" in summary:
            line += f", target CI half-width {summary['target_ci_halfwidth']:g}"
        print(line + ".")
    return 0


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec
    from repro.errors import ReproError
    from repro.store import ResultsStore, ingest_checkpoint

    spec = None
    try:
        if args.spec is not None:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = CampaignSpec.from_json(handle.read())
        with ResultsStore(args.db) as store:
            total = 0
            for path in args.checkpoints:
                report = ingest_checkpoint(store, path, spec=spec, campaign_name=args.name)
                total += report.ingested
                print(report.summary())
    except (ReproError, OSError, ValueError) as error:
        print(f"ingest failed: {error}", file=sys.stderr)
        return 1
    print(f"{total} new shard(s) recorded in {args.db}")
    return 0


def _cmd_store_campaigns(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.store import ResultsStore, format_output

    try:
        with ResultsStore(args.db) as store:
            rows = store.campaigns()
    except (ReproError, OSError) as error:
        print(f"store query failed: {error}", file=sys.stderr)
        return 1
    columns = [
        "spec_hash", "name", "backend", "fault_model", "has_spec",
        "cells", "shards", "trials", "repro_version", "created_at", "updated_at",
    ]
    print(format_output(rows, columns, args.format, title=f"Campaigns in {args.db}"))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.store import QueryFilters, ResultsStore, format_output, run_query

    filters = QueryFilters(
        workloads=tuple(args.workload or ()),
        schemes=tuple(args.scheme or ()),
        technologies=tuple(args.technology or ()),
        fault_models=tuple(args.fault_model or ()),
        spec_hashes=tuple(args.spec_hash or ()),
        min_error_rate=args.min_error_rate,
        max_error_rate=args.max_error_rate,
    )
    group_by = [column.strip() for column in args.group_by.split(",") if column.strip()]
    try:
        with ResultsStore(args.db) as store:
            columns, rows = run_query(store, filters, group_by)
    except (ReproError, OSError) as error:
        print(f"query failed: {error}", file=sys.stderr)
        return 1
    print(format_output(rows, columns, args.format, title=f"Results corpus: {args.db}"))
    if not rows and args.format == "table":
        print("(no matching cells recorded)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'On Error Correction for Nonvolatile Processing-In-Memory' (ISCA 2024)",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="regenerate one or more experiments")
    run_parser.add_argument("experiments", nargs="+", help="experiment ids (see 'list')")
    run_parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help=(
            "execution backend for experiments that run netlists (fig6, "
            "ablation_granularity, coverage, campaign, application, burst, "
            "rare_event, multifault; default: "
            f"{DEFAULT_BACKEND}, and coverage prints its empirical table "
            "only when a backend is named); analytic experiments ignore it"
        ),
    )
    run_parser.set_defaults(func=_cmd_run)

    subparsers.add_parser("workloads", help="show the registered benchmarks").set_defaults(
        func=_cmd_workloads
    )
    subparsers.add_parser("technologies", help="print the Table III parameters").set_defaults(
        func=_cmd_technologies
    )
    sep_parser = subparsers.add_parser(
        "sep", help="run the Fig. 6 SEP analysis (or a k-fault sweep with --max-faults)"
    )
    sep_parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=DEFAULT_BACKEND,
        help=(
            "execution backend for the exhaustive sweep: 'scalar' re-runs "
            "the object model once per fault site (the reference), "
            "'batched' runs every site as one row of a single tape "
            "interpretation, 'bitpacked' holds every site as one bit of a "
            f"per-column int in one tape pass (default: {DEFAULT_BACKEND})"
        ),
    )
    sep_parser.add_argument(
        "--max-faults", type=int, default=1, metavar="K",
        help=(
            "sweep every (sites choose k) combination of simultaneous flips "
            "for k = 1..K and print the per-k coverage table (Hamming vs "
            "BCH-t ECiM); K = 1 (default) prints the classic Fig. 6 analysis"
        ),
    )
    sep_parser.add_argument(
        "--workload", default="and2", metavar="NAME",
        help="campaign workload netlist for the multi-fault sweep (default: and2)",
    )
    sep_parser.add_argument(
        "--bch-t", type=int, default=2, metavar="T",
        help="correction strength of the BCH comparison scheme (default: 2)",
    )
    sep_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes for the multi-fault sweep shards; combination "
            "unranking makes shard results identical for any job count "
            "(default: 1 = in-process; negative: all cores but one)"
        ),
    )
    sep_parser.set_defaults(func=_cmd_sep)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a Monte-Carlo fault-injection campaign",
        description=(
            "Sweep (workload x scheme x technology x gate error rate), run trials-per-cell "
            "independent stochastic trials with deterministic seeding, and report coverage / "
            "detection / silent-corruption rates with 95% Wilson intervals. Results are "
            "bit-identical for a fixed seed regardless of --workers; --checkpoint makes the "
            "campaign resumable."
        ),
    )
    campaign_parser.add_argument(
        "--spec", metavar="FILE", default=None,
        help=(
            "JSON campaign spec file (overrides the grid flags below; "
            "an explicit --backend still applies on top)"
        ),
    )
    campaign_parser.add_argument(
        "--workloads", nargs="+", default=["dot2"], metavar="NAME",
        help="campaign workload netlists (see repro.campaign.workloads; default: dot2)",
    )
    campaign_parser.add_argument(
        "--schemes", nargs="+", default=["unprotected", "ecim", "trim"], metavar="SCHEME",
        help="protection schemes to sweep (default: unprotected ecim trim)",
    )
    campaign_parser.add_argument(
        "--technologies", nargs="+", default=["stt"], metavar="TECH",
        help="technologies to sweep (stt, sot, reram; default: stt)",
    )
    campaign_parser.add_argument(
        "--rates", nargs="+", type=float, default=[1e-4, 1e-3, 1e-2], metavar="P",
        help="gate error rates to sweep (default: 1e-4 1e-3 1e-2)",
    )
    campaign_parser.add_argument(
        "--memory-rate", type=float, default=0.0, metavar="P",
        help="idle-cell memory error rate per read window (default: 0)",
    )
    campaign_parser.add_argument(
        "--faults-per-trial", type=int, default=None, metavar="K",
        help=(
            "inject exactly K simultaneous flips per trial at uniformly "
            "drawn fault sites (deterministic k-flip plans, bit-identical "
            "across backends) instead of the stochastic rate model"
        ),
    )
    campaign_parser.add_argument(
        "--fault-model", metavar="SPEC", default=None,
        help=(
            "declarative fault model, kind[:key=value,...]: "
            "'burst:length=3,window=8' (correlated bursts; trigger rate "
            "inherits --rates), 'stuck-at:cells=4+17,value=1' (permanent "
            "faults on the listed row columns), or 'stochastic[:preset=1e-4,"
            "metadata=1e-3]' (independent flips with extra knobs). Unset "
            "rates inherit each grid cell's swept gate/memory rates; trials "
            "are byte-identical across backends. Default: independent "
            "flips at each cell's rates"
        ),
    )
    campaign_parser.add_argument(
        "--application", action="store_true",
        help=(
            "score every trial against the workload's integer oracle and "
            "report application-level metrics (argmax flips = accuracy "
            "degradation, per-output bit errors and wrap-around error "
            "magnitude) alongside the coverage counters; requires an "
            "application workload (mlp16, fft4) and is exclusive with "
            "--estimator"
        ),
    )
    campaign_parser.add_argument(
        "--estimator", metavar="SPEC", default=None,
        help=(
            "rare-event estimator, kind[:key=value,...]: "
            "'importance:rate=1e-3[,metric=...]' tilts trials to the proposal "
            "rate and reweights by exact likelihood ratios; "
            "'stratified[:k_max=3,allocation=proportional|neyman,pilot=N,"
            "metric=...]' stratifies over the injected fault count; "
            "'uniform[:metric=...]' names the plain estimator (for sequential "
            "stopping). Metrics: correct, detected, detected_corruption, "
            "silent_corruption (default). Default: plain uniform sampling"
        ),
    )
    campaign_parser.add_argument(
        "--target-ci-halfwidth", type=float, default=None, metavar="H",
        help=(
            "sequential stopping: dispatch rounds of --trials per cell until "
            "every cell's 95%% CI half-width for the estimator's metric "
            "drops to H (see --max-rounds)"
        ),
    )
    campaign_parser.add_argument(
        "--max-rounds", type=int, default=None, metavar="N",
        help="round cap for --target-ci-halfwidth (default: 64)",
    )
    campaign_parser.add_argument(
        "--trials", type=int, default=1000, help="trials per grid cell (default: 1000)"
    )
    campaign_parser.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    campaign_parser.add_argument(
        "--shard-size", type=int, default=250, metavar="N",
        help="trials per shard — the unit of resume and of checkpoint lines (default: 250)",
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=-1, metavar="N",
        help="worker processes; 0/1 = serial, -1 = cpu_count - 1 (default: -1)",
    )
    campaign_parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="JSONL checkpoint file: completed shards are recorded and resumed",
    )
    campaign_parser.add_argument(
        "--db", metavar="FILE", default=None,
        help=(
            "SQLite results store: every completed shard is also recorded "
            "(idempotently) into the persistent corpus served by "
            "'python -m repro query'"
        ),
    )
    campaign_parser.add_argument(
        "--single-output", action="store_true",
        help="use single-output gates instead of multi-output gates",
    )
    campaign_parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help=(
            "execution backend: 'scalar' walks the behavioural array per "
            "trial (the reference), 'batched' compiles the cell to an "
            "instruction tape and runs each batch of shards as one numpy bit-matrix, "
            "'bitpacked' interprets that tape bit-sliced, one int per "
            f"column holding every trial (fastest; default: {DEFAULT_BACKEND}). "
            "All three give byte-identical results, so a checkpoint "
            "resumes on any of them"
        ),
    )
    campaign_parser.add_argument(
        "--name", default="cli-campaign", help="campaign name (cosmetic, shown in the table title)"
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true", help="suppress the shard progress line on stderr"
    )
    campaign_parser.set_defaults(func=_cmd_campaign)

    store_parser = subparsers.add_parser(
        "store",
        help="maintain the persistent results store",
        description=(
            "Maintain the SQLite results corpus that accumulates completed campaign "
            "shards across runs (WAL mode, advisory-locked writers, schema-versioned)."
        ),
    )
    # Bare "store" prints its own help instead of crashing on a missing func.
    store_parser.set_defaults(func=lambda _args: (store_parser.print_help(), 0)[1])
    store_sub = store_parser.add_subparsers(dest="store_command")
    ingest_parser = store_sub.add_parser(
        "ingest", help="replay checkpoint JSONL files into the store (idempotent)"
    )
    ingest_parser.add_argument(
        "checkpoints", nargs="+", metavar="CHECKPOINT",
        help="campaign checkpoint JSONL file(s) to ingest",
    )
    ingest_parser.add_argument(
        "--db", metavar="FILE", required=True, help="SQLite results store path"
    )
    ingest_parser.add_argument(
        "--spec", metavar="FILE", default=None,
        help=(
            "JSON campaign spec for the checkpoints: records full provenance "
            "(canonical spec JSON) and restricts ingestion to that spec's hash"
        ),
    )
    ingest_parser.add_argument(
        "--name", default=None, metavar="NAME",
        help="campaign name for bare-checkpoint ingests (default: the file name)",
    )
    ingest_parser.set_defaults(func=_cmd_store_ingest)
    campaigns_parser = store_sub.add_parser(
        "campaigns", help="list every campaign recorded in the store"
    )
    campaigns_parser.add_argument(
        "--db", metavar="FILE", required=True, help="SQLite results store path"
    )
    campaigns_parser.add_argument(
        "--format", choices=["table", "csv", "json"], default="table",
        help="output format (default: table)",
    )
    campaigns_parser.set_defaults(func=_cmd_store_campaigns)

    query_parser = subparsers.add_parser(
        "query",
        help="aggregate the results corpus (filters, group-by, Wilson CIs)",
        description=(
            "Ask questions of every campaign ever recorded: filter cells, group them, "
            "and render outcome rates with 95% Wilson intervals. Rates are computed "
            "at query time from the stored integer counters with the campaign "
            "aggregator's exact arithmetic, so numbers match run output byte-for-byte."
        ),
    )
    query_parser.add_argument(
        "--db", metavar="FILE", required=True, help="SQLite results store path"
    )
    query_parser.add_argument(
        "--workload", action="append", metavar="NAME", default=None,
        help="only cells for this workload (repeatable)",
    )
    query_parser.add_argument(
        "--scheme", action="append", metavar="SCHEME", default=None,
        help="only cells for this protection scheme (repeatable)",
    )
    query_parser.add_argument(
        "--technology", action="append", metavar="TECH", default=None,
        help="only cells for this technology (repeatable)",
    )
    query_parser.add_argument(
        "--fault-model", action="append", metavar="SPEC", default=None,
        help=(
            "only cells under this fault model: a full model string "
            "(canonicalised before matching), a bare kind such as 'burst', "
            "or 'none' for cells without one (repeatable)"
        ),
    )
    query_parser.add_argument(
        "--spec-hash", action="append", metavar="HASH", default=None,
        help="only cells from this campaign spec hash (repeatable)",
    )
    query_parser.add_argument(
        "--min-error-rate", type=float, default=None, metavar="P",
        help="only cells with gate error rate >= P",
    )
    query_parser.add_argument(
        "--max-error-rate", type=float, default=None, metavar="P",
        help="only cells with gate error rate <= P",
    )
    query_parser.add_argument(
        "--group-by", default=",".join(
            ("workload", "scheme", "technology", "gate_error_rate")
        ),
        metavar="COL[,COL...]",
        help=(
            "aggregation key: comma-separated subset of workload, scheme, "
            "technology, gate_error_rate, memory_error_rate, multi_output, "
            "faults_per_trial, fault_model, spec_hash, campaign_name, backend "
            "(default: the campaign-table cell identity)"
        ),
    )
    query_parser.add_argument(
        "--format", choices=["table", "csv", "json"], default="table",
        help="output format; csv/json are schema-stable and golden-pinned (default: table)",
    )
    query_parser.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
