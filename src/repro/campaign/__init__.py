"""Parallel Monte-Carlo fault-injection campaign engine.

Measures *empirical* error-coverage curves at scale — the statistical
complement of the exhaustive single-fault SEP analysis (Fig. 6): sweep
(workload netlist x protection scheme x technology x gate error rate), run
thousands of independent stochastic trials per grid cell, and report
detected / corrected / silent-corruption rates with Wilson confidence
intervals.  Campaigns shard across a process pool with counter-based
per-trial randomness (bit-identical results for any worker count and any
backend) and checkpoint completed shards to JSONL so interrupted runs
resume.

Entry points: build a :class:`CampaignSpec`, hand it to
:func:`run_campaign`, or drive the same path from the command line via
``python -m repro campaign``.

Rare-event campaigns plug in through ``CampaignSpec.estimator`` (see
:mod:`repro.campaign.adaptive`): importance sampling, stratification over
fault count, and sequential stopping against a CI half-width target all run
through the same :func:`run_campaign` entry point.
"""

from repro.campaign.adaptive.grammar import EstimatorSpec, parse_estimator
from repro.campaign.aggregate import (
    APPLICATION_KEYS,
    COUNT_KEYS,
    FAMILIES,
    CellReport,
    MetricFamily,
    ShardResult,
    cell_reports,
    merge_shards,
    render_application_table,
    render_campaign_table,
    render_estimator_table,
    wilson_interval,
    zeroed_counts,
)
from repro.campaign.application import (
    APPLICATION_WORKLOADS,
    ApplicationWorkload,
    application_counts,
    available_application_workloads,
    get_application_workload,
    has_application_metrics,
)
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.runner import CampaignResult, run_campaign
from repro.campaign.spec import (
    CAMPAIGN_BACKENDS,
    CAMPAIGN_ENGINES,
    CAMPAIGN_SCHEMES,
    CampaignCell,
    CampaignSpec,
    ShardTask,
    trial_seed,
)
from repro.campaign.worker import (
    build_executor,
    build_plan,
    run_shard,
    run_shards,
    shard_groups,
    site_count,
)
from repro.campaign.workloads import (
    CAMPAIGN_WORKLOADS,
    CampaignWorkload,
    available_campaign_workloads,
    get_campaign_workload,
    sample_inputs,
)

__all__ = [
    "APPLICATION_KEYS",
    "APPLICATION_WORKLOADS",
    "ApplicationWorkload",
    "CAMPAIGN_BACKENDS",
    "CAMPAIGN_ENGINES",
    "CAMPAIGN_SCHEMES",
    "CAMPAIGN_WORKLOADS",
    "COUNT_KEYS",
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "CampaignWorkload",
    "CellReport",
    "CheckpointStore",
    "EstimatorSpec",
    "FAMILIES",
    "MetricFamily",
    "ShardResult",
    "ShardTask",
    "application_counts",
    "available_application_workloads",
    "available_campaign_workloads",
    "build_executor",
    "build_plan",
    "cell_reports",
    "get_application_workload",
    "get_campaign_workload",
    "has_application_metrics",
    "merge_shards",
    "parse_estimator",
    "render_application_table",
    "render_campaign_table",
    "render_estimator_table",
    "run_campaign",
    "run_shard",
    "run_shards",
    "sample_inputs",
    "shard_groups",
    "site_count",
    "trial_seed",
    "wilson_interval",
    "zeroed_counts",
]
