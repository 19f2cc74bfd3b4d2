"""Checkpoint ingestion: JSONL shard records -> results database rows.

A :class:`~repro.campaign.checkpoint.CheckpointStore` file is the durable
trace of a campaign run; :func:`ingest_checkpoint` replays one into a
:class:`~repro.store.database.ResultsStore` idempotently.  Two modes:

* **With the spec** (``--spec``): the campaign row gets the canonical spec
  JSON and only records tagged with one of that spec's
  :meth:`~repro.campaign.spec.CampaignSpec.resume_hashes` are taken, all
  filed under its ``spec_hash()``; cell columns come straight from the
  spec's expanded grid.

* **Bare checkpoint**: every well-formed record is taken; the owning
  campaign rows are registered as stubs (no spec JSON) named after the file,
  and cell columns are recovered by :func:`parse_cell_key` — the cell-key
  grammar (``workload|scheme|tech|g..|m..|mo[|fK][|fm=...]``) is injective,
  so the decomposition is exact, not heuristic.

Malformed lines follow the checkpoint loader's contract: a torn trailing
line (crash mid-append) or a schema-drifted record is counted and skipped,
never fatal.  The whole file ingests as one transaction under one
advisory-lock hold, so a concurrent ingest of the same file sees either
none or all of it mid-flight — and the same final row set either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.campaign.aggregate import ShardResult
from repro.campaign.spec import CampaignSpec
from repro.errors import EvaluationError
from repro.store.database import CellFields, ResultsStore, cell_fields

__all__ = ["IngestReport", "ingest_checkpoint", "parse_cell_key"]


def parse_cell_key(key: str) -> CellFields:
    """Decompose a campaign cell key into ``cells`` column values.

    Inverse of :attr:`repro.campaign.spec.CampaignCell.key` (round-trip
    tested): ``workload|scheme|technology|g<rate>|m<rate>|mo-or-so`` with
    optional ``|f<k>`` (k simultaneous flips) and ``|fm=<model>`` suffixes.
    The fault-model grammar never emits ``|``, so splitting is unambiguous.
    """
    parts = key.split("|")
    if len(parts) < 6:
        raise EvaluationError(f"malformed cell key {key!r}: expected >= 6 '|' fields")
    workload, scheme, technology, gate, memory, style = parts[:6]
    if not gate.startswith("g") or not memory.startswith("m") or style not in ("mo", "so"):
        raise EvaluationError(f"malformed cell key {key!r}")
    try:
        fields: CellFields = {
            "workload": workload,
            "scheme": scheme,
            "technology": technology,
            "gate_error_rate": float(gate[1:]),
            "memory_error_rate": float(memory[1:]),
            "multi_output": int(style == "mo"),
            "faults_per_trial": None,
            "fault_model": None,
        }
    except ValueError as error:
        raise EvaluationError(f"malformed cell key {key!r}: {error}") from None
    rest = parts[6:]
    for index, part in enumerate(rest):
        if part.startswith("fm="):
            # The fault model is always the final field; re-join defensively
            # in case a future grammar ever emits '|' inside it.
            fields["fault_model"] = "|".join([part[3:]] + rest[index + 1:])
            break
        if part.startswith("f") and part[1:].isdigit():
            fields["faults_per_trial"] = int(part[1:])
        else:
            raise EvaluationError(f"malformed cell key {key!r}: unknown field {part!r}")
    return fields


@dataclass
class IngestReport:
    """What one :func:`ingest_checkpoint` call did, for logs and tests."""

    path: str
    records: int = 0  #: well-formed shard records seen
    ingested: int = 0  #: new shard rows written
    duplicates: int = 0  #: records already present (idempotent replay)
    skipped_other_spec: int = 0  #: records outside the requested spec
    skipped_malformed: int = 0  #: torn/undecodable/schema-drifted lines
    campaigns: Set[str] = field(default_factory=set)  #: spec hashes touched

    def summary(self) -> str:
        return (
            f"{self.path}: {self.ingested} shard(s) ingested, "
            f"{self.duplicates} duplicate(s), "
            f"{self.skipped_other_spec} other-spec, "
            f"{self.skipped_malformed} malformed, "
            f"{len(self.campaigns)} campaign(s)"
        )


def ingest_checkpoint(
    store: ResultsStore,
    path: Union[str, "os.PathLike[str]"],
    spec: Optional[CampaignSpec] = None,
    campaign_name: Optional[str] = None,
) -> IngestReport:
    """Replay one checkpoint JSONL file into the store (idempotent upserts)."""
    path = os.fspath(path)
    report = IngestReport(path=path)
    fields_by_key: Dict[str, CellFields] = {}
    only_hash: Optional[str] = None
    if spec is not None:
        only_hash = spec.spec_hash()
        accepted = spec.resume_hashes()
        fields_by_key = {cell.key: cell_fields(cell) for cell in spec.cells()}

    with open(path, "r", encoding="utf-8") as handle:
        lines: List[str] = handle.readlines()

    registered: Set[str] = set()
    with store.transaction():  # one commit for the whole file: all-or-nothing visibility
        if spec is not None:
            store.record_campaign(spec)
            registered.add(only_hash)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                spec_hash = str(record["spec_hash"])
                result = ShardResult.from_dict(record)
            except (json.JSONDecodeError, EvaluationError, KeyError, TypeError, ValueError):
                report.skipped_malformed += 1
                continue
            if only_hash is not None:
                if spec_hash not in accepted:
                    report.skipped_other_spec += 1
                    continue
                spec_hash = only_hash
            report.records += 1
            if spec_hash not in registered:
                # Stub campaign row for a bare checkpoint; never clobbers a
                # richer registration from a live --db run or --spec ingest.
                if not store.rows(
                    "SELECT 1 FROM campaigns WHERE spec_hash = ?", (spec_hash,)
                ):
                    store.register_campaign(
                        spec_hash,
                        name=campaign_name or os.path.basename(path),
                    )
                registered.add(spec_hash)
            fields = fields_by_key.get(result.cell_key)
            if fields is None:
                try:
                    fields = parse_cell_key(result.cell_key)
                except EvaluationError:
                    report.records -= 1
                    report.skipped_malformed += 1
                    continue
                fields_by_key[result.cell_key] = fields
            if store.upsert_shard(spec_hash, fields, result):
                report.ingested += 1
            else:
                report.duplicates += 1
            report.campaigns.add(spec_hash)
    return report
