"""The persistent campaign results database.

:class:`ResultsStore` wraps one SQLite file (WAL mode) holding every
completed campaign shard ever recorded — the accumulating corpus behind
``python -m repro query``.  Writes follow three rules:

* **Locked.**  Every write batch runs under the advisory
  :class:`~repro.store.locking.FileLock` on ``<db>.lock``, so concurrent
  recorders/ingesters queue instead of interleaving multi-statement upserts
  (WAL then makes readers never block on them).

* **Idempotent.**  A shard's identity is ``(spec_hash, cell_key,
  shard_index)`` and shard outcomes are deterministic by construction
  (seeding depends only on the spec), so conflicting inserts are *identical*
  records: the store keeps the first, exactly like the JSONL checkpoint.
  Replaying a checkpoint, re-recording a resumed campaign, or racing a live
  run against an ingest of its own checkpoint all converge on the same rows.

* **Attributed.**  Every campaign and shard row carries the library version
  that wrote it (plus ISO-8601 UTC timestamps), so a corpus merged from many
  machines/epochs stays auditable back to the code that produced each row.
"""

from __future__ import annotations

import os
import sqlite3
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import repro
from repro.campaign.aggregate import ShardResult
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.errors import EvaluationError
from repro.store.locking import FileLock
from repro.store.schema import (
    SCHEMA_VERSION,
    SHARD_COLUMNS,
    STORED_FAMILIES,
    apply_migrations,
    schema_version,
)

__all__ = ["ResultsStore", "CellFields", "row_sums"]

#: Decomposed cell-identity columns stored alongside the authoritative key.
CELL_FIELD_NAMES = (
    "workload",
    "scheme",
    "technology",
    "gate_error_rate",
    "memory_error_rate",
    "multi_output",
    "faults_per_trial",
    "fault_model",
)

#: ``cells`` column values keyed by :data:`CELL_FIELD_NAMES`.
CellFields = Dict[str, object]

_INSERT_SHARD = f"""
    INSERT INTO shards
        (cell_id, shard_index, {', '.join(SHARD_COLUMNS)}, repro_version, recorded_at)
    VALUES (?, ?, {', '.join('?' for _ in SHARD_COLUMNS)}, ?, ?)
    ON CONFLICT (cell_id, shard_index) DO NOTHING
    """


def row_sums(row: Mapping[str, object]) -> Dict[str, Dict[str, object]]:
    """The stored families' sums in one row of family columns, keyed by
    family name; a family whose columns are NULL (no shard of the row
    carried it) is absent."""
    return {
        family.name: {key: family.value(row[key]) for key in family.keys}
        for family in STORED_FAMILIES
        if row[family.keys[0]] is not None
    }


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def cell_fields(cell: CampaignCell) -> CellFields:
    """Decompose a :class:`CampaignCell` into ``cells`` column values."""
    return {
        "workload": cell.workload,
        "scheme": cell.scheme,
        "technology": cell.technology,
        "gate_error_rate": cell.gate_error_rate,
        "memory_error_rate": cell.memory_error_rate,
        "multi_output": int(cell.multi_output),
        "faults_per_trial": cell.faults_per_trial,
        "fault_model": cell.fault_model,
    }


class ResultsStore:
    """One SQLite results database: durable, concurrent-writer-safe, queryable."""

    SCHEMA_VERSION = SCHEMA_VERSION

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        lock_timeout: float = 30.0,
    ) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.lock = FileLock(self.path + ".lock", timeout=lock_timeout)
        try:
            self._conn = sqlite3.connect(self.path, timeout=lock_timeout)
        except sqlite3.Error as error:
            raise EvaluationError(f"cannot open results database {self.path!r}: {error}") from None
        self._conn.row_factory = sqlite3.Row
        try:
            # WAL: readers never block on the (lock-serialised) writer, and
            # the database survives crashes without long rollback journals.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute(f"PRAGMA busy_timeout={int(lock_timeout * 1000)}")
            with self.lock:
                apply_migrations(self._conn)
        except (sqlite3.Error, EvaluationError):
            self._conn.close()
            raise

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return schema_version(self._conn)

    # ------------------------------------------------------------------ #
    # Writes (all under the advisory lock)
    # ------------------------------------------------------------------ #
    def register_campaign(
        self,
        spec_hash: str,
        name: str,
        spec_json: Optional[str] = None,
        backend: Optional[str] = None,
        fault_model: Optional[str] = None,
    ) -> None:
        """Upsert one ``campaigns`` row.

        Re-registering refreshes ``updated_at`` and fills in columns a
        previous (e.g. bare-checkpoint) registration left NULL, but never
        erases known provenance with NULLs and never touches ``created_at``.
        """
        now = _utcnow()
        with self.lock, self._conn:
            self._conn.execute(
                """
                INSERT INTO campaigns
                    (spec_hash, name, spec_json, backend, fault_model,
                     repro_version, created_at, updated_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (spec_hash) DO UPDATE SET
                    name = excluded.name,
                    spec_json = COALESCE(excluded.spec_json, spec_json),
                    backend = COALESCE(excluded.backend, backend),
                    fault_model = COALESCE(excluded.fault_model, fault_model),
                    repro_version = excluded.repro_version,
                    updated_at = excluded.updated_at
                """,
                (spec_hash, name, spec_json, backend, fault_model, repro.__version__, now, now),
            )

    def record_campaign(self, spec: CampaignSpec) -> str:
        """Register a full :class:`CampaignSpec`; returns its spec hash."""
        spec_hash = spec.spec_hash()
        self.register_campaign(
            spec_hash,
            name=spec.name,
            spec_json=spec.to_json(),
            backend=spec.backend,
            fault_model=spec.fault_model,
        )
        return spec_hash

    def upsert_shard(self, spec_hash: str, fields: CellFields, result: ShardResult) -> bool:
        """Record one completed shard; returns True if the row was new.

        The campaign row must exist (``register_campaign`` first).  A shard
        already present under ``(spec_hash, cell_key, shard_index)`` is kept
        as-is — shard outcomes are deterministic, so the incoming record is
        identical and re-ingesting is a byte-level no-op.  Each stored
        family's sums land in its columns; an optional family the shard
        did not report (estimator weights of a uniform shard, application
        counters of a plain one) leaves them NULL.
        """
        values: List[object] = []
        for family in STORED_FAMILIES:
            sums = getattr(result, family.name)
            if sums is None:
                values += [None] * len(family.keys)
                continue
            unknown = set(sums) - set(family.keys)
            if unknown:
                raise EvaluationError(f"unknown shard {family.noun}s: {sorted(unknown)}")
            values += [family.value(sums.get(key, 0)) for key in family.keys]
        with self.lock, self._conn:
            self._conn.execute(
                """
                INSERT INTO cells
                    (spec_hash, cell_key, workload, scheme, technology,
                     gate_error_rate, memory_error_rate, multi_output,
                     faults_per_trial, fault_model)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (spec_hash, cell_key) DO NOTHING
                """,
                (spec_hash, result.cell_key)
                + tuple(fields.get(name) for name in CELL_FIELD_NAMES),
            )
            cell_id = self._conn.execute(
                "SELECT id FROM cells WHERE spec_hash = ? AND cell_key = ?",
                (spec_hash, result.cell_key),
            ).fetchone()[0]
            cursor = self._conn.execute(
                _INSERT_SHARD,
                (cell_id, result.shard_index, *values, repro.__version__, _utcnow()),
            )
            return cursor.rowcount > 0

    def record_shard(self, spec_hash: str, cell: CampaignCell, result: ShardResult) -> bool:
        """Record one shard straight from the campaign runner."""
        if cell.key != result.cell_key:
            raise EvaluationError(
                f"cell/result mismatch: {cell.key!r} vs {result.cell_key!r}"
            )
        return self.upsert_shard(spec_hash, cell_fields(cell), result)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def rows(self, sql: str, params: Iterable[object] = ()) -> List[sqlite3.Row]:
        """Run a read-only query and fetch all rows (the query layer's hook)."""
        return self._conn.execute(sql, tuple(params)).fetchall()

    def campaigns(self) -> List[Dict[str, object]]:
        """Every recorded campaign, oldest first."""
        rows = self.rows(
            """
            SELECT p.spec_hash, p.name, p.backend, p.fault_model,
                   p.repro_version, p.created_at, p.updated_at,
                   p.spec_json IS NOT NULL AS has_spec,
                   COUNT(DISTINCT c.id) AS cells,
                   COUNT(s.shard_index) AS shards,
                   COALESCE(SUM(s.trials), 0) AS trials
            FROM campaigns p
            LEFT JOIN cells c ON c.spec_hash = p.spec_hash
            LEFT JOIN shards s ON s.cell_id = c.id
            GROUP BY p.spec_hash
            ORDER BY p.created_at, p.spec_hash
            """
        )
        return [dict(row) for row in rows]

    def spec_json(self, spec_hash: str) -> Optional[str]:
        rows = self.rows(
            "SELECT spec_json FROM campaigns WHERE spec_hash = ?", (spec_hash,)
        )
        return rows[0][0] if rows else None

    def cell_sums(self, spec_hash: str) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Summed family sums per cell key for one campaign — the
        ``{family: {cell key: sums}}`` shape
        :func:`repro.campaign.aggregate.merge_shards` produces for the stored
        families, so the store can stand in for a pile of checkpoint files.
        A cell whose shards never carried an optional family is absent from
        that family's map, matching the in-process merge."""
        merged: Dict[str, Dict[str, Dict[str, object]]] = {
            family.name: {} for family in STORED_FAMILIES
        }
        for row in self.rows(
            f"SELECT cell_key, {', '.join(SHARD_COLUMNS)} FROM cell_totals WHERE spec_hash = ?",
            (spec_hash,),
        ):
            for name, sums in row_sums(row).items():
                merged[name][row["cell_key"]] = sums
        return merged

    def shard_keys(self, spec_hash: Optional[str] = None) -> List[Tuple[str, str, int]]:
        """Every recorded shard identity, for audits and concurrency tests."""
        sql = """
            SELECT c.spec_hash, c.cell_key, s.shard_index
            FROM cells c JOIN shards s ON s.cell_id = c.id
            """
        params: Tuple[object, ...] = ()
        if spec_hash is not None:
            sql += " WHERE c.spec_hash = ?"
            params = (spec_hash,)
        sql += " ORDER BY c.spec_hash, c.cell_key, s.shard_index"
        return [tuple(row) for row in self.rows(sql, params)]
