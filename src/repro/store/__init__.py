"""Persistent campaign results store: SQLite corpus + query surface.

Campaigns used to leave only per-run JSONL checkpoints; this package turns
those one-shot artefacts into an accumulating, queryable corpus:

* :class:`~repro.store.database.ResultsStore` — one SQLite file (WAL mode,
  advisory-file-locked writers, schema-versioned migrations) holding every
  completed shard across every campaign ever recorded, keyed by the same
  ``(spec hash, cell key, shard index)`` identity the checkpoint store uses,
  with repro-version provenance on every row.
* :func:`~repro.store.ingest.ingest_checkpoint` — idempotent replay of a
  checkpoint file into the store (``python -m repro store ingest``); a live
  run records shards directly via ``python -m repro campaign --db``.
* :func:`~repro.store.query.run_query` — filterable, groupable aggregates
  with Wilson intervals, computed at query time with the aggregator's exact
  arithmetic (``python -m repro query --format table|csv|json``).

This is the read substrate the distributed campaign service and the
rare-event estimator (see ROADMAP) both build on.
"""

from repro.store.database import ResultsStore, cell_fields
from repro.store.ingest import IngestReport, ingest_checkpoint, parse_cell_key
from repro.store.locking import FileLock, LockTimeoutError
from repro.store.query import (
    DEFAULT_GROUP_BY,
    DERIVED_COLUMNS,
    GROUPABLE_COLUMNS,
    QueryFilters,
    run_query,
)
from repro.store.render import OUTPUT_FORMATS, format_output
from repro.store.schema import MIGRATIONS, SCHEMA_VERSION

__all__ = [
    "DEFAULT_GROUP_BY",
    "DERIVED_COLUMNS",
    "FileLock",
    "GROUPABLE_COLUMNS",
    "IngestReport",
    "LockTimeoutError",
    "MIGRATIONS",
    "OUTPUT_FORMATS",
    "QueryFilters",
    "ResultsStore",
    "SCHEMA_VERSION",
    "cell_fields",
    "format_output",
    "ingest_checkpoint",
    "parse_cell_key",
    "run_query",
]
