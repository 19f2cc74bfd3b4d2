"""Results-store schema: versioned DDL migrations for the SQLite database.

Three tables plus one aggregate view:

``campaigns``
    One row per campaign spec ever recorded, keyed by the 16-hex
    ``spec_hash`` (the same resume-compatibility digest the checkpoint store
    uses).  Carries the canonical spec JSON when known (live ``--db`` runs
    and spec-accompanied ingests), the backend / fault model, the repro
    version that wrote the row, and created/updated timestamps.

``cells``
    One row per (campaign, grid cell): the decomposed cell identity
    (workload, scheme, technology, rates, fault knobs) alongside the exact
    ``cell_key`` string used for seeding and checkpointing.  The decomposed
    columns exist purely for querying; the key remains authoritative.

``shards``
    One row per completed shard — the unit of work, resume *and now of
    idempotent ingest*: the primary key ``(cell_id, shard_index)`` plus the
    ``UNIQUE (spec_hash, cell_key)`` constraint on ``cells`` make
    "spec hash + cell key + shard index" the upsert identity, so replaying a
    checkpoint (or recording live while a checkpoint also ingests) can never
    duplicate a shard.  Each row carries one column per key of every stored
    metric family (:data:`repro.campaign.aggregate.FAMILIES` entries with a
    ``schema_version``) and the writing repro version for provenance.

``cell_totals`` (view)
    Per-cell sums of every family column over shards, joined with campaign
    provenance.  Only *sums* live in SQL — rates and intervals are computed
    at query time in Python (:mod:`repro.store.query`) by the very
    :class:`~repro.campaign.aggregate.CellReport` the in-process aggregator
    builds, so query results match ``campaign/aggregate.py`` byte-for-byte.

Migrations are generated from the family table: version 1 creates the
tables with the required ``counts`` columns inline, and each later version
adds the nullable columns of the families that name it (``INTEGER`` or
``REAL`` by value type; NULL on every shard that did not report the family)
and rebuilds the view.  They are append-only: ``MIGRATIONS[i]`` upgrades a
version-``i`` database to version ``i + 1``, and the applied version is
stored in ``schema_meta``.  Never change a family's keys or a shipped
migration — add a family with the next schema version instead;
``tests/golden/store_schema.json`` pins the shipped DDL.
"""

from __future__ import annotations

import sqlite3
from typing import List, Tuple

from repro.campaign.aggregate import FAMILIES, MetricFamily
from repro.errors import EvaluationError

__all__ = [
    "STORED_FAMILIES",
    "SHARD_COLUMNS",
    "SCHEMA_VERSION",
    "MIGRATIONS",
    "apply_migrations",
    "schema_version",
]

#: Metric families with shard columns, in the order migrations added them.
STORED_FAMILIES: Tuple[MetricFamily, ...] = tuple(
    sorted(
        (family for family in FAMILIES if family.schema_version is not None),
        key=lambda family: family.schema_version,
    )
)

#: Every family column of ``shards``, in table and view order.
SHARD_COLUMNS: Tuple[str, ...] = tuple(key for family in STORED_FAMILIES for key in family.keys)


def _added(version: int) -> List[str]:
    """Definitions of the columns the families of ``version`` add."""
    return [
        f"{name} {'REAL' if family.value is float else 'INTEGER'}"
        + ("" if family.optional else " NOT NULL DEFAULT 0")
        for family in STORED_FAMILIES
        if family.schema_version == version
        for name in family.keys
    ]


def _view(version: int) -> str:
    """The ``cell_totals`` view over every column present at ``version``.

    SQLite's SUM returns NULL over all-NULL groups, so a cell none of whose
    shards reported an optional family surfaces NULL — "no such metrics" —
    rather than a misleading 0.
    """
    sums = ",\n    ".join(
        f"SUM(s.{name}) AS {name}"
        for family in STORED_FAMILIES
        if family.schema_version <= version
        for name in family.keys
    )
    return f"""CREATE VIEW cell_totals AS
SELECT
    c.spec_hash,
    c.cell_key,
    c.workload,
    c.scheme,
    c.technology,
    c.gate_error_rate,
    c.memory_error_rate,
    c.multi_output,
    c.faults_per_trial,
    c.fault_model,
    p.name AS campaign_name,
    p.backend,
    COUNT(s.shard_index) AS n_shards,
    {sums}
FROM cells c
JOIN campaigns p ON p.spec_hash = c.spec_hash
JOIN shards s ON s.cell_id = c.id
GROUP BY c.id;
"""


_COUNTER_DDL = ",\n    ".join(_added(1))

_MIGRATION_1 = f"""
CREATE TABLE schema_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE campaigns (
    spec_hash     TEXT PRIMARY KEY,
    name          TEXT NOT NULL,
    spec_json     TEXT,
    backend       TEXT,
    fault_model   TEXT,
    repro_version TEXT NOT NULL,
    created_at    TEXT NOT NULL,
    updated_at    TEXT NOT NULL
);

CREATE TABLE cells (
    id                INTEGER PRIMARY KEY,
    spec_hash         TEXT NOT NULL REFERENCES campaigns(spec_hash),
    cell_key          TEXT NOT NULL,
    workload          TEXT NOT NULL,
    scheme            TEXT NOT NULL,
    technology        TEXT NOT NULL,
    gate_error_rate   REAL NOT NULL,
    memory_error_rate REAL NOT NULL,
    multi_output      INTEGER NOT NULL DEFAULT 1,
    faults_per_trial  INTEGER,
    fault_model       TEXT,
    UNIQUE (spec_hash, cell_key)
);

CREATE TABLE shards (
    cell_id       INTEGER NOT NULL REFERENCES cells(id),
    shard_index   INTEGER NOT NULL,
    {_COUNTER_DDL},
    repro_version TEXT NOT NULL,
    recorded_at   TEXT NOT NULL,
    PRIMARY KEY (cell_id, shard_index)
);

CREATE INDEX cells_by_identity
    ON cells (workload, scheme, technology, gate_error_rate);

{_view(1)}"""


def _migration(version: int) -> str:
    """Version ``version - 1`` -> ``version``: the families that name it
    add their columns, and the totals view re-grows to sum them."""
    alters = ";\n".join(f"ALTER TABLE shards ADD COLUMN {column}" for column in _added(version))
    return f"\n{alters};\n\nDROP VIEW cell_totals;\n\n{_view(version)}"


#: ``MIGRATIONS[i]``: SQL script upgrading schema version i -> i + 1.
MIGRATIONS: Tuple[str, ...] = (_MIGRATION_1,) + tuple(
    _migration(version) for version in range(2, STORED_FAMILIES[-1].schema_version + 1)
)

#: The schema version this build of the library reads and writes.
SCHEMA_VERSION = len(MIGRATIONS)


def schema_version(conn: sqlite3.Connection) -> int:
    """Schema version of an open database (0 for a fresh/empty file)."""
    try:
        row = conn.execute(
            "SELECT value FROM schema_meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.OperationalError:  # no schema_meta table yet
        return 0
    return int(row[0]) if row is not None else 0


def apply_migrations(conn: sqlite3.Connection) -> int:
    """Bring ``conn`` up to :data:`SCHEMA_VERSION`; returns migrations run.

    The caller holds the advisory file lock, so concurrent openers race on
    the lock, not on half-applied DDL.  A database written by a *newer*
    library version is refused rather than guessed at.
    """
    version = schema_version(conn)
    if version > SCHEMA_VERSION:
        raise EvaluationError(
            f"results database is at schema version {version}, but this "
            f"build understands only <= {SCHEMA_VERSION}; upgrade the library"
        )
    applied = 0
    for index in range(version, SCHEMA_VERSION):
        # One real transaction per migration (executescript would autocommit
        # statement by statement, leaving partial DDL behind on a crash).
        with conn:
            for statement in MIGRATIONS[index].split(";"):
                if statement.strip():
                    conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_meta (key, value) VALUES ('schema_version', ?) "
                "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                (str(index + 1),),
            )
        applied += 1
    return applied
