"""Aggregate queries over the results corpus: filter, group, Wilson CIs.

The SQL side only ever *sums* metric-family columns (over the
``cell_totals`` view); every rate and confidence interval is read off a
:class:`~repro.campaign.aggregate.CellReport` built from those sums — the
very object ``run_campaign`` reports with, so each family's derived columns
(:attr:`~repro.campaign.aggregate.MetricFamily.derived`) have one
definition.  That is what makes the store's answers *byte-for-byte
identical* to ``run_campaign``'s reports for the same shards, which the
golden and CI tests pin.

Grouping defaults to cell identity (workload, scheme, technology, gate
error rate) — the campaign-table view, but merged across every campaign
ever recorded.  Any subset/superset of :data:`GROUPABLE_COLUMNS` works:
``--group-by scheme`` answers "silent-corruption rate per scheme over the
whole corpus", ``--group-by spec_hash,scheme`` keeps campaigns separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import CellReport
from repro.errors import EvaluationError, PimError
from repro.pim.faults import parse_fault_model
from repro.store.database import ResultsStore, row_sums
from repro.store.schema import SHARD_COLUMNS, STORED_FAMILIES

__all__ = [
    "GROUPABLE_COLUMNS",
    "DEFAULT_GROUP_BY",
    "DERIVED_COLUMNS",
    "QueryFilters",
    "run_query",
]

#: Columns a query may group by (all live on the ``cell_totals`` view).
GROUPABLE_COLUMNS = (
    "workload",
    "scheme",
    "technology",
    "gate_error_rate",
    "memory_error_rate",
    "multi_output",
    "faults_per_trial",
    "fault_model",
    "spec_hash",
    "campaign_name",
    "backend",
)

#: The campaign-table view: one row per swept cell identity.
DEFAULT_GROUP_BY = ("workload", "scheme", "technology", "gate_error_rate")

#: Derived statistics appended after the group columns, in order: each
#: stored family's derived columns, None on rows no shard of which carried
#: the family.  This list is the query output's schema contract — pinned by
#: the golden tests; extend only at the end, alongside a golden refresh.
DERIVED_COLUMNS = tuple(column for family in STORED_FAMILIES for column, _ in family.derived)


@dataclass(frozen=True)
class QueryFilters:
    """Row filters; sequence fields OR within themselves, AND across fields."""

    workloads: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    technologies: Tuple[str, ...] = ()
    fault_models: Tuple[str, ...] = ()
    spec_hashes: Tuple[str, ...] = ()
    min_error_rate: Optional[float] = None
    max_error_rate: Optional[float] = None


def _in_clause(column: str, values: Sequence[str], where: List[str], params: List[object]) -> None:
    if values:
        placeholders = ", ".join("?" for _ in values)
        where.append(f"{column} IN ({placeholders})")
        params.extend(v.strip().lower() for v in values)


def _fault_model_clause(values: Sequence[str], where: List[str], params: List[object]) -> None:
    """Match canonical fault-model strings.

    Each value is either ``none`` (the legacy independent-flip model, stored
    as NULL), a full model string (canonicalised before matching, so
    ``stuck-at:cells=7+3`` and ``stuckat:cells=3+7,value=0`` hit the same
    rows), or a bare kind (``burst``) matching every parameterisation.
    """
    if not values:
        return
    clauses: List[str] = []
    for value in values:
        value = value.strip().lower()
        if value in ("none", "null"):
            clauses.append("fault_model IS NULL")
        elif ":" in value:
            try:
                canonical = parse_fault_model(value).to_string()
            except PimError as error:
                raise EvaluationError(f"invalid --fault-model filter {value!r}: {error}") from None
            clauses.append("fault_model = ?")
            params.append(canonical)
        else:
            clauses.append("(fault_model = ? OR fault_model LIKE ?)")
            params.extend([value, value + ":%"])
    where.append("(" + " OR ".join(clauses) + ")")


def run_query(
    store: ResultsStore,
    filters: Optional[QueryFilters] = None,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Aggregate the corpus; returns ``(columns, rows)`` with rows as dicts.

    Row order is deterministic: ascending over the group columns (NULLs
    first, SQLite's order) — stable across processes and platforms, which is
    what lets the CSV/JSON renderings be golden-pinned.
    """
    group_by = tuple(group_by)
    if not group_by:
        raise EvaluationError("group_by needs at least one column")
    unknown = [column for column in group_by if column not in GROUPABLE_COLUMNS]
    if unknown:
        raise EvaluationError(
            f"cannot group by {unknown}; choose from {GROUPABLE_COLUMNS}"
        )
    filters = filters or QueryFilters()

    where: List[str] = []
    params: List[object] = []
    _in_clause("workload", filters.workloads, where, params)
    _in_clause("scheme", filters.schemes, where, params)
    _in_clause("technology", filters.technologies, where, params)
    _in_clause("spec_hash", filters.spec_hashes, where, params)
    _fault_model_clause(filters.fault_models, where, params)
    if filters.min_error_rate is not None:
        where.append("gate_error_rate >= ?")
        params.append(float(filters.min_error_rate))
    if filters.max_error_rate is not None:
        where.append("gate_error_rate <= ?")
        params.append(float(filters.max_error_rate))

    group_sql = ", ".join(group_by)
    sums = ", ".join(f"SUM({name}) AS {name}" for name in SHARD_COLUMNS)
    sql = f"SELECT {group_sql}, {sums} FROM cell_totals"
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += f" GROUP BY {group_sql} ORDER BY {group_sql}"

    columns = list(group_by) + list(DERIVED_COLUMNS)
    rows: List[Dict[str, object]] = []
    for raw in store.rows(sql, params):
        row: Dict[str, object] = {column: raw[column] for column in group_by}
        report = CellReport(cell=None, **row_sums(raw))
        for family in STORED_FAMILIES:
            row.update(family.derive(report))
        rows.append(row)
    return columns, rows
