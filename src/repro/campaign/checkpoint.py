"""JSONL checkpoint store: interrupted campaigns resume, not restart.

The store is an append-only file with one JSON object per completed shard::

    {"spec_hash": "...", "cell": "<cell key>", "shard": 3, "counts": {...}}

A campaign appends one group of shards at a time, with one write and one
``fsync``.  Append-only JSONL is deliberately boring: a crash mid-write
loses at most the group being written, whose lines that reached the file
whole still resume (a torn final line is dropped on load, with a warning
naming the line so the operator knows its shard will re-run; reopening the
store terminates it, so the next append starts a fresh line), completed
shards are never rewritten, and the file can be inspected / grepped /
concatenated with standard tools.  Records are tagged with the owning
spec's hash so a file can be reused across campaign definitions — records
from other specs are simply ignored — and a changed spec (different seed,
grid or shard size) never poisons a resume.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Collection, Dict, Sequence, Tuple, Union

from repro.campaign.aggregate import ShardResult
from repro.errors import EvaluationError

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Append-only JSONL persistence for completed shards."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        # Fail fast on an unwritable location: better at campaign start than
        # after the first shard's worth of trials has already been spent.
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a+b") as handle:
            # A crash mid-append leaves a last line without its newline.  End
            # it once, here, so the next record starts a line of its own
            # instead of being glued onto the torn one and dropped with it.
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")

    def load(self, spec_hash: str) -> Dict[Tuple[str, int], ShardResult]:
        """Completed shards recorded for ``spec_hash``, keyed by (cell, shard)."""
        return self.load_by_hash((spec_hash,)).get(spec_hash, {})

    def load_by_hash(
        self, spec_hashes: Collection[str]
    ) -> Dict[str, Dict[Tuple[str, int], ShardResult]]:
        """Completed shards per hash, for each of ``spec_hashes`` that has any,
        keyed by (cell, shard) — one pass over the file.

        Tolerates a torn final line (crash mid-append) and skips records
        belonging to other specs.  A shard recorded twice (e.g. two racing
        runs against the same file) keeps the first record; duplicates are
        identical by construction since shard outcomes are deterministic.
        """
        completed: Dict[str, Dict[Tuple[str, int], ShardResult]] = {}
        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail from an interrupted append (crash mid-write):
                    # drop the partial record — its shard simply re-runs —
                    # but say so, because a torn line anywhere *other* than
                    # the tail means something else touched the file.
                    warnings.warn(
                        f"checkpoint {self.path}:{line_number}: dropping "
                        "truncated record (interrupted append?); its shard "
                        "will re-run",
                        stacklevel=2,
                    )
                    continue
                spec_hash = record.get("spec_hash")
                if spec_hash not in spec_hashes:
                    continue
                try:
                    result = ShardResult.from_dict(record)
                except (EvaluationError, KeyError, TypeError, ValueError) as error:
                    warnings.warn(
                        f"checkpoint {self.path}:{line_number}: dropping "
                        f"unreadable record ({error}); its shard will re-run",
                        stacklevel=2,
                    )
                    continue  # schema drift / hand-edited record: re-run that shard
                shards = completed.setdefault(spec_hash, {})
                shards.setdefault((result.cell_key, result.shard_index), result)
        return completed

    def append(self, spec_hash: str, results: Sequence[ShardResult]) -> None:
        """Durably record a group of completed shards, one line each, with
        one write and one ``fsync``."""
        lines = "".join(
            json.dumps({"spec_hash": spec_hash, **result.to_dict()}, sort_keys=True) + "\n"
            for result in results
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(lines)
            handle.flush()
            os.fsync(handle.fileno())
