"""Golden regression tests: the store DDL and the checkpoint line format.

Both are read back by later versions of the library: the DDL by every
database a previous version created, the checkpoint lines by resume and
``repro store ingest``.  See ``format_golden.py`` for what is pinned and how
to regenerate it.
"""

import json

import pytest

import format_golden
from repro.campaign.aggregate import ShardResult
from repro.campaign.checkpoint import CheckpointStore

REGENERATE = "PYTHONPATH=src python tests/golden/format_golden.py --write"


@pytest.fixture(scope="module")
def schema(tmp_path_factory):
    pinned = format_golden.load_schema()
    directory = tmp_path_factory.mktemp("schema_golden")
    return pinned, format_golden.schema_snapshot(pinned["migrations"], str(directory))


def test_shipped_migrations_are_unchanged(schema):
    pinned, current = schema
    shipped = len(pinned["migrations"])
    assert current["migrations"][:shipped] == pinned["migrations"], (
        "a shipped migration changed; append a new migration instead "
        f"(regenerate with {REGENERATE} only when adding one)"
    )
    assert current["migrations"] == pinned["migrations"], f"new migration: {REGENERATE}"


@pytest.mark.parametrize(
    "store", ["fresh"] + [f"from_v{version}" for version in format_golden.MIGRATED_FROM]
)
def test_store_schema_matches_golden(schema, store):
    pinned, current = schema
    assert current["sqlite_master"][store] == pinned["sqlite_master"][store], (
        f"{store} store DDL drifted; regenerate with {REGENERATE} if intentional"
    )


@pytest.mark.parametrize("name", sorted(format_golden.checkpoint_specs()))
def test_checkpoint_lines_reserialise_byte_for_byte(tmp_path, name):
    golden = format_golden.load_checkpoint(name)
    store = CheckpointStore(tmp_path / "ck.jsonl")
    for line in golden.splitlines():
        record = json.loads(line)
        store.append(record["spec_hash"], ShardResult.from_dict(record))
    assert (tmp_path / "ck.jsonl").read_text(encoding="utf-8") == golden


@pytest.mark.parametrize(
    "name,families",
    [
        ("application", {"counts", "application"}),
        ("stratified", {"counts", "weights", "strata"}),
    ],
)
def test_checkpoint_goldens_carry_their_families(name, families):
    lines = format_golden.load_checkpoint(name).splitlines()
    assert len(lines) == 2
    for line in lines:
        assert set(json.loads(line)) == {"spec_hash", "cell", "shard"} | families
