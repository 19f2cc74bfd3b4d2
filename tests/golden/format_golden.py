"""Golden pins for the persisted formats: store DDL and checkpoint lines.

``store_schema.json`` holds the text of every shipped store migration
(``repro.store.schema.MIGRATIONS``) and the ``sqlite_master`` rows of a
fresh results store and of version-1 and version-2 stores migrated up.
Migrations are generated from the metric-family table, so this pin is what
keeps them append-only: editing a family's keys or a shipped migration
would change a schema that existing databases never re-run.

``checkpoint_<name>.jsonl`` holds the checkpoint lines of two small
campaigns — a stratified-estimator one (the counts, weights and strata
families) and an application one (counts and application) — and every line
must re-serialise byte-for-byte through ``ShardResult``.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/golden/format_golden.py --write

and say why in the commit message.
"""

import json
import os
import shutil
import sqlite3
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

SCHEMA_GOLDEN = os.path.join(GOLDEN_DIR, "store_schema.json")

#: Store versions built from the shipped migration text, then opened (and
#: so migrated up) by the current library.
MIGRATED_FROM = (1, 2)


def checkpoint_specs():
    """The campaigns whose checkpoint lines are pinned, by golden name."""
    from repro.campaign import CampaignSpec

    return {
        "stratified": CampaignSpec(
            name="golden-stratified",
            workloads=("and2",),
            schemes=("ecim",),
            gate_error_rates=(1e-2,),
            trials=16,
            shard_size=8,
            seed=3,
            backend="batched",
            estimator="stratified:k_max=2",
        ),
        "application": CampaignSpec(
            name="golden-application",
            workloads=("fft4",),
            schemes=("ecim",),
            gate_error_rates=(1e-3,),
            trials=8,
            shard_size=4,
            seed=3,
            backend="batched",
            fault_model="stochastic",
            application=True,
        ),
    }


def checkpoint_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"checkpoint_{name}.jsonl")


def load_checkpoint(name: str) -> str:
    with open(checkpoint_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def load_schema() -> dict:
    with open(SCHEMA_GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _sqlite_master(path: str):
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY type, name"
        ).fetchall()
    finally:
        conn.close()
    return [list(row) for row in rows]


def _build_store_at(path: str, shipped, version: int) -> None:
    """A store at ``version``, built from the shipped migration text alone."""
    conn = sqlite3.connect(path)
    with conn:
        for script in shipped[:version]:
            for statement in script.split(";"):
                if statement.strip():
                    conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_meta (key, value) VALUES ('schema_version', ?)",
            (str(version),),
        )
    conn.close()


def schema_snapshot(shipped, directory: str) -> dict:
    """The current ``MIGRATIONS`` text plus the ``sqlite_master`` rows of a
    fresh store and of stores built from ``shipped`` (the migration text
    older databases ran) at each :data:`MIGRATED_FROM` version, then opened
    by :class:`~repro.store.ResultsStore`."""
    from repro.store import MIGRATIONS, ResultsStore

    fresh = os.path.join(directory, "fresh.sqlite")
    ResultsStore(fresh).close()
    master = {"fresh": _sqlite_master(fresh)}
    for version in MIGRATED_FROM:
        path = os.path.join(directory, f"v{version}.sqlite")
        _build_store_at(path, shipped, version)
        ResultsStore(path).close()
        master[f"from_v{version}"] = _sqlite_master(path)
    return {"migrations": list(MIGRATIONS), "sqlite_master": master}


def main(argv) -> int:
    if argv[1:] != ["--write"]:
        print(__doc__)
        print(f"usage: PYTHONPATH=src python {argv[0]} --write", file=sys.stderr)
        return 2
    from repro.campaign import run_campaign
    from repro.store import MIGRATIONS

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = schema_snapshot(MIGRATIONS, tmp)
        with open(SCHEMA_GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"wrote {SCHEMA_GOLDEN}")
        for name, spec in checkpoint_specs().items():
            # A fresh file: the checkpoint store appends and resumes.
            path = os.path.join(tmp, f"{name}.jsonl")
            run_campaign(spec, workers=0, checkpoint=path)
            shutil.copyfile(path, checkpoint_path(name))
            print(f"wrote {checkpoint_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
