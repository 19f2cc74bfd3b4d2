"""Tests for the JSONL checkpoint store."""

import contextlib
import json
import warnings

import pytest

from repro.campaign.aggregate import ShardResult, zeroed_counts
from repro.campaign.checkpoint import CheckpointStore


def make_result(cell_key="cell-a", shard=0, trials=5, correct=5):
    counts = zeroed_counts()
    counts.update(trials=trials, correct=correct)
    return ShardResult(cell_key=cell_key, shard_index=shard, counts=counts)


@contextlib.contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestCheckpointStore:
    def test_load_missing_file_is_empty(self, tmp_path):
        store = CheckpointStore(tmp_path / "nope.jsonl")
        assert store.load("abc") == {}

    def test_append_then_load_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.jsonl")
        result = make_result(shard=3)
        store.append("abc", result)
        loaded = store.load("abc")
        assert loaded == {("cell-a", 3): result}

    def test_records_for_other_specs_are_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.jsonl")
        store.append("spec-1", make_result(shard=0))
        store.append("spec-2", make_result(shard=1))
        assert set(store.load("spec-1")) == {("cell-a", 0)}
        assert set(store.load("spec-2")) == {("cell-a", 1)}

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CheckpointStore(path)
        store.append("abc", make_result(shard=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "abc", "cell": "cell-a", "sha')  # crash mid-write
        assert set(store.load("abc")) == {("cell-a", 0)}

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        # Regression: a resumed run used to glue its first record onto the
        # crash's partial line, so the next load dropped that shard too.
        path = tmp_path / "c.jsonl"
        CheckpointStore(path).append("abc", make_result(shard=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "abc", "cell": "cell-a", "sha')  # crash mid-write
        resumed = CheckpointStore(path)
        resumed.append("abc", make_result(shard=1))
        with pytest.warns(UserWarning, match=r"c\.jsonl:2: dropping truncated record"):
            loaded = CheckpointStore(path).load("abc")
        assert set(loaded) == {("cell-a", 0), ("cell-a", 1)}
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_hand_truncated_trailing_line_warns_and_resumes(self, tmp_path):
        # Regression: a file truncated mid-record (crash during the final
        # append) must load the intact records, warn about the partial one,
        # and never raise json.JSONDecodeError.
        path = tmp_path / "c.jsonl"
        store = CheckpointStore(path)
        store.append("abc", make_result(shard=0))
        store.append("abc", make_result(shard=1))
        full = path.read_text()
        assert full.endswith("\n")
        path.write_text(full[: len(full) - len(full.splitlines()[-1]) // 2 - 1])
        with pytest.warns(UserWarning, match="truncated record"):
            loaded = store.load("abc")
        assert set(loaded) == {("cell-a", 0)}

    def test_intact_file_loads_without_warnings(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.jsonl")
        store.append("abc", make_result(shard=0))
        with warnings_as_errors():
            assert set(store.load("abc")) == {("cell-a", 0)}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CheckpointStore(path)
        store.append("abc", make_result())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(store.load("abc")) == 1

    def test_duplicate_shard_keeps_first_record(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.jsonl")
        first = make_result(shard=0, correct=5)
        second = make_result(shard=0, correct=4)
        store.append("abc", first)
        store.append("abc", second)
        assert store.load("abc")[("cell-a", 0)] == first

    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CheckpointStore(path)
        store.append("abc", make_result(shard=0))
        store.append("abc", make_result(shard=1))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["spec_hash"] == "abc"
            assert "counts" in record

    def test_constructor_touches_file_to_fail_fast(self, tmp_path):
        # An unwritable path must fail at store construction, not after the
        # first shard's compute has been spent.
        path = tmp_path / "deep" / "nested" / "c.jsonl"
        store = CheckpointStore(path)
        assert path.exists()
        store.append("abc", make_result())
        assert len(store.load("abc")) == 1

    def test_schema_drifted_record_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CheckpointStore(path)
        store.append("abc", make_result(shard=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                '{"spec_hash": "abc", "cell": "cell-a", "shard": 1,'
                ' "counts": {"trials": 2, "counter_from_the_future": 9}}\n'
            )
            # A stratum that is no object, and one missing its population
            # probability (which merging and the estimate both need).
            handle.write(
                '{"spec_hash": "abc", "cell": "cell-a", "shard": 2,'
                ' "counts": {"trials": 5}, "strata": {"k=0": 5}}\n'
            )
            handle.write(
                '{"spec_hash": "abc", "cell": "cell-a", "shard": 3,'
                ' "counts": {"trials": 5}, "strata": {"k=0": {"trials": 5, "correct": 5}}}\n'
            )
        with pytest.warns(UserWarning, match="unreadable record"):
            loaded = store.load("abc")  # must not raise; shards 1-3 just re-run
        assert set(loaded) == {("cell-a", 0)}
