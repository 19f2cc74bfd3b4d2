"""Every campaign tape matches its pinned digests (see ``tape_golden``).

A failure names the tape and the sections that drifted.  If the change to
the tape is intentional, regenerate with::

    PYTHONPATH=src python tests/golden/tape_golden.py --write

and say why in the commit message.
"""

import pytest

import tape_golden


def test_every_tape_is_pinned():
    assert sorted(tape_golden.load_digests()) == sorted(tape_golden.TAPES)


@pytest.mark.parametrize("name", sorted(tape_golden.TAPES))
def test_tape_matches_golden(name):
    stored = tape_golden.load_digests()[name]
    computed = tape_golden.tape_digests(name)
    drifted = sorted(key for key in stored if computed.get(key) != stored[key])
    assert not drifted, (
        f"tape {name} drifted in {drifted}: if this change is intentional, regenerate "
        "with PYTHONPATH=src python tests/golden/tape_golden.py --write"
    )


def test_table_records_digest_their_truth_table():
    from repro.core.bitpacked import _TABLE, _gate_record, _table_key

    record = _gate_record(_table_key("nor", 3, None), (0, 1, 2), (3,))
    assert record[0] == _TABLE
    # NOR3 is 1 only on the all-zero input combination, bit 0 of the table.
    assert tape_golden._record(record) == [_TABLE, ["table", 3, 1], [0, 1, 2], [3]]
