"""Every campaign tape matches its pinned digests (see ``tape_golden``).

A failure names the tape and the sections that drifted.  If the change to
the tape is intentional, regenerate with::

    PYTHONPATH=src python tests/golden/tape_golden.py --write

and say why in the commit message.
"""

import numpy as np
import pytest

import tape_golden


def test_every_tape_is_pinned():
    assert sorted(tape_golden.load_digests()) == sorted(tape_golden.TAPES)


@pytest.fixture(scope="module", params=sorted(tape_golden.TAPES))
def built(request):
    """``(name, (plan, tape))``, built once for every test of the tape."""
    return request.param, tape_golden.build_tape(request.param)


def test_tape_matches_golden(built):
    name, plan_and_tape = built
    stored = tape_golden.load_digests()[name]
    computed = tape_golden.tape_digests(name, plan_and_tape)
    drifted = sorted(key for key in stored if computed.get(key) != stored[key])
    assert not drifted, (
        f"tape {name} drifted in {drifted}: if this change is intentional, regenerate "
        "with PYTHONPATH=src python tests/golden/tape_golden.py --write"
    )


def test_firing_outputs_rank_consecutively(built):
    # The per-operation tables that deterministic plans are lowered through
    # rank position p of a firing as its first output's rank plus p.
    _, (_, tape) = built
    ptr = tape.gate_entry_ptr
    widths = np.diff(ptr)
    assert widths.min() > 0
    ranks = tape.rank_of_entry[:ptr[-1]]
    offsets = np.arange(ptr[-1]) - np.repeat(ptr[:-1], widths)
    assert np.array_equal(ranks, np.repeat(ranks[ptr[:-1]], widths) + offsets)
    width, first = tape.op_tables
    slots = tape.gate_slot_of_op
    carried = slots >= 0
    assert width.shape == first.shape == (slots.shape[0] + 1,)
    assert np.array_equal(width[:-1][carried], widths[slots[carried]])
    assert np.array_equal(first[:-1][carried], ranks[ptr[slots[carried]]])
    assert not width[:-1][~carried].any() and width[-1] == 0


def test_table_records_digest_their_truth_table():
    from repro.core.bitpacked import _TABLE, _gate_record, _table_key

    record = _gate_record(_table_key("nor", 3, None), (0, 1, 2), (3,))
    assert record[0] == _TABLE
    # NOR3 is 1 only on the all-zero input combination, bit 0 of the table.
    assert tape_golden._record(record) == [_TABLE, ["table", 3, 1], [0, 1, 2], [3]]
