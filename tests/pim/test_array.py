"""Tests for the behavioural PiM array: memory semantics, in-array gates,
partitions and fault-injection hooks."""

import numpy as np
import pytest

from repro.errors import ArrayBoundsError, GateOperandError, PartitionError, PimError
from repro.pim.array import DEFAULT_ARRAY_COLS, DEFAULT_ARRAY_ROWS, PartitionLayout, PimArray
from repro.pim.faults import DeterministicFaultInjector, FaultKind, ScheduledFaultInjector
from repro.pim.operations import OperationKind


@pytest.fixture
def array():
    return PimArray(rows=8, cols=32)


class TestPartitionLayout:
    def test_uniform_split(self):
        layout = PartitionLayout.uniform(32, 4)
        assert layout.n_partitions == 4
        assert list(layout.columns_of(0)) == list(range(0, 8))
        assert list(layout.columns_of(3)) == list(range(24, 32))

    def test_uneven_split_covers_all_columns(self):
        layout = PartitionLayout.uniform(10, 3)
        covered = [c for p in range(3) for c in layout.columns_of(p)]
        assert covered == list(range(10))

    def test_partition_of(self):
        layout = PartitionLayout.uniform(32, 4)
        assert layout.partition_of(0) == 0
        assert layout.partition_of(9) == 1
        assert layout.partition_of(31) == 3

    def test_partitions_of_set(self):
        layout = PartitionLayout.uniform(32, 4)
        assert layout.partitions_of([0, 9, 10]) == (0, 1)

    def test_invalid_boundaries(self):
        with pytest.raises(PartitionError):
            PartitionLayout(8, [0, 5, 4, 8])
        with pytest.raises(PartitionError):
            PartitionLayout(8, [1, 8])

    def test_too_many_partitions(self):
        with pytest.raises(PartitionError):
            PartitionLayout.uniform(4, 8)

    def test_column_out_of_range(self):
        layout = PartitionLayout.uniform(8, 2)
        with pytest.raises(ArrayBoundsError):
            layout.partition_of(8)


class TestMemorySemantics:
    def test_default_dimensions_match_paper(self):
        array = PimArray()
        assert array.rows == DEFAULT_ARRAY_ROWS == 256
        assert array.cols == DEFAULT_ARRAY_COLS == 256

    def test_cells_initialised_to_zero(self, array):
        assert array.occupancy() == 0.0

    def test_write_and_read_cell(self, array):
        array.write_cell(2, 5, 1)
        assert array.read_cell(2, 5) == 1

    def test_write_rejects_non_bit(self, array):
        with pytest.raises(PimError):
            array.write_cell(0, 0, 7)

    def test_bounds_checking(self, array):
        with pytest.raises(ArrayBoundsError):
            array.read_cell(100, 0)
        with pytest.raises(ArrayBoundsError):
            array.read_cell(0, 100)

    def test_load_and_dump_row(self, array):
        array.load_row(1, [1, 0, 1, 1], start_col=3)
        assert array.dump_row(1, [3, 4, 5, 6]) == [1, 0, 1, 1]

    def test_load_row_overflow(self, array):
        with pytest.raises(ArrayBoundsError):
            array.load_row(0, [1] * 40)

    def test_read_row_records_operation(self, array):
        array.load_row(0, [1, 1, 0, 0])
        values = array.read_row(0, [0, 1, 2, 3], logic_level=2)
        assert values == [1, 1, 0, 0]
        reads = [r for r in array.trace if r.kind == OperationKind.READ]
        assert len(reads) == 1
        assert reads[0].n_bits == 4
        assert reads[0].logic_level == 2

    def test_write_row_records_operation(self, array):
        array.write_row(0, [0, 1, 2], [1, 0, 1])
        assert array.dump_row(0, [0, 1, 2]) == [1, 0, 1]
        writes = [r for r in array.trace if r.kind == OperationKind.WRITE]
        assert len(writes) == 1

    def test_write_row_length_mismatch(self, array):
        with pytest.raises(PimError):
            array.write_row(0, [0, 1], [1])

    def test_snapshot_restore(self, array):
        array.write_cell(0, 0, 1)
        snap = array.snapshot()
        array.write_cell(0, 0, 0)
        array.restore(snap)
        assert array.read_cell(0, 0) == 1

    def test_restore_shape_mismatch(self, array):
        with pytest.raises(PimError):
            array.restore(np.zeros((2, 2), dtype=np.uint8))

    def test_clear(self, array):
        array.write_cell(0, 0, 1)
        array.clear()
        assert array.occupancy() == 0.0


class TestInArrayGates:
    @pytest.mark.parametrize(
        "a,b,expected", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    )
    def test_nor_truth_table_on_cells(self, array, a, b, expected):
        array.load_row(0, [a, b])
        (out,) = array.execute_gate("nor", 0, [0, 1], [2])
        assert out == expected
        assert array.read_cell(0, 2) == expected

    def test_multi_output_gate_produces_identical_copies(self, array):
        array.load_row(0, [0, 0])
        outputs = array.execute_gate("nor", 0, [0, 1], [2, 3, 4])
        assert outputs == (1, 1, 1)
        assert array.dump_row(0, [2, 3, 4]) == [1, 1, 1]

    def test_thr_gate_with_threshold(self, array):
        array.load_row(0, [0, 0, 1])
        (out,) = array.execute_gate("thr", 0, [0, 1, 2], [3], threshold=2)
        assert out == 1

    def test_preset_happens_before_gate(self, array):
        # Pre-write the output cell to 1; NOR of (1,1) must preset it to 0.
        array.load_row(0, [1, 1])
        array.write_cell(0, 2, 1)
        (out,) = array.execute_gate("nor", 0, [0, 1], [2])
        assert out == 0

    def test_gate_without_preset_keeps_semantics(self, array):
        array.load_row(0, [0, 0])
        (out,) = array.execute_gate("nor", 0, [0, 1], [2], preset=False)
        assert out == 1

    def test_gate_records_operation_with_metadata_flag(self, array):
        array.execute_gate("nor", 0, [0, 1], [2], logic_level=3, is_metadata=True)
        gates = [r for r in array.trace if r.kind == OperationKind.GATE]
        assert gates[0].is_metadata
        assert gates[0].logic_level == 3

    def test_operation_index_increments(self, array):
        assert array.operation_index == 0
        array.execute_gate("nor", 0, [0, 1], [2])
        array.execute_gate("nor", 0, [0, 1], [3])
        assert array.operation_index == 2

    def test_input_output_overlap_rejected(self, array):
        with pytest.raises(GateOperandError):
            array.execute_gate("nor", 0, [0, 1], [1])

    def test_unknown_gate_rejected(self, array):
        with pytest.raises(GateOperandError):
            array.execute_gate("xor", 0, [0, 1], [2])

    def test_no_output_rejected(self, array):
        with pytest.raises(GateOperandError):
            array.execute_gate("nor", 0, [0, 1], [])

    def test_out_of_range_columns_rejected(self, array):
        with pytest.raises(ArrayBoundsError):
            array.execute_gate("nor", 0, [0, 99], [2])


class TestPartitionSemantics:
    def test_parallel_gates_in_distinct_partitions_allowed(self):
        array = PimArray(rows=4, cols=32, partitions=4)
        array.begin_step()
        array.execute_gate("nor", 0, [0, 1], [2])     # partition 0
        array.execute_gate("nor", 0, [8, 9], [10])    # partition 1
        array.end_step()

    def test_conflicting_gates_in_same_partition_rejected(self):
        array = PimArray(rows=4, cols=32, partitions=4)
        array.begin_step()
        array.execute_gate("nor", 0, [0, 1], [2])
        with pytest.raises(PartitionError):
            array.execute_gate("nor", 0, [3, 4], [5])
        array.end_step()

    def test_gate_spanning_partitions_blocks_both(self):
        array = PimArray(rows=4, cols=32, partitions=4)
        array.begin_step()
        array.execute_gate("nor", 0, [0, 1], [9])  # spans partitions 0 and 1
        with pytest.raises(PartitionError):
            array.execute_gate("nor", 0, [10, 11], [12])  # partition 1 busy
        array.end_step()

    def test_different_rows_do_not_conflict(self):
        array = PimArray(rows=4, cols=32, partitions=4)
        array.begin_step()
        array.execute_gate("nor", 0, [0, 1], [2])
        array.execute_gate("nor", 1, [0, 1], [2])
        array.end_step()

    def test_step_bookkeeping_errors(self):
        array = PimArray(rows=4, cols=32)
        with pytest.raises(PartitionError):
            array.end_step()
        array.begin_step()
        with pytest.raises(PartitionError):
            array.begin_step()
        array.end_step()

    def test_repartition(self):
        array = PimArray(rows=4, cols=32, partitions=1)
        array.repartition(8)
        assert array.layout.n_partitions == 8

    def test_repartition_mid_step_rejected(self):
        array = PimArray(rows=4, cols=32)
        array.begin_step()
        with pytest.raises(PartitionError):
            array.repartition(2)
        array.end_step()


class TestFaultInjectionHooks:
    def test_deterministic_fault_on_gate_output(self):
        injector = DeterministicFaultInjector(target_operations={0: 1})
        array = PimArray(rows=4, cols=16, fault_injector=injector)
        array.load_row(0, [0, 0])
        (out,) = array.execute_gate("nor", 0, [0, 1], [2])
        assert out == 0  # correct value 1 flipped to 0
        assert injector.log.count() == 1

    def test_scheduled_memory_errors_on_read(self):
        # Memory-class ordinals count stored-bit reads in order.
        injector = ScheduledFaultInjector({"memory": [0, 2]})
        array = PimArray(rows=4, cols=8, fault_injector=injector)
        array.load_row(0, [1, 1, 1, 1])
        values = array.read_row(0, [0, 1, 2, 3])
        assert values == [0, 1, 0, 1]
        assert injector.log.count(FaultKind.MEMORY) == 2

    def test_fault_free_by_default(self):
        array = PimArray(rows=4, cols=8)
        array.load_row(0, [0, 0])
        assert array.execute_gate("nor", 0, [0, 1], [2]) == (1,)
        assert array.fault_injector.log.count() == 0
