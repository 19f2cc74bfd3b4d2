"""Tests for the netlist representation and logic levelisation."""

import pytest

from repro.campaign.workloads import available_campaign_workloads, get_campaign_workload
from repro.compiler.netlist import Netlist
from repro.errors import SynthesisError
from repro.pim.gates import GateType


def build_and_netlist():
    """o3 = a AND b via three NORs (the Fig. 6 example circuit)."""
    netlist = Netlist(name="and")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    o1 = netlist.add_gate(GateType.NOT, [a])
    o2 = netlist.add_gate(GateType.NOT, [b])
    o3 = netlist.add_gate(GateType.NOR, [o1, o2])
    netlist.mark_output(o3, "out")
    return netlist, (a, b, o1, o2, o3)


class TestConstruction:
    def test_inputs_and_outputs(self):
        netlist, (a, b, o1, o2, o3) = build_and_netlist()
        assert netlist.inputs == (a, b)
        assert netlist.outputs == (o3,)
        assert netlist.input_name(a) == "a"
        assert netlist.output_name(o3) == "out"

    def test_signal_count(self):
        netlist, _ = build_and_netlist()
        assert netlist.n_signals == 5

    def test_producer_and_consumers(self):
        netlist, (a, b, o1, o2, o3) = build_and_netlist()
        assert netlist.producer_of(o1).gate == GateType.NOT
        assert netlist.producer_of(a) is None
        assert [g.output for g in netlist.consumers_of(o1)] == [o3]

    def test_unknown_signal_rejected(self):
        netlist = Netlist()
        with pytest.raises(SynthesisError):
            netlist.add_gate(GateType.NOT, [42])

    def test_constants_always_available(self):
        netlist = Netlist()
        out = netlist.add_gate(GateType.NOR, [Netlist.CONST_ZERO, Netlist.CONST_ONE])
        netlist.mark_output(out)
        assert netlist.evaluate({})[out] == 0

    def test_validate_requires_outputs(self):
        netlist, _ = build_and_netlist()
        netlist.validate()
        empty = Netlist()
        empty.add_input()
        with pytest.raises(SynthesisError):
            empty.validate()

    def test_mark_output_idempotent(self):
        netlist, (_, _, _, _, o3) = build_and_netlist()
        netlist.mark_output(o3)
        assert netlist.outputs == (o3,)

    def test_multi_output_gate_node(self):
        netlist = Netlist()
        a = netlist.add_input()
        out = netlist.add_gate(GateType.NOR, [a], n_outputs=2)
        assert netlist.producer_of(out).n_outputs == 2

    def test_invalid_gate_parameters(self):
        netlist = Netlist()
        a = netlist.add_input()
        with pytest.raises(SynthesisError):
            netlist.add_gate("flipflop", [a])
        with pytest.raises(SynthesisError):
            netlist.add_gate(GateType.NOR, [a], n_outputs=0)


class TestGatesView:
    def test_same_tuple_until_add_gate(self):
        netlist, (a, b, o1, o2, o3) = build_and_netlist()
        gates = netlist.gates
        assert netlist.gates is gates
        assert [g.output for g in gates] == [o1, o2, o3]
        out = netlist.add_gate(GateType.NOT, [o3])
        after = netlist.gates
        assert after is not gates
        assert after[:-1] == gates
        assert after[-1].output == out and after[-1].index == len(gates)
        assert netlist.gates is after
        # The tuple read before the new gate is left as it was.
        assert len(gates) == 3


class TestLevelisation:
    def test_and_circuit_has_two_levels(self):
        netlist, (_, _, o1, o2, o3) = build_and_netlist()
        levels = netlist.levelize()
        assert len(levels) == 2
        assert sorted(levels[0]) == [0, 1]
        assert levels[1] == [2]
        assert netlist.depth == 2

    def test_levels_respect_dependencies(self):
        netlist = Netlist()
        a = netlist.add_input()
        x = netlist.add_gate(GateType.NOT, [a])
        y = netlist.add_gate(GateType.NOT, [x])
        z = netlist.add_gate(GateType.NOR, [a, y])
        netlist.mark_output(z)
        levels = netlist.levelize()
        assert len(levels) == 3

    def test_cache_invalidated_on_new_gate(self):
        netlist, (_, _, _, _, o3) = build_and_netlist()
        assert netlist.depth == 2
        extra = netlist.add_gate(GateType.NOT, [o3])
        netlist.mark_output(extra)
        assert netlist.depth == 3


class TestEvaluation:
    @pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    def test_and_truth_table(self, a, b, expected):
        netlist, signals = build_and_netlist()
        values = netlist.evaluate({signals[0]: a, signals[1]: b})
        assert values[signals[4]] == expected

    def test_evaluate_outputs_only(self):
        netlist, signals = build_and_netlist()
        outputs = netlist.evaluate_outputs({signals[0]: 1, signals[1]: 1})
        assert outputs == {signals[4]: 1}

    def test_missing_input_rejected(self):
        netlist, signals = build_and_netlist()
        with pytest.raises(SynthesisError):
            netlist.evaluate({signals[0]: 1})

    def test_non_bit_input_rejected(self):
        netlist, signals = build_and_netlist()
        with pytest.raises(SynthesisError):
            netlist.evaluate({signals[0]: 2, signals[1]: 0})

    def test_thr_gate_with_custom_threshold(self):
        netlist = Netlist()
        a, b, c = (netlist.add_input() for _ in range(3))
        out = netlist.add_gate(GateType.THR, [a, b, c], threshold=2)
        netlist.mark_output(out)
        assert netlist.evaluate({a: 0, b: 0, c: 1})[out] == 1
        assert netlist.evaluate({a: 1, b: 1, c: 0})[out] == 0


class TestStatsAndLiveness:
    def test_stats(self):
        netlist, _ = build_and_netlist()
        stats = netlist.stats()
        assert stats.n_inputs == 2
        assert stats.n_gates == 3
        assert stats.n_levels == 2
        assert stats.gates_by_type == {GateType.NOT: 2, GateType.NOR: 1}
        assert stats.max_level_width == 2
        assert stats.average_level_width == pytest.approx(1.5)

    def test_per_level_stats(self):
        netlist, _ = build_and_netlist()
        levels = netlist.stats().levels
        assert levels[0].n_gates == 2
        assert levels[1].n_gates == 1
        assert levels[0].n_thr == 0

    def test_last_use(self):
        netlist, (a, b, o1, o2, o3) = build_and_netlist()
        last = netlist.last_use()
        assert last[o1] == 2  # consumed by gate index 2
        assert last[o3] == 3  # circuit output lives to the end (horizon)
        assert last[a] == 0


@pytest.mark.parametrize("name", available_campaign_workloads())
class TestCampaignWorkloadLevels:
    """The logic levels ECiM checks and TRiM votes over, on every netlist a
    campaign can run."""

    def test_levels_partition_the_gates(self, name):
        netlist = get_campaign_workload(name).netlist
        indices = [index for level in netlist.levelize() for index in level]
        assert sorted(indices) == list(range(len(netlist.gates)))

    def test_each_gate_sits_one_level_above_its_latest_operand(self, name):
        # So no gate reads the output of another gate in its own level.
        netlist = get_campaign_workload(name).netlist
        level_of = {signal: 0 for signal in netlist.inputs}
        level_of[Netlist.CONST_ZERO] = level_of[Netlist.CONST_ONE] = 0
        for level, indices in enumerate(netlist.levelize(), start=1):
            for index in indices:
                level_of[netlist.gates[index].output] = level
        for node in netlist.gates:
            assert level_of[node.output] == 1 + max(level_of[s] for s in node.inputs)

    def test_level_stats_agree_with_levelize(self, name):
        netlist = get_campaign_workload(name).netlist
        levels = netlist.levelize()
        stats = netlist.stats()
        assert stats.n_levels == netlist.depth == len(levels)
        assert [level.n_gates for level in stats.levels] == [len(level) for level in levels]
        assert stats.max_level_width == max(len(level) for level in levels)
        assert sum(level.n_gate_outputs for level in stats.levels) == stats.total_gate_outputs
        assert stats.total_gate_outputs == sum(node.n_outputs for node in netlist.gates)
