"""PiM compiler: netlists with logic levels, NOR-based synthesis and greedy
scratch allocation (the mapping steps of Section II-B that the evaluation
needs)."""

from repro.compiler.allocator import AllocationResult, GreedyAllocator, reclaim_count_for_demand
from repro.compiler.cache import (
    available_netlists,
    clear_netlist_cache,
    compiled_netlist,
    register_netlist_factory,
)
from repro.compiler.netlist import GateNode, LevelStats, Netlist, NetlistStats
from repro.compiler.synthesis import CircuitBuilder, Word

__all__ = [
    "Netlist",
    "GateNode",
    "NetlistStats",
    "LevelStats",
    "CircuitBuilder",
    "Word",
    "GreedyAllocator",
    "AllocationResult",
    "reclaim_count_for_demand",
    "register_netlist_factory",
    "compiled_netlist",
    "available_netlists",
    "clear_netlist_cache",
]
