"""Campaign workloads: the functional netlists a campaign can inject into.

A campaign workload is a *small, bit-exact* netlist — the functional
counterparts of the paper benchmarks (the Fig. 6 AND example, the mm-family
dot-product / MAC unit blocks, a full tiny matmul), whose trial inputs are
drawn uniformly from each trial's stream
(:func:`~repro.core.batched.sample_input_matrix`).  Paper-scale instances
(mm64, fft64, ...) are analytic-only in this codebase, so campaigns measure
empirical coverage on the same unit blocks whose measured statistics
parameterise those analytic models — plus the down-scaled *application*
netlists (``mlp16``, ``fft4``), whose trials can additionally be scored
against their integer oracles (:mod:`repro.campaign.application`).

Netlist construction goes through the process-level compile cache
(:mod:`repro.compiler.cache`): each worker process synthesises a given
workload exactly once, no matter how many thousand trials it executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.campaign.application import fft4_netlist, mlp16_netlist
from repro.compiler.cache import (
    available_netlists,
    compiled_netlist,
    register_netlist_factory,
)
from repro.compiler.netlist import Netlist
from repro.core.sep import and_gate_example_netlist
from repro.errors import UnknownWorkloadError
from repro.workloads.matmul import (
    accumulator_bits,
    dot_product_netlist,
    mac_block_netlist,
    matmul_netlist,
)

__all__ = [
    "CampaignWorkload",
    "CAMPAIGN_WORKLOADS",
    "get_campaign_workload",
    "available_campaign_workloads",
]


@dataclass(frozen=True)
class CampaignWorkload:
    """One injectable workload: a compile-cache key plus a description."""

    name: str
    description: str

    @property
    def netlist(self) -> Netlist:
        """The (process-cached, treat-as-read-only) compiled netlist."""
        return compiled_netlist(self.name)


def _register(name: str, factory, description: str) -> CampaignWorkload:
    register_netlist_factory(name, factory)
    return CampaignWorkload(name=name, description=description)


def _and2() -> Netlist:
    return and_gate_example_netlist()


def _dot2() -> Netlist:
    return dot_product_netlist(2, 2)


def _dot4() -> Netlist:
    return dot_product_netlist(4, 2)


def _mac4() -> Netlist:
    return mac_block_netlist(4, accumulator_bits(4, 4))


def _mm2() -> Netlist:
    return matmul_netlist(2, 2)


CAMPAIGN_WORKLOADS: Dict[str, CampaignWorkload] = {
    w.name: w
    for w in (
        _register("and2", _and2, "Fig. 6 example: AND from three NOR gates"),
        _register("dot2", _dot2, "mm-family unit block: 2-term dot product, 2-bit operands"),
        _register("dot4", _dot4, "mm-family unit block: 4-term dot product, 2-bit operands"),
        _register("mac4", _mac4, "carry-save MAC step, 4-bit operands"),
        _register("mm2", _mm2, "full 2x2 fixed-point matrix multiply, 2-bit operands"),
        _register(
            "mlp16",
            mlp16_netlist,
            "functional 16-4-4 MLP, 2-bit weights/activations (application workload)",
        ),
        _register(
            "fft4",
            fft4_netlist,
            "functional 4-point FFT, 4-bit samples (application workload)",
        ),
    )
}


def available_campaign_workloads() -> Tuple[str, ...]:
    return tuple(sorted(CAMPAIGN_WORKLOADS))


def get_campaign_workload(name: str) -> CampaignWorkload:
    try:
        return CAMPAIGN_WORKLOADS[name.strip().lower()]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown campaign workload {name!r}; "
            f"available: {sorted(CAMPAIGN_WORKLOADS)} "
            f"(registered netlists: {sorted(available_netlists())})"
        ) from None
