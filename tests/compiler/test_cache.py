"""Tests for the process-level netlist compile cache."""

import pytest

from repro.campaign.workloads import available_campaign_workloads
from repro.compiler import cache
from repro.compiler.cache import (
    available_netlists,
    compiled_netlist,
    register_netlist_factory,
)
from repro.core.sep import and_gate_example_netlist
from repro.errors import SynthesisError


@pytest.fixture
def probe():
    """A throwaway factory registered as ``cache-probe``, counting its calls."""
    calls = []

    def factory():
        calls.append(1)
        return and_gate_example_netlist()

    register_netlist_factory("cache-probe", factory)
    yield factory, calls
    cache._FACTORIES.pop("cache-probe", None)
    compiled_netlist.cache_clear()


def test_every_campaign_workload_is_registered():
    assert set(available_campaign_workloads()) <= set(available_netlists())
    assert list(available_netlists()) == sorted(available_netlists())


def test_compiles_once_and_shares_the_instance(probe):
    _, calls = probe
    netlist = compiled_netlist("cache-probe")
    assert compiled_netlist("cache-probe") is netlist
    assert len(calls) == 1
    assert "cache-probe" in available_netlists()


def test_names_are_case_insensitive(probe):
    factory, calls = probe
    register_netlist_factory(" Cache-Probe ", factory)  # the same factory: a no-op
    assert compiled_netlist("CACHE-PROBE").outputs == compiled_netlist("cache-probe").outputs
    assert available_netlists().count("cache-probe") == 1


def test_registration_refuses_redefinition_and_blank_names(probe):
    with pytest.raises(SynthesisError, match="already registered"):
        register_netlist_factory("cache-probe", and_gate_example_netlist)
    with pytest.raises(SynthesisError, match="non-empty"):
        register_netlist_factory("  ", and_gate_example_netlist)
    with pytest.raises(SynthesisError, match="unknown netlist 'no-such-netlist'"):
        compiled_netlist("no-such-netlist")
