"""Tests for fault scenarios and scenario generators."""

import pytest

from repro.faults.degrade import degrade
from repro.faults.model import (
    FaultScenario,
    sample_fault_scenarios,
    single_link_scenarios,
    single_switch_scenarios,
)


class TestFaultScenario:
    def test_normalizes_links_and_switches(self):
        s = FaultScenario(links=[(3, 1), (1, 3), (0, 2)], switches=[5, 5, 2])
        assert s.links == ((0, 2), (1, 3))
        assert s.switches == (2, 5)
        assert s.num_faults == 4

    def test_label(self):
        assert FaultScenario().label == "none"
        assert FaultScenario(links=[(0, 3)]).label == "L0-3"
        assert FaultScenario(links=[(0, 3)], switches=[5]).label == "L0-3+S5"

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FaultScenario(links=[(2, 2)])

    def test_negative_switch_rejected(self):
        with pytest.raises(ValueError):
            FaultScenario(switches=[-1])

    def test_validate_names_missing_link(self, topo8):
        missing = FaultScenario(links=[(0, 99)])
        with pytest.raises(ValueError, match=r"0.*99"):
            missing.validate(topo8)

    def test_validate_names_missing_switch(self, topo8):
        with pytest.raises(ValueError, match="99"):
            FaultScenario(switches=[99]).validate(topo8)

    def test_validate_rejects_failing_every_switch(self, topo8):
        everything = FaultScenario(switches=range(topo8.num_switches))
        with pytest.raises(ValueError, match="all 8 switches"):
            everything.validate(topo8)

    def test_apply_keeps_ids_and_drops_links(self, topo8):
        link = topo8.links[0]
        net = degrade(topo8, FaultScenario(links=[link]))
        assert net.surviving_switches == tuple(range(topo8.num_switches))
        assert link not in net.surviving_links
        assert len(net.surviving_links) == len(topo8.links) - 1

    def test_apply_switch_fault_isolates_it(self, topo8):
        net = degrade(topo8, FaultScenario(switches=[0]))
        assert 0 not in net.surviving_switches
        assert all(0 not in l for l in net.surviving_links)

    def test_json_round_trip(self):
        s = FaultScenario(links=[(0, 3), (1, 2)], switches=[4], name="demo")
        assert FaultScenario.from_dict(s.to_dict()) == s

    def test_dict_is_tagged_and_tag_checked(self):
        d = FaultScenario(links=[(0, 3)]).to_dict()
        assert (d["type"], d["version"]) == ("fault_scenario", 1)
        with pytest.raises(ValueError, match="fault_scenario"):
            FaultScenario.from_dict({**d, "type": "topology"})


class TestGenerators:
    def test_single_link_covers_every_link(self, topo8):
        scens = single_link_scenarios(topo8)
        assert len(scens) == len(topo8.links)
        assert {s.links[0] for s in scens} == set(topo8.links)

    def test_single_switch_covers_every_switch(self, topo8):
        scens = single_switch_scenarios(topo8)
        assert [s.switches[0] for s in scens] == list(
            range(topo8.num_switches)
        )

    def test_sampling_is_deterministic(self, topo16):
        a = sample_fault_scenarios(topo16, num_faults=2, count=5, seed=3)
        b = sample_fault_scenarios(topo16, num_faults=2, count=5, seed=3)
        assert a == b

    def test_sampling_seed_changes_scenarios(self, topo16):
        a = sample_fault_scenarios(topo16, num_faults=2, count=5, seed=3)
        b = sample_fault_scenarios(topo16, num_faults=2, count=5, seed=4)
        assert a != b

    def test_sampled_scenarios_have_k_faults(self, topo16):
        for s in sample_fault_scenarios(topo16, num_faults=3, count=4,
                                        seed=1, include_switches=True):
            assert s.num_faults == 3
            s.validate(topo16)

    def test_sampled_scenarios_are_distinct(self, topo16):
        scens = sample_fault_scenarios(topo16, num_faults=2, count=8, seed=0)
        assert len(set(scens)) == len(scens)

    def test_bad_arguments_rejected(self, topo8):
        with pytest.raises(ValueError):
            sample_fault_scenarios(topo8, num_faults=0, count=1)
        with pytest.raises(ValueError):
            sample_fault_scenarios(topo8, num_faults=1, count=-1)
