"""Property-based round-trip tests for the class JSON codecs (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mapping import LogicalCluster, Partition, Workload
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology


@given(st.integers(0, 5000), st.sampled_from([8, 10, 12, 16]))
@settings(max_examples=25, deadline=None)
def test_topology_roundtrip_property(seed, n):
    topo = random_irregular_topology(n, seed=seed)
    again = Topology.from_dict(topo.to_dict())
    assert again == topo
    assert again.hop_distances().tolist() == topo.hop_distances().tolist()


@given(st.lists(st.integers(-1, 3), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_partition_roundtrip_property(raw_labels):
    # Compress labels to the consecutive form Partition requires.
    used = sorted({x for x in raw_labels if x >= 0})
    remap = {old: i for i, old in enumerate(used)}
    labels = [remap.get(x, -1) for x in raw_labels]
    part = Partition(labels)
    again = Partition.from_dict(part.to_dict())
    assert again == part
    assert (again.labels == part.labels).all()


@given(st.lists(
    st.tuples(st.integers(1, 64),
              st.floats(0.0, 10.0, allow_nan=False)),
    min_size=1, max_size=6,
))
@settings(max_examples=50, deadline=None)
def test_workload_roundtrip_property(specs):
    w = Workload([
        LogicalCluster(f"app{i}", procs, comm_weight=weight)
        for i, (procs, weight) in enumerate(specs)
    ])
    again = Workload.from_dict(w.to_dict())
    assert again.num_clusters == w.num_clusters
    for a, b in zip(again.clusters, w.clusters):
        assert (a.name, a.num_processes) == (b.name, b.num_processes)
        assert np.isclose(a.comm_weight, b.comm_weight)
