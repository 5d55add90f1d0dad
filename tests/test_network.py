import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvolt import dataset as ds
from gridvolt import network as net
from gridvolt import simulation as sim


def toy_chain():
    """Single-phase chain: hub -sw- head -line- dt_high -xfmr- dt_low -line- lv.

    Returns the bus-phases and the per-edge devices.
    """
    bps = [
        net.BusPhase(0, 0, "A", 7.2, "substation_hub", net.HUB_FEEDER),
        net.BusPhase(1, 1, "A", 7.2, "feeder_head", 0),
        net.BusPhase(2, 2, "A", 7.2, "dt_high", 0),
        net.BusPhase(3, 3, "A", 0.12, "dt_low", 0),
        net.BusPhase(4, 4, "A", 0.12, "lv_node", 0),
    ]
    devices = [
        sim.DeviceSpec(0, 0, 1, "switch", ("A", "B", "C"), 1e-4, 1e-4, 0.0, 5.0),
        sim.DeviceSpec(1, 1, 2, "line", ("A", "B", "C"), 0.006, 0.008, 1.0, 2.0),
        sim.DeviceSpec(2, 2, 3, "transformer", ("A",), 0.012, 0.016, 0.0, 0.05),
        sim.DeviceSpec(3, 3, 4, "line", ("A",), 0.003, 0.004, 0.03, 0.05),
    ]
    return bps, devices


@pytest.fixture(scope="module")
def tiny():
    """A generated tiny substation and its graph, ties open."""
    spec = sim.generate_substation(7, "tiny")
    return spec, sim.build_graph(spec)


def annotate(graph, status=None):
    status = graph.edge_normally_closed if status is None else status
    return sim.structural_annotations(graph, status)


def nodes_of_type(graph, bus_type):
    return np.array([bp.id for bp in graph.bus_phases
                     if bp.bus_type == bus_type])


def observed_snapshot():
    """The toy chain as a dataset assembles it: every node observed."""
    bps, devices = toy_chain()
    v = np.array([1.0, 0.998, 0.99, 0.985, 0.98])
    feats = net.static_node_features(bps, np.zeros(5))
    feats[:, net.NODE_FEATURE_INDEX["m_obs"]] = 1.0
    feats[:, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] = v
    ends = np.array([[d.from_bus, d.to_bus] for d in devices])
    none = np.zeros(0)
    return ds.Snapshot(
        node_x=feats, edge_from=ends[:, 0], edge_to=ends[:, 1],
        edge_z=net.static_edge_features(devices),
        node_feeder=np.array([bp.feeder_id for bp in bps]), v_true=v,
        observed=np.ones(5, dtype=bool), phys_from=none.astype(int),
        phys_to=none.astype(int), phys_r=none, phys_x=none, phys_p=none,
        phys_q=none)


def test_feature_vector_lengths():
    assert len(net.NODE_FEATURE_ORDER) == 17
    assert len(net.EDGE_FEATURE_ORDER) == 13
    bps, devices = toy_chain()
    assert net.static_node_features(bps, np.zeros(5)).shape == (5, 17)
    assert net.static_edge_features(devices).shape == (4, 13)


def test_masked_node_reports_no_voltage():
    observed = np.array([True, True, True, False, True])
    masked = observed_snapshot().masked(observed).node_x
    assert masked[3, net.NODE_FEATURE_INDEX["m_obs"]] == 0.0
    assert masked[3, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] == 0.0
    assert masked[4, net.NODE_FEATURE_INDEX["m_obs"]] == 1.0
    assert masked[4, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] == pytest.approx(0.98)


def test_masked_rows_never_carry_a_voltage():
    snap = observed_snapshot()
    feats, v = snap.node_x, snap.v_true
    gen = np.random.default_rng(4)
    for _ in range(20):
        observed = gen.random(5) < 0.5
        masked = snap.masked(observed).node_x
        hidden = masked[~observed]
        assert np.all(hidden[:, net.NODE_FEATURE_INDEX["m_obs"]] == 0.0)
        assert np.all(hidden[:, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] == 0.0)
        assert np.array_equal(
            masked[observed, net.NODE_FEATURE_INDEX["m_obs_v_pu"]], v[observed])
    # the stored matrix is left as it was
    assert np.all(feats[:, net.NODE_FEATURE_INDEX["m_obs"]] == 1.0)


def test_tap_midpoint_is_zero():
    # the static rows leave every tap at its midpoint; only the per-step
    # regulator taps written at dataset assembly move it
    bps, devices = toy_chain()
    nodes = net.static_node_features(bps, np.zeros(5))
    edges = net.static_edge_features(devices)
    assert np.all(nodes[:, net.NODE_FEATURE_INDEX["tap"]] == 0.0)
    assert np.all(edges[:, net.EDGE_FEATURE_INDEX["tap"]] == 0.0)


def test_structural_annotations_depth_and_distance(tiny):
    spec, graph = tiny
    depth, elec, degree, feeder = annotate(graph)
    # feeder heads reset the counters; the hub starts them
    for kind in ("substation_hub", "feeder_head"):
        roots = nodes_of_type(graph, kind)
        assert np.all(depth[roots] == 0.0) and np.all(elec[roots] == 0.0)
    below = nodes_of_type(graph, "lv_node")
    assert np.all(depth[below] >= 2.0) and np.all(elec[below] > 0.0)
    # every hub phase links to each feeder head; every node has an edge
    assert np.all(degree[graph.hub_node_ids] == len(spec.feeders))
    assert np.all(degree >= 1.0)
    assert np.any(degree[below] == 1.0)


def test_elec_dist_monotone_along_path(tiny):
    _, graph = tiny
    depth, elec, _, _ = annotate(graph)
    hub = set(graph.hub_node_ids)
    for e in np.flatnonzero(graph.edge_normally_closed == 1):
        a, b = int(graph.edge_from[e]), int(graph.edge_to[e])
        if a in hub or b in hub:
            continue
        up, down = (a, b) if depth[a] < depth[b] else (b, a)
        assert depth[down] == depth[up] + 1.0
        assert elec[down] == elec[up] + graph.edge_zmag[e]


def test_unreachable_node_named_in_error(tiny):
    _, graph = tiny
    degree = annotate(graph)[2]
    lv = nodes_of_type(graph, "lv_node")
    leaf = int(lv[degree[lv] == 1.0][0])
    bp = graph.bus_phases[leaf]
    status = graph.edge_normally_closed.copy()
    status[(graph.edge_from == leaf) | (graph.edge_to == leaf)] = 0
    with pytest.raises(sim.PowerFlowError,
                       match=rf"^bus-phase {leaf} \(bus {bp.bus_id} phase "
                             rf"{bp.phase}\) is islanded"):
        annotate(graph, status)


def test_supplying_feeder_follows_closed_tie(tiny):
    spec, graph = tiny
    tie = spec.ties[0]
    status = graph.edge_normally_closed.copy()
    status[graph.edge_device == tie.device_uid] = 1
    status[graph.edge_device == tie.sectionalizer_uid] = 0
    before, after = (annotate(graph, s)[3]
                     for s in (graph.edge_normally_closed, status))
    for ph in net.PHASES:
        node = graph.node_of[(tie.transfer_bus, ph)]
        assert before[node] == tie.to_feeder and after[node] == tie.from_feeder


def hub_features(n, hub=()):
    """[n, 17] node features whose ``type_hub`` rows are ``hub``."""
    node_x = np.zeros((n, net.N_NODE_FEATURES))
    node_x[list(hub), net.NODE_FEATURE_INDEX["type_hub"]] = 1.0
    return node_x


def sample_mask(n, p, seed, hub=()):
    return net.fleet_mask(net.fleet_order(hub_features(n, hub),
                                          np.random.default_rng(seed)), p)


def test_fleet_order_puts_the_hub_rows_first(tiny):
    _, graph = tiny
    hub = nodes_of_type(graph, "substation_hub")
    order = net.fleet_order(graph.node_features, np.random.default_rng(3))
    assert len(hub) == 3 and np.array_equal(order[:3], hub)
    assert np.array_equal(np.sort(order), np.arange(graph.n_nodes))
    # away from the hub, the same permutation as without hub rows
    gen = np.random.default_rng(3)
    rest = net.fleet_order(hub_features(graph.n_nodes), gen)
    assert np.array_equal(order[3:], rest[~np.isin(rest, hub)])
    scattered = net.fleet_order(hub_features(50, [7, 2, 31]),
                                np.random.default_rng(0))
    assert np.array_equal(scattered[:3], [2, 7, 31])


def test_mask_cardinality_examples():
    m80 = sample_mask(100, 80, 11, hub=[0, 1, 2])
    assert m80.sum() == 80
    m1 = sample_mask(100, 1, 99, hub=[0, 1, 2])
    assert m1.sum() == 1
    assert m1[0]  # hub fills the budget first


def test_mask_determinism():
    assert np.array_equal(sample_mask(200, 20, 5, [0]),
                          sample_mask(200, 20, 5, [0]))
    assert not np.array_equal(sample_mask(200, 20, 5, [0]),
                              sample_mask(200, 20, 6, [0]))


def test_mask_rejects_off_schedule_levels():
    for bad in (0, -5, 100, 120.5):
        with pytest.raises(ValueError, match="p_obs"):
            sample_mask(100, bad, 0)


@given(
    n=st.integers(min_value=4, max_value=400),
    p=st.floats(min_value=0.5, max_value=99.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_mask_cardinality_property(n, p, seed):
    m = sample_mask(n, p, seed, hub=[0, 1, 2])
    expected = min(max(round(n * p / 100.0), 1), n - 1)
    assert m.sum() == expected
    assert m[0]


def test_onehot_feature_invariants():
    bps, devices = toy_chain()
    feats = net.static_node_features(bps, np.zeros(5))
    assert np.all(feats[:, 0:3].sum(axis=1) == 1.0)   # phase one-hot
    assert np.all(feats[:, 4:8].sum(axis=1) == 1.0)   # type one-hot
    for row in net.static_edge_features(devices):
        assert row[4:8].sum() == 1.0                  # device one-hot
        assert set(np.unique(row[9:12])) <= {0.0, 1.0}


def test_bad_bus_type_and_kv_raise():
    with pytest.raises(ValueError, match="bus type"):
        net.BusPhase(0, 0, "A", 7.2, "mystery", 0)
    with pytest.raises(ValueError, match="kv_base"):
        net.BusPhase(0, 0, "A", -1.0, "lv_node", 0)


def test_effective_feeder_recorded_on_nodes(tiny):
    # with every tie open each node is supplied by its own feeder
    _, graph = tiny
    _, _, _, feeder = annotate(graph)
    assert np.all(feeder[graph.hub_node_ids] == net.HUB_FEEDER)
    assert np.array_equal(feeder, [bp.feeder_id for bp in graph.bus_phases])


def test_feature_order_hash_is_stable():
    assert net.feature_order_hash() == net.feature_order_hash()
    assert len(net.feature_order_hash()) == 16
