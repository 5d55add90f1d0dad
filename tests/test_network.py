import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvolt import network as net
from gridvolt import simulation as sim


def toy_chain():
    """Single-phase chain: hub -sw- head -line- dt_high -xfmr- dt_low -line- lv.

    Returns the bus-phases, the per-edge devices and the endpoint and |Z|
    arrays of the four edges.
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
    zmag = np.array([math.hypot(d.r_pu, d.x_pu) for d in devices])
    return bps, devices, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), zmag


def annotate(closed=None):
    bps, _, frm, to, zmag = toy_chain()
    closed = np.ones(4, dtype=bool) if closed is None else closed
    return net.structural_annotations(bps, frm, to, zmag, closed)


def observed_features():
    """Toy node features as a dataset stores them: every node observed."""
    bps, *_ = toy_chain()
    v = np.array([1.0, 0.998, 0.99, 0.985, 0.98])
    feats = net.static_node_features(bps, np.zeros(5))
    feats[:, net.NODE_FEATURE_INDEX["m_obs"]] = 1.0
    feats[:, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] = v
    return feats, v


def test_feature_vector_lengths():
    assert len(net.NODE_FEATURE_ORDER) == 17
    assert len(net.EDGE_FEATURE_ORDER) == 13
    bps, devices, *_ = toy_chain()
    assert net.static_node_features(bps, np.zeros(5)).shape == (5, 17)
    assert net.static_edge_features(devices).shape == (4, 13)


def test_masked_node_reports_no_voltage():
    feats, v = observed_features()
    observed = np.array([True, True, True, False, True])
    masked = net.apply_mask_to_features(feats, v, observed)
    assert masked[3, net.NODE_FEATURE_INDEX["m_obs"]] == 0.0
    assert masked[3, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] == 0.0
    assert masked[4, net.NODE_FEATURE_INDEX["m_obs"]] == 1.0
    assert masked[4, net.NODE_FEATURE_INDEX["m_obs_v_pu"]] == pytest.approx(0.98)


def test_masked_rows_never_carry_a_voltage():
    feats, v = observed_features()
    gen = np.random.default_rng(4)
    for _ in range(20):
        observed = gen.random(5) < 0.5
        masked = net.apply_mask_to_features(feats, v, observed)
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
    bps, devices, *_ = toy_chain()
    nodes = net.static_node_features(bps, np.zeros(5))
    edges = net.static_edge_features(devices)
    assert np.all(nodes[:, net.NODE_FEATURE_INDEX["tap"]] == 0.0)
    assert np.all(edges[:, net.EDGE_FEATURE_INDEX["tap"]] == 0.0)


def test_structural_annotations_depth_and_distance():
    depth, elec, degree, feeder = annotate()
    # feeder head resets the counters
    assert depth[1] == 0.0 and elec[1] == 0.0
    # two hops from the head over |Z| = 0.01 then 0.02
    assert depth[3] == 2.0
    assert elec[3] == pytest.approx(0.03, abs=1e-15)
    # leaf with a single closed edge
    assert degree[4] == 1.0
    assert feeder[0] == net.HUB_FEEDER and feeder[4] == 0


def test_elec_dist_monotone_along_path():
    _, elec, _, _ = annotate()
    assert elec[1] <= elec[2] <= elec[3] <= elec[4]


def test_unreachable_node_named_in_error():
    with pytest.raises(ValueError, match="bus-phase 4"):
        annotate(np.array([True, True, True, False]))


def test_supplying_feeder_follows_closed_tie():
    # hub 0, feeder 0: head 1 - n2 ; feeder 1: head 3 - n4 - n5.
    # Sectionalizer 4->5 open, tie 2->5 closed: node 5 is supplied by feeder 0.
    bps = [
        net.BusPhase(0, 0, "A", 7.2, "substation_hub", net.HUB_FEEDER),
        net.BusPhase(1, 1, "A", 7.2, "feeder_head", 0),
        net.BusPhase(2, 2, "A", 7.2, "dt_high", 0),
        net.BusPhase(3, 3, "A", 7.2, "feeder_head", 1),
        net.BusPhase(4, 4, "A", 7.2, "dt_high", 1),
        net.BusPhase(5, 5, "A", 7.2, "dt_high", 1),
    ]
    frm = np.array([0, 0, 1, 3, 4, 2])
    to = np.array([1, 3, 2, 4, 5, 5])
    zmag = np.array([1.4e-4, 1.4e-4, 0.014, 0.014, 1.4e-4, 1.4e-4])
    closed = np.array([True, True, True, True, False, True])
    _, _, _, feeder = net.structural_annotations(bps, frm, to, zmag, closed)
    assert feeder[5] == 0 and feeder[4] == 1


def sample_mask(n, p, seed, hub=()):
    return net.fleet_mask(net.fleet_order(n, np.random.default_rng(seed),
                                          hub_indices=hub), p)


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
    bps, devices, *_ = toy_chain()
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


def test_effective_feeder_recorded_on_nodes():
    _, _, _, feeder = annotate()
    assert feeder[0] == net.HUB_FEEDER
    assert np.all(feeder[1:] == 0)


def test_feature_order_hash_is_stable():
    assert net.feature_order_hash() == net.feature_order_hash()
    assert len(net.feature_order_hash()) == 16
