"""Dataset assembly, npz round-trips, and byte-level determinism."""

import numpy as np
import pytest

from gridvolt import dataset as dsm
from gridvolt import network as net
from gridvolt import simulation as sim

HORIZON = 12 * sim.TIMESTEP_MINUTES


@pytest.fixture(scope="module")
def tiny_spec():
    return sim.generate_substation(21, "tiny")


@pytest.fixture(scope="module")
def ds(tiny_spec):
    return dsm.build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))


def test_shapes(ds):
    assert ds.n_snapshots == 12
    assert ds.n_nodes == 93
    assert ds.arrays["node_features"].shape == (12, 93, net.N_NODE_FEATURES)
    assert ds.arrays["edge_features"].shape[2] == net.N_EDGE_FEATURES
    assert ds.arrays["edge_from"].shape == ds.arrays["edge_to"].shape


def test_snapshot_accessor_matches_solver(ds, tiny_spec):
    states = sim.run_timeseries(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))
    view = ds.snapshot(5)
    assert np.array_equal(view.v_true, states[5].v_mag)
    obs_col = net.NODE_FEATURE_INDEX["m_obs"]
    v_col = net.NODE_FEATURE_INDEX["m_obs_v_pu"]
    assert np.all(view.node_features[:, obs_col] == 1.0)
    assert np.array_equal(view.node_features[:, v_col], states[5].v_mag)
    assert view.s_subxfmr == states[5].s_subxfmr
    with pytest.raises(IndexError):
        ds.snapshot(12)


def test_roundtrip_exact(ds, tmp_path):
    path = tmp_path / "ds.npz"
    dsm.save_dataset(ds, path)
    loaded = dsm.load_dataset(path)
    assert loaded.meta == ds.meta
    for key, arr in ds.arrays.items():
        assert np.array_equal(loaded.arrays[key], arr), key


def test_written_bytes_are_deterministic(ds, tiny_spec, tmp_path):
    p1, p2, p3 = (tmp_path / n for n in ("a.npz", "b.npz", "c.npz"))
    dsm.save_dataset(ds, p1)
    dsm.save_dataset(ds, p2)
    rebuilt = dsm.build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))
    dsm.save_dataset(rebuilt, p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_feature_hash_guard(ds):
    meta = dict(ds.meta)
    meta["feature_order_hash"] = "0" * 16
    with pytest.raises(ValueError, match="feature order"):
        dsm.SnapshotDataset(meta, ds.arrays)


def test_subset(ds):
    sub = ds.subset(3)
    assert sub.n_snapshots == 3
    assert np.array_equal(sub.arrays["v_true"], ds.arrays["v_true"][:3])
    assert sub.arrays["edge_from"] is ds.arrays["edge_from"]
    with pytest.raises(ValueError):
        ds.subset(0)
    with pytest.raises(ValueError):
        ds.subset(13)


def test_concatenate(ds, tiny_spec):
    other = dsm.build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=0))
    joined = dsm.concatenate([ds, other])
    assert joined.n_snapshots == 24
    assert len(joined.meta["scenarios"]) == 2
    assert np.array_equal(joined.arrays["v_true"][:12], ds.arrays["v_true"])

    foreign = dsm.build_dataset(sim.generate_substation(22, "tiny"),
                                sim.ScenarioConfig(horizon_minutes=HORIZON))
    with pytest.raises(ValueError, match="different substations"):
        dsm.concatenate([ds, foreign])


def test_bus_phase_reconstruction(ds, tiny_spec):
    graph = sim.build_graph(tiny_spec)
    rebuilt = ds.bus_phases()
    for original, copy_ in zip(graph.bus_phases, rebuilt):
        assert original == copy_


def test_effective_feeder_between_tie_states(tiny_spec):
    tie = tiny_spec.ties[0]
    closed = dsm.build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=4 * sim.TIMESTEP_MINUTES, tie_closures=(0,),
        tie_close_step=2))
    graph = sim.build_graph(tiny_spec)
    nodes = [graph.node_of[(tie.transfer_bus, ph)] for ph in net.PHASES]
    assert np.all(closed.arrays["node_feeder"][:2, nodes] == tie.to_feeder)
    assert np.all(closed.arrays["node_feeder"][2:, nodes] == tie.from_feeder)


def test_masking_at_load_time(ds):
    view = ds.snapshot(0)
    observed = net.fleet_mask(
        net.fleet_order(ds.n_nodes, np.random.default_rng(123)), 5)
    masked = net.apply_mask_to_features(view.node_features, view.v_true,
                                        observed)
    obs_col = net.NODE_FEATURE_INDEX["m_obs"]
    v_col = net.NODE_FEATURE_INDEX["m_obs_v_pu"]
    assert masked[:, obs_col].sum() == observed.sum() == round(ds.n_nodes * 0.05)
    hidden = ~observed
    assert np.all(masked[hidden][:, v_col] == 0.0)
    assert np.all(masked[observed][:, v_col] == view.v_true[observed])
    # the stored dataset is untouched
    assert np.all(view.node_features[:, obs_col] == 1.0)


@pytest.mark.parametrize("n", [2, 13, 96, 192, 2000])
@pytest.mark.parametrize("test_fraction", [0.1, 0.5])
def test_split_windows_are_ordered_disjoint_and_keep_the_eval_tail(
        n, test_fraction):
    # the evaluation tail as evaluate has always cut it
    n_tail = max(1, int(round(n * test_fraction)))
    tail = range(n - n_tail, n)
    for val_fraction in (0.0, 0.1):
        if n < 13 and val_fraction:
            continue  # too short for three windows; see the next test
        train, val, test = dsm.split_windows(n, val_fraction, test_fraction)
        assert test == tail
        assert list(train) + list(val) + list(test) == list(range(n))
        assert len(train) >= 1
        assert len(val) == (max(1, round(n * val_fraction))
                            if val_fraction else 0)


def test_split_windows_reject_too_short_series():
    for n, val_fraction in ((2, 0.1), (1, 0.0), (0, 0.1), (10, 0.9)):
        with pytest.raises(ValueError, match="validation split"):
            dsm.split_windows(n, val_fraction, 0.1)
    with pytest.raises(ValueError, match="fractions"):
        dsm.split_windows(100, 0.1, 1.0)


def test_out_of_range_values_name_bus_phase_and_step(tiny_spec):
    cfg = sim.ScenarioConfig(horizon_minutes=HORIZON, der_penetration=20)
    states = sim.run_timeseries(tiny_spec, cfg)
    states[3].v_mag[5] = 0.4
    with pytest.raises(ValueError, match=r"^bus-phase 5: voltage 0.4 outside "
                                         r"\(0.5, 1.5\) at step 3$"):
        dsm.dataset_from_states(tiny_spec, cfg, states)
    states[3].v_mag[5] = 1.0
    reg = np.flatnonzero(states[0].graph.edge_kind == "regulator")[1]
    states[7].edge_tap[reg] = -1.5
    node = states[0].graph.edge_to[reg]
    with pytest.raises(ValueError, match=rf"^bus-phase {node}: tap -1.5 "
                                         r"outside \[-1, 1\] at step 7$"):
        dsm.dataset_from_states(tiny_spec, cfg, states)


def test_node_tap_follows_regulator_edges(tiny_spec):
    cfg = sim.ScenarioConfig(horizon_minutes=HORIZON)
    graph = sim.build_graph(tiny_spec)
    reg = np.flatnonzero(graph.edge_kind == "regulator")[0]
    uid = int(graph.edge_device[reg])
    state = sim.solve_timestep(tiny_spec, 0, cfg, sim.Controls(
        taps={(uid, graph.edge_phase[reg]): 4}))
    data = dsm.dataset_from_states(tiny_spec, cfg, [state])
    tap = data.arrays["node_features"][0, :, net.NODE_FEATURE_INDEX["tap"]]
    edge_tap = data.arrays["edge_features"][0, :, net.EDGE_FEATURE_INDEX["tap"]]
    assert tap[graph.edge_to[reg]] == edge_tap[reg] == 0.25
    assert np.count_nonzero(tap) == np.count_nonzero(edge_tap) == 1
    assert np.all(tap[graph.hub_node_ids] == 0.0)
