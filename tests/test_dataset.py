"""Dataset assembly, npz round-trips, and byte-level determinism."""

import dataclasses
import io
import json
import zipfile
from collections import deque

import numpy as np
import pytest

from gridvolt import cli
from gridvolt import dataset as dsm
from gridvolt import model as gm
from gridvolt import network as net
from gridvolt import simulation as sim
from gridvolt.seeding import rng

from helpers import build_dataset

HORIZON = 12 * sim.TIMESTEP_MINUTES


def bfs_annotations_reference(graph, status):
    """Depth, electrical distance, degree and supplying feeder by a
    breadth-first search from the hub over the closed edges, independent of
    the solver's phase tree. The reference ``sim.structural_annotations``
    must equal in dtype and bytes."""
    bus_phases = graph.bus_phases
    n = len(bus_phases)
    sel = np.flatnonzero(status == 1)
    adj = [[] for _ in range(n)]
    for a, b, zmag in zip(graph.edge_from[sel].tolist(),
                          graph.edge_to[sel].tolist(),
                          graph.edge_zmag[sel].tolist()):
        adj[a].append((b, zmag))
        adj[b].append((a, zmag))
    degree = (np.bincount(graph.edge_from[sel], minlength=n)
              + np.bincount(graph.edge_to[sel], minlength=n)).astype(float)
    depth = np.full(n, -1.0)
    elec = np.zeros(n)
    feeder = np.full(n, net.HUB_FEEDER, dtype=int)
    queue = deque()
    for bp in bus_phases:
        if bp.bus_type == "substation_hub":
            depth[bp.id] = 0.0
            queue.append(bp.id)
    while queue:
        u = queue.popleft()
        for v, zmag in adj[u]:
            if depth[v] >= 0.0:
                continue
            if bus_phases[v].bus_type == "feeder_head":
                depth[v] = 0.0
                elec[v] = 0.0
                feeder[v] = bus_phases[v].feeder_id
            else:
                depth[v] = depth[u] + 1.0
                elec[v] = elec[u] + zmag
                feeder[v] = feeder[u]
            queue.append(v)
    assert np.all(depth >= 0.0), "a node is not energized from the hub"
    return depth, elec, degree, feeder


def step_state(run, t):
    """Step t of a run as the state its own solve returns."""
    return sim.SolvedState(
        run.graph, run.timestamp[t], run.s_injection[t],
        sim.Controls(*(a[t] for a in run.controls)), run.v[t],
        run.i_branch[t], run.v_mag[t], int(run.sweep_iterations[t]))


def as_run(state):
    """One solved step as a run of one step."""
    return sim.SolvedState(
        state.graph, np.array([state.timestamp]), state.s_injection[None],
        sim.Controls(*(a[None] for a in state.controls)), state.v[None],
        state.i_branch[None], state.v_mag[None],
        np.array([state.sweep_iterations]))


def v1_reference_arrays(run, spec, scenario):
    """The arrays of a ``snapshot-dataset/v1`` file: every feature row
    broadcast over time and patched per step, as that format stored them,
    with each step's flows and head powers derived from that step alone.
    The reference that every assembled v2 snapshot must equal bit for bit."""
    graph = run.graph
    states = [step_state(run, t) for t in range(len(run.v_mag))]
    flows = [sim.derive_flows(s) for s in states]

    def stack(values):
        return np.stack(list(values))

    def tap_row(state):
        tap = np.zeros(len(graph.edge_device))
        tap[graph.reg_edges] = state.controls.taps / sim.REG_MAX_TAP
        return tap

    v_true = stack(s.v_mag for s in states)
    status = stack(s.controls.status for s in states)
    edge_tap = stack(tap_row(s) for s in states)
    reg = np.flatnonzero(graph.edge_kind == "regulator")
    node_tap = np.zeros_like(v_true)
    node_tap[:, graph.edge_to[reg]] = np.where(status[:, reg] == 1,
                                               edge_tap[:, reg], 0.0)
    configs, which = np.unique(status, axis=0, return_inverse=True)
    which = which.reshape(-1)
    per_config = [bfs_annotations_reference(graph, c) for c in configs]
    depth, elec, degree, feeder = (np.stack(a)[which]
                                   for a in zip(*per_config))
    sw_closed = np.ones((len(configs), graph.n_nodes))
    k, e = np.nonzero((configs == 0) & (graph.edge_kind == "switch"))
    sw_closed[k, graph.edge_from[e]] = 0.0
    sw_closed[k, graph.edge_to[e]] = 0.0
    p_inj = stack(s.s_injection.real for s in states)
    rating = graph.serving_rating
    injection = np.divide(p_inj, rating, out=np.zeros_like(p_inj),
                          where=rating > 0)
    node_features = np.repeat(graph.node_features[None], len(states), axis=0)
    for name, column in (
            ("p_injection_pu", injection),
            ("tap", node_tap), ("sw_closed", sw_closed[which]),
            ("depth", depth), ("elec_dist", elec), ("degree", degree),
            ("m_obs", 1.0), ("m_obs_v_pu", v_true)):
        node_features[:, :, net.NODE_FEATURE_INDEX[name]] = column
    edge_features = np.repeat(graph.edge_features[None], len(states), axis=0)
    edge_features[:, :, net.EDGE_FEATURE_INDEX["status"]] = status
    edge_features[:, :, net.EDGE_FEATURE_INDEX["tap"]] = edge_tap
    if scenario.pseudo_noise_common or scenario.pseudo_noise_local:
        gen = rng(spec.seed, "pseudo-measurement", scenario.der_penetration,
                  scenario.horizon_minutes, scenario.tie_close_step,
                  *scenario.tie_closures)
        col = net.NODE_FEATURE_INDEX["p_injection_pu"]
        fid = feeder[0]
        n = graph.n_nodes
        for t in range(len(states)):
            factor = np.ones(n)
            for f in np.unique(fid):
                factor[fid == f] *= 1.0 + gen.normal(
                    0.0, scenario.pseudo_noise_common)
            factor *= 1.0 + gen.normal(0.0, scenario.pseudo_noise_local,
                                       size=n)
            node_features[t, :, col] *= np.clip(factor, 0.3, 1.7)
    fids = sorted(f.feeder_id for f in spec.feeders)
    heads = np.array([[dict(zip(graph.feeder_ids.tolist(), f.head))[k]
                       for k in fids] for f in flows], dtype=complex)
    s_sub = np.array([f.s_subxfmr for f in flows], dtype=complex)
    s_aux = np.array([spec.aux_load for _ in states], dtype=complex)
    bps = graph.bus_phases
    return dict(
        node_features=node_features, v_true=v_true,
        node_feeder=feeder.astype(np.int64),
        edge_from=graph.edge_from.astype(np.int64),
        edge_to=graph.edge_to.astype(np.int64), edge_features=edge_features,
        edge_p=stack(f.edge_p for f in flows),
        edge_q=stack(f.edge_q for f in flows),
        edge_phys=(status == 1) & graph.phys_device,
        timestamps=np.array([s.timestamp for s in states], dtype=float),
        feeder_ids=np.array(fids, dtype=np.int64),
        head_p=heads.real.copy(), head_q=heads.imag.copy(),
        s_subxfmr_re=s_sub.real.copy(), s_subxfmr_im=s_sub.imag.copy(),
        s_aux_re=s_aux.real.copy(), s_aux_im=s_aux.imag.copy(),
        bus_id=np.array([bp.bus_id for bp in bps], dtype=np.int64),
        phase_idx=np.array([net.PHASES.index(bp.phase) for bp in bps],
                           dtype=np.int64),
        bus_type_idx=np.array([net.BUS_TYPES.index(bp.bus_type)
                               for bp in bps], dtype=np.int64),
        kv_base=np.array([bp.kv_base for bp in bps]),
    )


def solved(spec, scenario):
    """A solved run and the dataset built from it."""
    run = sim.run_timeseries(spec, scenario)
    return run, dsm.dataset_from_states(spec, scenario, run,
                                        sim.derive_flows(run))


@pytest.fixture(scope="module")
def tiny_spec():
    return sim.generate_substation(21, "tiny")


@pytest.fixture(scope="module")
def ds(tiny_spec):
    return build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))


def test_shapes(ds):
    assert ds.n_snapshots == 12
    assert ds.n_nodes == 93
    snap = ds.snapshot(0)
    assert snap.node_x.shape == (93, net.N_NODE_FEATURES)
    assert snap.edge_z.shape == (ds.n_edges, net.N_EDGE_FEATURES)
    assert ds.arrays["edge_from"].shape == ds.arrays["edge_to"].shape


def test_snapshot_accessor_matches_solver(ds, tiny_spec):
    run = sim.run_timeseries(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))
    flows = sim.derive_flows(step_state(run, 5))
    snap = ds.snapshot(5)
    assert np.array_equal(snap.v_true, run.v_mag[5])
    obs_col = net.NODE_FEATURE_INDEX["m_obs"]
    v_col = net.NODE_FEATURE_INDEX["m_obs_v_pu"]
    assert np.all(snap.node_x[:, obs_col] == 1.0)
    assert snap.observed.all()
    assert np.array_equal(snap.node_x[:, v_col], run.v_mag[5])
    phys = (run.controls.status[5] == 1) & run.graph.phys_device
    assert np.array_equal(snap.phys_p, flows.edge_p[phys])
    assert np.array_equal(snap.phys_q, flows.edge_q[phys])
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
    rebuilt = build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=HORIZON, der_penetration=20))
    dsm.save_dataset(rebuilt, p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _assert_members_stored_as_npy(path, arrays):
    """Every member of ``path`` is stored, in sorted order, and holds
    exactly the bytes ``np.save`` writes for its array."""
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
        assert [i.filename for i in infos] == [f"{k}.npy"
                                               for k in sorted(arrays)]
        for info in infos:
            assert info.compress_type == zipfile.ZIP_STORED, info.filename
            expected = _npy_bytes(arrays[info.filename[:-len(".npy")]])
            assert zf.read(info) == expected, info.filename


def _repack_deflated(src, dst):
    """``src`` with every member deflated, as earlier versions wrote it."""
    with zipfile.ZipFile(src) as zin, \
            zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
        for info in zin.infolist():
            member = zipfile.ZipInfo(info.filename, date_time=info.date_time)
            member.compress_type = zipfile.ZIP_DEFLATED
            member.external_attr = info.external_attr
            zout.writestr(member, zin.read(info))
    with zipfile.ZipFile(dst) as zf:
        assert {i.compress_type for i in zf.infolist()} == {
            zipfile.ZIP_DEFLATED}


def test_dataset_members_are_stored_npy(ds, tmp_path):
    path = tmp_path / "ds.npz"
    dsm.save_dataset(ds, path)
    arrays = dict(ds.arrays)
    arrays["meta_json"] = np.array(json.dumps(ds.meta, sort_keys=True))
    _assert_members_stored_as_npy(path, arrays)


def test_checkpoint_members_are_stored_npy(tmp_path):
    params = gm.ModelParams.create(gm.ModelConfig(), [7, 8], seed=13)
    path = tmp_path / "model.npz"
    gm.save_checkpoint(params, path)
    arrays = {f"tensor/{k}": v.values for k, v in params.tensors.items()}
    with np.load(path) as data:
        arrays["meta_json"] = data["meta_json"]
    assert json.loads(str(arrays["meta_json"][()]))["format"] == \
        gm.CHECKPOINT_FORMAT
    _assert_members_stored_as_npy(path, arrays)


def test_deflated_files_of_earlier_versions_still_load(ds, tmp_path):
    stored, deflated = tmp_path / "ds.npz", tmp_path / "ds_deflated.npz"
    dsm.save_dataset(ds, stored)
    _repack_deflated(stored, deflated)
    loaded = dsm.load_dataset(deflated)
    assert loaded.meta == ds.meta
    assert set(loaded.arrays) == set(ds.arrays)
    for key, arr in ds.arrays.items():
        assert loaded.arrays[key].dtype == arr.dtype, key
        assert np.array_equal(loaded.arrays[key], arr), key

    params = gm.ModelParams.create(gm.ModelConfig(), [7, 8], seed=13)
    stored, deflated = tmp_path / "model.npz", tmp_path / "model_deflated.npz"
    gm.save_checkpoint(params, stored)
    _repack_deflated(stored, deflated)
    tuned = gm.load_checkpoint(deflated)
    assert tuned.config == params.config
    assert tuned.feeder_rows == params.feeder_rows
    assert set(tuned.tensors) == set(params.tensors)
    for name, tensor in params.tensors.items():
        assert tuned.tensors[name].values.tobytes() == \
            tensor.values.tobytes(), name


def test_members_past_the_zip64_limit_still_write_and_load(ds, tmp_path,
                                                           monkeypatch):
    """The size each member is opened with decides zip64: it must count the
    ``.npy`` header as well as the data. A 10-value float64 array is 80
    data bytes, under the limit by itself, but 208 bytes with its header."""
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 100)
    arrays = {"small": np.arange(10, dtype=np.float64)}
    assert arrays["small"].nbytes * 1.05 < zipfile.ZIP64_LIMIT
    path = tmp_path / "small.npz"
    dsm.write_npz(path, arrays)
    _assert_members_stored_as_npy(path, arrays)
    with np.load(path) as data:
        assert np.array_equal(data["small"], arrays["small"])

    path = tmp_path / "ds.npz"
    dsm.save_dataset(ds, path)
    loaded = dsm.load_dataset(path)
    for key, arr in ds.arrays.items():
        assert np.array_equal(loaded.arrays[key], arr), key


def test_feature_hash_guard(ds):
    meta = dict(ds.meta)
    meta["feature_order_hash"] = "0" * 16
    with pytest.raises(ValueError, match="feature order"):
        dsm.SnapshotDataset(meta, ds.arrays)


def test_effective_feeder_between_tie_states(tiny_spec):
    tie = tiny_spec.ties[0]
    closed = build_dataset(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=4 * sim.TIMESTEP_MINUTES, tie_closures=(0,),
        tie_close_step=2))
    graph = sim.build_graph(tiny_spec)
    nodes = [graph.node_of[(tie.transfer_bus, ph)] for ph in net.PHASES]
    feeder = np.stack([closed.snapshot(t).node_feeder for t in range(4)])
    assert np.all(feeder[:2, nodes] == tie.to_feeder)
    assert np.all(feeder[2:, nodes] == tie.from_feeder)


def test_masking_at_load_time(ds):
    snap = ds.snapshot(0)
    observed = net.fleet_mask(
        net.fleet_order(snap.node_x, np.random.default_rng(123)), 5)
    masked = snap.masked(observed).node_x
    obs_col = net.NODE_FEATURE_INDEX["m_obs"]
    v_col = net.NODE_FEATURE_INDEX["m_obs_v_pu"]
    assert masked[:, obs_col].sum() == observed.sum() == round(ds.n_nodes * 0.05)
    hidden = ~observed
    assert np.all(masked[hidden][:, v_col] == 0.0)
    assert np.all(masked[observed][:, v_col] == snap.v_true[observed])
    # the stored dataset is untouched
    assert np.all(ds.snapshot(0).node_x[:, obs_col] == 1.0)


def test_masked_copies_only_the_measurement_arrays(ds):
    snap = ds.snapshot(3)
    before = {f.name: getattr(snap, f.name).copy()
              for f in dataclasses.fields(snap)}
    observed = np.random.default_rng(8).random(ds.n_nodes) < 0.3
    masked = snap.masked(observed)
    for name, arr in before.items():
        # the source record is left as it was
        assert getattr(snap, name).tobytes() == arr.tobytes(), name
        if name in ("node_x", "observed"):
            assert getattr(masked, name) is not getattr(snap, name), name
        else:
            assert getattr(masked, name) is getattr(snap, name), name
    assert np.array_equal(masked.observed, observed)
    other = np.delete(np.arange(net.N_NODE_FEATURES),
                      [net.NODE_FEATURE_INDEX["m_obs"],
                       net.NODE_FEATURE_INDEX["m_obs_v_pu"]])
    assert masked.node_x[:, other].tobytes() == snap.node_x[:, other].tobytes()


def test_fully_observed_mask_is_the_stored_snapshot(ds):
    for i in (0, 7, ds.n_snapshots - 1):
        snap = ds.snapshot(i)
        full = snap.masked(np.ones(ds.n_nodes, dtype=bool))
        assert full.node_x.dtype == snap.node_x.dtype
        assert full.node_x.tobytes() == snap.node_x.tobytes()


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
    run = sim.run_timeseries(tiny_spec, cfg)
    flows = sim.derive_flows(run)
    run.v_mag[3, 5] = 0.4
    with pytest.raises(ValueError, match=r"^bus-phase 5: voltage 0.4 outside "
                                         r"\(0.5, 1.5\) at step 3$"):
        dsm.dataset_from_states(tiny_spec, cfg, run, flows)
    run.v_mag[3, 5] = 1.0
    assert run.graph.reg_edges[1] == np.flatnonzero(
        run.graph.edge_kind == "regulator")[1]
    run.controls.taps[7, 1] = -1.5 * sim.REG_MAX_TAP
    node = run.graph.edge_to[run.graph.reg_edges[1]]
    with pytest.raises(ValueError, match=rf"^bus-phase {node}: tap -1.5 "
                                         r"outside \[-1, 1\] at step 7$"):
        dsm.dataset_from_states(tiny_spec, cfg, run, flows)


def test_node_tap_follows_regulator_edges(tiny_spec):
    cfg = sim.ScenarioConfig(horizon_minutes=HORIZON)
    graph = sim.build_graph(tiny_spec)
    reg = graph.reg_edges[0]
    taps = np.zeros(len(graph.reg_edges), dtype=int)
    taps[0] = 4
    state = sim.solve_powerflow(
        tiny_spec, graph, sim._injections(tiny_spec, graph, cfg)[0],
        sim.Controls(graph.edge_normally_closed, taps))
    run = as_run(state)
    snap = dsm.dataset_from_states(tiny_spec, cfg, run,
                                   sim.derive_flows(run)).snapshot(0)
    tap = snap.node_x[:, net.NODE_FEATURE_INDEX["tap"]]
    edge_tap = snap.edge_z[:, net.EDGE_FEATURE_INDEX["tap"]]
    assert tap[graph.edge_to[reg]] == edge_tap[reg] == 0.25
    assert np.count_nonzero(tap) == np.count_nonzero(edge_tap) == 1
    assert np.all(tap[graph.hub_node_ids] == 0.0)


# -- structural annotations against a breadth-first search --------------------


def tie_configurations(spec, graph):
    """Edge status with every tie open, then with each tie closed alone
    (its sectionalizer opened)."""
    yield graph.edge_normally_closed.copy()
    for tie in spec.ties:
        status = graph.edge_normally_closed.copy()
        status[graph.edge_device == tie.device_uid] = 1
        status[graph.edge_device == tie.sectionalizer_uid] = 0
        yield status


@pytest.mark.parametrize("size,seeds", [("tiny", range(30)),
                                        ("medium", range(100, 104))])
def test_structural_annotations_equal_the_bfs_reference(size, seeds):
    for seed in seeds:
        spec = sim.generate_substation(seed, size)
        graph = sim.build_graph(spec)
        for k, status in enumerate(tie_configurations(spec, graph)):
            got = sim.structural_annotations(graph, status)
            want = bfs_annotations_reference(graph, status)
            for name, g, w in zip(("depth", "elec", "degree", "feeder"),
                                  got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), \
                    (seed, k, name)


def test_dataset_builds_no_second_tree(tiny_spec, monkeypatch):
    built = []
    real = sim._phase_trees

    def counted(graph, status):
        built.append(status.tobytes())
        return real(graph, status)

    monkeypatch.setattr(sim, "_phase_trees", counted)
    run = sim.run_timeseries(tiny_spec, TIE_AT_2)
    assert len(built) == 2         # the run crossed the tie closing
    data = dsm.dataset_from_states(tiny_spec, TIE_AT_2, run,
                                   sim.derive_flows(run))
    assert len(built) == 2
    assert len(data.arrays["config_status"]) == 2


# -- the factored layout against the v1 broadcast ----------------------------


def assert_rows_equal_v1(data, ref):
    """Every assembled snapshot equals the v1 rows bit for bit, and the
    per-snapshot sums no snapshot assembles equal the v1 arrays."""
    assert data.n_snapshots == len(ref["v_true"])
    for i in range(data.n_snapshots):
        snap = data.snapshot(i)
        phys = ref["edge_phys"][i]
        want = {"node_x": ref["node_features"][i], "v_true": ref["v_true"][i],
                "node_feeder": ref["node_feeder"][i],
                "edge_z": ref["edge_features"][i],
                "phys_from": ref["edge_from"][phys],
                "phys_to": ref["edge_to"][phys],
                "phys_p": ref["edge_p"][i][phys],
                "phys_q": ref["edge_q"][i][phys]}
        for key, w in want.items():
            got = getattr(snap, key)
            assert got.dtype == w.dtype and np.array_equal(got, w), (key, i)
            assert got.tobytes() == w.tobytes(), (key, i)
    for key in ("timestamps", "feeder_ids", "head_p", "head_q",
                "s_subxfmr_re", "s_subxfmr_im", "s_aux_re", "s_aux_im"):
        assert data.arrays[key].tobytes() == ref[key].tobytes(), key


TIE_AT_2 = sim.ScenarioConfig(horizon_minutes=HORIZON, der_penetration=20,
                              tie_closures=(0,), tie_close_step=2)


@pytest.mark.parametrize("scenario", [
    TIE_AT_2,
    # 40 steps: the closing falls inside derive_flows' second block
    dataclasses.replace(TIE_AT_2, horizon_minutes=40 * sim.TIMESTEP_MINUTES,
                        tie_close_step=20)])
def test_run_derivation_equals_each_step_alone(tiny_spec, scenario,
                                               monkeypatch):
    """A run that crosses a tie closing holds each step's solve as it
    returned it, and derive_flows over the run, one block of steps of one
    switch configuration at a time, equals derive_flows of each step's own
    state in every row of every array, byte for byte (a -0.0 against a 0.0
    counts)."""
    solve = sim.solve_powerflow
    steps = []

    def kept(*args, **kwargs):
        steps.append(solve(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(sim, "solve_powerflow", kept)
    run = sim.run_timeseries(tiny_spec, scenario)
    n = scenario.horizon_minutes // sim.TIMESTEP_MINUTES
    close = scenario.tie_close_step
    configs, which = sim.group_rows(run.controls.status)
    assert len(configs) == 2 and which[0] != which[-1]
    assert len(set(which[:close])) == len(set(which[close:])) == 1
    assert len(steps) == len(run.v_mag) == n
    flows = sim.derive_flows(run)
    for t, state in enumerate(steps):
        alone = step_state(run, t)
        for name in ("timestamp", "s_injection", "v", "i_branch", "v_mag",
                     "sweep_iterations"):
            assert (np.asarray(getattr(alone, name)).tobytes()
                    == np.asarray(getattr(state, name)).tobytes()), (name, t)
        for got, want in zip(alone.controls, state.controls):
            assert got.tobytes() == want.tobytes(), t
        for name, got, want in zip(sim.Flows._fields, flows,
                                   sim.derive_flows(state)):
            assert got[t].tobytes() == want.tobytes(), (name, t)


def test_v2_rows_equal_v1_on_tiny_open(tiny_spec):
    scenario = sim.ScenarioConfig(horizon_minutes=HORIZON, der_penetration=20)
    run, data = solved(tiny_spec, scenario)
    assert len(data.arrays["config_status"]) == 1
    assert_rows_equal_v1(data, v1_reference_arrays(run, tiny_spec,
                                                   scenario))


def test_v2_rows_equal_v1_across_a_tie_closing(tiny_spec):
    run, data = solved(tiny_spec, TIE_AT_2)
    assert len(data.arrays["config_status"]) == 2
    ref = v1_reference_arrays(run, tiny_spec, TIE_AT_2)
    assert_rows_equal_v1(data, ref)


def test_v2_rows_equal_v1_on_medium_with_ties_closed():
    spec = sim.generate_substation(101, "medium")
    scenario = sim.ScenarioConfig(horizon_minutes=1440, der_penetration=20,
                                  tie_closures=tuple(range(len(spec.ties))))
    run, data = solved(spec, scenario)
    assert_rows_equal_v1(data, v1_reference_arrays(run, spec, scenario))


@pytest.mark.parametrize("rows", [
    [[1, 0, 1]] * 4,
    [[1, 1, 0], [1, 0, 1], [1, 0, 1], [1, 1, 0], [1, 0, 1]],
    [[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0],
     [-1, 2, 0, 0], [1, 0, 1, 0], [1, 0, 0, 9]],
])
def test_configuration_grouping_equals_unique_rows(rows):
    """group_rows gives np.unique(axis=0, return_inverse=True)'s sorted
    distinct rows and inverse on stacks of 1, 2 and 5 distinct rows given
    out of order, in the rows' dtype."""
    status = np.array(rows, dtype=np.int64)
    configs, which = sim.group_rows(status)
    expected, inverse = np.unique(status, axis=0, return_inverse=True)
    assert configs.dtype == status.dtype
    assert configs.shape == expected.shape
    assert configs.tobytes() == expected.tobytes()
    assert which.tolist() == inverse.reshape(-1).tolist()
    assert configs[which].tobytes() == status.tobytes()


def test_configuration_grouping_of_a_run_with_a_tie_closing(tiny_spec):
    """Two switch configurations over a run, the tied one first in sort
    order, group as np.unique groups them."""
    scenario = sim.ScenarioConfig(horizon_minutes=HORIZON, der_penetration=20,
                                  tie_closures=(0,), tie_close_step=5)
    status = sim.run_timeseries(tiny_spec, scenario).controls.status
    configs, which = sim.group_rows(status)
    expected, inverse = np.unique(status, axis=0, return_inverse=True)
    assert which.tolist() == [1] * 5 + [0] * 7
    assert configs.tobytes() == expected.tobytes()
    assert which.tolist() == inverse.reshape(-1).tolist()


def test_v1_files_are_refused(ds, tiny_spec, tmp_path, capsys):
    scenario = sim.ScenarioConfig(horizon_minutes=HORIZON, der_penetration=20)
    run = sim.run_timeseries(tiny_spec, scenario)
    arrays = v1_reference_arrays(run, tiny_spec, scenario)
    meta = {"format": "snapshot-dataset/v1",
            "feature_order_hash": net.feature_order_hash(),
            "substation": tiny_spec.name,
            "scenarios": [dsm.scenario_to_dict(scenario)],
            "n_snapshots": len(run.v_mag)}
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    path = tmp_path / "old.npz"
    dsm.write_npz(path, arrays)
    with pytest.raises(ValueError, match="snapshot-dataset/v1") as exc:
        dsm.load_dataset(path)
    assert "snapshot-dataset/v2" in str(exc.value)
    assert "regenerate" in str(exc.value)

    rc = cli.dispatch(["train", "--data", str(path),
                       "--out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("ERROR data:")
    assert "snapshot-dataset/v1" in err
