"""Solver oracles, generation contracts, and scenario behavior.

The two-bus network has a closed form: with sending voltage v1, series
impedance r + jx and receiving load p + jq (consumption positive), the
squared receiving magnitude y = |V2|^2 is the larger root of

    y^2 + y*(2*(r*p + x*q) - v1^2) + (r^2 + x^2)*(p^2 + q^2) = 0.

That root is computed here directly from the quadratic formula and frozen
as the oracle for the sweep solver.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from gridvolt import dataset as dsm
from gridvolt import network as net
from gridvolt import simulation as sim

from helpers import build_dataset


def closed_form_v2(r, x, p, q, v1=1.0):
    b = 2.0 * (r * p + x * q) - v1 * v1
    c = (r * r + x * x) * (p * p + q * q)
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ValueError("no real solution for this loading")
    y = (-b + math.sqrt(disc)) / 2.0
    return math.sqrt(y)


def two_bus_spec(r=0.01, x=0.02, setpoint=1.0, load_peak=None):
    hub = sim.BusSpec(0, 7.2, "substation_hub", ("A",), net.HUB_FEEDER, 2.0)
    head = sim.BusSpec(1, 7.2, "feeder_head", ("A",), 5, 2.0)
    link = sim.DeviceSpec(0, 0, 1, "line", ("A",), r, x, 1.0, 2.0)
    loads = []
    if load_peak is not None:
        loads.append(sim.LoadSpec(1, "A", sim.ProfileSpec(
            kind="load", peak_pu=load_peak, peak_hour=18.0, pf=0.95,
            noise_seed=11)))
    feeder = sim.FeederSpec(5, 1, [head], [], loads, [], [])
    return sim.SubstationSpec(
        seed=0, size_class="tiny", hub_bus=hub, hub_kv=7.2,
        feeders=[feeder], hub_links=[link], ties=[], tie_devices=[],
        xfmr_rating_pu=2.0, feeder_rating_pu=2.0, aux_load=0j,
        ltc_setpoint=setpoint)


def normal_controls(graph):
    """Every switch in its normal state and every tap at step 0."""
    return sim.Controls(graph.edge_normally_closed.copy(),
                        np.zeros(len(graph.reg_edges), dtype=int))


def solve_two_bus(r, x, p, q, setpoint=1.0):
    spec = two_bus_spec(r, x, setpoint)
    graph = sim.build_graph(spec)
    s = np.zeros(graph.n_nodes, dtype=complex)
    s[graph.node_of[(1, "A")]] = complex(p, q)
    state = sim.solve_powerflow(spec, graph, s, normal_controls(graph))
    return state, graph


def test_two_bus_no_load_is_exact():
    state, graph = solve_two_bus(0.01, 0.02, 0.0, 0.0)
    assert state.v_mag[graph.node_of[(1, "A")]] == 1.0


def test_two_bus_matches_closed_form():
    state, graph = solve_two_bus(0.01, 0.02, 0.5, 0.2)
    v = state.v_mag[graph.node_of[(1, "A")]]
    assert abs(v - closed_form_v2(0.01, 0.02, 0.5, 0.2)) < 1e-10
    assert state.sweep_iterations < 100


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(1e-4, 0.05),
    x=st.floats(1e-4, 0.08),
    p=st.floats(0.0, 0.8),
    q=st.floats(0.0, 0.4),
)
def test_two_bus_closed_form_property(r, x, p, q):
    b = 2.0 * (r * p + x * q) - 1.0
    disc = b * b - 4.0 * (r * r + x * x) * (p * p + q * q)
    assume(disc > 1e-3)
    expected = closed_form_v2(r, x, p, q)
    assume(expected > 0.7)
    state, graph = solve_two_bus(r, x, p, q)
    assert abs(state.v_mag[graph.node_of[(1, "A")]] - expected) < 1e-9


def test_two_bus_flows_and_head_power():
    state, graph = solve_two_bus(0.01, 0.02, 0.5, 0.2)
    flows = sim.derive_flows(state)
    s_send = complex(flows.edge_p[0], flows.edge_q[0])
    loss = complex(0.01, 0.02) * flows.edge_i_mag[0] ** 2
    assert abs(s_send - loss - complex(0.5, 0.2)) < 1e-9
    assert graph.feeder_ids.tolist() == [5]
    assert abs(flows.head[0] - s_send) < 1e-12
    assert flows.s_subxfmr == flows.head[0] + graph.aux_load


def test_nonconvergence_raises_with_residual():
    with np.errstate(all="ignore"):
        with pytest.raises(sim.PowerFlowError) as exc_info:
            solve_two_bus(0.01, 0.0, 40.0, 0.0)
    assert "did not converge" in str(exc_info.value)


def test_timeseries_tags_failing_step():
    spec = two_bus_spec(0.01, 0.0, load_peak=300.0)
    with np.errstate(all="ignore"):
        with pytest.raises(sim.PowerFlowError, match="timestep 0"):
            sim.run_timeseries(spec, sim.ScenarioConfig(horizon_minutes=60))


# ---------------------------------------------------------------------------
# generated substations


@pytest.fixture(scope="module")
def tiny_spec():
    return sim.generate_substation(7, "tiny")


@pytest.fixture(scope="module")
def tiny_day(tiny_spec):
    return sim.run_timeseries(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=1440, der_penetration=20))


@pytest.fixture(scope="module")
def tiny_day_flows(tiny_day):
    return sim.derive_flows(tiny_day)


def test_generation_is_deterministic(tiny_spec):
    again = sim.generate_substation(7, "tiny")
    assert again == tiny_spec
    other = sim.generate_substation(8, "tiny")
    assert other != tiny_spec


def test_generation_validation():
    with pytest.raises(ValueError, match="size_class"):
        sim.generate_substation(1, "huge")
    with pytest.raises(ValueError, match="n_feeders"):
        sim.generate_substation(1, "tiny", n_feeders=1)
    with pytest.raises(ValueError, match="n_feeders"):
        sim.generate_substation(1, "tiny", n_feeders=7)


@pytest.mark.parametrize("size_class,per_feeder", [
    ("tiny", 30), ("small", 80), ("medium", 200)])
def test_size_classes_hit_bus_phase_targets(size_class, per_feeder):
    spec = sim.generate_substation(3, size_class)
    graph = sim.build_graph(spec)
    for f in spec.feeders:
        count = sum(1 for bp in graph.bus_phases if bp.feeder_id == f.feeder_id)
        assert count == per_feeder
    assert graph.n_nodes == 3 + 3 * per_feeder


def lv_strings(spec):
    """(feeder, transformer, [segments from dt_low outward]) for every LV
    string of the substation."""
    for f in spec.feeders:
        below = {d.from_bus: d for d in f.devices if d.device == "line"}
        for xfmr in (d for d in f.devices if d.device == "transformer"):
            segments, bus = [], xfmr.to_bus
            while bus in below:
                segments.append(below[bus])
                bus = below[bus].to_bus
            yield f, xfmr, segments


@pytest.mark.parametrize("size_class,n_feeders", [
    ("tiny", 3), ("small", 2), ("medium", 6)])
def test_lv_side_sized_to_hold_the_band(size_class, n_feeders):
    """Transformers carry 1.75-2.6 % on their own rating, LV segments are
    rated 1.25x the peak they carry, and with every load at its 1.2x profile
    clip the linearized drop r*P + x*Q from dt_high to the end of each LV
    string stays below 0.038 p.u."""
    for seed in range(5):
        spec = sim.generate_substation(seed, size_class, n_feeders)
        for f, xfmr, segments in lv_strings(spec):
            assert 0.0175 - 1e-12 <= abs(complex(xfmr.r_pu, xfmr.x_pu)) \
                * xfmr.rating_pu <= 0.026 + 1e-12
            load = {l.bus_id: l.profile for l in f.loads}
            clip = [1.2 * load[s.to_bus].peak_pu
                    * complex(1.0, math.tan(math.acos(load[s.to_bus].pf)))
                    for s in segments]
            carried = np.cumsum(clip[::-1])[::-1]
            drop = 0.0
            for dev, s in zip([xfmr] + segments, [carried[0], *carried]):
                drop += dev.r_pu * s.real + dev.x_pu * s.imag
            for seg, s in zip(segments, carried):
                assert seg.rating_pu == pytest.approx(1.25 * s.real / 1.2)
            assert drop < 0.038, f"seed {seed} transformer {xfmr.uid}"


def test_feeders_are_radial_before_ties(tiny_spec):
    for f in tiny_spec.feeders:
        assert len(f.devices) == len(f.buses) - 1


def test_tie_endpoints_on_distinct_feeders(tiny_spec):
    feeder_of_bus = {b.bus_id: b.feeder_id
                     for f in tiny_spec.feeders for b in f.buses}
    for tie_dev in tiny_spec.tie_devices:
        assert not tie_dev.normally_closed
        assert feeder_of_bus[tie_dev.from_bus] != feeder_of_bus[tie_dev.to_bus]
    for tie in tiny_spec.ties:
        assert feeder_of_bus[tie.transfer_bus] == tie.to_feeder


def test_spec_file_holds_every_field_and_the_format_tag(tiny_spec, tmp_path):
    path = tmp_path / "spec.json"
    sim.save_spec(tiny_spec, path)
    data = json.loads(path.read_text())
    assert data.pop("format") == "substation-spec/v1"
    assert data.pop("aux_load") == [tiny_spec.aux_load.real,
                                    tiny_spec.aux_load.imag]
    fields = dataclasses.asdict(tiny_spec)
    del fields["aux_load"]
    assert data == json.loads(json.dumps(fields))


def assert_spec_file_is_the_encoder_output(spec, path):
    """save_spec writes what json.dumps(sort_keys=True) of the asdict form
    writes, byte for byte, so spec hashes stay put."""
    data = dataclasses.asdict(spec)
    data["format"] = "substation-spec/v1"
    data["aux_load"] = [spec.aux_load.real, spec.aux_load.imag]
    sim.save_spec(spec, path)
    assert path.read_bytes() == json.dumps(data, sort_keys=True).encode()


@pytest.mark.parametrize("seed,size,n_feeders", [
    pytest.param(7, "tiny", 3, id="7-tiny"),
    pytest.param(101, "medium", 3, id="101-medium"),
    pytest.param(50, "small", 6, id="50-small-6")])
def test_spec_file_bytes_are_the_indented_json_encoder_output(
        seed, size, n_feeders, tmp_path):
    spec = sim.generate_substation(seed, size, n_feeders)
    assert spec.ties and spec.tie_devices
    assert_spec_file_is_the_encoder_output(spec, tmp_path / "spec.json")


def test_spec_file_bytes_with_empty_lists_and_flags(tmp_path):
    """A hand-built spec with empty list fields (no ties, no feeder
    devices, DER or capacitors), an open switch, a capacitor switched off
    and a negative zero is written as the encoder writes its asdict
    form."""
    spec = two_bus_spec(load_peak=0.02)
    assert spec.ties == [] and spec.feeders[0].ders == []
    spec.hub_links[0].normally_closed = False
    spec.feeders[0].capacitors.append(sim.CapacitorSpec(1, -0.0, on=False))
    assert_spec_file_is_the_encoder_output(spec, tmp_path / "spec.json")


def test_spec_file_refuses_a_numpy_integer(tmp_path):
    """A field holding an np.int64, which JSON cannot hold, raises
    TypeError rather than being written as something else."""
    spec = two_bus_spec(load_peak=0.02)
    spec.feeders[0].feeder_id = np.int64(5)
    with pytest.raises(TypeError):
        sim.save_spec(spec, tmp_path / "spec.json")


# ---------------------------------------------------------------------------
# time-series physics


def test_horizon_snapshot_count(tiny_spec):
    run = sim.run_timeseries(tiny_spec, sim.ScenarioConfig(horizon_minutes=500))
    steps = [run.timestamp, run.s_injection, *run.controls, run.v,
             run.i_branch, run.v_mag, run.sweep_iterations]
    assert [len(a) for a in steps] == [33] * len(steps)
    assert run.timestamp.tolist() == [15.0 * t for t in range(33)]


def test_scenario_validation():
    with pytest.raises(ValueError, match="der_penetration"):
        sim.ScenarioConfig(der_penetration=15)
    with pytest.raises(ValueError, match="horizon"):
        sim.ScenarioConfig(horizon_minutes=10)


def test_conservation_is_exact_over_a_day(tiny_day, tiny_day_flows):
    assert tiny_day_flows.residual.shape == tiny_day.v_mag.shape
    assert tiny_day_flows.residual.max() < 1e-10
    assert tiny_day.sweep_iterations.max() < 100


def test_hub_balance_identity(tiny_day, tiny_day_flows):
    g, flows = tiny_day.graph, tiny_day_flows
    for t in range(0, len(tiny_day.v_mag), 7):
        total = sum(flows.head[t]) + g.aux_load
        assert total == flows.s_subxfmr[t]
        injections = np.sum(tiny_day.s_injection[t])
        closed = tiny_day.controls.status[t] == 1
        losses = np.sum(g.edge_impedance[closed]
                        * flows.edge_i_mag[t, closed] ** 2)
        expected = injections + losses + g.aux_load
        assert abs(flows.s_subxfmr[t] - expected) < 1e-9


def test_conservation_on_medium_substation():
    spec = sim.generate_substation(11, "medium")
    graph = sim.build_graph(spec)
    assert graph.n_nodes == 603
    run = sim.run_timeseries(spec, sim.ScenarioConfig(
        horizon_minutes=4 * sim.TIMESTEP_MINUTES, der_penetration=20))
    assert sim.derive_flows(run).residual.max() < 1e-9


def test_squared_voltage_drop_identity(tiny_day, tiny_day_flows):
    """On every active unity-ratio edge, the squared-magnitude drop minus
    2(R*P + X*Q) equals the quadratic loss term -(|z| |I|)^2 exactly."""
    g, flows = tiny_day.graph, tiny_day_flows
    for t in (20, 50, 90):
        e = np.flatnonzero((tiny_day.controls.status[t] == 1)
                           & (g.edge_kind != "regulator"))
        v, z = tiny_day.v_mag[t], g.edge_impedance[e]
        gap = (v[g.edge_from[e]] ** 2 - v[g.edge_to[e]] ** 2
               - 2.0 * (z.real * flows.edge_p[t, e]
                        + z.imag * flows.edge_q[t, e]))
        quad = (z.real ** 2 + z.imag ** 2) * flows.edge_i_mag[t, e] ** 2
        assert np.max(np.abs(gap + quad)) < 1e-9
        assert len(e) > 50


def test_physics_edge_set_membership(tiny_spec, tiny_day, tiny_day_flows):
    data = dsm.dataset_from_states(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=1440, der_penetration=20), tiny_day, tiny_day_flows)
    kind = tiny_day.graph.edge_kind
    for t in (0, 40):
        expected = (tiny_day.controls.status[t] == 1) & np.isin(
            kind, ("line", "cable", "switch"))
        snap = data.snapshot(t)
        assert np.array_equal(snap.phys_from, snap.edge_from[expected])
        assert np.array_equal(snap.phys_to, snap.edge_to[expected])


def test_branch_flows_stay_light_on_tiny(tiny_day_flows):
    flows = tiny_day_flows
    assert np.max(np.hypot(flows.edge_p, flows.edge_q)) < 0.3


def test_voltage_band_and_variability(tiny_day, tiny_day_flows):
    v = tiny_day.v_mag
    bus_phases = tiny_day.graph.bus_phases

    def where(t, node):
        bp = bus_phases[node]
        return (f"{bp.bus_type} node {node} (bus {bp.bus_id} phase {bp.phase}) "
                f"at step {t}: {v[t, node]:.4f} p.u.")

    def swing(node):
        """The node's widest excursion from its daily mean."""
        t = int(np.argmax(np.abs(v[:, node] - v[:, node].mean())))
        return where(t, node)

    lo, hi = sim.VOLTAGE_BAND
    t, node = np.unravel_index(np.argmin(v), v.shape)
    assert v.min() > lo, f"below the band: {where(t, node)}"
    t, node = np.unravel_index(np.argmax(v), v.shape)
    assert v.max() < hi, f"above the band: {where(t, node)}"
    assert sim.solver_health(tiny_day, tiny_day_flows)["in_band"]
    lv_nodes = np.array([bp.id for bp in bus_phases if bp.bus_type == "lv_node"])
    per_node_std = v[:, lv_nodes].std(axis=0)
    stiffest = lv_nodes[np.argmin(per_node_std)]
    assert np.median(per_node_std) > 5e-4, (
        f"LV voltages barely vary: median std {np.median(per_node_std):.2e}; "
        f"least varying {swing(stiffest)}, std {per_node_std.min():.2e}")
    loosest = lv_nodes[np.argmax(per_node_std)]
    assert per_node_std.max() < 0.03, (
        f"LV voltage swings too far: {swing(loosest)}, "
        f"std {per_node_std.max():.2e}")


def test_monotone_drop_without_der(tiny_spec):
    spec = copy.deepcopy(tiny_spec)
    for f in spec.feeders:
        for c in f.capacitors:
            c.on = False
    run = sim.run_timeseries(spec, sim.ScenarioConfig(
        horizon_minutes=1440, der_penetration=0))
    t = 72  # evening peak
    g = run.graph
    e = np.flatnonzero((run.controls.status[t] == 1)
                       & (g.edge_kind != "regulator"))
    reverse = sim.derive_flows(run).edge_p[t, e] < 0
    upstream = np.where(reverse, g.edge_to[e], g.edge_from[e])
    downstream = np.where(reverse, g.edge_from[e], g.edge_to[e])
    v = run.v_mag[t]
    assert np.all(v[downstream] <= v[upstream] + 1e-9)


def test_der_raises_downstream_voltage(tiny_spec):
    base = sim.run_timeseries(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=1440, der_penetration=0))
    high = sim.run_timeseries(tiny_spec, sim.ScenarioConfig(
        horizon_minutes=1440, der_penetration=40))
    noon = 50
    assert base.s_injection[noon].real.min() >= 0.0
    assert high.s_injection[noon].real.min() < 0.0
    lift = high.v_mag[noon] - base.v_mag[noon]
    assert lift.max() > 1e-4
    assert lift.min() > -1e-6


def test_run_is_deterministic(tiny_spec):
    cfg = sim.ScenarioConfig(horizon_minutes=6 * sim.TIMESTEP_MINUTES,
                             der_penetration=20)
    a = sim.run_timeseries(tiny_spec, cfg).v_mag
    b = sim.run_timeseries(tiny_spec, cfg).v_mag
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# controls: regulator, ties, switching faults


def reg_chain_spec():
    """hub -sw- head -line(heavy)- mid -reg- out, with load at out."""
    hub = sim.BusSpec(0, 7.2, "substation_hub", ("A",), net.HUB_FEEDER, 2.0)
    head = sim.BusSpec(1, 7.2, "feeder_head", ("A",), 9, 2.0)
    mid = sim.BusSpec(2, 7.2, "dt_high", ("A",), 9, 2.0)
    out = sim.BusSpec(3, 7.2, "dt_high", ("A",), 9, 2.0)
    link = sim.DeviceSpec(0, 0, 1, "switch", ("A",), 1e-4, 1e-4, 0.0, 2.0)
    line = sim.DeviceSpec(1, 1, 2, "line", ("A",), 0.04, 0.06, 2.0, 2.0)
    reg = sim.DeviceSpec(2, 2, 3, "regulator", ("A",), 1e-3, 2e-3, 0.0, 2.0)
    feeder = sim.FeederSpec(9, 1, [head, mid, out], [line, reg], [], [], [])
    return sim.SubstationSpec(
        seed=0, size_class="tiny", hub_bus=hub, hub_kv=7.2,
        feeders=[feeder], hub_links=[link], ties=[], tie_devices=[],
        xfmr_rating_pu=2.0, feeder_rating_pu=2.0, aux_load=0j,
        ltc_setpoint=1.0)


def test_regulator_steps_into_deadband():
    spec = reg_chain_spec()
    graph = sim.build_graph(spec)
    s = np.zeros(graph.n_nodes, dtype=complex)
    out_node = graph.node_of[(3, "A")]
    s[out_node] = complex(0.4, 0.1)
    controls = normal_controls(graph)
    taps, volts = [], []
    for _ in range(8):
        state = sim.solve_powerflow(spec, graph, s, controls)
        taps.append(int(controls.taps[0]))
        volts.append(state.v_mag[out_node])
        controls = controls._replace(
            taps=sim._regulate(graph, controls, state.v_mag))
    assert volts[0] < 0.99
    assert taps == sorted(taps)
    assert 1 <= controls.taps.max() <= 5
    assert 0.99 <= volts[-1] <= 1.01
    assert state.controls.taps.tolist() == controls.taps.tolist()


def settle_reg_chain(reversed_regulator: bool, steps: int = 20):
    """Taps and load-bus voltages of ``steps`` solves of the regulator chain
    with a 0.4 + 0.1j load, the taps stepped by _regulate after each."""
    spec = copy.deepcopy(reg_chain_spec())
    if reversed_regulator:
        reg = spec.feeders[0].devices[1]
        reg.from_bus, reg.to_bus = reg.to_bus, reg.from_bus
    graph = sim.build_graph(spec)
    s = np.zeros(graph.n_nodes, dtype=complex)
    out_node = graph.node_of[(3, "A")]
    s[out_node] = complex(0.4, 0.1)
    controls = normal_controls(graph)
    taps, volts = [], []
    for _ in range(steps):
        state = sim.solve_powerflow(spec, graph, s, controls)
        taps.append(int(controls.taps[0]))
        volts.append(float(state.v_mag[out_node]))
        controls = controls._replace(
            taps=sim._regulate(graph, controls, state.v_mag))
    return taps, volts


def test_reversed_regulator_settles_like_the_forward_one():
    """A regulator specified child -> parent regulates its load side, not
    its source side, and steps its tap the way its inverted ratio needs: it
    settles inside the deadband in as many steps as the forward one, at
    the opposite tap."""
    fwd_taps, fwd_volts = settle_reg_chain(False)
    rev_taps, rev_volts = settle_reg_chain(True)
    assert fwd_taps[-1] == 3
    assert rev_taps == [-tap for tap in fwd_taps]
    for volts in (fwd_volts, rev_volts):
        assert volts[0] < 1.0 - sim.REG_DEADBAND
        assert volts == sorted(volts)
        assert 1.0 - sim.REG_DEADBAND <= volts[-1] <= 1.0 + sim.REG_DEADBAND
    assert abs(rev_volts[-1] - fwd_volts[-1]) < 1e-3


def test_solved_state_owns_its_device_arrays(tiny_spec):
    """A later change to a Controls array or to the injections leaves a
    solved state as it was."""
    graph = sim.build_graph(tiny_spec)
    controls = normal_controls(graph)
    controls.taps[:] = 2
    s = sim._injections(tiny_spec, graph, sim.ScenarioConfig(
        horizon_minutes=sim.TIMESTEP_MINUTES))[0]
    state = sim.solve_powerflow(tiny_spec, graph, s, controls)
    before = s.copy()
    controls.status[:] = 0
    controls.taps[:] = -3
    s[:] = 0
    assert (state.controls.status.tobytes()
            == graph.edge_normally_closed.tobytes())
    assert np.all(state.controls.taps == 2)
    assert state.s_injection.tobytes() == before.tobytes()


def regulate_scalar(v, tap):
    """The deadband rule one regulator at a time, as a scalar loop."""
    if v < 1.0 - sim.REG_DEADBAND and tap < sim.REG_MAX_TAP:
        tap += 1
    elif v > 1.0 + sim.REG_DEADBAND and tap > -sim.REG_MAX_TAP:
        tap -= 1
    return tap


def test_regulate_holds_at_its_limits():
    """Taps at +/-REG_MAX_TAP step no further, voltages exactly at the
    deadband edges do not step, and every element follows the scalar rule."""
    spec = sim.generate_substation(50, "small", 6)
    graph = sim.build_graph(spec)
    m = len(graph.reg_edges)
    assert m == 18
    top, band = sim.REG_MAX_TAP, sim.REG_DEADBAND
    cases = [(1.0 - band, 0), (1.0 + band, 0), (1.0 - band, top),
             (1.0 + band, -top), (0.9, top), (1.1, -top), (0.9, -top),
             (1.1, top), (0.9, top - 1), (1.1, 1 - top), (1.0, 3),
             (np.nextafter(1.0 - band, 0.0), 0),
             (np.nextafter(1.0 + band, 2.0), 0), (0.98, -5), (1.02, 5),
             (np.nan, 2), (1.0 - band, -top), (1.0 + band, top)]
    assert len(cases) == m
    v_mag = np.full(graph.n_nodes, 1.0)
    v_mag[graph.edge_to[graph.reg_edges]] = [v for v, _ in cases]
    taps = np.array([tap for _, tap in cases])
    got = sim._regulate(graph, sim.Controls(graph.edge_normally_closed, taps),
                        v_mag)
    assert got.tolist() == [regulate_scalar(v, tap) for v, tap in cases]
    # the deadband edges and the limits hold
    assert got[:10].tolist() == [0, 0, top, -top, top, -top, 1 - top,
                                 top - 1, top, -top]
    assert taps.tolist() == [tap for _, tap in cases]  # not in place


def test_open_regulator_holds_its_tap():
    """With a tie closed and the receiving feeder's regulator open in place
    of the sectionalizer, the subtree below the regulator is fed through
    the tie: the open regulator holds its tap while the others step."""
    spec = sim.generate_substation(1, "tiny")
    graph = sim.build_graph(spec)
    tie = spec.ties[0]
    receiving = next(f for f in spec.feeders if f.feeder_id == tie.to_feeder)
    reg = next(d for d in receiving.devices if d.device == "regulator")
    status = graph.edge_normally_closed.copy()
    status[graph.edge_device == tie.device_uid] = 1
    status[graph.edge_device == reg.uid] = 0
    is_open = graph.edge_device[graph.reg_edges] == reg.uid
    assert np.all(graph.tree(status).child[graph.reg_edges[is_open]] == -1)
    assert 0 < np.count_nonzero(is_open) < len(graph.reg_edges)
    taps = np.full(len(graph.reg_edges), 2)
    got = sim._regulate(graph, sim.Controls(status, taps),
                        np.full(graph.n_nodes, 0.9))
    assert got.tolist() == np.where(is_open, 2, 3).tolist()


def test_tie_closure_reroots_transfer_subtree(tiny_spec):
    cfg = sim.ScenarioConfig(horizon_minutes=4 * sim.TIMESTEP_MINUTES,
                             der_penetration=0,
                             tie_closures=(0,), tie_close_step=2)
    status = sim.run_timeseries(tiny_spec, cfg).controls.status
    tie = tiny_spec.ties[0]
    graph = sim.build_graph(tiny_spec)

    tie_edges = np.flatnonzero(graph.edge_device == tie.device_uid)
    sect_edges = np.flatnonzero(graph.edge_device == tie.sectionalizer_uid)
    assert len(tie_edges) == len(sect_edges) == 3
    assert np.all(status[:2, tie_edges] == 0)
    assert np.all(status[:2, sect_edges] == 1)
    assert np.all(status[2:, tie_edges] == 1)
    assert np.all(status[2:, sect_edges] == 0)

    def supplying_feeder(t):
        return sim.structural_annotations(graph, status[t])[3]

    feeder = supplying_feeder(3)
    for ph in net.PHASES:
        node = graph.node_of[(tie.transfer_bus, ph)]
        assert feeder[node] == tie.from_feeder
    feeder_before = supplying_feeder(0)
    for ph in net.PHASES:
        node = graph.node_of[(tie.transfer_bus, ph)]
        assert feeder_before[node] == tie.to_feeder


def test_open_sectionalizer_islands_subtree(tiny_spec):
    graph = sim.build_graph(tiny_spec)
    controls = normal_controls(graph)
    controls.status[graph.edge_device
                    == tiny_spec.ties[0].sectionalizer_uid] = 0
    s = np.zeros(graph.n_nodes, dtype=complex)
    with pytest.raises(sim.PowerFlowError, match="islanded"):
        sim.solve_powerflow(tiny_spec, graph, s, controls)


def test_closing_tie_without_sectionalizer_is_a_loop(tiny_spec):
    graph = sim.build_graph(tiny_spec)
    controls = normal_controls(graph)
    controls.status[graph.edge_device == tiny_spec.ties[0].device_uid] = 1
    s = np.zeros(graph.n_nodes, dtype=complex)
    with pytest.raises(sim.PowerFlowError, match="loop"):
        sim.solve_powerflow(tiny_spec, graph, s, controls)


# ---------------------------------------------------------------------------
# the level-synchronous sweep against the node-by-node loop it replaced


def loop_sweep_reference(spec, graph, s_injection, controls, timestamp=0.0,
                         tol=sim.SOLVER_TOL, max_iter=sim.SOLVER_MAX_ITER):
    """solve_powerflow with both sweeps as Python loops over single nodes,
    in BFS order and its reverse: the solver as it was before the sweeps
    went level by level, kept here as their bit-identity oracle."""
    n = graph.n_nodes
    n_edges = len(graph.edge_device)
    status = controls.status
    ratio = np.ones(n_edges)
    ratio[graph.reg_edges] = 1.0 + sim.REG_STEP * controls.taps
    z = graph.edge_impedance

    tree = sim._phase_trees(graph, status)
    order = [int(v) for v in tree.order]
    rev = order[::-1]
    parent_node, child = tree.parent_node, tree.child
    parent_edge = np.full(n, -1)                  # -1 at roots
    parent_edge[child[child >= 0]] = np.flatnonzero(child >= 0)
    flip = np.flatnonzero((child >= 0) & (graph.edge_to != child)
                          & (ratio != 1.0))
    e_ratio = ratio.copy()
    e_ratio[flip] = 1.0 / ratio[flip]

    def backward(v_volt, i_branch):
        i_acc = np.conj(s_injection / v_volt)
        for v in rev:
            e = parent_edge[v]
            if e < 0:
                continue
            i_branch[e] = i_acc[v]
            i_acc[parent_node[v]] += e_ratio[e] * i_acc[v]

    v_volt = np.full(n, complex(spec.ltc_setpoint, 0.0), dtype=complex)
    i_branch = np.zeros(n_edges, dtype=complex)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        backward(v_volt, i_branch)
        v_prev = v_volt.copy()
        for v in order:
            e = parent_edge[v]
            if e < 0:
                continue
            v_volt[v] = e_ratio[e] * v_volt[parent_node[v]] - z[e] * i_branch[e]
        residual = float(np.max(np.abs(v_volt - v_prev)))
        if residual < tol:
            break
    else:
        raise sim.PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(last residual {residual:.3e})", residual=residual)
    if not np.all(np.isfinite(v_volt)):
        raise sim.PowerFlowError("solver produced non-finite voltages",
                                 residual=residual)
    backward(v_volt, i_branch)
    return sim.SolvedState(graph, timestamp, s_injection, controls, v_volt,
                           i_branch, np.abs(v_volt), iterations)


def assert_bit_identical(state, ref, where):
    """Equal voltage magnitudes and iteration counts, and every array
    derive_flows forms from the two states equal byte for byte."""
    assert state.v_mag.tobytes() == ref.v_mag.tobytes(), f"v_mag {where}"
    assert state.sweep_iterations == ref.sweep_iterations, where
    for name, got, want in zip(sim.Flows._fields, sim.derive_flows(state),
                               sim.derive_flows(ref)):
        assert got.tobytes() == want.tobytes(), f"{name} differs {where}"


def zero_injection_subtrees(tree, s_injection):
    """Non-root nodes whose subtree has zero injection throughout and holds
    more than the node itself. There the backward sweep adds a zero current
    into a zero one, where the sign of each zero depends on whether the
    ratio 1 multiplied it: the path the oracle must keep covering."""
    zero = s_injection == 0
    size = np.ones(len(zero), dtype=int)
    for lv in reversed(tree.levels):
        nodes = tree.order[lv.nodes]
        np.logical_and.at(zero, tree.parent_node[nodes], zero[nodes])
        np.add.at(size, tree.parent_node[nodes], size[nodes])
    return np.flatnonzero(zero & (size > 1) & (tree.parent_node >= 0))


ALL_TIES = tuple(range(5))   # the ties of a 6-feeder substation


@pytest.mark.parametrize(
    "seed,size,n_feeders,n_steps,close_step,ties,taps_move", [
        (7, "tiny", 3, 40, 20, (0,), False),  # a tie closes mid-run: re-rooted
        (101, "medium", 3, 10, 5, (0, 1), True),
        # every tie closed from the first step, as `generate --close-ties` runs
        (104, "medium", 3, 10, 0, (0, 1), True),
        # six feeders: several regulators share a level and their taps move
        (50, "small", 6, 10, 0, ALL_TIES, True),
        (104, "medium", 6, 10, 5, ALL_TIES, True),
    ])
def test_level_sweep_matches_loop_reference(seed, size, n_feeders, n_steps,
                                            close_step, ties, taps_move,
                                            monkeypatch):
    """Every solve of a run_timeseries, with regulator taps evolving,
    matches the node loop bit for bit."""
    spec = sim.generate_substation(seed, size, n_feeders)
    scenario = sim.ScenarioConfig(
        horizon_minutes=n_steps * sim.TIMESTEP_MINUTES, der_penetration=20,
        tie_closures=ties, tie_close_step=close_step)
    solve = sim.solve_powerflow
    seen = []

    def checked(spec_, graph, s_inj, controls, **kwargs):
        state = solve(spec_, graph, s_inj, controls, **kwargs)
        assert_bit_identical(state, loop_sweep_reference(
            spec_, graph, s_inj, controls, **kwargs), f"at step {len(seen)}")
        seen.append((len(zero_injection_subtrees(
            graph.tree(controls.status), s_inj)), np.any(controls.taps != 0)))
        return state

    monkeypatch.setattr(sim, "solve_powerflow", checked)
    graph = sim.run_timeseries(spec, scenario).graph
    assert len(seen) == n_steps
    # one tree per switch configuration the run crossed
    assert len(graph.trees) == (1 if close_step == 0 else 2)
    assert any(moved for _, moved in seen) == taps_move
    assert sum(zero for zero, _ in seen) > 0
    # three phases per regulator: with six feeders, some level holds the
    # regulators of two feeders or more
    regulators_per_level = [len(lv.reg_slots) // 2
                            for tree in graph.trees.values()
                            for lv in tree.levels]
    assert max(regulators_per_level) >= n_feeders


@pytest.mark.parametrize("tap", [-5, 0, 3])
def test_level_sweep_matches_loop_reference_on_reversed_regulator(tap):
    """A regulator specified child -> parent sees its ratio inverted (the
    flip path); no generated feeder has one."""
    spec = copy.deepcopy(reg_chain_spec())
    reg = spec.feeders[0].devices[1]
    reg.from_bus, reg.to_bus = reg.to_bus, reg.from_bus
    graph = sim.build_graph(spec)
    s = np.zeros(graph.n_nodes, dtype=complex)
    s[graph.node_of[(3, "A")]] = complex(0.4, 0.1)
    controls = normal_controls(graph)._replace(taps=np.array([tap]))
    state = sim.solve_powerflow(spec, graph, s, controls)
    e = int(graph.reg_edges[0])
    tree = next(iter(graph.trees.values()))
    assert tree.child[e] == graph.edge_from[e]
    assert tree.reg_flip.tolist() == [True]
    assert_bit_identical(state, loop_sweep_reference(spec, graph, s, controls),
                         f"at tap {tap}")


def test_level_sweep_diverges_like_loop_reference():
    spec = two_bus_spec(0.01, 0.0)
    graph = sim.build_graph(spec)
    s = np.zeros(graph.n_nodes, dtype=complex)
    s[graph.node_of[(1, "A")]] = complex(40.0, 0.0)
    errors = []
    with np.errstate(all="ignore"):
        for solve in (sim.solve_powerflow, loop_sweep_reference):
            with pytest.raises(sim.PowerFlowError) as exc_info:
                solve(spec, graph, s, normal_controls(graph))
            errors.append((str(exc_info.value), exc_info.value.residual))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("seed,size,ties", [
    (7, "tiny", ()), (7, "tiny", (0,)), (101, "medium", (0, 1))])
def test_phase_tree_levels(seed, size, ties):
    spec = sim.generate_substation(seed, size)
    graph = sim.build_graph(spec)
    status = graph.edge_normally_closed.copy()
    for ti in ties:
        status[graph.edge_device == spec.ties[ti].device_uid] = 1
        status[graph.edge_device == spec.ties[ti].sectionalizer_uid] = 0
    tree = sim._phase_trees(graph, status)
    n, roots = graph.n_nodes, len(graph.hub_node_ids)
    assert sorted(tree.order[:roots]) == sorted(graph.hub_node_ids)

    # every non-root node sits in exactly one level, levels tile the order
    placed = np.concatenate([tree.order[lv.nodes] for lv in tree.levels])
    assert np.array_equal(placed, tree.order[roots:])
    assert np.array_equal(np.sort(placed),
                          np.flatnonzero(tree.parent_node >= 0))
    # the rows past the roots: the edge above each position, and its pairs
    # then the same pairs swapped, real part at 2k, imaginary at 2k + 1
    assert np.array_equal(tree.child[tree.edges], tree.order[roots:])
    below = np.arange(2 * roots, 2 * n)
    assert np.array_equal(tree.own, np.concatenate([below, below ^ 1]))
    z = graph.edge_impedance[tree.edges]
    k = len(tree.edges)
    assert np.array_equal(tree.z_coef[:2 * k], np.repeat(z.real, 2))
    assert np.array_equal(tree.z_coef[2 * k + 1::2], z.imag)
    assert np.array_equal(tree.z_coef[2 * k::2], -z.imag)
    # the ratio's coefficients are gathered for the regulator edges alone:
    # one three-phase regulator per feeder, 36 entries on three feeders
    m = 3 * len(spec.feeders)
    assert np.sum(graph.edge_kind[tree.edges] == "regulator") == m
    assert len(tree.ratio_index) == 4 * m
    # the tree's regulator edges with their index into the taps; every
    # generated regulator is specified parent -> child
    assert np.array_equal(graph.reg_edges[tree.reg_taps], tree.reg_edges)
    assert np.array_equal(tree.child[tree.reg_edges],
                          graph.edge_to[tree.reg_edges])
    assert tree.reg_flip.tolist() == [False] * m

    above = slice(0, roots)
    done = 0
    for lv in tree.levels:
        nodes = tree.order[lv.nodes]
        h = 2 * len(nodes)
        # the parent of each node sits in the level above
        parents = lv.parent[0::2] // 2
        assert len(lv.parent) == h
        assert np.all((parents >= above.start) & (parents < above.stop))
        assert np.array_equal(tree.order[parents], tree.parent_node[nodes])
        assert np.array_equal(tree.child[lv.edges], nodes)
        # float-view indices: the run's pairs and its parents' pairs
        assert lv.pairs == slice(2 * lv.nodes.start, 2 * lv.nodes.stop)
        assert lv.span == slice(lv.pairs.start - 2 * roots,
                                lv.pairs.stop - 2 * roots)
        assert np.array_equal(lv.parent[0::2], 2 * parents)
        assert np.array_equal(lv.parent[1::2], 2 * parents + 1)
        # the backward copy is the exact reverse of the forward pairs
        assert np.array_equal(lv.parent_up, lv.parent[::-1])
        # the regulator slots are the run's pairs at its regulator edges;
        # a level without one has none
        reg = np.flatnonzero(graph.edge_kind[lv.edges] == "regulator")
        r = 2 * len(reg)
        assert np.array_equal(lv.reg_slots[0::2], 2 * reg)
        assert np.array_equal(lv.reg_slots[1::2], 2 * reg + 1)
        # their own and parent pairs, each then the same pairs swapped
        run = np.arange(lv.pairs.start, lv.pairs.stop)
        assert np.array_equal(lv.reg_own[:r], run[lv.reg_slots])
        assert np.array_equal(lv.reg_own[r:], lv.reg_own[:r] ^ 1)
        assert np.array_equal(lv.reg_parent[:r], lv.parent[lv.reg_slots])
        assert np.array_equal(lv.reg_parent[r:], lv.reg_parent[:r] ^ 1)
        # the level's regulator edges are the tree's next ones; its ratio
        # block holds their re entries, then their cross entries, in the
        # [re | cross] coefficients of the tree's m ratios, and the blocks
        # tile ratio_index level by level
        j = np.arange(done, done + len(reg))
        assert np.array_equal(tree.reg_edges[j], lv.edges[reg])
        assert lv.reg_block == slice(4 * done, 4 * done + 2 * r)
        block = tree.ratio_index[lv.reg_block]
        assert np.array_equal(block[:r:2], 2 * j)
        assert np.array_equal(block[1:r:2], 2 * j + 1)
        assert np.array_equal(block[r:], 2 * m + block[:r])
        done += len(reg)
        above = lv.nodes
    assert done == m
    assert len(tree.levels) >= 4
    # the regulators sit mid-backbone: most levels hold none
    assert sum(len(lv.reg_slots) > 0 for lv in tree.levels) < len(tree.levels) / 2


def test_run_builds_each_switch_configuration_once(tiny_spec, monkeypatch):
    """The sweeps' fused indices and coefficient rows are built with the
    tree, once per switch configuration of a run; the dataset's structural
    annotations reuse them."""
    built = []
    phase_trees = sim._phase_trees

    def counted(graph, status):
        built.append(status.tobytes())
        return phase_trees(graph, status)

    monkeypatch.setattr(sim, "_phase_trees", counted)
    scenario = sim.ScenarioConfig(horizon_minutes=8 * sim.TIMESTEP_MINUTES,
                                  der_penetration=20, tie_closures=(0,),
                                  tie_close_step=3)
    data = build_dataset(tiny_spec, scenario)
    assert data.n_snapshots == 8
    assert len(built) == len(set(built)) == 2


# ---------------------------------------------------------------------------
# profiles


def ar1_reference(gen, t, sigma, rho=0.6):
    """The AR(1) noise of one profile as a scalar loop over its draws."""
    scale = math.sqrt(1 - rho ** 2)
    out = []
    prev = 0.0
    for e in gen.normal(0.0, sigma, size=t).tolist():
        prev = rho * prev + scale * e
        out.append(prev)
    return np.array(out)


def profile_reference(profile, n_steps):
    """One profile's active-power series, computed on its own: the
    per-profile generator the [P, T] profiles replaced, kept here as their
    bit-identity oracle."""
    gen = sim._rng(profile.noise_seed, "profile", profile.kind)
    hours = (np.arange(n_steps) * sim.TIMESTEP_MINUTES / 60.0) % 24.0
    if profile.kind == "load":
        shape = 0.55 + 0.35 * np.cos(2 * np.pi * (hours - profile.peak_hour) / 24.0)
        shape = shape * (1.0 + ar1_reference(gen, n_steps, profile.noise_sigma))
        return profile.peak_pu * np.clip(shape, 0.08, 1.2)
    if profile.kind == "pv":
        elev = np.sin(np.pi * (hours - 6.0) / 12.5)
        elev = np.clip(elev, 0.0, None) ** 1.3
        cloud = np.clip(1.0 - np.abs(ar1_reference(gen, n_steps,
                                                   profile.noise_sigma)),
                        0.15, 1.0)
        return profile.peak_pu * elev * cloud
    raise ValueError(f"unknown profile kind {profile.kind!r}")


def spec_profiles(spec):
    loads = [l.profile for f in spec.feeders for l in f.loads]
    pvs = [d.profile for f in spec.feeders for d in f.ders]
    return loads, pvs


@pytest.mark.parametrize("n_steps", [1, 96, 2000])
@pytest.mark.parametrize("seed,size", [(0, "tiny"), (3, "tiny"),
                                       (101, "medium")])
def test_profiles_equal_the_per_profile_reference(seed, size, n_steps):
    """Every row of the [P, T] profiles equals the profile computed on its
    own, bit for bit: loads, PV, and both kinds interleaved."""
    loads, pvs = spec_profiles(sim.generate_substation(seed, size))
    if size == "medium" and n_steps == 2000:
        loads, pvs = loads[::7], pvs[::7]
    mixed = [p for pair in zip(loads, pvs) for p in pair] + loads[len(pvs):]
    assert pvs and len(mixed) == len(loads) + len(pvs)
    for profiles in (loads, pvs, mixed):
        got = sim.materialize_profiles(profiles, n_steps)
        assert got.shape == (len(profiles), n_steps)
        for row, p in zip(got, profiles):
            assert row.tobytes() == profile_reference(p, n_steps).tobytes()


def test_load_profile_bounds():
    p = sim.ProfileSpec(kind="load", peak_pu=0.02, peak_hour=18.0, pf=0.95,
                        noise_seed=3)
    series = sim.materialize_profiles([p], 96)[0]
    assert series.shape == (96,)
    assert series.min() >= 0.08 * 0.02 - 1e-12
    assert series.max() <= 1.2 * 0.02 + 1e-12
    loads, _ = spec_profiles(sim.generate_substation(3, "tiny"))
    peak = np.array([l.peak_pu for l in loads])[:, None]
    series = sim.materialize_profiles(loads, 96)
    assert np.all(series >= 0.08 * peak - 1e-12)
    assert np.all(series <= 1.2 * peak + 1e-12)


def test_pv_profile_is_zero_at_night_and_positive_midday():
    p = sim.ProfileSpec(kind="pv", peak_pu=0.05, peak_hour=13.0,
                        noise_seed=3, noise_sigma=0.3)
    series = sim.materialize_profiles([p], 96)[0]
    assert np.all(series[:24] == 0.0)
    assert series[50] > 0.0
    assert series.max() <= 0.05 + 1e-12
    loads, pvs = spec_profiles(sim.generate_substation(3, "tiny"))
    series = sim.materialize_profiles([*loads[:2], *pvs], 96)[2:]
    peak = np.array([d.peak_pu for d in pvs])[:, None]
    assert np.all(series[:, :24] == 0.0)
    assert np.all(series[:, 50] > 0.0)
    assert np.all(series <= peak + 1e-12)


def test_ar1_matches_scalar_recurrence():
    """Each column of the vector recurrence is the scalar recurrence over
    that column's draws, bit for bit."""
    draws = np.stack([sim._rng(seed, "profile", "load").normal(0.0, 0.35,
                                                                size=200)
                      for seed in range(5)], axis=1)
    got = sim._ar1(draws.copy())
    for k in range(5):
        prev, expected = 0.0, np.empty(200)
        for i in range(200):
            prev = 0.6 * prev + math.sqrt(1 - 0.6 ** 2) * draws[i, k]
            expected[i] = prev
        assert got[:, k].tobytes() == expected.tobytes()


def test_injections_over_a_shorter_horizon_are_a_prefix(tiny_spec):
    graph = sim.build_graph(tiny_spec)
    full = sim.ScenarioConfig(horizon_minutes=1440, der_penetration=40)
    for n_steps in (1, 9, 50):
        cut = sim.ScenarioConfig(
            horizon_minutes=n_steps * sim.TIMESTEP_MINUTES, der_penetration=40)
        head = sim._injections(tiny_spec, graph, cut)
        assert head.shape == (n_steps, graph.n_nodes)
        assert (head.tobytes()
                == sim._injections(tiny_spec, graph, full)[:n_steps].tobytes())


def test_unknown_profile_kind():
    wind = sim.ProfileSpec(kind="wind", peak_pu=1.0, peak_hour=0.0)
    load = sim.ProfileSpec(kind="load", peak_pu=1.0, peak_hour=0.0)
    for profiles in ([wind], [load, wind, load]):
        with pytest.raises(ValueError, match="kind 'wind'"):
            sim.materialize_profiles(profiles, 4)
