"""Datasets of solved timesteps, factored by how often each value changes.

A dataset (format ``snapshot-dataset/v2``) stores each value at the rate
it changes:

- static: the node feature rows ``[N, 17]`` and edge feature rows
  ``[E, 13]`` of the graph, edge endpoints and node identity, including the
  spec's (pre-tie) feeder of every node;
- per switch configuration: the switch flag, depth, electrical distance,
  degree and supplying feeder of every node, and edge status and
  physics-loss membership, one row per distinct configuration, with a
  ``[T]`` index naming each snapshot's configuration. The structural
  columns come from ``simulation.structural_annotations`` on the phase
  tree the solver cached for that configuration, so no second search runs;
- per snapshot: the injection feature, node and edge taps, voltages, edge
  flows and the feeder-head, substation-transformer and auxiliary sums.

``SnapshotDataset.snapshot(i)`` assembles snapshot i from the three
blocks into the one snapshot record, ``Snapshot``, with every node observed
(every node carries its solved voltage). The record is what a batch is
built from; ``record.masked(observed)`` gives the same snapshot seen
through another sensor mask, so one stored copy per scenario serves every
observability level. Files of the earlier ``snapshot-dataset/v1`` layout,
which repeated every feature row per snapshot, are refused and must be
regenerated.

The npz writer stores every member uncompressed and streams each array's
``.npy`` bytes straight into its member. It is deterministic: sorted member
order, fixed zip metadata timestamps, no pickling. Equal inputs produce
byte-identical files, which the run manifest relies on for output hashing.
``np.load`` reads stored and deflated members alike, so files written
deflated by earlier versions still load.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib import format as npformat

from . import network as net
from . import simulation as sim
from .seeding import rng as _rng

_FORMAT = "snapshot-dataset/v2"

# share of each series held out, at its end, for evaluation only: neither
# training nor model selection reads it
TEST_FRACTION = 0.1

_STATIC = ("node_features_static", "edge_features_static", "edge_from",
           "edge_to", "feeder_ids", "bus_id", "phase_idx", "bus_type_idx",
           "kv_base", "spec_feeder")
# one row per distinct switch configuration
_PER_CONFIG = ("config_status", "config_sw_closed", "config_depth",
               "config_elec_dist", "config_degree", "config_node_feeder",
               "config_edge_phys")
# one row per snapshot; config_index points into the configuration rows
_PER_TIME = ("config_index", "injection", "node_tap", "edge_tap", "v_true",
             "edge_p", "edge_q", "timestamps", "head_p", "head_q",
             "s_subxfmr_re", "s_subxfmr_im", "s_aux_re", "s_aux_im")

# node feature columns filled per snapshot and per configuration
_NODE_TIME_COLUMNS = (("p_injection_pu", "injection"), ("tap", "node_tap"),
                      ("m_obs_v_pu", "v_true"))
_NODE_CONFIG_COLUMNS = (("sw_closed", "config_sw_closed"),
                        ("depth", "config_depth"),
                        ("elec_dist", "config_elec_dist"),
                        ("degree", "config_degree"))


_M_OBS = net.NODE_FEATURE_INDEX["m_obs"]
_M_OBS_V = net.NODE_FEATURE_INDEX["m_obs_v_pu"]


@dataclass
class Snapshot:
    """One snapshot of one substation graph under one sensor mask.

    Feature rows follow ``NODE_FEATURE_ORDER`` and ``EDGE_FEATURE_ORDER``;
    ``phys_*`` are the physics-loss edges with their impedance and solved
    sending-end flows. A batch is the disjoint union of such records.
    """

    node_x: np.ndarray          # [N, 17]
    edge_from: np.ndarray       # [E] undirected device-phase edges
    edge_to: np.ndarray
    edge_z: np.ndarray          # [E, 13]
    node_feeder: np.ndarray     # [N] effective feeder ids (ties applied)
    v_true: np.ndarray          # [N]
    observed: np.ndarray        # [N] bool
    phys_from: np.ndarray       # physics-loss edges (subset, undirected)
    phys_to: np.ndarray
    phys_r: np.ndarray
    phys_x: np.ndarray
    phys_p: np.ndarray
    phys_q: np.ndarray

    def masked(self, observed: np.ndarray) -> "Snapshot":
        """This snapshot with only the ``observed`` nodes measured.

        Only ``observed`` and the two measurement columns of a copy of
        ``node_x`` are rewritten; every other array is shared.
        """
        observed = np.asarray(observed, dtype=bool)
        node_x = self.node_x.copy()
        node_x[:, _M_OBS] = observed
        node_x[:, _M_OBS_V] = np.where(observed, self.v_true, 0.0)
        return replace(self, node_x=node_x, observed=observed)


class SnapshotDataset:
    """In-memory dataset over one substation graph.

    ``arrays`` holds the static, per-configuration and per-snapshot blocks
    described in the module docstring; ``snapshot(i)`` assembles one
    snapshot from them.
    """

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays
        missing = [k for k in _STATIC + _PER_CONFIG + _PER_TIME
                   if k not in arrays]
        if missing:
            raise ValueError(f"dataset arrays missing {missing}")
        if meta.get("feature_order_hash") != net.feature_order_hash():
            raise ValueError(
                "dataset was written with a different feature order "
                f"({meta.get('feature_order_hash')}); refusing to load")

    @property
    def n_snapshots(self) -> int:
        return self.arrays["v_true"].shape[0]

    @property
    def n_nodes(self) -> int:
        return self.arrays["v_true"].shape[1]

    @property
    def n_edges(self) -> int:
        return self.arrays["edge_from"].shape[0]

    @property
    def feeder_ids(self) -> np.ndarray:
        return self.arrays["feeder_ids"]

    def snapshot(self, i: int) -> Snapshot:
        """Snapshot ``i`` with every node observed."""
        if not 0 <= i < self.n_snapshots:
            raise IndexError(f"snapshot {i} out of range 0..{self.n_snapshots - 1}")
        a = self.arrays
        c = a["config_index"][i]
        node = a["node_features_static"].copy()
        for col, key in _NODE_TIME_COLUMNS:
            node[:, net.NODE_FEATURE_INDEX[col]] = a[key][i]
        for col, key in _NODE_CONFIG_COLUMNS:
            node[:, net.NODE_FEATURE_INDEX[col]] = a[key][c]
        node[:, _M_OBS] = 1.0
        edge = a["edge_features_static"].copy()
        edge[:, net.EDGE_FEATURE_INDEX["status"]] = a["config_status"][c]
        edge[:, net.EDGE_FEATURE_INDEX["tap"]] = a["edge_tap"][i]
        phys = np.flatnonzero(a["config_edge_phys"][c])
        return Snapshot(
            node_x=node, edge_from=a["edge_from"], edge_to=a["edge_to"],
            edge_z=edge, node_feeder=a["config_node_feeder"][c],
            v_true=a["v_true"][i], observed=np.ones(self.n_nodes, dtype=bool),
            phys_from=a["edge_from"][phys], phys_to=a["edge_to"][phys],
            phys_r=edge[phys, net.EDGE_FEATURE_INDEX["r_pu"]],
            phys_x=edge[phys, net.EDGE_FEATURE_INDEX["x_pu"]],
            phys_p=a["edge_p"][i, phys], phys_q=a["edge_q"][i, phys])


def split_windows(n: int, val_fraction: float,
                  test_fraction: float) -> tuple[range, range, range]:
    """Contiguous, disjoint, time-ordered (train, val, test) index ranges.

    The test window is the last ``max(1, round(n * test_fraction))``
    snapshots and the validation window the ``max(1, round(n *
    val_fraction))`` just before it (none when ``val_fraction`` is 0); train
    is the rest. Blocked windows keep the serially correlated 15-minute
    neighbours of one window out of the others, except at the two seams.
    """
    if not 0 <= val_fraction < 1 or not 0 < test_fraction < 1:
        raise ValueError(f"split fractions val={val_fraction}, "
                         f"test={test_fraction} outside [0, 1) and (0, 1)")
    n_test = max(1, int(round(n * test_fraction)))
    n_val = max(1, int(round(n * val_fraction))) if val_fraction else 0
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ValueError(f"{n} snapshots are too few for the validation "
                         f"split ({n_val}) and the test window ({n_test})")
    return (range(n_train), range(n_train, n - n_test),
            range(n - n_test, n))


def dataset_from_states(spec: sim.SubstationSpec,
                        scenario: sim.ScenarioConfig, run: sim.SolvedState,
                        flows: sim.Flows) -> SnapshotDataset:
    """Factor a solved run (run_timeseries) and its derive_flows into
    dataset arrays, fully observed: the graph's static feature rows once,
    the structural annotations once per distinct switch configuration, and
    only the per-step columns per snapshot."""
    graph = run.graph
    v_true = run.v_mag
    status, taps = run.controls
    reg = graph.reg_edges
    edge_tap = np.zeros(status.shape)
    edge_tap[:, reg] = taps / sim.REG_MAX_TAP
    node_tap = np.zeros_like(v_true)
    node_tap[:, graph.edge_to[reg]] = np.where(status[:, reg] == 1,
                                               edge_tap[:, reg], 0.0)
    _check_range(v_true, node_tap)

    configs, which = sim.group_rows(status)
    # the run cached each configuration's tree on the graph
    per_config = [sim.structural_annotations(graph, c) for c in configs]
    depth, elec, degree, feeder = (np.stack(a) for a in zip(*per_config))
    sw_closed = np.ones((len(configs), graph.n_nodes))
    k, e = np.nonzero((configs == 0) & (graph.edge_kind == "switch"))
    sw_closed[k, graph.edge_from[e]] = 0.0
    sw_closed[k, graph.edge_to[e]] = 0.0

    rating = graph.serving_rating
    injection = np.divide(run.s_injection.real, rating,
                          out=np.zeros(v_true.shape), where=rating > 0)
    _blur_injection(injection, feeder[which[0]], spec, scenario)

    by_id = np.argsort(graph.feeder_ids)
    heads, s_sub = flows.head[:, by_id], flows.s_subxfmr
    bps = graph.bus_phases
    meta = {
        "format": _FORMAT,
        "feature_order_hash": net.feature_order_hash(),
        "substation": spec.name,
        "scenarios": [scenario_to_dict(scenario)],
        "n_snapshots": len(v_true),
    }
    arrays = dict(
        node_features_static=graph.node_features,
        edge_features_static=graph.edge_features,
        edge_from=graph.edge_from.astype(np.int64),
        edge_to=graph.edge_to.astype(np.int64),
        feeder_ids=graph.feeder_ids[by_id].astype(np.int64),
        bus_id=np.array([bp.bus_id for bp in bps], dtype=np.int64),
        phase_idx=np.array([net.PHASES.index(bp.phase) for bp in bps],
                           dtype=np.int64),
        bus_type_idx=np.array([net.BUS_TYPES.index(bp.bus_type) for bp in bps],
                              dtype=np.int64),
        kv_base=np.array([bp.kv_base for bp in bps]),
        spec_feeder=np.array([bp.feeder_id for bp in bps], dtype=np.int64),
        config_status=configs, config_sw_closed=sw_closed,
        config_depth=depth, config_elec_dist=elec, config_degree=degree,
        config_node_feeder=feeder.astype(np.int64),
        config_edge_phys=(configs == 1) & graph.phys_device,
        config_index=which.astype(np.int64), injection=injection,
        node_tap=node_tap, edge_tap=edge_tap, v_true=v_true,
        edge_p=flows.edge_p, edge_q=flows.edge_q, timestamps=run.timestamp,
        head_p=heads.real.copy(), head_q=heads.imag.copy(),
        s_subxfmr_re=s_sub.real.copy(), s_subxfmr_im=s_sub.imag.copy(),
        s_aux_re=np.full(len(v_true), graph.aux_load.real),
        s_aux_im=np.full(len(v_true), graph.aux_load.imag),
    )
    return SnapshotDataset(meta, arrays)


def _check_range(v_true: np.ndarray, node_tap: np.ndarray) -> None:
    """Refuse voltages outside (0.5, 1.5) p.u. and node taps outside
    [-1, 1], naming the first offending bus-phase and step."""
    bad = np.argwhere(~((v_true > 0.5) & (v_true < 1.5)))
    if len(bad):
        t, i = bad[0]
        raise ValueError(f"bus-phase {i}: voltage {v_true[t, i]} outside "
                         f"(0.5, 1.5) at step {t}")
    bad = np.argwhere(np.abs(node_tap) > 1.0 + 1e-12)
    if len(bad):
        t, i = bad[0]
        raise ValueError(f"bus-phase {i}: tap {node_tap[t, i]} outside "
                         f"[-1, 1] at step {t}")


def _blur_injection(injection: np.ndarray, fid: np.ndarray,
                    spec: sim.SubstationSpec,
                    scenario: sim.ScenarioConfig) -> None:
    """Degrade the [T, N] injection feature to pseudo-measurement quality.

    Multiplicative error, one component shared per feeder per snapshot plus
    one independent per node, clipped to keep signs. Only the feature column
    changes: labels, edge flows, and head totals stay solver-exact, so a
    voltage sensor carries information the injections no longer determine.
    Each snapshot's draws are its feeders' shared components, in feeder id
    order, then its nodes' own, all snapshots in one call.
    """
    if scenario.pseudo_noise_common == 0 and scenario.pseudo_noise_local == 0:
        return
    gen = _rng(spec.seed, "pseudo-measurement", scenario.der_penetration,
               scenario.horizon_minutes, scenario.tie_close_step,
               *scenario.tie_closures)
    feeders, node_feeder = np.unique(fid, return_inverse=True)
    f = len(feeders)
    scale = np.repeat([scenario.pseudo_noise_common,
                       scenario.pseudo_noise_local], [f, injection.shape[1]])
    draws = 1.0 + gen.normal(0.0, scale, size=(injection.shape[0], len(scale)))
    factor = draws[:, :f][:, node_feeder] * draws[:, f:]
    injection *= np.clip(factor, 0.3, 1.7)


def scenario_to_dict(scenario: sim.ScenarioConfig) -> dict:
    return {
        "horizon_minutes": scenario.horizon_minutes,
        "der_penetration": scenario.der_penetration,
        "tie_closures": list(scenario.tie_closures),
        "tie_close_step": scenario.tie_close_step,
        "pseudo_noise_common": scenario.pseudo_noise_common,
        "pseudo_noise_local": scenario.pseudo_noise_local,
    }


# ---------------------------------------------------------------------------
# deterministic npz io

class _ByteCount:
    """A write-only sink that counts the bytes written to it."""

    def __init__(self):
        self.n = 0

    def write(self, data) -> None:
        self.n += len(data)


def write_npz(path, arrays: dict[str, np.ndarray]) -> None:
    """npz writer with stored (uncompressed) members and fixed zip metadata,
    so equal data gives equal bytes.

    Each array's ``.npy`` bytes (a version 1.0 header, then the raw data)
    are streamed into its member with no in-memory copy of the whole
    member. Its size is set before the member opens, because zipfile
    decides there whether the member needs zip64 extensions.
    """
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            header = _ByteCount()
            npformat.write_array_header_1_0(
                header, npformat.header_data_from_array_1_0(array))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o644 << 16
            info.file_size = header.n + array.nbytes
            with zf.open(info, "w") as member:
                npformat.write_array(member, array, version=(1, 0),
                                     allow_pickle=False)


def save_dataset(ds: SnapshotDataset, path) -> None:
    arrays = dict(ds.arrays)
    arrays["meta_json"] = np.array(json.dumps(ds.meta, sort_keys=True))
    write_npz(path, arrays)


def load_dataset(path) -> SnapshotDataset:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][()]))
        if meta.get("format") != _FORMAT:
            raise ValueError(
                f"dataset format {meta.get('format')!r} is not {_FORMAT!r}; "
                "regenerate the dataset with this version's generate")
        arrays = {k: data[k] for k in data.files if k != "meta_json"}
    return SnapshotDataset(meta, arrays)
