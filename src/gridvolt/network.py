"""Graph-side data model: bus-phases, feature layouts, sensor masks.

Nodes are bus-phases (one node per energized phase of each bus). The node
feature vector has 17 entries and the edge feature vector 13; the exact
orders below are part of the on-disk dataset contract and are hashed into
checkpoints so a model is never applied to features laid out differently.
The columns that depend on the switch configuration (depth, electrical
distance, degree) come from ``simulation.structural_annotations``, which
reads them off the solver's phase tree. A sensor mask is ``fleet_mask`` of
a ``fleet_order``; ``dataset.Snapshot.masked`` applies it to a snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PHASES = ("A", "B", "C")

BUS_TYPES = ("substation_hub", "feeder_head", "dt_high", "dt_low", "lv_node")

# dt_high and dt_low share the "distribution transformer" one-hot slot.
_BUS_TYPE_SLOT = {
    "substation_hub": 0,
    "feeder_head": 1,
    "dt_high": 2,
    "dt_low": 2,
    "lv_node": 3,
}

DEVICE_KINDS = ("line", "cable", "transformer", "regulator", "switch")

# transformer and regulator share one device-type slot.
_DEVICE_SLOT = {"line": 0, "cable": 1, "transformer": 2, "regulator": 2, "switch": 3}

# Feeder id of the substation hub (the hub belongs to no feeder).
HUB_FEEDER = -1

NODE_FEATURE_ORDER = (
    "phase_a", "phase_b", "phase_c",
    "kv_base",
    "type_hub", "type_head", "type_dt", "type_lv",
    "p_injection_pu",
    "tap",
    "cap_on",
    "sw_closed",
    "depth",
    "elec_dist",
    "degree",
    "m_obs",
    "m_obs_v_pu",
)

EDGE_FEATURE_ORDER = (
    "r_pu", "x_pu",
    "length_km",
    "rating_pu",
    "dev_line", "dev_cable", "dev_xfmr_reg", "dev_switch",
    "status",
    "phase_a", "phase_b", "phase_c",
    "tap",
)

NODE_FEATURE_INDEX = {name: i for i, name in enumerate(NODE_FEATURE_ORDER)}
EDGE_FEATURE_INDEX = {name: i for i, name in enumerate(EDGE_FEATURE_ORDER)}

N_NODE_FEATURES = len(NODE_FEATURE_ORDER)   # 17
N_EDGE_FEATURES = len(EDGE_FEATURE_ORDER)   # 13

def feature_order_hash() -> str:
    """Stable hash of the node+edge feature layouts, stored in checkpoints."""
    text = ";".join(NODE_FEATURE_ORDER) + "|" + ";".join(EDGE_FEATURE_ORDER)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BusPhase:
    """One phase of one bus.

    Attributes:
        id: dense index of this node in its substation graph.
        bus_id: identifier of the physical bus.
        phase: "A", "B", or "C".
        kv_base: nominal line-to-neutral base, kilovolts. Must be positive.
        bus_type: one of BUS_TYPES.
        feeder_id: feeder this node is supplied from; HUB_FEEDER for the hub.
    """

    id: int
    bus_id: int
    phase: str
    kv_base: float
    bus_type: str
    feeder_id: int

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"bus-phase {self.id}: unknown phase {self.phase!r}")
        if self.bus_type not in BUS_TYPES:
            raise ValueError(f"bus-phase {self.id}: unknown bus type {self.bus_type!r}")
        if not self.kv_base > 0:
            raise ValueError(f"bus-phase {self.id}: kv_base must be > 0, got {self.kv_base}")


def static_node_features(bus_phases: Sequence[BusPhase],
                         cap_on: np.ndarray) -> np.ndarray:
    """[N, 17] node feature rows holding the columns no timestep changes.

    Phase and bus-type one-hots, kv base and the capacitor flag are filled;
    the injection, tap, switch, structural and measurement columns are 0.
    """
    feats = np.zeros((len(bus_phases), N_NODE_FEATURES))
    for bp in bus_phases:
        row = feats[bp.id]
        row[PHASES.index(bp.phase)] = 1.0
        row[NODE_FEATURE_INDEX["kv_base"]] = bp.kv_base
        row[4 + _BUS_TYPE_SLOT[bp.bus_type]] = 1.0
    feats[:, NODE_FEATURE_INDEX["cap_on"]] = cap_on
    return feats


def static_edge_features(devices: Sequence) -> np.ndarray:
    """[E, 13] edge feature rows with status and tap left at 0.

    ``devices[e]`` is the device edge ``e`` is one phase of (anything with
    ``device``, ``phases``, ``r_pu``, ``x_pu``, ``length_km`` and
    ``rating_pu``). The phase mask lists every phase the device spans, so a
    three-phase device reports all three on each of its edges.
    """
    feats = np.zeros((len(devices), N_EDGE_FEATURES))
    for row, d in zip(feats, devices):
        if d.device not in _DEVICE_SLOT:
            raise ValueError(f"unknown device kind {d.device!r}")
        row[:4] = d.r_pu, d.x_pu, d.length_km, d.rating_pu
        row[4 + _DEVICE_SLOT[d.device]] = 1.0
        for ph in d.phases:
            row[9 + PHASES.index(ph)] = 1.0
    return feats


def fleet_order(node_x: np.ndarray, gen) -> np.ndarray:
    """Sensor roll-out priority over the rows of a node feature matrix:
    the substation-hub rows (``type_hub``) first, then a seeded shuffle.

    This is the one mask sampler: every observability mask, in training,
    validation, the baseline fit and evaluation, is ``fleet_mask`` of such
    an order. Hub nodes are metered in practice, so they fill the budget
    first. Materializing one order per fleet and truncating it per level
    gives nested sensor sets, so error curves across observability levels
    compare supersets of the same placements instead of independent
    redraws. A level whose budget fits in the hub rows gives every
    replicate the same fleet.
    """
    hub = np.flatnonzero(node_x[:, NODE_FEATURE_INDEX["type_hub"]] == 1.0)
    rest = gen.permutation(len(node_x))
    rest = rest[~np.isin(rest, hub)]
    return np.concatenate([hub, rest])


def fleet_mask(order: np.ndarray, p_obs: float) -> np.ndarray:
    """Observed mask for the first round(p_obs%) sensors of a fleet order.

    At least one node stays observed and at least one hidden, so both the
    supervised target set and the measurement set are non-empty.
    """
    observed = np.zeros(len(order), dtype=bool)
    observed[order[:_observed_count(len(order), p_obs)]] = True
    return observed


def _observed_count(n_nodes: int, p_obs: float) -> int:
    """round(p_obs% of n_nodes), clamped so at least one node is observed
    and at least one hidden."""
    if not 0 < p_obs < 100:
        raise ValueError(f"p_obs must be in (0, 100), got {p_obs}")
    k = int(round(n_nodes * p_obs / 100.0))
    return min(max(k, 1), n_nodes - 1)
