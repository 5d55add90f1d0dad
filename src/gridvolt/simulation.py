"""Synthetic substations and a backward-forward sweep power-flow solver.

A substation is a hub bus feeding 2..6 radial MV feeders. Every MV backbone
bus hosts at least one single-phase distribution transformer whose LV side
carries a short string of load buses, so bus types stay meaningful. One
voltage regulator sits mid-backbone per feeder, and normally-open tie
switches join pairs of feeders.

The solver works per phase in per-unit (system base 1 MVA, voltage base per
level). Each phase of the network must form a tree rooted at the hub; when a
tie switch closes, the sectionalizer upstream of the transfer bus opens, so
the merged topology stays radial and the same sweep applies. Regulators are
ideal-ratio devices in series with a small impedance: with ratio a and
branch current I, the downstream voltage is a*V_up - z*I and the upstream
side sees current a*I, which conserves complex power up to the z loss.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import product
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import network as net
from .seeding import derive_seed, rng as _rng
from .settings import check_fields

S_BASE_MVA = 1.0
TIMESTEP_MINUTES = 15
REG_STEP = 0.00625           # per-unit ratio change per regulator tap step
REG_MAX_TAP = 16
REG_DEADBAND = 0.01          # regulate toward 1.0 +/- this band
SOLVER_TOL = 1e-12           # max |dV| between sweeps; well inside the 1e-8 contract
SOLVER_MAX_ITER = 100
VOLTAGE_BAND = (0.94, 1.06)  # p.u., open: where every solved bus-phase belongs
DERIVE_STEPS = 16            # steps derive_flows takes at once: bounds its scratch

DER_PENETRATIONS = (0, 20, 30, 40)
SIZE_CLASSES = ("tiny", "small", "medium")

# bus-phase targets per feeder: tiny 30, small 80, medium 200 exactly
# (3 head phases + 3*n_mv + n_chains + lv_total). MV segment lengths shrink
# with size to keep the backbone drop modest; the LV side below is sized by
# construction (see _DT_RATINGS).
_SIZE_PARAMS = {
    "tiny": dict(n_mv=4, n_chains=5, lv_total=10, seg_km=(1.2, 3.2)),
    "small": dict(n_mv=12, n_chains=13, lv_total=28, seg_km=(0.8, 2.0)),
    "medium": dict(n_mv=30, n_chains=33, lv_total=74, seg_km=(0.5, 1.4)),
}

_MV_KV = 7.2      # line-to-neutral kV of the distribution level
_LV_KV = 0.12

# The LV side is built to hold the ANSI C84.1 Range A service band
# (0.95..1.05 p.u.). Every LV device is rated against the peak it carries
# and its impedance is drawn on its own rating, then converted to the
# system base with z_sys = z_own * S_base / S_rated (Kersting, Distribution
# System Modeling and Analysis, ch. 8). Load profiles clip at 1.2x their
# peak, so at worst a device carries 1.2 / 1.25 = 0.96 of its rating
# (1.035 for a transformer above the largest unit). The linearized drop
# r*P + x*Q from dt_high to the last LV bus is then below 0.038 p.u.: 0.021
# across the transformer (|z| <= 2.6 %, X/R 2.4, pf >= 0.92) and 0.017
# across the secondary (<= 4 segments of <= 30 m). With dt_high at 0.99 or
# above (LTC setpoint 1.0..1.03, regulator deadband +/- 0.01) every LV bus
# stays inside the band. The MV backbone itself is not sized this way.
_DT_RATINGS = np.array([0.025, 0.05, 0.075, 0.1, 0.167])  # 25..167 kVA units
_DT_Z_OWN = (0.0175, 0.026)     # |z| on the unit's own rating
_DT_Z_ANGLE = complex(0.38, 0.92) / abs(complex(0.38, 0.92))  # X/R 2.4
_LV_R_OWN_KM = (0.05, 0.13)     # secondary r, x per km on the segment's own
_LV_X_OWN_KM = (0.02, 0.04)     # rating
_RATING_MARGIN = 1.25           # every LV device is rated 1.25x its peak


class PowerFlowError(Exception):
    """Solver failure; carries the last voltage-update residual if known."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass
class ProfileSpec:
    """Parameters of one seeded 15-minute profile (daily sinusoid + noise)."""

    kind: str                 # "load" or "pv"
    peak_pu: float            # peak active power (load) or unit capacity (pv)
    peak_hour: float
    pf: float = 1.0           # lagging power factor; pv is unity
    noise_seed: int = 0
    noise_sigma: float = 0.05


@dataclass
class LoadSpec:
    bus_id: int
    phase: str
    profile: ProfileSpec


@dataclass
class DerSpec:
    bus_id: int
    phase: str
    profile: ProfileSpec


@dataclass
class CapacitorSpec:
    bus_id: int
    q_pu: float               # total three-phase reactive output when on
    on: bool = True


@dataclass
class BusSpec:
    bus_id: int
    kv_base: float
    bus_type: str
    phases: tuple[str, ...]
    feeder_id: int
    serving_rating_pu: float  # transformer capacity this bus is served through


@dataclass
class DeviceSpec:
    uid: int
    from_bus: int
    to_bus: int
    device: str               # network.DEVICE_KINDS
    phases: tuple[str, ...]
    r_pu: float
    x_pu: float
    length_km: float
    rating_pu: float
    normally_closed: bool = True
    is_tie: bool = False
    feeder_id: int = net.HUB_FEEDER


@dataclass
class TieSpec:
    """Normally-open switch between two feeders plus its transfer point.

    Closing the tie opens ``sectionalizer_uid`` (the switch just upstream of
    ``transfer_bus``), which hands the subtree at the transfer bus over to
    the other feeder while keeping every phase graph radial.
    """

    device_uid: int
    from_feeder: int
    to_feeder: int
    transfer_bus: int
    sectionalizer_uid: int


@dataclass
class FeederSpec:
    feeder_id: int
    head_bus: int
    buses: list[BusSpec]
    devices: list[DeviceSpec]
    loads: list[LoadSpec]
    ders: list[DerSpec]
    capacitors: list[CapacitorSpec]


@dataclass
class SubstationSpec:
    seed: int
    size_class: str
    hub_bus: BusSpec
    hub_kv: float
    feeders: list[FeederSpec]
    hub_links: list[DeviceSpec]
    ties: list[TieSpec]
    tie_devices: list[DeviceSpec]
    xfmr_rating_pu: float
    feeder_rating_pu: float
    aux_load: complex
    ltc_setpoint: float

    @property
    def name(self) -> str:
        return f"s{self.seed}-{self.size_class}-f{len(self.feeders)}"

    def all_buses(self) -> list[BusSpec]:
        out = [self.hub_bus]
        for f in self.feeders:
            out.extend(f.buses)
        return out

    def all_devices(self) -> list[DeviceSpec]:
        out = list(self.hub_links)
        for f in self.feeders:
            out.extend(f.devices)
        out.extend(self.tie_devices)
        return out


@dataclass
class ScenarioConfig:
    """What varies between runs over one substation spec."""

    horizon_minutes: int = 1440
    der_penetration: int = 0
    tie_closures: tuple[int, ...] = ()   # indices into SubstationSpec.ties
    tie_close_step: int = 0
    # Injection features are pseudo-measurements (forecasts), not metered
    # values: each snapshot's feature column gets a multiplicative error with
    # a component shared across a feeder and an independent local component.
    # Labels, flows, and the physics targets stay solver-exact.
    pseudo_noise_common: float = 0.06
    pseudo_noise_local: float = 0.12

    def __post_init__(self):
        check_fields(self)
        if self.der_penetration not in DER_PENETRATIONS:
            raise ValueError(
                f"der_penetration must be one of {DER_PENETRATIONS}, "
                f"got {self.der_penetration}")
        if self.horizon_minutes < TIMESTEP_MINUTES:
            raise ValueError("horizon shorter than one timestep")
        if min(self.pseudo_noise_common, self.pseudo_noise_local) < 0:
            raise ValueError("pseudo-measurement noise must be non-negative")


# ---------------------------------------------------------------------------
# serialization (key-value tree on disk)

def save_spec(spec: SubstationSpec, path: str | Path) -> None:
    """The spec as compact sorted JSON, ``json.dumps(..., sort_keys=True)``
    of its fields (each nested dataclass as the dict of its fields), with
    ``aux_load`` as ``[re, im]`` and the ``substation-spec/v1`` format tag.
    A value JSON cannot hold raises TypeError."""
    data = _field_dict(spec)
    data["format"] = "substation-spec/v1"
    data["aux_load"] = [spec.aux_load.real, spec.aux_load.imag]
    Path(path).write_text(json.dumps(data, default=_field_dict,
                                     sort_keys=True))


def _field_dict(obj) -> dict:
    """A dataclass instance as a copy of its attribute dict, without
    ``asdict``'s deep copy; anything else raises TypeError."""
    if not is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return dict(vars(obj))


# ---------------------------------------------------------------------------
# substation synthesis

def generate_substation(spec_seed: int, size_class: str,
                        n_feeders: int = 3) -> SubstationSpec:
    """Build a seeded multi-feeder substation of the requested size class."""
    if size_class not in _SIZE_PARAMS:
        raise ValueError(f"size_class must be one of {SIZE_CLASSES}, got {size_class!r}")
    if not 2 <= n_feeders <= 6:
        raise ValueError(f"n_feeders must be in 2..6, got {n_feeders}")
    params = _SIZE_PARAMS[size_class]
    gen = _rng(spec_seed, "substation", size_class, n_feeders)

    xfmr_rating = 2.0 * n_feeders
    feeder_rating = 2.0
    ltc_setpoint = float(gen.uniform(1.0, 1.03))
    aux_load = complex(gen.uniform(0.005, 0.02), gen.uniform(0.002, 0.008))

    hub = BusSpec(bus_id=0, kv_base=_MV_KV, bus_type="substation_hub",
                  phases=net.PHASES, feeder_id=net.HUB_FEEDER,
                  serving_rating_pu=xfmr_rating)

    next_bus = 1
    next_uid = 0
    feeders: list[FeederSpec] = []
    hub_links: list[DeviceSpec] = []
    feeder_base = (spec_seed % 10**6) * 8

    for k in range(n_feeders):
        fid = feeder_base + k
        f, next_bus, next_uid = _generate_feeder(
            gen, fid, k, next_bus, next_uid, params, feeder_rating)
        feeders.append(f)
        hub_links.append(DeviceSpec(
            uid=next_uid, from_bus=0, to_bus=f.head_bus, device="switch",
            phases=net.PHASES, r_pu=1e-4, x_pu=1e-4, length_km=0.0,
            rating_pu=feeder_rating, normally_closed=True, feeder_id=fid))
        next_uid += 1

    ties: list[TieSpec] = []
    tie_devices: list[DeviceSpec] = []
    for k in range(max(1, n_feeders - 1)):
        fa, fb = feeders[k % n_feeders], feeders[(k + 1) % n_feeders]
        tie, dev_spec, next_uid = _make_tie(gen, fa, fb, next_uid)
        ties.append(tie)
        tie_devices.append(dev_spec)

    return SubstationSpec(
        seed=spec_seed, size_class=size_class, hub_bus=hub, hub_kv=_MV_KV,
        feeders=feeders, hub_links=hub_links, ties=ties, tie_devices=tie_devices,
        xfmr_rating_pu=xfmr_rating, feeder_rating_pu=feeder_rating,
        aux_load=aux_load, ltc_setpoint=ltc_setpoint,
    )


def _on_system_base(z_own: complex, rating_pu: float) -> complex:
    """Convert an impedance drawn on a device's own rating to the system
    base: z_sys = z_own * S_base / S_rated."""
    return z_own * S_BASE_MVA / rating_pu


def _generate_feeder(gen, fid: int, k: int, next_bus: int, next_uid: int,
                     params: dict, feeder_rating: float):
    buses: list[BusSpec] = []
    devices: list[DeviceSpec] = []
    loads: list[LoadSpec] = []
    ders: list[DerSpec] = []
    caps: list[CapacitorSpec] = []

    head = BusSpec(next_bus, _MV_KV, "feeder_head", net.PHASES, fid, feeder_rating)
    buses.append(head)
    next_bus += 1

    # MV backbone tree: each new bus attaches to the previous one (trunk) or
    # to a random earlier bus (branch).
    mv_ids = [head.bus_id]
    backbone_edges: list[DeviceSpec] = []
    for i in range(params["n_mv"]):
        parent = mv_ids[-1] if (i == 0 or gen.uniform() < 0.6) else \
            int(gen.choice(mv_ids))
        b = BusSpec(next_bus, _MV_KV, "dt_high", net.PHASES, fid, feeder_rating)
        buses.append(b)
        mv_ids.append(b.bus_id)
        next_bus += 1
        length = float(gen.uniform(*params["seg_km"]))
        if gen.uniform() < 0.3:
            dev_kind, r_km, x_km = "cable", gen.uniform(0.36, 0.6), gen.uniform(0.16, 0.26)
        else:
            dev_kind, r_km, x_km = "line", gen.uniform(0.68, 1.12), gen.uniform(0.6, 0.9)
        z_base = _MV_KV ** 2 / S_BASE_MVA
        d = DeviceSpec(next_uid, parent, b.bus_id, dev_kind, net.PHASES,
                       r_pu=length * r_km / z_base, x_pu=length * x_km / z_base,
                       length_km=length, rating_pu=1.2 * feeder_rating,
                       feeder_id=fid)
        devices.append(d)
        backbone_edges.append(d)
        next_uid += 1

    # mid-backbone voltage regulator replaces one line segment
    reg_idx = len(backbone_edges) // 2
    reg = backbone_edges[reg_idx]
    reg.device = "regulator"
    reg.r_pu, reg.x_pu, reg.length_km = 1e-3, 2e-3, 0.0

    # one normally-closed sectionalizing switch for texture
    sw_choices = [d for d in backbone_edges if d.device in ("line", "cable")]
    if sw_choices:
        sw = sw_choices[int(gen.integers(len(sw_choices)))]
        sw.device, sw.r_pu, sw.x_pu, sw.length_km = "switch", 1e-4, 1e-4, 0.0

    # DT chains: every MV bus hosts at least one
    hosts = [b for b in buses if b.bus_type == "dt_high"]
    chain_hosts = list(hosts)
    while len(chain_hosts) < params["n_chains"]:
        chain_hosts.append(hosts[int(gen.integers(len(hosts)))])
    lv_counts = np.ones(len(chain_hosts), dtype=int)
    extra = params["lv_total"] - len(chain_hosts)
    while extra > 0:
        i = int(gen.integers(len(chain_hosts)))
        if lv_counts[i] < 4:
            lv_counts[i] += 1
            extra -= 1
    lv_buses_all: list[BusSpec] = []
    for c, host in enumerate(chain_hosts):
        n_lv = int(lv_counts[c])
        phase = net.PHASES[c % 3]
        chain_loads: list[LoadSpec] = []
        segments = []   # (uid, from, to, km, z on own rating) until rated
        dt_low = BusSpec(next_bus, _LV_KV, "dt_low", (phase,), fid, 0.0)
        buses.append(dt_low)
        chain_members = [dt_low]
        next_bus += 1
        prev = dt_low.bus_id
        for _ in range(n_lv):
            lv = BusSpec(next_bus, _LV_KV, "lv_node", (phase,), fid, 0.0)
            buses.append(lv)
            lv_buses_all.append(lv)
            chain_members.append(lv)
            next_bus += 1
            length = float(gen.uniform(0.01, 0.03))
            z_km = complex(gen.uniform(*_LV_R_OWN_KM), gen.uniform(*_LV_X_OWN_KM))
            segments.append((next_uid, prev, lv.bus_id, length, length * z_km))
            next_uid += 1
            prev = lv.bus_id
            peak = float(gen.uniform(0.01, 0.036))  # 10..36 kW service cluster
            chain_loads.append(LoadSpec(lv.bus_id, phase, ProfileSpec(
                kind="load", peak_pu=peak,
                peak_hour=float(gen.uniform(16.5, 19.5)),
                pf=float(gen.uniform(0.92, 0.98)),
                noise_seed=int(gen.integers(2**31)),
                noise_sigma=0.35)))
        loads.extend(chain_loads)
        # each segment is rated against the peaks of every bus below it
        carried = np.cumsum([l.profile.peak_pu for l in chain_loads][::-1])[::-1]
        for (uid, frm, to, length, z_own), peak in zip(segments, carried):
            seg_rating = _RATING_MARGIN * float(peak)
            z = _on_system_base(z_own, seg_rating)
            devices.append(DeviceSpec(
                uid, frm, to, "line", (phase,), r_pu=z.real, x_pu=z.imag,
                length_km=length, rating_pu=seg_rating, feeder_id=fid))
        # the transformer is the smallest unit above the chain peak
        pick = np.searchsorted(_DT_RATINGS, _RATING_MARGIN * carried[0])
        rating = float(_DT_RATINGS[min(pick, len(_DT_RATINGS) - 1)])
        for b in chain_members:
            b.serving_rating_pu = rating
        z = _on_system_base(gen.uniform(*_DT_Z_OWN) * _DT_Z_ANGLE, rating)
        devices.append(DeviceSpec(
            next_uid, host.bus_id, dt_low.bus_id, "transformer", (phase,),
            r_pu=z.real, x_pu=z.imag, length_km=0.0, rating_pu=rating,
            feeder_id=fid))
        next_uid += 1

    # rooftop PV on roughly half of the LV buses
    n_der = len(lv_buses_all) // 2
    der_picks = gen.choice(len(lv_buses_all), size=n_der, replace=False)
    load_by_bus = {l.bus_id: l for l in loads}
    for idx in np.sort(der_picks):
        b = lv_buses_all[int(idx)]
        base_load = load_by_bus[b.bus_id]
        ders.append(DerSpec(b.bus_id, base_load.phase, ProfileSpec(
            kind="pv", peak_pu=2.5 * base_load.profile.peak_pu,
            peak_hour=float(gen.uniform(12.5, 13.5)), pf=1.0,
            noise_seed=int(gen.integers(2**31)), noise_sigma=0.3)))

    # one switched capacitor bank mid-feeder
    cap_bus = mv_ids[len(mv_ids) // 2]
    caps.append(CapacitorSpec(bus_id=cap_bus, q_pu=float(gen.uniform(0.06, 0.12)),
                              on=True))

    return FeederSpec(fid, head.bus_id, buses, devices, loads, ders, caps), \
        next_bus, next_uid


def _make_tie(gen, fa: FeederSpec, fb: FeederSpec, next_uid: int):
    """Tie the far ends of two feeders; ensure a sectionalizer above the
    transfer bus on the receiving feeder."""
    mv_a = [b for b in fa.buses if b.bus_type == "dt_high"]
    end_a = mv_a[-1].bus_id

    reg_to = {d.to_bus for d in fb.devices if d.device == "regulator"}
    candidates = [b for b in fb.buses
                  if b.bus_type == "dt_high" and b.bus_id not in reg_to]
    transfer = candidates[-1]
    upstream = next(d for d in fb.devices
                    if d.to_bus == transfer.bus_id and d.device != "transformer")
    if upstream.device != "switch":
        upstream.device, upstream.r_pu, upstream.x_pu, upstream.length_km = \
            "switch", 1e-4, 1e-4, 0.0
    tie_dev = DeviceSpec(next_uid, end_a, transfer.bus_id, "switch", net.PHASES,
                         r_pu=1e-4, x_pu=1e-4, length_km=0.0, rating_pu=1.0,
                         normally_closed=False, is_tie=True)
    tie = TieSpec(device_uid=next_uid, from_feeder=fa.feeder_id,
                  to_feeder=fb.feeder_id, transfer_bus=transfer.bus_id,
                  sectionalizer_uid=upstream.uid)
    return tie, tie_dev, next_uid + 1


# ---------------------------------------------------------------------------
# graph expansion

@dataclass
class GraphIndex:
    """Bus-phase expansion of a SubstationSpec.

    An edge is one phase of one device. Everything here is fixed for the
    life of the spec; what a timestep changes is in Controls and
    SolvedState, in the same node and edge order.
    """

    bus_phases: list[net.BusPhase]
    node_of: dict[tuple[int, str], int]
    edge_device: np.ndarray      # device uid per edge
    edge_from: np.ndarray
    edge_to: np.ndarray
    edge_kind: np.ndarray        # network.DEVICE_KINDS entry per edge
    reg_edges: np.ndarray        # the regulator edges, in edge order
    edge_impedance: np.ndarray   # complex r + jx
    edge_zmag: np.ndarray        # |r + jx|
    edge_normally_closed: np.ndarray
    edge_features: np.ndarray    # [E, 13], status and tap columns left at 0
    phys_device: np.ndarray      # line, cable or switch: physics set when closed
    # per edge: index in spec.feeders of the head a hub link feeds, else -1
    head_feeder: np.ndarray
    feeder_ids: np.ndarray       # of spec.feeders, in that order
    aux_load: complex            # the substation's own load, spec.aux_load
    node_features: np.ndarray    # [N, 17], columns no timestep changes
    serving_rating: np.ndarray
    cap_q: np.ndarray            # reactive output of the switched-on capacitors
    hub_node_ids: list[int]
    # solver trees by switch configuration (edge status bytes); see tree()
    trees: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.bus_phases)

    def tree(self, status: np.ndarray) -> _PhaseTree:
        """The phase trees of the switch configuration ``status`` (1 closed,
        0 open, per edge), built on first use and cached on the graph."""
        key = status.tobytes()
        if key not in self.trees:
            self.trees[key] = _phase_trees(self, status)
        return self.trees[key]


def build_graph(spec: SubstationSpec) -> GraphIndex:
    bus_phases: list[net.BusPhase] = []
    node_of: dict[tuple[int, str], int] = {}
    serving: list[float] = []
    for b in spec.all_buses():
        for ph in b.phases:
            nid = len(bus_phases)
            bus_phases.append(net.BusPhase(
                id=nid, bus_id=b.bus_id, phase=ph, kv_base=b.kv_base,
                bus_type=b.bus_type, feeder_id=b.feeder_id))
            node_of[(b.bus_id, ph)] = nid
            serving.append(b.serving_rating_pu)
    n = len(bus_phases)

    edge_dev: list[DeviceSpec] = []
    edge_from: list[int] = []
    edge_to: list[int] = []
    for d in spec.all_devices():
        for ph in d.phases:
            a = node_of.get((d.from_bus, ph))
            b = node_of.get((d.to_bus, ph))
            if a is None or b is None:
                continue
            edge_dev.append(d)
            edge_from.append(a)
            edge_to.append(b)

    cap_q = np.zeros(n)
    cap_on = np.zeros(n)
    for f in spec.feeders:
        for c in f.capacitors:
            if c.on:
                share = c.q_pu / len(net.PHASES)
                for ph in net.PHASES:
                    nid = node_of.get((c.bus_id, ph))
                    if nid is not None:
                        cap_q[nid] += share
                        cap_on[nid] = 1.0

    hub_nodes = [bp.id for bp in bus_phases if bp.bus_type == "substation_hub"]
    hub = set(hub_nodes)
    head_of = {node_of[(f.head_bus, ph)]: k for k, f in enumerate(spec.feeders)
               for ph in net.PHASES if (f.head_bus, ph) in node_of}
    head_feeder = [head_of.get(b, -1) if a in hub else
                   head_of.get(a, -1) if b in hub else -1
                   for a, b in zip(edge_from, edge_to)]

    kind = np.array([d.device for d in edge_dev])
    return GraphIndex(
        bus_phases=bus_phases, node_of=node_of,
        edge_device=np.array([d.uid for d in edge_dev], dtype=int),
        edge_from=np.array(edge_from, dtype=int),
        edge_to=np.array(edge_to, dtype=int),
        edge_kind=kind, reg_edges=np.flatnonzero(kind == "regulator"),
        edge_impedance=np.array([complex(d.r_pu, d.x_pu) for d in edge_dev],
                                dtype=complex),
        edge_zmag=np.array([math.hypot(d.r_pu, d.x_pu) for d in edge_dev]),
        edge_normally_closed=np.array(
            [1 if d.normally_closed else 0 for d in edge_dev], dtype=int),
        edge_features=net.static_edge_features(edge_dev),
        phys_device=np.isin(kind, ("line", "cable", "switch")),
        head_feeder=np.array(head_feeder, dtype=int),
        feeder_ids=np.array([f.feeder_id for f in spec.feeders], dtype=int),
        aux_load=spec.aux_load,
        node_features=net.static_node_features(bus_phases, cap_on),
        serving_rating=np.array(serving), cap_q=cap_q, hub_node_ids=hub_nodes,
    )


# ---------------------------------------------------------------------------
# power flow

class Controls(NamedTuple):
    """Per-timestep device state as two arrays over a GraphIndex: ``status``
    is 1 (closed) or 0 (open) per edge, and ``taps`` the integer tap step
    of each edge of ``reg_edges``."""

    status: np.ndarray
    taps: np.ndarray


@dataclass
class SolvedState:
    """What the solver produced for one timestep, or for a run of them
    stacked along a leading [T] axis (run_timeseries); derive_flows forms
    the rest. Node arrays follow the graph's node order and edge arrays its
    edge order. ``i_branch`` is each tree edge's current from parent to
    child, before its tap ratio, and 0 on open edges."""

    graph: GraphIndex
    timestamp: float | np.ndarray   # minutes
    s_injection: np.ndarray         # complex net consumption per node
    controls: Controls              # the status and taps solved under
    v: np.ndarray                   # complex node voltages
    i_branch: np.ndarray
    v_mag: np.ndarray
    sweep_iterations: int | np.ndarray


def solve_powerflow(spec: SubstationSpec, graph: GraphIndex,
                    s_injection: np.ndarray, controls: Controls,
                    timestamp: float = 0.0,
                    max_iter: int = SOLVER_MAX_ITER) -> SolvedState:
    """Backward-forward sweep over every phase tree of the substation.

    ``s_injection`` is complex net consumption per bus-phase node (load minus
    generation; capacitors contribute negative reactive consumption), and
    ``controls`` the switch status of every edge and the tap step of every
    regulator edge. The hub nodes are the slack at the LTC setpoint. Both
    sweeps are level-synchronous: they loop over the depths of the BFS tree
    cached for ``controls.status`` and treat each depth as whole arrays,
    with the same arithmetic, in the same order, as a sweep node by node.
    The tree carries the sweeps' gather indices, impedance coefficients and
    its regulator edges level by level, with their index into
    ``controls.taps``; a solve forms the tap ratios of those edges alone.
    """
    n = graph.n_nodes
    tree = graph.tree(controls.status)

    # the sweeps work in BFS positions: s and v are tree.order's nodes
    ratio = _tap_ratios(tree, controls.taps)
    ratio_coef = _pair_coefficients(ratio.astype(complex))[tree.ratio_index]
    s = s_injection[tree.order]
    v = np.full(n, complex(spec.ltc_setpoint, 0.0), dtype=complex)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        i_acc = _backward_sweep(tree, ratio_coef, s, v)
        v_prev = v.copy()
        _forward_sweep(tree, ratio_coef, i_acc, v)
        # NaN from a divergent case propagates here and fails the tolerance
        # check, so divergence always exits through the iteration limit
        residual = float(np.max(np.abs(v - v_prev)))
        if residual < SOLVER_TOL:
            break
    else:
        raise PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(last residual {residual:.3e})", residual=residual)
    if not np.all(np.isfinite(v)):
        raise PowerFlowError("solver produced non-finite voltages",
                             residual=residual)

    # one more backward pass with the final voltages makes bus-level complex
    # power conservation exact
    i_acc = _backward_sweep(tree, ratio_coef, s, v)
    v_volt = np.empty(n, dtype=complex)
    v_volt[tree.order] = v
    i_branch = np.zeros(len(graph.edge_device), dtype=complex)
    i_branch[tree.edges] = i_acc[len(graph.hub_node_ids):]
    # the state owns its inputs: the caller may reuse its arrays
    return SolvedState(graph, timestamp, s_injection.copy(),
                       Controls(controls.status.copy(), controls.taps.copy()),
                       v_volt, i_branch, np.abs(v_volt), iterations)


class _Level(NamedTuple):
    """One depth of a phase tree, in BFS positions.

    The sweeps read a complex array of BFS positions through its flat float
    view, where position k holds its real part at 2k and its imaginary
    part at 2k + 1. Only a regulator has a tap ratio other than 1, so a
    level moves its values as they are: the backward sweep adds its run
    ``pairs`` into ``parent_up``, the forward sweep gathers ``parent``.
    Where the level holds regulator edges, their ratio products overwrite
    the ``reg_slots`` of the run first. ``reg_own`` and ``reg_parent``
    address those nodes' own and parent pairs, each as the pairs followed
    by the same pairs with real and imaginary exchanged, as the cross terms
    of a complex product need (_fused_pairs): one gather and one multiply
    by the level's ``reg_block`` of the solve's [re | cross] ratio
    coefficients form both terms of each product.
    """

    nodes: slice             # the depth's run of BFS positions
    edges: np.ndarray        # edge above each of those nodes
    pairs: slice             # the run in the float view
    span: slice              # the run in the float view past the roots
    parent: np.ndarray       # each node's parent pair
    parent_up: np.ndarray    # the parent pairs reversed, for the backward sweep
    reg_slots: np.ndarray    # the regulator nodes' pairs within the run
    reg_own: np.ndarray      # their pairs in the float view, then swapped
    reg_parent: np.ndarray   # their parents' pairs, then swapped
    reg_block: slice         # their [re | cross] block of the ratio


class _PhaseTree(NamedTuple):
    """The radial forest of one switch configuration (see _phase_trees).

    Past the roots, ``edges``, ``own`` and ``z_coef`` follow the BFS
    positions of the k non-root nodes. ``reg_edges`` holds the tree's m
    regulator edges level by level, ``reg_taps`` their index into
    ``Controls.taps`` and ``reg_flip`` whether each is specified child ->
    parent. ``ratio_index`` lays out each level's regulator block in turn,
    4 entries per regulator edge, in the [re | cross] _pair_coefficients of
    the m ratios, so a level's ``reg_block`` is twice its ``reg_slots``.
    """

    order: np.ndarray        # node at each BFS position, roots first
    parent_node: np.ndarray  # per node, -1 at roots
    child: np.ndarray        # per edge, -1 when open
    levels: list[_Level]     # depths 1, 2, ... (the roots are depth 0)
    edges: np.ndarray        # edge above each non-root position
    own: np.ndarray          # [4k] their pairs, then swapped
    z_coef: np.ndarray       # [4k] [re | cross] of those edges' impedance
    reg_edges: np.ndarray    # [m] regulator edges, level by level
    reg_taps: np.ndarray     # [m] their index into Controls.taps
    reg_flip: np.ndarray     # [m] specified child -> parent
    ratio_index: np.ndarray  # [4m] the levels' regulator blocks in turn


def _phase_trees(graph: GraphIndex, status: np.ndarray) -> _PhaseTree:
    """BFS trees of the closed edges, one per phase, rooted at the hub.

    Returns the visiting order (roots first), the parent node of every
    node (-1 at roots), the child node of every edge (-1 when open), and
    the order cut into depth levels: BFS visits depths in
    nondecreasing order, so each depth is a contiguous run of it. The
    sweeps' gather indices, regulator slots and impedance rows are built
    here too, once per switch configuration. Raises PowerFlowError when a
    node is islanded or the closed edges form a loop.
    """
    n = graph.n_nodes
    parent_edge = np.full(n, -1, dtype=int)       # edge index into edge arrays
    parent_node = np.full(n, -1, dtype=int)
    depth = np.zeros(n, dtype=int)
    order: list[int] = []                          # BFS order, roots first
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    closed_edges = np.flatnonzero(status == 1)
    for e in closed_edges:
        a, b = graph.edge_from[e], graph.edge_to[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    seen = np.zeros(n, dtype=bool)
    for root in graph.hub_node_ids:
        seen[root] = True
        order.append(root)
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v, e in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            parent_edge[v] = e
            parent_node[v] = u
            depth[v] = depth[u] + 1
            order.append(v)
    if not np.all(seen):
        bad = graph.bus_phases[int(np.flatnonzero(~seen)[0])]
        raise PowerFlowError(
            f"bus-phase {bad.id} (bus {bad.bus_id} phase {bad.phase}) is "
            f"islanded from the substation hub")
    if len(closed_edges) != n - len(graph.hub_node_ids):
        raise PowerFlowError(
            f"closed-edge count {len(closed_edges)} does not form a radial "
            f"forest over {n} nodes ({len(graph.hub_node_ids)} roots); "
            f"a loop is present")
    child = np.full(len(status), -1, dtype=int)
    tree_nodes = np.flatnonzero(parent_edge >= 0)
    child[parent_edge[tree_nodes]] = tree_nodes

    order_arr = np.array(order, dtype=int)
    position = np.empty(n, dtype=int)
    position[order_arr] = np.arange(n)
    roots = len(graph.hub_node_ids)
    edges = parent_edge[order_arr[roots:]]
    bounds = np.flatnonzero(np.diff(depth[order_arr])) + 1
    tap_of = np.full(len(status), -1)
    tap_of[graph.reg_edges] = np.arange(len(graph.reg_edges))
    # the levels tile the positions in order, so the regulator positions in
    # BFS order hold the tree's regulator edges level by level
    reg_pos = np.flatnonzero(tap_of[edges] >= 0)
    reg_edges = edges[reg_pos]
    m = len(reg_pos)
    levels = []
    ratio_index = []
    done = 0                                       # regulator edges above
    for lo, hi in zip(bounds.tolist(), [*bounds[1:].tolist(), n]):
        run = edges[lo - roots:hi - roots]
        parent_pos = position[parent_node[order_arr[lo:hi]]]
        parent = _pair_index(parent_pos)
        reg = np.flatnonzero(tap_of[run] >= 0)
        # the level's regulator block: its ratios' re entries, then their
        # cross entries
        pairs = _pair_index(done + np.arange(len(reg)))
        ratio_index += [pairs, 2 * m + pairs]
        levels.append(_Level(
            nodes=slice(lo, hi), edges=run, pairs=slice(2 * lo, 2 * hi),
            span=slice(2 * (lo - roots), 2 * (hi - roots)),
            parent=parent, parent_up=parent[::-1].copy(),
            reg_slots=_pair_index(reg), reg_own=_fused_pairs(lo + reg),
            reg_parent=_fused_pairs(parent_pos[reg]),
            reg_block=slice(4 * done, 4 * (done + len(reg)))))
        done += len(reg)
    return _PhaseTree(
        order_arr, parent_node, child, levels, edges,
        own=_fused_pairs(np.arange(roots, n)),
        z_coef=_pair_coefficients(graph.edge_impedance[edges]),
        reg_edges=reg_edges, reg_taps=tap_of[reg_edges],
        reg_flip=graph.edge_to[reg_edges] != order_arr[roots + reg_pos],
        ratio_index=np.concatenate([np.zeros(0, dtype=int), *ratio_index]))


def _pair_index(k: np.ndarray) -> np.ndarray:
    """Float-view indices 2k, 2k + 1 of each position k, in order."""
    return np.stack([2 * k, 2 * k + 1], axis=1).ravel()


def _fused_pairs(k: np.ndarray) -> np.ndarray:
    """The pairs of positions k, then the same pairs with real and
    imaginary exchanged: one gather fetches both operands of the products
    with a [re | cross] coefficient array."""
    pairs = _pair_index(k)
    return np.concatenate([pairs, pairs ^ 1])


def _pair_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of x -> a * x over the float view, as one array
    [re | cross]: (re, re) and then (-im, im) per element of a. With xs the
    swapped view of x, re * x + cross * xs is (ar*xr - ai*xi, ar*xi + ai*xr):
    the product a scalar complex multiply forms, bit for bit, since IEEE 754
    defines p - q as p + (-q). A whole-array complex multiply can round
    differently. The sweeps form these products for the regulator edges
    alone (the tap ratios) and for every tree edge's impedance."""
    re = np.repeat(a.real, 2)
    cross = np.repeat(a.imag, 2)
    cross[0::2] = -cross[0::2]
    return np.concatenate([re, cross])


def _backward_sweep(tree: _PhaseTree, ratio_coef: np.ndarray, s: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """Node currents conj(s / v) accumulated toward the roots, deepest
    level first, by BFS position. Past the roots, entry k is then the
    current in the edge above the node at position k.

    Each level adds its currents into its parents in reverse BFS order,
    the order a node-by-node pass over the reversed BFS order takes, so
    every sum is formed in the same sequence. A regulator's current enters
    times its ratio, the real ratio taken as the complex (r, 0), as in a
    scalar product. Elsewhere the ratio is 1, and the product by (1, 0)
    would change a current only in the sign of an exact zero, so the run
    is added as it is. Inside a subtree without injections, a zero current
    then keeps the -0 imaginary part of conj(0 / v) where the product would
    give +0. derive_flows multiplies every branch current by its ratio
    again, which clears that sign on each edge specified from parent to
    child, as every generated edge is.
    """
    i_acc = np.conj(s / v)
    x = i_acc.view(np.float64)
    for lv in reversed(tree.levels):
        # a copy, not a view: np.add.at takes a slower path when its
        # operands share memory
        run = x[lv.pairs].copy()
        if len(lv.reg_slots):
            t = x[lv.reg_own]
            t *= ratio_coef[lv.reg_block]
            h = len(lv.reg_slots)
            run[lv.reg_slots] = t[:h] + t[h:]
        np.add.at(x, lv.parent_up, run[::-1])
    return i_acc


def _forward_sweep(tree: _PhaseTree, ratio_coef: np.ndarray,
                   i_acc: np.ndarray, v: np.ndarray) -> None:
    """v = ratio * v_parent - z * i_branch, shallowest level first, in
    place by BFS position. The branch currents are final before the sweep
    starts, so z * i_branch is formed for all levels at once. The ratio
    product runs at regulator edges alone. Elsewhere the product by (1, 0)
    could change a parent voltage only in the sign of an exact zero, and no
    voltage has one: the real part is never zero, and the imaginary part
    starts at +0 at the roots and a difference is -0 only from -0."""
    zi = i_acc.view(np.float64)[tree.own]
    zi *= tree.z_coef
    h = len(zi) // 2
    zi = zi[:h] + zi[h:]
    x = v.view(np.float64)
    for lv in tree.levels:
        t = x[lv.parent]
        if len(lv.reg_slots):
            p = x[lv.reg_parent]
            p *= ratio_coef[lv.reg_block]
            h = len(lv.reg_slots)
            t[lv.reg_slots] = p[:h] + p[h:]
        np.subtract(t, zi[lv.span], out=x[lv.pairs])


def _times_conj(ar, ai, br, bi):
    """Real and imaginary parts of a * conj(b), written out in real
    arithmetic: numpy's whole-array complex multiply can round differently
    from the scalar product in the last bit."""
    return ar * br + ai * bi, ai * br - ar * bi


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` in lexicographic order and the index
    of each row among them, as ``np.unique(rows, axis=0,
    return_inverse=True)`` gives them. Rows are grouped by their bytes, and
    only the distinct rows are sorted."""
    group: dict[bytes, int] = {}
    ids = np.array([group.setdefault(row.tobytes(), len(group))
                    for row in rows])
    # ids number the groups in order of first appearance
    distinct = rows[np.unique(ids, return_index=True)[1]]
    order = np.lexsort(distinct.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[ids]


def _tap_ratios(tree: _PhaseTree, taps: np.ndarray) -> np.ndarray:
    """The ratios of tree.reg_edges under taps [..., R], applied from the
    parent side to the child side. A tap is tied to the device's to-bus, so
    a device specified child -> parent sees its ratio inverted."""
    ratio = 1.0 + REG_STEP * taps[..., tree.reg_taps]
    ratio[..., tree.reg_flip] = 1.0 / ratio[..., tree.reg_flip]
    return ratio


class Flows(NamedTuple):
    """What a solved state implies, with its leading axes. Edge flows are
    sending-end values in the spec's from -> to direction, 0 on open edges.
    ``head`` is the power the hub sends into each feeder head, in
    graph.feeder_ids order. ``residual`` is each node's |complex power in -
    out - consumption|, 0 at the hub nodes, which are the slack."""

    edge_p: np.ndarray        # [..., E]
    edge_q: np.ndarray
    edge_i_mag: np.ndarray
    head: np.ndarray          # [..., F] complex
    s_subxfmr: np.ndarray     # [...] complex
    residual: np.ndarray      # [..., N]


def derive_flows(state: SolvedState) -> Flows:
    """The Flows of one solved step or of a run, DERIVE_STEPS steps of one
    switch configuration at a time. Every value is formed with the
    arithmetic of a single step, so a run's rows equal each step's own
    derivation bit for bit: a scatter adds each step's edges in edge order,
    and ``s_subxfmr`` is Python's ``sum`` of the heads plus the aux load."""
    g = state.graph
    status, taps, v, i, s_inj = (np.atleast_2d(a) for a in (
        *state.controls, state.v, state.i_branch, state.s_injection))
    p, q, i_mag = (np.zeros(status.shape) for _ in range(3))
    head = np.zeros((len(status), len(g.feeder_ids)), dtype=complex)
    acc = -s_inj
    configs, which = group_rows(status)
    for k, lo in product(range(len(configs)),
                         range(0, len(status), DERIVE_STEPS)):
        config, tree = configs[k], g.tree(configs[k])
        steps = lo + np.flatnonzero(which[lo:lo + DERIVE_STEPS] == k)
        t = steps[:, None]
        vr, vi, ir, ii = (x[steps] for x in (v.real, v.imag, i.real, i.imag))
        e_ratio = np.ones((len(steps), len(config)))
        e_ratio[:, tree.reg_edges] = _tap_ratios(tree, taps[steps])
        # e_ratio * i_branch with the real ratio taken as the complex (r, 0)
        cr = e_ratio * ir - 0.0 * ii
        ci = e_ratio * ii + 0.0 * ir

        # a closed edge is a tree edge, its child node is either end
        a = g.edge_from
        fwd, bwd = (np.flatnonzero(tree.child == e) for e in (g.edge_to, a))
        p[t, fwd], q[t, fwd] = _times_conj(vr[:, a[fwd]], vi[:, a[fwd]],
                                           cr[:, fwd], ci[:, fwd])
        pb, qb = _times_conj(vr[:, a[bwd]], vi[:, a[bwd]], ir[:, bwd],
                             ii[:, bwd])
        p[t, bwd], q[t, bwd] = -pb, -qb
        closed = np.flatnonzero(config)
        i_mag[t, closed] = np.hypot(ir[:, closed], ii[:, closed])

        links = np.flatnonzero((g.head_feeder >= 0) & (config == 1))
        hub = tree.parent_node[tree.child[links]]
        sr, si = _times_conj(vr[:, hub], vi[:, hub], cr[:, links],
                             ci[:, links])
        np.add.at(head.real, (t, g.head_feeder[links]), sr)
        np.add.at(head.imag, (t, g.head_feeder[links]), si)

        s_from = p[t, closed] + 1j * q[t, closed]
        loss = g.edge_impedance[closed] * i_mag[t, closed] ** 2
        np.add.at(acc, (t, g.edge_from[closed]), -s_from)
        np.add.at(acc, (t, g.edge_to[closed]), s_from - loss)
    acc[:, g.hub_node_ids] = 0.0
    flows = Flows(p, q, i_mag, head, sum(head.T) + g.aux_load, np.abs(acc))
    return flows if np.ndim(state.v) > 1 else Flows(*(a[0] for a in flows))


def conservation_residuals(state: SolvedState) -> np.ndarray:
    """derive_flows' per-node conservation residuals of a solved state."""
    return derive_flows(state).residual


def solver_health(run: SolvedState, flows: Flows) -> dict:
    """How a run's solves went: sweep iterations (mean, max, and the number
    of solves per iteration count), the largest per-node conservation
    residual, the lowest and highest regulator tap step, the voltage range
    over every snapshot per bus type, and whether every voltage lies inside
    VOLTAGE_BAND. ``flows`` is derive_flows of the run."""
    v = run.v_mag
    bus_type = np.array([bp.bus_type for bp in run.graph.bus_phases])
    iterations = run.sweep_iterations.tolist()
    taps = run.controls.taps
    lo, hi = VOLTAGE_BAND
    return {
        "snapshots": len(v),
        "sweep_iterations_mean": float(np.mean(iterations)),
        "sweep_iterations_max": max(iterations),
        "sweep_iterations_hist": dict(sorted(Counter(iterations).items())),
        "tap_steps": [int(taps.min()), int(taps.max())] if taps.size else None,
        "conservation_max_pu": float(flows.residual.max()),
        "v_range_pu": {t: [float(v[:, bus_type == t].min()),
                           float(v[:, bus_type == t].max())]
                       for t in net.BUS_TYPES if np.any(bus_type == t)},
        "band_pu": list(VOLTAGE_BAND),
        "in_band": bool(v.min() > lo and v.max() < hi),
    }


def structural_annotations(
    graph: GraphIndex, status: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Depth, electrical distance, degree and supplying feeder per node for
    the switch configuration ``status``, read off its cached phase tree.

    Depth counts hops from the feeder head that currently supplies the node
    (0 at heads and at the hub). Electrical distance accumulates |Z| of the
    edges along that path. Degree counts incident closed edges. The
    supplying feeder follows the energized path, so a subtree fed through a
    closed tie is attributed to the feeder that actually supplies it. Raises
    PowerFlowError when a node is islanded or the closed edges form a loop.
    """
    tree = graph.tree(status)
    n = graph.n_nodes
    head = np.array([bp.bus_type == "feeder_head" for bp in graph.bus_phases])
    own = np.array([bp.feeder_id for bp in graph.bus_phases])
    depth = np.zeros(n)
    elec = np.zeros(n)
    feeder = np.full(n, net.HUB_FEEDER, dtype=int)
    # shallowest level first: each parent is final before its children
    for lv in tree.levels:
        nodes = tree.order[lv.nodes]
        up = tree.parent_node[nodes]
        reset = head[nodes]
        depth[nodes] = np.where(reset, 0.0, depth[up] + 1.0)
        elec[nodes] = np.where(reset, 0.0, elec[up] + graph.edge_zmag[lv.edges])
        feeder[nodes] = np.where(reset, own[nodes], feeder[up])
    closed = status == 1
    degree = (np.bincount(graph.edge_from[closed], minlength=n)
              + np.bincount(graph.edge_to[closed], minlength=n)).astype(float)
    return depth, elec, degree, feeder


# ---------------------------------------------------------------------------
# profiles and time series

def _ar1(noise: np.ndarray, rho: float = 0.6) -> np.ndarray:
    """AR(1) series x_t = rho * x_(t-1) + sqrt(1 - rho^2) * e_t, x_(-1) = 0,
    of each column of the [T, P] innovations e, in place: one vector step
    per row, with the arithmetic of a scalar loop over one column."""
    noise *= math.sqrt(1 - rho ** 2)
    prev = np.zeros(noise.shape[1])
    for row in noise:
        row += rho * prev
        prev = row
    return noise


def materialize_profiles(profiles: list[ProfileSpec],
                         n_steps: int) -> np.ndarray:
    """Active-power series (p.u.) of each profile over n_steps 15-minute
    intervals, [P, T]: the daily shape of its kind times AR(1) noise that
    the profile draws from its own stream, clipped."""
    kinds = np.array([p.kind for p in profiles], dtype=object)
    load, pv = kinds == "load", kinds == "pv"
    unknown = kinds[~(load | pv)]
    if len(unknown):
        raise ValueError(f"unknown profile kind {unknown[0]!r}")
    noise = np.empty((n_steps, len(profiles)))
    for k, p in enumerate(profiles):
        noise[:, k] = _rng(p.noise_seed, "profile", p.kind).normal(
            0.0, p.noise_sigma, size=n_steps)
    ar = _ar1(noise).T

    hours = (np.arange(n_steps) * TIMESTEP_MINUTES / 60.0) % 24.0
    peak = np.array([p.peak_pu for p in profiles])[:, None]
    peak_hour = np.array([p.peak_hour for p in profiles])[load, None]
    out = np.empty((len(profiles), n_steps))
    shape = 0.55 + 0.35 * np.cos(2 * np.pi * (hours - peak_hour) / 24.0)
    shape = shape * (1.0 + ar[load])
    out[load] = peak[load] * np.clip(shape, 0.08, 1.2)
    elev = np.sin(np.pi * (hours - 6.0) / 12.5)
    elev = np.clip(elev, 0.0, None) ** 1.3
    cloud = np.clip(1.0 - np.abs(ar[pv]), 0.15, 1.0)
    out[pv] = peak[pv] * elev * cloud
    return out


def _regulate(graph: GraphIndex, controls: Controls,
              v_mag: np.ndarray) -> np.ndarray:
    """Deadband tap control: the taps after one step of each regulator
    that moves its load side toward 1.0 p.u., raising it below
    1 - REG_DEADBAND and lowering it above 1 + REG_DEADBAND, never past
    +/-REG_MAX_TAP. The load side is the child end of the regulator's edge
    in the phase tree of ``controls.status``. A regulator specified child
    -> parent sees its ratio inverted (solve_powerflow), so a higher tap
    lowers its load side and its steps run the other way. An open
    regulator holds its tap."""
    taps = controls.taps
    child = graph.tree(controls.status).child[graph.reg_edges]
    v = np.where(child >= 0, v_mag[child], 1.0)
    low, high = v < 1.0 - REG_DEADBAND, v > 1.0 + REG_DEADBAND
    flip = child == graph.edge_from[graph.reg_edges]
    up, down = np.where(flip, high, low), np.where(flip, low, high)
    return taps + (up & (taps < REG_MAX_TAP)) - (down & (taps > -REG_MAX_TAP))


def _injections(spec: SubstationSpec, graph: GraphIndex,
                scenario: ScenarioConfig) -> np.ndarray:
    """Complex net consumption per timestep and bus-phase node, [T, N]:
    loads minus PV generation, less the capacitors' reactive output."""
    n_steps = scenario.horizon_minutes // TIMESTEP_MINUTES
    loads = [l for f in spec.feeders for l in f.loads]
    ders = [d for f in spec.feeders for d in f.ders]
    s_inj = np.zeros((n_steps, graph.n_nodes), dtype=complex)
    # add.at on the [N, T] view accumulates shared nodes in list order
    if loads:
        load_p = materialize_profiles([l.profile for l in loads], n_steps)
        load_q = load_p * np.array(
            [math.tan(math.acos(l.profile.pf)) for l in loads])[:, None]
        np.add.at(s_inj.T, [graph.node_of[(l.bus_id, l.phase)] for l in loads],
                  load_p + 1j * load_q)
    if ders:
        pv_scale = scenario.der_penetration / 100.0
        der_p = pv_scale * materialize_profiles([d.profile for d in ders],
                                                n_steps)
        np.add.at(s_inj.T, [graph.node_of[(d.bus_id, d.phase)] for d in ders],
                  -der_p)
    s_inj -= 1j * graph.cap_q
    return s_inj


def run_timeseries(spec: SubstationSpec,
                   scenario: ScenarioConfig) -> SolvedState:
    """Solve the scenario horizon at 15-minute resolution, one
    solve_powerflow per step, into one state of [T, ...] arrays.

    Timesteps are independent given the control state carried over from the
    previous step (regulator taps). Tie closures listed in the scenario take
    effect at ``tie_close_step`` together with their sectionalizer opening.
    """
    graph = build_graph(spec)
    tied = graph.edge_normally_closed.copy()
    for ti in scenario.tie_closures:
        tie = spec.ties[ti]
        tied[graph.edge_device == tie.device_uid] = 1
        tied[graph.edge_device == tie.sectionalizer_uid] = 0
    s_inj = _injections(spec, graph, scenario)
    n_steps = len(s_inj)
    steps = np.arange(n_steps)
    run = SolvedState(
        graph, TIMESTEP_MINUTES * steps.astype(float), s_inj,
        Controls(np.where(steps[:, None] >= scenario.tie_close_step, tied,
                          graph.edge_normally_closed),
                 np.zeros((n_steps, len(graph.reg_edges)), dtype=int)),
        np.empty(s_inj.shape, dtype=complex),
        np.empty((n_steps, len(tied)), dtype=complex),
        np.empty(s_inj.shape), np.empty(n_steps, dtype=int))
    for t in steps.tolist():
        controls = Controls(run.controls.status[t], run.controls.taps[t])
        try:
            state = solve_powerflow(spec, graph, s_inj[t], controls,
                                    timestamp=float(t * TIMESTEP_MINUTES))
        except PowerFlowError as exc:
            raise PowerFlowError(f"timestep {t}: {exc}", exc.residual) from exc
        run.v[t], run.i_branch[t], run.v_mag[t] = (state.v, state.i_branch,
                                                   state.v_mag)
        run.sweep_iterations[t] = state.sweep_iterations
        if t + 1 < n_steps:
            run.controls.taps[t + 1] = _regulate(graph, controls, state.v_mag)
    return run
