"""Typed message passing with physics-biased attention over bus-phase graphs.

The estimator is an L-layer encoder. Each layer computes directed edge
messages with device-type-specific weights, scores edges with a learned
term plus a structural prior (low impedance, phase match, transformer or
regulator membership, short length), normalizes scores within each
receiver's neighborhood, and applies a residual MLP update with layer
normalization. Open or phase-incompatible edges are dropped before any
arithmetic, so disabled paths cannot influence results even through
softmax normalization.

After the last layer a substation conditioning step pools embeddings per
feeder, averages feeder pools into a per-graph context, applies
feature-wise affine modulation, and scales each feeder by a scalar gate.
A node-wise two-layer decoder maps embeddings to voltage magnitude.

Parameters split into two freezing groups: "backbone" (input projection,
layers 1..L-1, prior coefficients) and "head" (last layer, conditioning,
gates, decoder). Transfer to a new substation trains the head only. One
function, ``layout``, gives every tensor's name, shape and group in the
canonical order, backbone first; the parameters are views of one flat
vector in that order, so each group is one contiguous span of it.

A batch is the disjoint union of masked ``dataset.Snapshot`` records
(``build_batch``). A training step forwards one snapshot. Every no-grad
forward cuts its snapshots into consecutive, balanced runs of at most
``BATCH_NODES`` bus-phase nodes (``batch_runs``), sized so that a layer's
activations stay in a core's L2 cache; the scorer forwards up to two runs
at once, one per core (``evaluation.level_predictions``). The batch
carries its edge plan, the index arrays every layer shares. Within one
switch configuration, a mask or a time step changes only the arrays that
``refill`` takes from the snapshots, so one built batch, plan and bins
included, serves every mask and every time step of its configurations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import network as net
from .dataset import Snapshot, write_npz
from .seeding import rng as _rng
from .settings import check_fields, from_settings

CHECKPOINT_FORMAT = "gridvolt-checkpoint/v1"
N_EDGE_TYPES = 4  # line, cable, transformer/regulator, switch

_DEV_COLS = slice(net.EDGE_FEATURE_INDEX["dev_line"],
                  net.EDGE_FEATURE_INDEX["dev_switch"] + 1)
_PH_COLS = slice(net.NODE_FEATURE_INDEX["phase_a"],
                 net.NODE_FEATURE_INDEX["phase_c"] + 1)
_EDGE_PH_COLS = slice(net.EDGE_FEATURE_INDEX["phase_a"],
                      net.EDGE_FEATURE_INDEX["phase_c"] + 1)


@dataclass
class ModelConfig:
    hidden_dim: int = 64
    n_layers: int = 4
    decoder_hidden: int = 64
    temperature: float = 1.0
    beta_init: tuple[float, float, float, float] = (1.0, 1.0, 0.5, 0.5)
    sensor_gain: float = 25.0   # init-time amplification of the sensor rows

    def __post_init__(self):
        check_fields(self)
        if self.n_layers < 2:
            raise ValueError("need at least 2 layers to split freezing groups")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.sensor_gain < 0:
            raise ValueError("sensor_gain must be non-negative")


_LAYER_TENSORS = tuple(f"msg{r}" for r in range(N_EDGE_TYPES)) + (
    "att_W", "att_a", "phi_W1", "phi_b1", "phi_W2", "phi_b2", "norm_gain",
    "norm_bias")
# initialized to ones, as is every norm_gain; beta takes the config's
# coefficients, every other 1-D tensor zeros and every other matrix a
# normal draw
_ONES = ("film.bg", "eta", "decoder.b2")


def layout(config: ModelConfig,
           n_gates: int) -> list[tuple[str, tuple[int, ...], str]]:
    """``(name, shape, group)`` of every parameter tensor in the canonical
    flat order: the backbone, then the head, so each freezing group is one
    contiguous span. ``n_gates`` is the number of feeder gates."""
    d, dh = config.hidden_dim, config.decoder_hidden
    cat = 2 * d + net.N_EDGE_FEATURES
    rows = [("input.W", (net.N_NODE_FEATURES, d), "backbone"),
            ("input.b", (d,), "backbone"),
            ("beta", (len(config.beta_init), 1), "backbone")]
    layer_shapes = [(cat, d)] * (N_EDGE_TYPES + 1) + [
        (d, 1), (d, d), (d,), (d, d), (d,), (d,), (d,)]
    for layer in range(config.n_layers):
        group = "head" if layer == config.n_layers - 1 else "backbone"
        rows.extend((f"layer{layer}.{n}", shape, group)
                    for n, shape in zip(_LAYER_TENSORS, layer_shapes))
    rows.extend((name, shape, "head") for name, shape in (
        ("film.Wg", (d, d)), ("film.bg", (d,)), ("film.Wb", (d, d)),
        ("film.bb", (d,)), ("eta", (n_gates, 1)), ("decoder.W1", (d, dh)),
        ("decoder.b1", (dh,)), ("decoder.W2", (dh, 1)), ("decoder.b2", (1,))))
    return rows


class ModelParams:
    """Named parameter tensors plus the feeder-gate row mapping.

    The tensors are exactly those of ``layout(config, len(feeder_rows))``,
    with its shapes, and live in one ``ad.FlatStore`` in its order whatever
    the order of the given dict (a checkpoint yields sorted names):
    ``store.values`` is every parameter value and ``store.grad`` every
    gradient, each tensor a view of its span. ``groups`` maps each name to
    its freezing group. Nothing in the store refers back to it, so the
    parameters are freed by reference counting.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, ad.Tensor],
                 feeder_rows: dict[int, int]):
        self.config = config
        self.feeder_rows = dict(feeder_rows)
        self._pack(tensors)

    def _pack(self, tensors: dict[str, ad.Tensor]) -> None:
        rows = layout(self.config, len(self.feeder_rows))
        unknown = set(tensors) - {name for name, _, _ in rows}
        if unknown:
            raise ValueError(f"unknown tensor {sorted(unknown)[0]}")
        for name, shape, _ in rows:
            if name not in tensors:
                raise ValueError(f"missing tensor {name}")
            if tensors[name].shape != shape:
                raise ValueError(f"tensor {name} has shape "
                                 f"{tensors[name].shape}, expected {shape}")
        self.groups = {name: group for name, _, group in rows}
        self.tensors = {name: tensors[name] for name in self.groups}
        self.store = ad.FlatStore(list(self.tensors.values()))

    @classmethod
    def create(cls, config: ModelConfig, feeder_ids: list[int],
               seed: int = 0) -> "ModelParams":
        d = config.hidden_dim
        feeder_rows = {int(f): k for k, f in enumerate(sorted(set(feeder_ids)))}
        if net.HUB_FEEDER in feeder_rows:
            raise ValueError("the hub pseudo-feeder cannot have a gate")
        scales = {"film.Wg": 0.01 / np.sqrt(d), "film.Wb": 0.01 / np.sqrt(d),
                  "decoder.W2": 0.01}
        t: dict[str, ad.Tensor] = {}
        for name, shape, _ in layout(config, len(feeder_rows)):
            if name == "beta":
                values = np.array(config.beta_init)[:, None]
            elif name in _ONES or name.endswith(".norm_gain"):
                values = np.ones(shape)
            elif len(shape) == 1:
                values = np.zeros(shape)
            else:
                values = _rng(seed, "model-init", name).normal(
                    0.0, scales.get(name, 1.0 / np.sqrt(shape[0])), size=shape)
            t[name] = ad.Tensor(values, requires_grad=True, name=name)
        # The sensor reading sits near 1.0 pu, so its informative part (the
        # deviation from nominal) is tiny next to the 0/1 mask toggle and the
        # gradient never amplifies it at these learning rates. Tie the two
        # sensor rows anti-symmetrically at a larger scale: an observed node
        # contributes kappa*(v-1) to the embedding and a masked node exactly
        # zero, so the deviation enters at O(1) from the first step.
        kap = _rng(seed, "model-init", "sensor-rows").normal(
            0.0, config.sensor_gain / np.sqrt(net.N_NODE_FEATURES), size=d)
        t["input.W"].values[net.NODE_FEATURE_INDEX["m_obs_v_pu"]] = kap
        t["input.W"].values[net.NODE_FEATURE_INDEX["m_obs"]] = -kap
        return cls(config, t, feeder_rows)

    # -- freezing groups ----------------------------------------------------

    def backbone_names(self) -> list[str]:
        return [n for n, g in self.groups.items() if g == "backbone"]

    def span(self, group: str) -> slice:
        """The group's contiguous span of ``store.values``."""
        ks = [k for k, g in enumerate(self.groups.values()) if g == group]
        return slice(self.store.bounds[ks[0]], self.store.bounds[ks[-1] + 1])

    def replace_eta(self, feeder_ids: list[int]) -> None:
        """Fresh unit gates for a new set of feeders (transfer setup).

        The gate count can change, so every tensor is repacked into a new
        store; build optimizers after this call."""
        self.feeder_rows = {int(f): k
                            for k, f in enumerate(sorted(set(feeder_ids)))}
        tensors = dict(self.tensors)
        tensors["eta"] = ad.Tensor(
            np.ones((len(self.feeder_rows), 1)), requires_grad=True, name="eta")
        self._pack(tensors)


# ---------------------------------------------------------------------------
# batch assembly


def status_gate(edge_z: np.ndarray, phase_i: np.ndarray,
                phase_j: np.ndarray) -> np.ndarray:
    """1 where the edge is closed and both endpoint phases lie in its mask."""
    status = edge_z[:, net.EDGE_FEATURE_INDEX["status"]]
    mask = edge_z[:, _EDGE_PH_COLS]
    ok_i = np.einsum("ep,ep->e", mask, phase_i) > 0
    ok_j = np.einsum("ep,ep->e", mask, phase_j) > 0
    return ((status == 1.0) & ok_i & ok_j).astype(np.float64)


@dataclass
class GraphBatch:
    """Disjoint union of snapshots with gated, receiver-sorted edges.

    The arrays after ``phys_x``, and the plan's ``z``, are the snapshots'
    own; ``refill`` sets them."""

    plan: ad.EdgePlan           # the edges, their features and device types
    prior: np.ndarray           # [E, 4] structural prior features
    edge_rows: np.ndarray       # [E] row of the items' stacked edge_z per edge
    n_nodes: int
    n_graphs: int
    graph_of_node: np.ndarray
    film_nodes: np.ndarray      # node ids sorted by (graph, feeder), hub excluded
    film_seg: np.ndarray        # pooling segment id per film node
    film_n_seg: int
    film_seg_graph: np.ndarray  # graph id per pooling segment
    eta_idx: np.ndarray
    eta_known: np.ndarray
    phys_from: np.ndarray
    phys_to: np.ndarray
    phys_r: np.ndarray
    phys_x: np.ndarray
    node_x: np.ndarray = None
    observed: np.ndarray = None
    v_true: np.ndarray = None
    phys_p: np.ndarray = None
    phys_q: np.ndarray = None


def edge_type_ids(edge_z: np.ndarray) -> np.ndarray:
    """Device slot per edge from the one-hot block of the edge features."""
    block = edge_z[:, _DEV_COLS]
    if not np.all(block.sum(axis=1) == 1.0):
        raise ValueError("edge device one-hot block is not one-hot")
    return block.argmax(axis=1)


def refill(batch: GraphBatch, items: list[Snapshot]) -> GraphBatch:
    """``batch`` with the arrays that change from snapshot to snapshot taken
    from ``items``: ``node_x``, ``observed``, ``v_true``, ``phys_p``,
    ``phys_q`` and the plan's edge features, whose rows ``edge_rows``
    picks from the items' stacked ``edge_z``.

    ``items`` are snapshots of the switch configurations ``batch`` was
    built from, in its order, under any mask or attack. Every other array,
    and the plan's index arrays and scatter bins, are ``batch``'s own.
    """
    def stack(name):
        return np.concatenate([getattr(it, name) for it in items])
    return replace(batch, node_x=stack("node_x"), observed=stack("observed"),
                   v_true=stack("v_true"), phys_p=stack("phys_p"),
                   phys_q=stack("phys_q"),
                   plan=batch.plan.with_z(stack("edge_z")[batch.edge_rows]))


def build_batch(items: list[Snapshot],
                feeder_rows: dict[int, int]) -> GraphBatch:
    """The disjoint union of ``items``, its per-snapshot arrays set by
    ``refill``."""
    if not items:
        raise ValueError("empty batch")
    feeder_parts, graph_parts, phase_parts = [], [], []
    recv_parts, send_parts, row_parts = [], [], []
    pf_parts, pt_parts, pr_parts, px_parts = [], [], [], []
    offset = edge_offset = 0
    for g, item in enumerate(items):
        n = item.node_x.shape[0]
        phases = item.node_x[:, _PH_COLS]
        gate = status_gate(item.edge_z, phases[item.edge_from],
                           phases[item.edge_to])
        keep = np.flatnonzero(gate == 1.0)
        # both directions share the device features
        recv_parts.append(item.edge_to[keep] + offset)
        send_parts.append(item.edge_from[keep] + offset)
        recv_parts.append(item.edge_from[keep] + offset)
        send_parts.append(item.edge_to[keep] + offset)
        row_parts.extend((keep + edge_offset, keep + edge_offset))
        feeder_parts.append(item.node_feeder)
        graph_parts.append(np.full(n, g, dtype=np.int64))
        phase_parts.append(phases)
        pf_parts.append(item.phys_from + offset)
        pt_parts.append(item.phys_to + offset)
        pr_parts.append(item.phys_r)
        px_parts.append(item.phys_x)
        offset += n
        edge_offset += item.edge_z.shape[0]

    phases = np.concatenate(phase_parts)
    node_feeder = np.concatenate(feeder_parts)
    graph_of_node = np.concatenate(graph_parts)
    recv = np.concatenate(recv_parts)
    send = np.concatenate(send_parts)
    order = np.argsort(recv, kind="stable")
    recv, send = recv[order], send[order]
    edge_rows = np.concatenate(row_parts)[order]
    edge_z = np.concatenate([it.edge_z for it in items], axis=0)[edge_rows]

    r = edge_z[:, net.EDGE_FEATURE_INDEX["r_pu"]]
    x = edge_z[:, net.EDGE_FEATURE_INDEX["x_pu"]]
    phase_match = np.einsum("ep,ep->e", phases[recv], phases[send])
    prior = np.stack([
        -np.hypot(r, x),
        phase_match,
        edge_z[:, net.EDGE_FEATURE_INDEX["dev_xfmr_reg"]],
        -edge_z[:, net.EDGE_FEATURE_INDEX["length_km"]],
    ], axis=1)

    non_hub = np.flatnonzero(node_feeder != net.HUB_FEEDER)
    key_graph = graph_of_node[non_hub]
    key_feeder = node_feeder[non_hub]
    perm = np.lexsort((key_feeder, key_graph))
    film_nodes = non_hub[perm]
    sorted_key = np.stack([key_graph[perm], key_feeder[perm]], axis=1)
    if sorted_key.shape[0]:
        new_seg = np.r_[False, np.any(np.diff(sorted_key, axis=0) != 0, axis=1)]
        film_seg = np.cumsum(new_seg).astype(np.int64)
        film_n_seg = int(film_seg[-1]) + 1
        starts = np.flatnonzero(np.r_[True, new_seg[1:]])
        film_seg_graph = sorted_key[starts, 0]
    else:
        film_seg = np.zeros(0, dtype=np.int64)
        film_n_seg = 0
        film_seg_graph = np.zeros(0, dtype=np.int64)

    # one gate lookup per distinct feeder, spread to its nodes
    feeders, feeder_of_node = np.unique(node_feeder, return_inverse=True)
    eta_idx = np.array([feeder_rows.get(int(f), 0) for f in feeders],
                       dtype=np.int64)[feeder_of_node]
    eta_known = np.array(
        [1.0 if int(f) in feeder_rows else 0.0 for f in feeders])[feeder_of_node]
    edge_type = edge_type_ids(edge_z)
    type_counts = np.bincount(edge_type, minlength=N_EDGE_TYPES)
    plan = ad.EdgePlan(recv, send, edge_z,
                       np.argsort(edge_type, kind="stable"),
                       np.r_[0, np.cumsum(type_counts)], offset)

    return refill(GraphBatch(
        plan=plan, prior=prior, edge_rows=edge_rows, n_nodes=offset,
        n_graphs=len(items), graph_of_node=graph_of_node,
        film_nodes=film_nodes, film_seg=film_seg, film_n_seg=film_n_seg,
        film_seg_graph=film_seg_graph,
        eta_idx=eta_idx, eta_known=eta_known[:, None],
        phys_from=np.concatenate(pf_parts), phys_to=np.concatenate(pt_parts),
        phys_r=np.concatenate(pr_parts), phys_x=np.concatenate(px_parts)),
        items)


# Bus-phase nodes per no-grad batch. The scorer forwards two runs at once,
# one per core, so two 512-node runs hold what one 1,024-node run held
# when one run was in flight: a layer's [E, 64] and [N, 64] float64 arrays
# and the plan's aggregation bins, one [E * 64] index array built by the
# first forward and read by every layer and mask, stay in a core's 2 MiB
# L2. One thread alone forwards a snapshot cheapest from about 750 to
# 2,050 nodes (within 17 % of its minimum; CHANGES.md). With two threads,
# eval-tiny6 on 183-node graphs read 455-477 /s at 768 and 1,024 nodes
# against 390 /s at 512, but each thread's heap keeps its own run's
# memory: peak RSS rose 9-10 % and 15 % over one 1,024-node run in
# flight, against under 1 % at 512 (CHANGES.md).
BATCH_NODES = 512


def batch_runs(items: list[Snapshot]) -> list[slice]:
    """``items`` cut into consecutive runs of whole snapshots.

    Run sizes differ by at most one, and a run holds at most
    ``BATCH_NODES`` nodes, or one snapshot if a snapshot alone is larger.
    """
    if not items:
        raise ValueError("empty batch")
    per_run = max(1, BATCH_NODES // max(it.node_x.shape[0] for it in items))
    n_runs = -(-len(items) // per_run)
    bounds = [len(items) * k // n_runs for k in range(n_runs + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# forward


def edge_messages(params: ModelParams, layer: int, h: ad.Tensor,
                  batch: GraphBatch) -> ad.Tensor:
    """``[h_recv ‖ h_send ‖ z] @ msg{type}`` per edge, in one op."""
    weights = [params.tensors[f"layer{layer}.msg{r}"]
               for r in range(N_EDGE_TYPES)]
    return ad.typed_edge_matmul(h, weights, batch.plan)


def attention_logits(params: ModelParams, layer: int, h: ad.Tensor,
                     batch: GraphBatch) -> ad.Tensor:
    """Learned score ``relu([h_recv ‖ h_send ‖ z] @ att_W) @ att_a``, with
    the node blocks of ``att_W`` applied per node, plus ``prior @ beta``."""
    t = params.tensors
    return ad.attention_score(h, t[f"layer{layer}.att_W"],
                              t[f"layer{layer}.att_a"], batch.prior,
                              t["beta"], batch.plan)


def encoder_layer(params: ModelParams, layer: int, h: ad.Tensor,
                  batch: GraphBatch) -> ad.Tensor:
    t = params.tensors
    p = f"layer{layer}."
    messages = edge_messages(params, layer, h, batch)
    logits = attention_logits(params, layer, h, batch)
    agg = ad.softmax_aggregate(messages, logits, batch.plan,
                               params.config.temperature)
    hidden = ad.relu(ad.linear(agg, t[p + "phi_W1"], t[p + "phi_b1"]))
    update = ad.linear(hidden, t[p + "phi_W2"], t[p + "phi_b2"])
    return ad.layer_norm(update, t[p + "norm_gain"], t[p + "norm_bias"],
                         residual=h)


def film_hub(params: ModelParams, h: ad.Tensor, batch: GraphBatch) -> ad.Tensor:
    if batch.film_n_seg == 0:
        raise ad.EngineError("film_hub: no feeder nodes to pool")
    t = params.tensors
    pooled = ad.segment_mean(ad.gather_rows(h, batch.film_nodes),
                             batch.film_seg, batch.film_n_seg)
    context = ad.segment_mean(pooled, batch.film_seg_graph, batch.n_graphs)
    gamma = ad.linear(context, t["film.Wg"], t["film.bg"])
    beta = ad.linear(context, t["film.Wb"], t["film.bb"])
    modulated = ad.add(ad.mul(h, ad.gather_rows(gamma, batch.graph_of_node)),
                       ad.gather_rows(beta, batch.graph_of_node))
    gate = ad.gather_rows(t["eta"], batch.eta_idx)
    eta_node = ad.add(ad.mul(gate, batch.eta_known), 1.0 - batch.eta_known)
    return ad.mul(modulated, eta_node)


def decode(params: ModelParams, h: ad.Tensor) -> ad.Tensor:
    t = params.tensors
    hidden = ad.relu(ad.linear(h, t["decoder.W1"], t["decoder.b1"]))
    out = ad.linear(hidden, t["decoder.W2"], t["decoder.b2"])
    return ad.reshape(out, (h.shape[0],))


def forward(params: ModelParams, batch: GraphBatch):
    """Predicted voltage magnitude per bus-phase node of the batch."""
    t = params.tensors
    h = ad.linear(batch.node_x, t["input.W"], t["input.b"])
    for layer in range(params.config.n_layers):
        h = encoder_layer(params, layer, h, batch)
    modulated = film_hub(params, h, batch)
    return decode(params, modulated)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path) -> None:
    arrays = {f"tensor/{k}": v.values for k, v in params.tensors.items()}
    meta = {
        "format": CHECKPOINT_FORMAT,
        "feature_order_hash": net.feature_order_hash(),
        "config": asdict(params.config),
        "groups": params.groups,
        "feeder_rows": {str(k): v for k, v in params.feeder_rows.items()},
    }
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    write_npz(path, arrays)


def load_checkpoint(path) -> ModelParams:
    """The parameters saved at ``path``. A checkpoint whose tensors are not
    exactly the layout of its config and gate count, or hold a non-finite
    value, is refused with a ``ValueError``."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][()]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"not a model checkpoint: format={meta.get('format')!r}")
        if meta["feature_order_hash"] != net.feature_order_hash():
            raise ValueError("checkpoint feature order does not match this "
                             "build; refusing to load")
        config = from_settings(ModelConfig, meta["config"], "model config")
        tensors = {}
        for key in data.files:
            if key.startswith("tensor/"):
                name = key[len("tensor/"):]
                try:
                    tensors[name] = ad.Tensor(data[key], requires_grad=True,
                                              name=name)
                except ad.NonFiniteError as exc:
                    raise ValueError(f"tensor {exc}") from exc
    feeder_rows = {int(k): v for k, v in meta["feeder_rows"].items()}
    if sorted(feeder_rows.values()) != list(range(len(feeder_rows))):
        raise ValueError("checkpoint feeder rows are not 0..n-1")
    return ModelParams(config, tensors, feeder_rows)
