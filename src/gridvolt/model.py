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
gates, decoder). Transfer to a new substation trains the head only. All
parameters are views of one flat vector, backbone first, so each group is
one contiguous span of it.

A batch is the disjoint union of masked ``dataset.Snapshot`` records
(``build_batch``). A training step forwards one snapshot. Every no-grad
forward cuts its snapshots into consecutive, balanced runs of at most
``BATCH_NODES`` bus-phase nodes (``batch_runs``), sized so that a layer's
activations stay in a core's L2 cache. A mask changes only a batch's
``node_x`` and ``observed`` (``node_inputs``), so one built batch and its
edge plan serve every mask of an observability level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .dataset import Snapshot, write_npz
from .seeding import rng as _rng

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
        if self.n_layers < 2:
            raise ValueError("need at least 2 layers to split freezing groups")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.sensor_gain < 0:
            raise ValueError("sensor_gain must be non-negative")

    def to_dict(self) -> dict:
        return {"hidden_dim": self.hidden_dim, "n_layers": self.n_layers,
                "decoder_hidden": self.decoder_hidden,
                "temperature": self.temperature,
                "beta_init": list(self.beta_init),
                "sensor_gain": self.sensor_gain}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["beta_init"] = tuple(d["beta_init"])
        return cls(**d)


_LAYER_TENSORS = tuple(f"msg{r}" for r in range(N_EDGE_TYPES)) + (
    "att_W", "att_a", "phi_W1", "phi_b1", "phi_W2", "phi_b2", "norm_gain",
    "norm_bias")
_HEAD_TAIL = ("film.Wg", "film.bg", "film.Wb", "film.bb", "eta",
              "decoder.W1", "decoder.b1", "decoder.W2", "decoder.b2")


def parameter_names(config: ModelConfig) -> list[str]:
    """Every tensor name in the canonical flat layout: the backbone, then
    the head, so each freezing group is one contiguous span."""
    names = ["input.W", "input.b", "beta"]
    for layer in range(config.n_layers):
        names.extend(f"layer{layer}.{n}" for n in _LAYER_TENSORS)
    names.extend(_HEAD_TAIL)
    return names


class ModelParams:
    """Named parameter tensors plus the feeder-gate row mapping.

    The tensors live in one ``ad.FlatStore``: ``store.values`` is every
    parameter value and ``store.grad`` every gradient, each tensor a view
    of its span, in the order of ``parameter_names`` whatever the order of
    the given dict (a checkpoint yields sorted names). Names outside that
    layout follow it in their given order.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, ad.Tensor],
                 feeder_rows: dict[int, int]):
        self.config = config
        self.feeder_rows = dict(feeder_rows)
        self._pack(tensors)

    def _pack(self, tensors: dict[str, ad.Tensor]) -> None:
        canonical = parameter_names(self.config)
        known = set(canonical)
        order = [n for n in canonical if n in tensors]
        order.extend(n for n in tensors if n not in known)
        self.tensors = {n: tensors[n] for n in order}
        self.store = ad.FlatStore(list(self.tensors.values()))

    @classmethod
    def create(cls, config: ModelConfig, feeder_ids: list[int],
               seed: int = 0) -> "ModelParams":
        d = config.hidden_dim
        dh = config.decoder_hidden
        n_in = net.N_NODE_FEATURES
        n_edge = net.N_EDGE_FEATURES
        cat = 2 * d + n_edge
        feeder_rows = {int(f): k for k, f in enumerate(sorted(set(feeder_ids)))}
        if net.HUB_FEEDER in feeder_rows:
            raise ValueError("the hub pseudo-feeder cannot have a gate")

        def w(name, shape, scale=None):
            gen = _rng(seed, "model-init", name)
            scale = scale if scale is not None else 1.0 / np.sqrt(shape[0])
            return ad.Tensor(gen.normal(0.0, scale, size=shape),
                             requires_grad=True, name=name)

        def const(name, values):
            return ad.Tensor(np.asarray(values, dtype=np.float64),
                             requires_grad=True, name=name)

        t: dict[str, ad.Tensor] = {}
        t["input.W"] = w("input.W", (n_in, d))
        # The sensor reading sits near 1.0 pu, so its informative part (the
        # deviation from nominal) is tiny next to the 0/1 mask toggle and the
        # gradient never amplifies it at these learning rates. Tie the two
        # sensor rows anti-symmetrically at a larger scale: an observed node
        # contributes kappa*(v-1) to the embedding and a masked node exactly
        # zero, so the deviation enters at O(1) from the first step.
        kap = _rng(seed, "model-init", "sensor-rows").normal(
            0.0, config.sensor_gain / np.sqrt(n_in), size=d)
        t["input.W"].values[net.NODE_FEATURE_INDEX["m_obs_v_pu"]] = kap
        t["input.W"].values[net.NODE_FEATURE_INDEX["m_obs"]] = -kap
        t["input.b"] = const("input.b", np.zeros(d))
        t["beta"] = const("beta", np.array(config.beta_init)[:, None])
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            for r in range(N_EDGE_TYPES):
                t[p + f"msg{r}"] = w(p + f"msg{r}", (cat, d))
            t[p + "att_W"] = w(p + "att_W", (cat, d))
            t[p + "att_a"] = w(p + "att_a", (d, 1))
            t[p + "phi_W1"] = w(p + "phi_W1", (d, d))
            t[p + "phi_b1"] = const(p + "phi_b1", np.zeros(d))
            t[p + "phi_W2"] = w(p + "phi_W2", (d, d))
            t[p + "phi_b2"] = const(p + "phi_b2", np.zeros(d))
            t[p + "norm_gain"] = const(p + "norm_gain", np.ones(d))
            t[p + "norm_bias"] = const(p + "norm_bias", np.zeros(d))
        t["film.Wg"] = w("film.Wg", (d, d), scale=0.01 / np.sqrt(d))
        t["film.bg"] = const("film.bg", np.ones(d))
        t["film.Wb"] = w("film.Wb", (d, d), scale=0.01 / np.sqrt(d))
        t["film.bb"] = const("film.bb", np.zeros(d))
        t["eta"] = const("eta", np.ones((len(feeder_rows), 1)))
        t["decoder.W1"] = w("decoder.W1", (d, dh))
        t["decoder.b1"] = const("decoder.b1", np.zeros(dh))
        t["decoder.W2"] = w("decoder.W2", (dh, 1), scale=0.01)
        t["decoder.b2"] = const("decoder.b2", np.array([1.0]))
        return cls(config, t, feeder_rows)

    # -- freezing groups ----------------------------------------------------

    def backbone_names(self) -> list[str]:
        names = ["input.W", "input.b", "beta"]
        for layer in range(self.config.n_layers - 1):
            names.extend(n for n in self.tensors if n.startswith(f"layer{layer}."))
        return names

    def head_names(self) -> list[str]:
        last = f"layer{self.config.n_layers - 1}."
        names = [n for n in self.tensors if n.startswith(last)]
        names.extend(n for n in self.tensors
                     if n.startswith("film.") or n.startswith("decoder.")
                     or n == "eta")
        return names

    def group_of(self, name: str) -> str:
        if name in set(self.backbone_names()):
            return "backbone"
        if name in set(self.head_names()):
            return "head"
        raise KeyError(name)

    def trainable(self, names: list[str] | None = None) -> list[ad.Tensor]:
        names = list(self.tensors) if names is None else names
        return [self.tensors[n] for n in names]

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
    """Disjoint union of snapshots with gated, receiver-sorted edges."""

    node_x: np.ndarray
    recv: np.ndarray
    send: np.ndarray
    edge_z: np.ndarray
    type_order: np.ndarray      # edge ids grouped by device type
    type_bounds: np.ndarray     # [N_EDGE_TYPES + 1] offsets into type_order
    prior: np.ndarray           # [E, 4] structural prior features
    n_nodes: int
    n_graphs: int
    graph_of_node: np.ndarray
    film_nodes: np.ndarray      # node ids sorted by (graph, feeder), hub excluded
    film_seg: np.ndarray        # pooling segment id per film node
    film_n_seg: int
    film_seg_graph: np.ndarray  # graph id per pooling segment
    eta_idx: np.ndarray
    eta_known: np.ndarray
    v_true: np.ndarray
    observed: np.ndarray
    phys_from: np.ndarray
    phys_to: np.ndarray
    phys_r: np.ndarray
    phys_x: np.ndarray
    phys_p: np.ndarray
    phys_q: np.ndarray


def edge_type_ids(edge_z: np.ndarray) -> np.ndarray:
    """Device slot per edge from the one-hot block of the edge features."""
    block = edge_z[:, _DEV_COLS]
    if not np.all(block.sum(axis=1) == 1.0):
        raise ValueError("edge device one-hot block is not one-hot")
    return block.argmax(axis=1)


def node_inputs(items: list[Snapshot]) -> tuple[np.ndarray, np.ndarray]:
    """A batch's mask-dependent arrays, ``node_x`` and ``observed``, stacked
    over ``items``. Every other batch array is the same under any mask, so a
    batch built once can take another mask's inputs from this."""
    return (np.concatenate([it.node_x for it in items], axis=0),
            np.concatenate([it.observed for it in items]))


def build_batch(items: list[Snapshot],
                feeder_rows: dict[int, int]) -> GraphBatch:
    if not items:
        raise ValueError("empty batch")
    feeder_parts, graph_parts = [], []
    recv_parts, send_parts, z_parts = [], [], []
    v_parts = []
    pf_parts, pt_parts, pr_parts, px_parts, pp_parts, pq_parts = \
        [], [], [], [], [], []
    offset = 0
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
        z_parts.extend((item.edge_z[keep], item.edge_z[keep]))
        feeder_parts.append(item.node_feeder)
        graph_parts.append(np.full(n, g, dtype=np.int64))
        v_parts.append(item.v_true)
        pf_parts.append(item.phys_from + offset)
        pt_parts.append(item.phys_to + offset)
        pr_parts.append(item.phys_r)
        px_parts.append(item.phys_x)
        pp_parts.append(item.phys_p)
        pq_parts.append(item.phys_q)
        offset += n

    node_x, observed = node_inputs(items)
    node_feeder = np.concatenate(feeder_parts)
    graph_of_node = np.concatenate(graph_parts)
    recv = np.concatenate(recv_parts)
    send = np.concatenate(send_parts)
    edge_z = np.concatenate(z_parts, axis=0)
    order = np.argsort(recv, kind="stable")
    recv, send, edge_z = recv[order], send[order], edge_z[order]

    r = edge_z[:, net.EDGE_FEATURE_INDEX["r_pu"]]
    x = edge_z[:, net.EDGE_FEATURE_INDEX["x_pu"]]
    phase_match = np.einsum(
        "ep,ep->e", node_x[recv][:, _PH_COLS], node_x[send][:, _PH_COLS])
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

    return GraphBatch(
        node_x=node_x, recv=recv, send=send, edge_z=edge_z,
        type_order=np.argsort(edge_type, kind="stable"),
        type_bounds=np.r_[0, np.cumsum(type_counts)], prior=prior,
        n_nodes=node_x.shape[0], n_graphs=len(items),
        graph_of_node=graph_of_node,
        film_nodes=film_nodes, film_seg=film_seg, film_n_seg=film_n_seg,
        film_seg_graph=film_seg_graph,
        eta_idx=eta_idx, eta_known=eta_known[:, None],
        v_true=np.concatenate(v_parts), observed=observed,
        phys_from=np.concatenate(pf_parts), phys_to=np.concatenate(pt_parts),
        phys_r=np.concatenate(pr_parts), phys_x=np.concatenate(px_parts),
        phys_p=np.concatenate(pp_parts), phys_q=np.concatenate(pq_parts))


# Bus-phase nodes per no-grad batch. At 1,024 nodes a layer's [E, 64] and
# [N, 64] float64 arrays (about 1 MB and 0.5 MB) stay in a 2 MiB L2. In a
# sweep of the forward's CPU time per snapshot (CHANGES.md) the cost is
# within 17 % of its minimum from about 750 to 2,050 nodes on the 93- and
# 183-node graphs, and 27-34 % above the 915-node cost at 32 snapshots of
# 183 nodes (5,856).
BATCH_NODES = 1024


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


def batches(items: list[Snapshot],
            feeder_rows: dict[int, int]) -> list[GraphBatch]:
    """One batch per run of ``batch_runs``, all built at once, for a batch
    set that is scored more than once."""
    return [build_batch(items[run], feeder_rows) for run in batch_runs(items)]


# ---------------------------------------------------------------------------
# forward


def edge_plan(batch: GraphBatch) -> ad.EdgePlan:
    """The edge index arrays that every layer of one forward pass shares."""
    return ad.EdgePlan(batch.recv, batch.send, batch.edge_z, batch.type_order,
                       batch.type_bounds, batch.n_nodes)


def edge_messages(params: ModelParams, layer: int, h: ad.Tensor,
                  plan: ad.EdgePlan) -> ad.Tensor:
    """``[h_recv ‖ h_send ‖ z] @ msg{type}`` per edge, in one op."""
    weights = [params.tensors[f"layer{layer}.msg{r}"]
               for r in range(N_EDGE_TYPES)]
    return ad.typed_edge_matmul(h, weights, plan)


def attention_logits(params: ModelParams, layer: int, h: ad.Tensor,
                     batch: GraphBatch, plan: ad.EdgePlan) -> ad.Tensor:
    """Learned score ``relu([h_recv ‖ h_send ‖ z] @ att_W) @ att_a``, with
    the node blocks of ``att_W`` applied per node, plus ``prior @ beta``."""
    t = params.tensors
    return ad.attention_score(h, t[f"layer{layer}.att_W"],
                              t[f"layer{layer}.att_a"], batch.prior,
                              t["beta"], plan)


def encoder_layer(params: ModelParams, layer: int, h: ad.Tensor,
                  batch: GraphBatch, plan: ad.EdgePlan) -> ad.Tensor:
    t = params.tensors
    p = f"layer{layer}."
    messages = edge_messages(params, layer, h, plan)
    logits = attention_logits(params, layer, h, batch, plan)
    agg = ad.softmax_aggregate(messages, logits, plan,
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


def forward(params: ModelParams, batch: GraphBatch,
            plan: ad.EdgePlan | None = None):
    """Predicted voltage magnitude per bus-phase node of the batch.

    One edge plan serves every layer. By default it is ``edge_plan(batch)``
    and lives only as long as this call and the tape that records it,
    never on the batch; a caller that forwards one batch structure under
    several masks passes the plan it built once."""
    t = params.tensors
    if plan is None:
        plan = edge_plan(batch)
    h = ad.linear(batch.node_x, t["input.W"], t["input.b"])
    for layer in range(params.config.n_layers):
        h = encoder_layer(params, layer, h, batch, plan)
    modulated = film_hub(params, h, batch)
    return decode(params, modulated)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path) -> None:
    arrays = {f"tensor/{k}": v.values for k, v in params.tensors.items()}
    meta = {
        "format": CHECKPOINT_FORMAT,
        "feature_order_hash": net.feature_order_hash(),
        "config": params.config.to_dict(),
        "groups": {k: params.group_of(k) for k in params.tensors},
        "feeder_rows": {str(k): v for k, v in params.feeder_rows.items()},
    }
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    write_npz(path, arrays)


def load_checkpoint(path) -> ModelParams:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][()]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"not a model checkpoint: format={meta.get('format')!r}")
        if meta["feature_order_hash"] != net.feature_order_hash():
            raise ValueError("checkpoint feature order does not match this "
                             "build; refusing to load")
        config = ModelConfig.from_dict(meta["config"])
        tensors = {}
        for key in data.files:
            if key.startswith("tensor/"):
                name = key[len("tensor/"):]
                tensors[name] = ad.Tensor(data[key], requires_grad=True,
                                          name=name)
    feeder_rows = {int(k): v for k, v in meta["feeder_rows"].items()}
    params = ModelParams(config, tensors, feeder_rows)
    expected = ModelParams.create(config, list(feeder_rows) or [0], seed=0)
    for name, tensor in expected.tensors.items():
        if name == "eta":
            continue
        if name not in params.tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        if params.tensors[name].shape != tensor.shape:
            raise ValueError(
                f"checkpoint tensor {name} has shape "
                f"{params.tensors[name].shape}, expected {tensor.shape}")
    return params
