"""The fused encoder ops against the chain of small ops they replace.

``unfused_forward`` is the model as a composition of one tape record per
elementary op: matmul and bias add, edge projection, relu, segment softmax,
reshape, multiply, segment sum and residual add. Its edge projection,
softmax and sum are test-only copies of the ops the fused ones replaced.
A training step's gradients must equal the fused model's bit for bit, and
the step must write the fused record count, so un-fusing an op fails here.
"""

from collections import Counter

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.losses as losses
import gridvolt.model as gm
import gridvolt.simulation as sim

from helpers import build_dataset, matmul


# -- the unfused reference ----------------------------------------------------


def edge_matmul(x, z, w, recv, send):
    """``[x[recv] ‖ x[send] ‖ z] @ w`` with the node blocks applied per node."""
    n, d = x.shape
    out_dim = w.shape[1]
    w_nodes = np.concatenate((w.values[:d], w.values[d:2 * d]), axis=1)
    q = x.values @ w_nodes
    vals = q[recv, :out_dim]
    vals += q[send, out_dim:]
    vals += z @ w.values[2 * d:]

    def bwd(g):
        dq = ad._scatter_add_rows(np.concatenate((g, g)),
                                  np.concatenate((2 * recv, 2 * send + 1)),
                                  2 * n).reshape(n, 2 * out_dim)
        dw = np.empty_like(w.values)
        dw_nodes = x.values.T @ dq
        dw[:d], dw[d:2 * d] = dw_nodes[:, :out_dim], dw_nodes[:, out_dim:]
        dw[2 * d:] = z.T @ g
        return (dq @ w_nodes.T, dw)

    return ad._record("edge_matmul", vals, (x, w), bwd)


def segment_softmax(x, seg, n, temperature):
    counts = np.bincount(seg, minlength=n)
    filled = counts > 0
    starts = np.cumsum(counts) - counts
    seg_max = np.zeros(n)
    if x.values.size:
        seg_max[filled] = np.maximum.reduceat(x.values, starts[filled])
    e = np.exp((x.values - seg_max[seg]) / temperature)
    alpha = e / ad._scatter_add_rows(e, seg, n)[seg]

    def bwd(g):
        inner = ad._scatter_add_rows(alpha * g, seg, n)
        return (alpha * (g - inner[seg]) / temperature,)

    return ad._record("segment_softmax", alpha, (x,), bwd)


def segment_sum(x, seg, n):
    return ad._record("segment_sum", ad._scatter_add_rows(x.values, seg, n),
                      (x,), lambda g: (g[seg],))


def affine(x, w, b):
    return ad.add(matmul(ad.as_tensor(x), w), b)


def unfused_forward(params, batch):
    t = params.tensors
    recv, send, n = batch.plan.recv, batch.plan.send, batch.n_nodes
    e = len(recv)
    h = affine(batch.node_x, t["input.W"], t["input.b"])
    for layer in range(params.config.n_layers):
        p = f"layer{layer}."
        messages = gm.edge_messages(params, layer, h, batch)
        hidden = ad.relu(edge_matmul(h, batch.plan.z, t[p + "att_W"], recv,
                                     send))
        logits = ad.add(matmul(hidden, t[p + "att_a"]),
                        matmul(ad.as_tensor(batch.prior), t["beta"]))
        alpha = segment_softmax(ad.reshape(logits, (e,)), recv, n,
                                params.config.temperature)
        agg = segment_sum(ad.mul(messages, ad.reshape(alpha, (e, 1))), recv, n)
        hid = ad.relu(affine(agg, t[p + "phi_W1"], t[p + "phi_b1"]))
        update = affine(hid, t[p + "phi_W2"], t[p + "phi_b2"])
        h = ad.layer_norm(ad.add(h, update), t[p + "norm_gain"],
                          t[p + "norm_bias"])
    pooled = ad.segment_mean(ad.gather_rows(h, batch.film_nodes),
                             batch.film_seg, batch.film_n_seg)
    context = ad.segment_mean(pooled, batch.film_seg_graph, batch.n_graphs)
    gamma = affine(context, t["film.Wg"], t["film.bg"])
    shift = affine(context, t["film.Wb"], t["film.bb"])
    modulated = ad.add(ad.mul(h, ad.gather_rows(gamma, batch.graph_of_node)),
                       ad.gather_rows(shift, batch.graph_of_node))
    gate = ad.gather_rows(t["eta"], batch.eta_idx)
    eta_node = ad.add(ad.mul(gate, batch.eta_known), 1.0 - batch.eta_known)
    hidden = ad.relu(affine(ad.mul(modulated, eta_node), t["decoder.W1"],
                            t["decoder.b1"]))
    out = affine(hidden, t["decoder.W2"], t["decoder.b2"])
    return ad.reshape(out, (batch.n_nodes,))


# -- one training step on the tiny fixture -------------------------------------


@pytest.fixture(scope="module")
def tiny():
    spec = sim.generate_substation(31, "tiny", n_feeders=3)
    data = build_dataset(spec, sim.ScenarioConfig(horizon_minutes=120,
                                                     der_penetration=20))
    return data


def step_batch(data, seed=3):
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids,
                                   seed=seed)
    item = data.snapshot(1).masked(
        np.random.default_rng(seed).random(data.n_nodes) < 0.4)
    return params, gm.build_batch([item], params.feeder_rows)


def training_step(params, batch):
    """One step's tape records, loss and gradient buffer, as the trainer
    takes it: the batch loss recorded, then one backward pass."""
    for t in params.tensors.values():
        t.zero_grad()
    with ad.Tape() as tape:
        loss, _ = losses.batch_loss(params, batch,
                                    losses.LossWeights(lam_phys=0.1))
    records = Counter(r.output.name for r in tape.records)
    tape.backward(loss)
    return records, loss.values.tobytes(), params.store.grad.tobytes()


@pytest.mark.parametrize("frozen", [False, True], ids=["all", "head-only"])
def test_batch_loss_gradients_equal_the_unfused_composition_bitwise(
        tiny, monkeypatch, frozen):
    params, batch = step_batch(tiny)
    if frozen:  # as fine-tuning trains: the backbone takes no gradient
        for name in params.backbone_names():
            params.tensors[name].requires_grad = False
    _, fused_loss, fused_grad = training_step(params, batch)
    monkeypatch.setattr(losses, "forward", unfused_forward)
    _, loss, grad = training_step(params, batch)
    assert fused_loss == loss
    assert fused_grad == grad


def test_one_training_step_writes_the_fused_record_count(tiny, monkeypatch):
    params, batch = step_batch(tiny)
    fused, _, _ = training_step(params, batch)
    assert fused == {
        "linear": 13, "typed_edge_matmul": 4, "attention_score": 4,
        "softmax_aggregate": 4, "layer_norm": 4, "relu": 5,
        "gather_rows": 7, "segment_mean": 2, "mul": 7, "add": 4, "sub": 3,
        "abs": 2, "sum": 1, "mean": 1, "reshape": 1}
    assert sum(fused.values()) == 62
    monkeypatch.setattr(losses, "forward", unfused_forward)
    unfused, _, _ = training_step(params, batch)
    assert sum(unfused.values()) == 111


# -- the non-finite contract ---------------------------------------------------


@pytest.mark.parametrize("tensor, stage", [
    ("layer1.att_a", "attention_score/learned"),
    ("input.W", "linear/matmul"),
], ids=["logit", "linear"])
def test_an_overflow_names_its_fused_stage(tiny, tensor, stage):
    params, batch = step_batch(tiny)
    params.tensors[tensor].values[...] = 1e308
    with ad.Tape(), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.NonFiniteError, match=stage):
            losses.batch_loss(params, batch, losses.LossWeights())
