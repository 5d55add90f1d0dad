"""Model-layer tests: gating, attention, conditioning, checkpoints.

Hand-computable cases pin the arithmetic of each block; graph-level
invariants (permutation equivariance, locality of open edges, attention
normalization) run on generated substations.
"""

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.dataset as ds
import gridvolt.model as gm
import gridvolt.network as net
import gridvolt.simulation as sim

from helpers import build_dataset, head_names, matmul

NI = net.NODE_FEATURE_INDEX
EI = net.EDGE_FEATURE_INDEX


def micro_item(n_nodes, edges, *, feeders=None, phases=None):
    """Bare-bones snapshot: edges = [(u, v, device, status, phase_mask)]."""
    node_x = np.zeros((n_nodes, net.N_NODE_FEATURES))
    phases = phases or ["A"] * n_nodes
    for i, ph in enumerate(phases):
        node_x[i, NI[f"phase_{ph.lower()}"]] = 1.0
    edge_from = np.array([e[0] for e in edges], dtype=np.int64)
    edge_to = np.array([e[1] for e in edges], dtype=np.int64)
    edge_z = np.zeros((len(edges), net.N_EDGE_FEATURES))
    for k, (_, _, dev, status, mask) in enumerate(edges):
        edge_z[k, EI[f"dev_{dev}"]] = 1.0
        edge_z[k, EI["status"]] = float(status)
        edge_z[k, EI["r_pu"]] = 0.01
        edge_z[k, EI["x_pu"]] = 0.02
        for ph in mask:
            edge_z[k, EI[f"phase_{ph.lower()}"]] = 1.0
    feeder = np.array(feeders if feeders is not None else [1] * n_nodes,
                      dtype=np.int64)
    empty = np.zeros(0)
    return ds.Snapshot(
        node_x=node_x, edge_from=edge_from, edge_to=edge_to, edge_z=edge_z,
        node_feeder=feeder, v_true=np.ones(n_nodes),
        observed=np.ones(n_nodes, dtype=bool),
        phys_from=empty.astype(np.int64), phys_to=empty.astype(np.int64),
        phys_r=empty, phys_x=empty, phys_p=empty, phys_q=empty)


def small_params(n_feeders=2, d=8, layers=2, seed=5):
    cfg = gm.ModelConfig(hidden_dim=d, n_layers=layers, decoder_hidden=d)
    return gm.ModelParams.create(cfg, list(range(1, n_feeders + 1)), seed=seed)


@pytest.fixture(scope="module")
def tiny_snaps():
    spec = sim.generate_substation(31, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=120, der_penetration=20)
    data = build_dataset(spec, scen)
    return [data.snapshot(i) for i in range(data.n_snapshots)], data


# -- gates -------------------------------------------------------------------


def test_gate_blocks_open_and_phase_incompatible_edges():
    edge_z = np.zeros((3, net.N_EDGE_FEATURES))
    # closed A-line, open A-switch, closed B-only line
    for k, (dev, status, mask) in enumerate(
            [("line", 1, "A"), ("switch", 0, "A"), ("line", 1, "B")]):
        edge_z[k, EI[f"dev_{dev}"]] = 1.0
        edge_z[k, EI["status"]] = status
        edge_z[k, EI[f"phase_{mask.lower()}"]] = 1.0
    phase_a = np.tile([1.0, 0.0, 0.0], (3, 1))
    gate = gm.status_gate(edge_z, phase_a, phase_a)
    np.testing.assert_array_equal(gate, [1.0, 0.0, 0.0])


def test_gate_requires_phase_on_both_endpoints():
    edge_z = np.zeros((1, net.N_EDGE_FEATURES))
    edge_z[0, EI["dev_line"]] = 1.0
    edge_z[0, EI["status"]] = 1.0
    edge_z[0, EI["phase_a"]] = 1.0
    a = np.array([[1.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0]])
    assert gm.status_gate(edge_z, a, a)[0] == 1.0
    assert gm.status_gate(edge_z, a, b)[0] == 0.0
    assert gm.status_gate(edge_z, b, a)[0] == 0.0


def test_open_and_mismatched_edges_never_enter_the_batch():
    item = micro_item(4, [(0, 1, "line", 1, "A"), (1, 2, "switch", 0, "A"),
                          (2, 3, "line", 1, "A")],
                      phases=["A", "A", "A", "B"])
    params = small_params()
    batch = gm.build_batch([item], params.feeder_rows)
    # only edge (0,1) survives: (1,2) open, (2,3) phase mismatch at node 3
    assert len(batch.plan.recv) == 2
    plan = batch.plan
    assert set(zip(plan.send.tolist(), plan.recv.tolist())) == {(0, 1), (1, 0)}


# -- messages and attention ----------------------------------------------------


def four_device_batch(params):
    """One edge of every device type on a five-node path."""
    item = micro_item(5, [(0, 1, "line", 1, "A"), (1, 2, "cable", 1, "A"),
                          (2, 3, "xfmr_reg", 1, "A"),
                          (3, 4, "switch", 1, "A")])
    return gm.build_batch([item], params.feeder_rows)


def test_zero_message_weights_give_zero_messages():
    params = small_params()
    for r in range(gm.N_EDGE_TYPES):
        params.tensors[f"layer0.msg{r}"].values[:] = 0.0
    batch = four_device_batch(params)
    h = ad.as_tensor(np.random.default_rng(0).normal(size=(5, 8)))
    out = gm.edge_messages(params, 0, h, batch)
    assert out.shape == (8, 8)
    np.testing.assert_array_equal(out.values, 0.0)


def test_message_weights_are_device_type_specific():
    params = small_params()
    batch = four_device_batch(params)
    h = np.random.default_rng(1).normal(size=(5, 8))
    out = gm.edge_messages(params, 0, ad.as_tensor(h), batch).values
    plan = batch.plan
    rows = np.concatenate((h[plan.recv], h[plan.send], plan.z), axis=1)
    types = gm.edge_type_ids(plan.z)
    np.testing.assert_array_equal(np.bincount(types), [2, 2, 2, 2])
    for k, r in enumerate(types):
        own = rows[k] @ params.tensors[f"layer0.msg{r}"].values
        other = rows[k] @ params.tensors[f"layer0.msg{(r + 1) % 4}"].values
        np.testing.assert_allclose(out[k], own, rtol=0, atol=1e-14)
        assert not np.allclose(out[k], other)


def test_structural_prior_shifts_regulator_logit_by_beta3():
    params = small_params()
    params.tensors["layer0.att_a"].values[:] = 0.0  # learned term off
    # two edges alike but for the device: a line and a regulator
    item = micro_item(4, [(0, 1, "line", 1, "A"), (2, 3, "xfmr_reg", 1, "A")])
    batch = gm.build_batch([item], params.feeder_rows)
    logits = gm.attention_logits(params, 0, ad.as_tensor(np.zeros((4, 8))),
                                 batch).values[:, 0]
    regulator = batch.plan.z[:, EI["dev_xfmr_reg"]] == 1.0
    diff = logits[regulator] - logits[~regulator]
    np.testing.assert_allclose(diff, params.tensors["beta"].values[2, 0],
                               rtol=0, atol=1e-15)


def attention_weights(params, h, batch):
    """Layer 0's attention weight per edge: the aggregation of the identity
    rows puts edge k's weight in column k of its receiver's row."""
    logits = gm.attention_logits(params, 0, h, batch)
    e = len(batch.plan.recv)
    agg = ad.softmax_aggregate(np.eye(e), logits, batch.plan,
                               params.config.temperature)
    return agg.values[batch.plan.recv, np.arange(e)]


def test_attention_uniform_when_all_logits_equal():
    item = micro_item(4, [(0, 1, "line", 1, "A"), (0, 2, "line", 1, "A"),
                          (0, 3, "line", 1, "A")])
    params = small_params()
    params.tensors["layer0.att_a"].values[:] = 0.0
    params.tensors["beta"].values[:] = 0.0
    batch = gm.build_batch([item], params.feeder_rows)
    alpha = attention_weights(params, ad.as_tensor(np.zeros((4, 8))), batch)
    # node 0 has three identical neighbors, each leaf has exactly one
    recv = batch.plan.recv
    np.testing.assert_allclose(alpha[recv == 0], 1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(alpha[recv != 0], 1.0, atol=1e-15)


def test_singleton_neighborhood_gets_weight_one_for_any_logit():
    item = micro_item(2, [(0, 1, "line", 1, "A")])
    params = small_params(seed=12)
    batch = gm.build_batch([item], params.feeder_rows)
    h = ad.as_tensor(np.random.default_rng(2).normal(size=(2, 8)))
    np.testing.assert_allclose(attention_weights(params, h, batch), 1.0,
                               atol=1e-15)


def test_attention_sums_to_one_per_receiver(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=1)
    item = snaps[0].masked(np.ones(data.n_nodes, dtype=bool))
    batch = gm.build_batch([item], params.feeder_rows)
    h = matmul(ad.as_tensor(batch.node_x), params.tensors["input.W"])
    alpha = attention_weights(params, h, batch)
    sums = np.bincount(batch.plan.recv, weights=alpha, minlength=batch.n_nodes)
    degree = np.bincount(batch.plan.recv, minlength=batch.n_nodes)
    np.testing.assert_allclose(sums[degree > 0], 1.0, atol=1e-12)
    np.testing.assert_array_equal(sums[degree == 0], 0.0)


# -- layer and locality --------------------------------------------------------


def test_isolated_batch_reduces_to_residual_norm_stack():
    """With every edge gated off the layers collapse to Norm(h + phi(0))."""
    item = micro_item(3, [(0, 1, "switch", 0, "A")])
    params = small_params()
    batch = gm.build_batch([item], params.feeder_rows)
    assert len(batch.plan.recv) == 0
    got = gm.forward(params, batch)

    t = params.tensors
    h = ad.add(matmul(ad.as_tensor(batch.node_x), t["input.W"]), t["input.b"])
    for layer in range(params.config.n_layers):
        zero_agg = ad.as_tensor(np.zeros((3, 8)))
        hid = ad.relu(ad.add(matmul(zero_agg, t[f"layer{layer}.phi_W1"]),
                             t[f"layer{layer}.phi_b1"]))
        upd = ad.add(matmul(hid, t[f"layer{layer}.phi_W2"]),
                     t[f"layer{layer}.phi_b2"])
        h = ad.layer_norm(ad.add(h, upd), t[f"layer{layer}.norm_gain"],
                          t[f"layer{layer}.norm_bias"])
    expected = gm.decode(params, gm.film_hub(params, h, batch))
    np.testing.assert_array_equal(got.values, expected.values)


def test_open_tie_equals_tie_removed_bitwise(tiny_snaps):
    snaps, data = tiny_snaps
    snap = snaps[0]
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=9)
    obs = np.ones(data.n_nodes, dtype=bool)
    item = snap.masked(obs)
    assert (item.edge_z[:, EI["status"]] == 0.0).any()  # ties present, open

    keep = item.edge_z[:, EI["status"]] == 1.0
    stripped = ds.Snapshot(
        node_x=item.node_x, edge_from=item.edge_from[keep],
        edge_to=item.edge_to[keep], edge_z=item.edge_z[keep],
        node_feeder=item.node_feeder, v_true=item.v_true,
        observed=item.observed, phys_from=item.phys_from,
        phys_to=item.phys_to, phys_r=item.phys_r, phys_x=item.phys_x,
        phys_p=item.phys_p, phys_q=item.phys_q)

    with_tie = gm.forward(params, gm.build_batch([item], params.feeder_rows))
    without = gm.forward(params, gm.build_batch([stripped], params.feeder_rows))
    np.testing.assert_array_equal(with_tie.values, without.values)


def test_permutation_equivariance(tiny_snaps):
    snaps, data = tiny_snaps
    snap = snaps[1]
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=4)
    gen = np.random.default_rng(77)
    obs = gen.random(data.n_nodes) < 0.5
    item = snap.masked(obs)
    base = gm.forward(params, gm.build_batch([item], params.feeder_rows))

    perm = gen.permutation(data.n_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(data.n_nodes)
    shuffled = ds.Snapshot(
        node_x=item.node_x[perm], edge_from=inv[item.edge_from],
        edge_to=inv[item.edge_to], edge_z=item.edge_z,
        node_feeder=item.node_feeder[perm], v_true=item.v_true[perm],
        observed=item.observed[perm], phys_from=inv[item.phys_from],
        phys_to=inv[item.phys_to], phys_r=item.phys_r, phys_x=item.phys_x,
        phys_p=item.phys_p, phys_q=item.phys_q)
    out = gm.forward(params, gm.build_batch([shuffled], params.feeder_rows))
    np.testing.assert_allclose(out.values, base.values[perm], atol=1e-12)


# -- the batched forward -----------------------------------------------------------


@pytest.fixture(scope="module")
def batch32(tiny_snaps):
    """32 masked snapshots and default-size params."""
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=3)
    gen = np.random.default_rng(32)
    items = [snaps[k % len(snaps)].masked(gen.random(data.n_nodes) < 0.3)
             for k in range(32)]
    return params, items


def reference_forward(params, batch):
    """The forward over explicit edge rows: numpy ``[h_recv ‖ h_send ‖ z]``
    times each edge's message weight and times ``att_W``, then the same
    softmax, sum, update and norm, and the model's own conditioning and
    decoder."""
    t = {k: v.values for k, v in params.tensors.items()}
    recv, send, n = batch.plan.recv, batch.plan.send, batch.n_nodes
    types = gm.edge_type_ids(batch.plan.z)
    h = batch.node_x @ t["input.W"] + t["input.b"]
    for layer in range(params.config.n_layers):
        p = f"layer{layer}."
        rows = np.concatenate((h[recv], h[send], batch.plan.z), axis=1)
        msgs = np.zeros((len(recv), h.shape[1]))
        for r in range(gm.N_EDGE_TYPES):
            msgs[types == r] = rows[types == r] @ t[p + f"msg{r}"]
        logits = (np.maximum(rows @ t[p + "att_W"], 0.0) @ t[p + "att_a"]
                  + batch.prior @ t["beta"])[:, 0] / params.config.temperature
        top = np.full(n, -np.inf)
        np.maximum.at(top, recv, logits)
        e = np.exp(logits - top[recv])
        alpha = e / np.bincount(recv, weights=e, minlength=n)[recv]
        agg = np.zeros_like(h)
        np.add.at(agg, recv, msgs * alpha[:, None])
        update = (np.maximum(agg @ t[p + "phi_W1"] + t[p + "phi_b1"], 0.0)
                  @ t[p + "phi_W2"] + t[p + "phi_b2"])
        x = h + update
        xhat = ((x - x.mean(axis=1, keepdims=True))
                / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5))
        h = xhat * t[p + "norm_gain"] + t[p + "norm_bias"]
    with ad.no_grad():
        return gm.decode(params, gm.film_hub(params, ad.as_tensor(h),
                                             batch)).values


def test_batched_forward_matches_the_explicit_edge_rows(batch32):
    params, items = batch32
    batch = gm.build_batch(items, params.feeder_rows)
    assert set(gm.edge_type_ids(batch.plan.z).tolist()) >= {0, 2, 3}
    with ad.no_grad():
        got = gm.forward(params, batch).values
    np.testing.assert_allclose(got, reference_forward(params, batch),
                               rtol=0, atol=1e-10)


def test_batch_of_32_equals_32_single_forwards(batch32):
    params, items = batch32
    with ad.no_grad():
        batched = gm.forward(params, gm.build_batch(items,
                                                    params.feeder_rows))
        singles = [gm.forward(params, gm.build_batch([it],
                                                     params.feeder_rows))
                   for it in items]
    np.testing.assert_allclose(batched.values,
                               np.concatenate([s.values for s in singles]),
                               rtol=0, atol=1e-12)


# -- conditioning and decoding ---------------------------------------------------


def film_identity(params):
    params.tensors["film.Wg"].values[:] = 0.0
    params.tensors["film.bg"].values[:] = 1.0
    params.tensors["film.Wb"].values[:] = 0.0
    params.tensors["film.bb"].values[:] = 0.0
    params.tensors["eta"].values[:] = 1.0


def test_film_identity_configuration_passes_embeddings_through():
    item = micro_item(4, [(0, 1, "line", 1, "A"), (1, 2, "line", 1, "A"),
                          (2, 3, "line", 1, "A")], feeders=[1, 1, 2, 2])
    params = small_params()
    film_identity(params)
    batch = gm.build_batch([item], params.feeder_rows)
    h = ad.as_tensor(np.random.default_rng(3).normal(size=(4, 8)))
    out = gm.film_hub(params, h, batch)
    np.testing.assert_array_equal(out.values, h.values)


def test_film_context_is_mean_of_feeder_means_excluding_hub():
    # route the context straight to the output: gamma = 0, beta = context
    item = micro_item(5, [(0, 1, "line", 1, "A"), (1, 2, "line", 1, "A"),
                          (0, 3, "line", 1, "A"), (3, 4, "line", 1, "A")],
                      feeders=[net.HUB_FEEDER, 1, 1, 2, 2])
    params = small_params()
    params.tensors["film.Wg"].values[:] = 0.0
    params.tensors["film.bg"].values[:] = 0.0
    params.tensors["film.Wb"].values[:] = np.eye(8)
    params.tensors["film.bb"].values[:] = 0.0
    params.tensors["eta"].values[:] = 1.0
    batch = gm.build_batch([item], params.feeder_rows)
    h_np = np.random.default_rng(8).normal(size=(5, 8))
    out = gm.film_hub(params, ad.as_tensor(h_np), batch)
    context = 0.5 * (h_np[1:3].mean(axis=0) + h_np[3:5].mean(axis=0))
    for row in out.values:
        np.testing.assert_allclose(row, context, atol=1e-14)


def test_film_scaling_one_feeder_shifts_context_proportionally():
    item = micro_item(4, [(0, 1, "line", 1, "A"), (2, 3, "line", 1, "A")],
                      feeders=[1, 1, 2, 2])
    params = small_params()
    params.tensors["film.Wg"].values[:] = 0.0
    params.tensors["film.bg"].values[:] = 0.0
    params.tensors["film.Wb"].values[:] = np.eye(8)
    params.tensors["eta"].values[:] = 1.0
    batch = gm.build_batch([item], params.feeder_rows)
    h_np = np.abs(np.random.default_rng(9).normal(size=(4, 8))) + 0.1
    base = gm.film_hub(params, ad.as_tensor(h_np), batch).values[0]
    doubled = h_np.copy()
    doubled[0:2] *= 2.0  # feeder 1 embeddings doubled
    shifted = gm.film_hub(params, ad.as_tensor(doubled), batch).values[2]
    expected_shift = 0.5 * h_np[0:2].mean(axis=0)
    np.testing.assert_allclose(shifted - base, expected_shift, atol=1e-13)


def test_feeder_gate_scales_known_and_skips_unknown_feeders():
    item = micro_item(4, [(0, 1, "line", 1, "A"), (2, 3, "line", 1, "A")],
                      feeders=[1, 1, 42, 42])  # feeder 42 has no gate row
    params = small_params()
    film_identity(params)
    params.tensors["eta"].values[params.feeder_rows[1], 0] = 2.0
    batch = gm.build_batch([item], params.feeder_rows)
    np.testing.assert_array_equal(batch.eta_known[:, 0], [1, 1, 0, 0])
    h = ad.as_tensor(np.ones((4, 8)))
    out = gm.film_hub(params, h, batch)
    np.testing.assert_array_equal(out.values[0:2], 2.0)
    np.testing.assert_array_equal(out.values[2:4], 1.0)


def test_film_requires_at_least_one_feeder_node():
    item = micro_item(2, [(0, 1, "line", 1, "A")],
                      feeders=[net.HUB_FEEDER, net.HUB_FEEDER])
    params = small_params()
    batch = gm.build_batch([item], params.feeder_rows)
    with pytest.raises(ad.EngineError, match="no feeder nodes"):
        gm.film_hub(params, ad.as_tensor(np.zeros((2, 8))), batch)


def test_hub_nodes_never_enter_feeder_pooling(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=2)
    item = snaps[0].masked(np.ones(data.n_nodes, dtype=bool))
    batch = gm.build_batch([item], params.feeder_rows)
    assert np.all(item.node_feeder[batch.film_nodes] != net.HUB_FEEDER)
    hub_nodes = np.flatnonzero(item.node_feeder == net.HUB_FEEDER)
    assert hub_nodes.size > 0
    assert not np.isin(hub_nodes, batch.film_nodes).any()
    assert batch.film_n_seg == len(data.feeder_ids)


def test_constant_decoder_outputs_one():
    params = small_params()
    params.tensors["decoder.W1"].values[:] = 0.0
    params.tensors["decoder.W2"].values[:] = 0.0
    params.tensors["decoder.b2"].values[:] = 1.0
    h = ad.as_tensor(np.random.default_rng(5).normal(size=(7, 8)))
    out = gm.decode(params, h)
    np.testing.assert_array_equal(out.values, 1.0)


def test_fresh_params_decode_near_nominal_voltage(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=0)
    item = snaps[0].masked(np.ones(data.n_nodes, dtype=bool))
    out = gm.forward(params, gm.build_batch([item], params.feeder_rows))
    assert np.all(np.abs(out.values - 1.0) < 0.25)


# -- freezing groups -------------------------------------------------------------


def test_freezing_groups_partition_every_tensor():
    params = gm.ModelParams.create(gm.ModelConfig(), [3, 4, 5], seed=0)
    backbone = set(params.backbone_names())
    head = set(head_names(params))
    assert backbone.isdisjoint(head)
    assert backbone | head == set(params.tensors)
    assert "input.W" in backbone and "beta" in backbone
    assert "layer0.msg0" in backbone and "layer2.att_a" in backbone
    last = f"layer{params.config.n_layers - 1}"
    assert f"{last}.msg0" in head and f"{last}.norm_gain" in head
    assert {"film.Wg", "film.bb", "eta", "decoder.W2"} <= head


def test_replace_eta_resets_gate_rows():
    params = gm.ModelParams.create(gm.ModelConfig(), [1, 2], seed=0)
    params.tensors["eta"].values[:] = 3.0
    params.replace_eta([10, 11, 12])
    assert params.feeder_rows == {10: 0, 11: 1, 12: 2}
    np.testing.assert_array_equal(params.tensors["eta"].values, 1.0)
    assert params.tensors["eta"].shape == (3, 1)


def _assert_flat_layout(params):
    """Tensors in canonical order, each a view of its span of the store,
    and the head one contiguous span at the end."""
    names = [n for n, _, _ in gm.layout(params.config,
                                        len(params.feeder_rows))]
    assert list(params.tensors) == names
    store = params.store
    assert store.tensors == list(params.tensors.values())
    offset = 0
    for name, t in params.tensors.items():
        assert t.values.base is store.values, name
        span = store.values[offset:offset + t.values.size]
        assert np.shares_memory(t.values, span), name
        offset += t.values.size
    assert offset == store.values.size == store.grad.size
    head = head_names(params)
    assert names[len(names) - len(head):] == head
    assert set(names[:len(names) - len(head)]) == set(params.backbone_names())


def test_layout_gives_the_created_shapes_and_a_tail_head_span():
    config = gm.ModelConfig(hidden_dim=8, n_layers=2)
    params = gm.ModelParams.create(config, [4, 5], seed=1)
    rows = gm.layout(config, 2)
    assert [(n, s) for n, s, _ in rows] == [
        (n, t.shape) for n, t in params.tensors.items()]
    assert params.groups == {n: g for n, _, g in rows}
    head = params.span("head")
    assert head.stop == params.store.values.size
    assert params.span("backbone") == slice(0, head.start)
    n_head = sum(params.tensors[n].values.size for n in head_names(params))
    assert head.stop - head.start == n_head
    _assert_flat_layout(params)


@pytest.mark.parametrize("source", ["create", "load_checkpoint"])
def test_parameters_are_freed_without_the_cyclic_collector(source,
                                                           tmp_path):
    import gc
    import weakref
    params = gm.ModelParams.create(gm.ModelConfig(), [1, 2], seed=0)
    if source == "load_checkpoint":
        gm.save_checkpoint(params, tmp_path / "model.npz")
        params = gm.load_checkpoint(tmp_path / "model.npz")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        store = weakref.ref(params.store)
        del params
        assert store() is None
    finally:
        if was_enabled:
            gc.enable()


def test_parameters_are_views_of_one_flat_vector():
    params = gm.ModelParams.create(gm.ModelConfig(), [1, 2, 3], seed=4)
    _assert_flat_layout(params)
    assert params.store.values.size == 228_232  # the default model, 3 gates
    params.store.values[:] = 0.5
    assert all(np.all(t.values == 0.5) for t in params.tensors.values())


def test_replace_eta_keeps_the_store_consistent():
    params = gm.ModelParams.create(gm.ModelConfig(), [1, 2], seed=0)
    before = {n: t.values.copy() for n, t in params.tensors.items()}
    size = params.store.values.size
    params.replace_eta([10, 11, 12])
    _assert_flat_layout(params)
    assert params.store.values.size == size + 1
    for name, vals in before.items():
        if name != "eta":
            np.testing.assert_array_equal(params.tensors[name].values, vals)
    np.testing.assert_array_equal(params.tensors["eta"].values, 1.0)


def test_hub_feeder_cannot_receive_a_gate():
    with pytest.raises(ValueError, match="hub"):
        gm.ModelParams.create(gm.ModelConfig(), [net.HUB_FEEDER, 1], seed=0)


# -- batching ---------------------------------------------------------------------


def test_batch_edges_are_receiver_sorted_and_bidirectional(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(gm.ModelConfig(), data.feeder_ids, seed=0)
    items = [s.masked(np.ones(data.n_nodes, dtype=bool)) for s in snaps[:3]]
    batch = gm.build_batch(items, params.feeder_rows)
    assert batch.n_graphs == 3
    assert batch.n_nodes == 3 * data.n_nodes
    assert np.all(np.diff(batch.plan.recv) >= 0)
    pairs = set(zip(batch.plan.send.tolist(), batch.plan.recv.tolist()))
    assert all((r, s) in pairs for s, r in pairs)
    assert batch.graph_of_node.max() == 2
    assert len(batch.phys_from) == 3 * len(snaps[0].phys_p)


def test_masked_applies_mask_and_keeps_truth(tiny_snaps):
    snaps, data = tiny_snaps
    snap = snaps[0]
    obs = np.zeros(data.n_nodes, dtype=bool)
    obs[:5] = True
    item = snap.masked(obs)
    np.testing.assert_array_equal(item.node_x[:, NI["m_obs"]],
                                  obs.astype(float))
    np.testing.assert_array_equal(item.node_x[~obs, NI["m_obs_v_pu"]], 0.0)
    np.testing.assert_allclose(item.node_x[obs, NI["m_obs_v_pu"]],
                               snap.v_true[:5], atol=1e-15)
    np.testing.assert_array_equal(item.v_true, snap.v_true)


def test_edge_type_ids_decode_device_slots():
    z = np.zeros((4, net.N_EDGE_FEATURES))
    for k, dev in enumerate(["line", "cable", "xfmr_reg", "switch"]):
        z[k, EI[f"dev_{dev}"]] = 1.0
    np.testing.assert_array_equal(gm.edge_type_ids(z), [0, 1, 2, 3])
    z[0, EI["dev_switch"]] = 1.0
    with pytest.raises(ValueError, match="one-hot"):
        gm.edge_type_ids(z)


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        gm.build_batch([], {})
    with pytest.raises(ValueError, match="empty"):
        gm.batch_runs([])


def chain_item(n_nodes, tag):
    """A path of ``n_nodes`` whose truth labels name the item."""
    item = micro_item(n_nodes, [(k, k + 1, "line", 1, "A")
                                for k in range(n_nodes - 1)])
    item.v_true = np.full(n_nodes, float(tag))
    return item


@pytest.mark.parametrize("sizes", [
    [93] * 25, [183] * 19, [93] * 11, [183] * 5 + [184], [1024] * 3,
    [2000, 5, 5], [93] * 7 + [603] + [93] * 4, [7]])
def test_batches_are_balanced_runs_within_the_node_budget(sizes):
    items = [chain_item(n, k) for k, n in enumerate(sizes)]
    runs = [gm.build_batch(items[run], {1: 0}) for run in gm.batch_runs(items)]
    counts = [b.n_graphs for b in runs]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == len(items)
    for b in runs:
        assert b.n_nodes <= gm.BATCH_NODES or b.n_graphs == 1
    # consecutive and in order: the labels run 0, 1, 2, ... across batches
    labels = np.concatenate([b.v_true for b in runs])
    np.testing.assert_array_equal(
        labels, np.repeat(np.arange(len(sizes)), sizes).astype(float))
    per_run = max(1, gm.BATCH_NODES // max(sizes))
    assert len(runs) == -(-len(items) // per_run)  # no more runs than needed
    if max(sizes) > gm.BATCH_NODES // 2:
        assert counts == [1] * len(items)


# -- gradients -----------------------------------------------------------------


def test_gradients_flow_to_every_parameter(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(
        gm.ModelConfig(hidden_dim=8, n_layers=2, decoder_hidden=8),
        data.feeder_ids, seed=6)
    item = snaps[0].masked(np.ones(data.n_nodes, dtype=bool))
    batch = gm.build_batch([item], params.feeder_rows)
    # first with fresh gradient arrays, then with every gradient bound to
    # its view of the flat buffer (seeded at zero weight) before backward
    for prebound in (False, True):
        params.store.grad[:] = 0.0
        for t in params.tensors.values():
            t.zero_grad()
        with ad.Tape():
            v_hat = gm.forward(params, batch)
            loss = ad.l1_loss(ad.sub(v_hat, batch.v_true))
            if prebound:
                params.store.l2_term(0.0)
            ad.backward(loss)
        missing, zero = _gradient_gaps(params)
        assert missing == []
        assert zero == []


def _gradient_gaps(params):
    """Tensors with no gradient array, and tensors whose gradient is all
    zero (a pre-bound view nothing reached)."""
    missing = [n for n, t in params.tensors.items() if t.grad is None]
    zero = [n for n, t in params.tensors.items()
            if t.grad is not None and float(np.abs(t.grad).max()) == 0.0]
    return missing, zero


def test_gradient_check_catches_a_gap_behind_prebound_views(tiny_snaps):
    snaps, data = tiny_snaps
    params = gm.ModelParams.create(
        gm.ModelConfig(hidden_dim=8, n_layers=2, decoder_hidden=8),
        data.feeder_ids, seed=6)
    params.tensors["decoder.W2"].values[:] = 0.0  # nothing flows past it
    item = snaps[0].masked(np.ones(data.n_nodes, dtype=bool))
    batch = gm.build_batch([item], params.feeder_rows)
    with ad.Tape():
        loss = ad.l1_loss(ad.sub(gm.forward(params, batch), batch.v_true))
        params.store.l2_term(0.0)
        ad.backward(loss)
    missing, zero = _gradient_gaps(params)
    assert missing == []  # every gradient is a bound view ...
    assert "decoder.W1" in zero and "input.W" in zero  # ... yet gaps show
    assert "decoder.W2" not in zero and "decoder.b2" not in zero


def test_numeric_gradcheck_on_micro_model():
    item = micro_item(5, [(0, 1, "line", 1, "A"), (1, 2, "cable", 1, "A"),
                          (1, 3, "xfmr_reg", 1, "A"), (3, 4, "switch", 1, "A")],
                      feeders=[1, 1, 1, 2, 2])
    item.node_x[:, NI["m_obs_v_pu"]] = [1.0, 0.99, 0.98, 0.97, 0.96]
    params = small_params(d=4, layers=2, seed=21)
    batch = gm.build_batch([item], params.feeder_rows)
    target = np.array([1.0, 0.99, 0.98, 0.97, 0.96])

    def build_loss():
        v_hat = gm.forward(params, batch)
        return ad.l1_loss(ad.sub(v_hat, target))

    tensors = list(params.tensors.values())
    ok, worst, rows = ad.gradcheck(build_loss, tensors, seed=3)
    bad = [r for r in rows if not r["ok"]]
    assert ok, f"gradcheck failures (worst rel {worst:.2e}): {bad}"


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_roundtrip_is_exact(tmp_path):
    params = gm.ModelParams.create(gm.ModelConfig(), [7, 8, 9], seed=13)
    path = tmp_path / "model.npz"
    gm.save_checkpoint(params, path)
    loaded = gm.load_checkpoint(path)
    assert loaded.config == params.config
    assert loaded.feeder_rows == params.feeder_rows
    assert set(loaded.tensors) == set(params.tensors)
    for name, tensor in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name].values,
                                      tensor.values)
        assert loaded.tensors[name].requires_grad


def test_checkpoint_loads_sorted_keys_into_the_canonical_layout(tmp_path):
    params = gm.ModelParams.create(gm.ModelConfig(), [7, 8], seed=13)
    path = tmp_path / "model.npz"
    gm.save_checkpoint(params, path)
    with np.load(path) as data:
        keys = [k for k in data.files if k.startswith("tensor/")]
    assert keys == sorted(keys)  # the head names are not contiguous here
    loaded = gm.load_checkpoint(path)
    _assert_flat_layout(loaded)
    assert loaded.store.values.tobytes() == params.store.values.tobytes()


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.npz"
    ds.write_npz(path, {"meta_json": np.array('{"format": "other/v1"}')})
    with pytest.raises(ValueError, match="not a model checkpoint"):
        gm.load_checkpoint(path)


def test_checkpoint_rejects_foreign_feature_order(tmp_path, monkeypatch):
    params = gm.ModelParams.create(gm.ModelConfig(), [1], seed=0)
    path = tmp_path / "model.npz"
    gm.save_checkpoint(params, path)
    monkeypatch.setattr(net, "feature_order_hash", lambda: "deadbeef")
    with pytest.raises(ValueError, match="refusing to load"):
        gm.load_checkpoint(path)


def test_checkpoint_rejects_missing_tensor(tmp_path):
    import json
    params = gm.ModelParams.create(gm.ModelConfig(), [1], seed=0)
    arrays = {f"tensor/{k}": v.values for k, v in params.tensors.items()}
    del arrays["tensor/decoder.W2"]
    meta = {"format": gm.CHECKPOINT_FORMAT,
            "feature_order_hash": net.feature_order_hash(),
            "config": params.config.to_dict(),
            "groups": {}, "feeder_rows": {"1": 0}}
    arrays["meta_json"] = np.array(json.dumps(meta))
    path = tmp_path / "model.npz"
    ds.write_npz(path, arrays)
    with pytest.raises(ValueError, match="missing tensor"):
        gm.load_checkpoint(path)


def test_checkpoint_rejects_feeder_rows_outside_the_gates(tmp_path):
    import json
    params = gm.ModelParams.create(gm.ModelConfig(), [1, 2], seed=0)
    path = tmp_path / "model.npz"
    gm.save_checkpoint(params, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta_json"][()]))
    meta["feeder_rows"] = {"1": 0, "2": 5}  # eta has two rows
    arrays["meta_json"] = np.array(json.dumps(meta))
    ds.write_npz(path, arrays)
    with pytest.raises(ValueError, match="feeder rows"):
        gm.load_checkpoint(path)
