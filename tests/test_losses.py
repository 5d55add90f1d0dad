"""Loss-term tests.

The physics residual example is pinned by hand: for one edge with
v_i = 1.02, v_j = 1.00, R = 0.01, X = 0.02, P = 0.5, Q = 0.2 the
linearized squared-voltage drop residual is
|1.02^2 - 1.00^2 - 2*(0.01*0.5 + 0.02*0.2)| = |0.0404 - 0.018| = 0.0224.
"""

import logging

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.losses as gl
import gridvolt.model as gm
import gridvolt.simulation as sim

from helpers import build_dataset, head_names


@pytest.fixture(scope="module")
def tiny_batch():
    spec = sim.generate_substation(41, "tiny", n_feeders=3)
    scen = sim.ScenarioConfig(horizon_minutes=60, der_penetration=30)
    data = build_dataset(spec, scen)
    params = gm.ModelParams.create(gm.ModelConfig(hidden_dim=8, n_layers=2),
                                   data.feeder_ids, seed=1)
    gen = np.random.default_rng(5)
    items = []
    for i in range(data.n_snapshots):
        obs = gen.random(data.n_nodes) < 0.4
        items.append(data.snapshot(i).masked(obs))
    return params, gm.build_batch(items, params.feeder_rows), data


# -- supervised ---------------------------------------------------------------


def test_supervised_zero_when_exact_on_masked_set():
    v_hat = ad.as_tensor(np.array([1.0, 0.98, 1.02, 0.5]))
    v_true = np.array([1.0, 0.98, 1.02, 0.9])
    masked = np.array([True, True, True, False])  # the bad node is observed
    assert gl.supervised_loss(v_hat, v_true, masked).values == 0.0


def test_supervised_single_node_absolute_error():
    v_hat = ad.as_tensor(np.array([1.01, 7.0]))
    v_true = np.array([1.00, 7.0])
    masked = np.array([True, False])
    loss = gl.supervised_loss(v_hat, v_true, masked)
    assert loss.values == pytest.approx(0.01, abs=1e-15)


def test_supervised_mean_invariant_to_duplicating_nodes():
    v_hat = ad.as_tensor(np.array([1.01, 0.99]))
    v_true = np.array([1.00, 1.00])
    one = gl.supervised_loss(v_hat, v_true, np.array([True, True]))
    v_hat4 = ad.as_tensor(np.array([1.01, 0.99, 1.01, 0.99]))
    v_true4 = np.array([1.00, 1.00, 1.00, 1.00])
    four = gl.supervised_loss(v_hat4, v_true4, np.full(4, True))
    assert one.values == pytest.approx(four.values, abs=1e-15)


def test_supervised_rejects_empty_masked_set():
    v_hat = ad.as_tensor(np.ones(3))
    with pytest.raises(ValueError, match="masked set is empty"):
        gl.supervised_loss(v_hat, np.ones(3), np.zeros(3, dtype=bool))


def test_supervised_ignores_observed_nodes_entirely():
    v_true = np.array([1.0, 1.0, 1.0])
    masked = np.array([True, True, False])
    a = gl.supervised_loss(ad.as_tensor(np.array([1.01, 0.99, 1.0])),
                           v_true, masked)
    b = gl.supervised_loss(ad.as_tensor(np.array([1.01, 0.99, 55.0])),
                           v_true, masked)
    assert a.values == b.values


# -- physics --------------------------------------------------------------------


def test_physics_hand_computed_single_edge():
    v_hat = ad.as_tensor(np.array([1.02, 1.00]))
    loss = gl.physics_loss(v_hat, np.array([0]), np.array([1]),
                           r=np.array([0.01]), x=np.array([0.02]),
                           p=np.array([0.5]), q=np.array([0.2]))
    assert loss.values == pytest.approx(0.0224, abs=1e-12)


def test_physics_zero_for_flat_voltage_and_no_flow():
    v_hat = ad.as_tensor(np.full(4, 1.017))
    e = np.array([0, 1, 2])
    z = np.zeros(3)
    loss = gl.physics_loss(v_hat, e, e + 1, r=np.full(3, 0.3),
                           x=np.full(3, 0.1), p=z, q=z)
    assert loss.values == 0.0


def test_physics_empty_edge_set_warns_and_returns_zero(caplog):
    empty = np.zeros(0)
    with caplog.at_level(logging.WARNING, logger="gridvolt.losses"):
        loss = gl.physics_loss(ad.as_tensor(np.ones(2)),
                               empty.astype(np.int64), empty.astype(np.int64),
                               empty, empty, empty, empty)
    assert loss.values == 0.0
    assert any("physics term disabled" in r.message for r in caplog.records)


def test_physics_residual_of_solver_truth_is_second_order_small(tiny_batch):
    params, batch, data = tiny_batch
    truth = ad.as_tensor(batch.v_true)
    loss = gl.physics_loss(truth, batch.phys_from, batch.phys_to,
                           batch.phys_r, batch.phys_x, batch.phys_p,
                           batch.phys_q)
    assert loss.values < 5e-4


def test_physics_truth_beats_uniform_prediction(tiny_batch):
    params, batch, data = tiny_batch
    args = (batch.phys_from, batch.phys_to, batch.phys_r, batch.phys_x,
            batch.phys_p, batch.phys_q)
    truth = gl.physics_loss(ad.as_tensor(batch.v_true), *args)
    flat = gl.physics_loss(ad.as_tensor(np.ones(batch.n_nodes)), *args)
    assert truth.values < flat.values


def test_physics_gradient_flows_to_voltages():
    v_hat = ad.Tensor(np.array([1.02, 1.00]), requires_grad=True)
    with ad.Tape():
        loss = gl.physics_loss(v_hat, np.array([0]), np.array([1]),
                               r=np.array([0.01]), x=np.array([0.02]),
                               p=np.array([0.5]), q=np.array([0.2]))
        ad.backward(loss)
    # d|r|/dv_i = sign(resid) * 2 v_i, resid > 0 here
    assert v_hat.grad[0] == pytest.approx(2 * 1.02, abs=1e-12)
    assert v_hat.grad[1] == pytest.approx(-2 * 1.00, abs=1e-12)


# -- weights and total ---------------------------------------------------------------


def test_loss_weights_reject_negatives():
    with pytest.raises(ValueError, match="non-negative"):
        gl.LossWeights(lam_sup=-1.0)


def test_physics_ramp_endpoints_and_midpoint():
    assert gl.physics_ramp(0, 20, 0.1) == 0.0
    assert gl.physics_ramp(10, 20, 0.1) == pytest.approx(0.05)
    assert gl.physics_ramp(20, 20, 0.1) == pytest.approx(0.1)
    assert gl.physics_ramp(99, 20, 0.1) == pytest.approx(0.1)
    assert gl.physics_ramp(3, 0, 0.1) == pytest.approx(0.1)


def test_total_reduces_to_supervised_when_other_weights_zero():
    w = gl.LossWeights(lam_sup=1.0, lam_phys=0.0, lam_reg=0.0)
    total = gl.total_loss(0.02, 7.0, 9.0, w)
    assert total.values == pytest.approx(0.02, abs=1e-15)


def test_total_all_zero_weights_is_zero():
    w = gl.LossWeights(lam_sup=0.0, lam_phys=0.0, lam_reg=0.0)
    assert gl.total_loss(1.0, 1.0, 1.0, w).values == 0.0


def test_total_nonnegative_for_nonnegative_weights_and_terms():
    gen = np.random.default_rng(0)
    for _ in range(50):
        w = gl.LossWeights(*gen.random(3))
        terms = gen.random(3)
        assert gl.total_loss(*terms, w).values >= 0.0


def test_batch_loss_components_recombine(tiny_batch):
    params, batch, data = tiny_batch
    w = gl.LossWeights(lam_sup=1.0, lam_phys=0.05, lam_reg=1e-5)
    total, parts = gl.batch_loss(params, batch, w)
    expected = (parts["supervised"] + 0.05 * parts["physics"]
                + 1e-5 * parts["reg"])
    assert parts["total"] == pytest.approx(expected, rel=1e-12)
    assert parts["supervised"] > 0.0
    assert parts["reg"] > 0.0


def test_frozen_parameters_receive_exactly_no_gradient(tiny_batch):
    params, batch, data = tiny_batch
    for name in params.backbone_names():
        params.tensors[name].requires_grad = False
    try:
        with ad.Tape():
            total, _ = gl.batch_loss(params, batch,
                                     gl.LossWeights(lam_phys=0.1))
            ad.backward(total)
        for name in params.backbone_names():
            assert params.tensors[name].grad is None, name
        for name in head_names(params):
            assert params.tensors[name].grad is not None, name
    finally:
        for t in params.tensors.values():
            t.requires_grad = True
            t.zero_grad()


def test_regularization_skips_frozen_tensors():
    a = ad.Tensor(np.array([2.0]), requires_grad=True)
    b = ad.Tensor(np.array([3.0]), requires_grad=False)
    store = ad.FlatStore([a, b])
    assert store.l2_term(1e-5) == pytest.approx(4.0)
    with ad.Tape():
        assert store.l2_term(0.5) == pytest.approx(4.0)
    assert a.grad == pytest.approx([2.0]) and b.grad is None
