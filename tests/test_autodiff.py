import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvolt import autodiff as ad

from helpers import matmul


def finite_floats(**kw):
    return st.floats(min_value=-50, max_value=50, allow_nan=False, **kw)


def test_relu_values():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def _plan(recv, n):
    """A one-type plan over the receiver ids ``recv``, for the segment
    tests: every edge is a self-loop with no edge features."""
    recv = np.asarray(recv)
    e = len(recv)
    return ad.EdgePlan(recv, recv, np.zeros((e, 0)), np.arange(e), [0, e], n)


def _softmax(logits, seg, n, temperature=1.0):
    """The attention weights of ``softmax_aggregate``: it aggregates the
    identity rows, so edge k's weight lands in column k of its receiver."""
    e = len(seg)
    out = ad.softmax_aggregate(np.eye(e), np.reshape(logits, (e, 1)),
                               _plan(seg, n), temperature)
    return out.values[np.asarray(seg), np.arange(e)]


def test_segment_sum_definition():
    # equal logits weigh each of two edges by exactly 0.5
    out = ad.softmax_aggregate(ad.Tensor([[1.0], [2.0], [3.0]]),
                               np.zeros((3, 1)), _plan([0, 0, 1], 2))
    assert np.array_equal(out.values, [[1.5], [3.0]])


def test_segment_sum_empty_segment_is_zero():
    out = ad.softmax_aggregate(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                               np.zeros((2, 1)), _plan([0, 2], 4))
    assert np.array_equal(out.values, [[1, 2], [0, 0], [3, 4], [0, 0]])


def test_segment_sum_keeps_the_last_row_before_empty_segments():
    # the last edge of segment 1 takes all of its weight
    out = ad.softmax_aggregate(ad.Tensor([[1.0], [2.0], [4.0], [8.0]]),
                               [[0.0], [-1000.0], [-1000.0], [0.0]],
                               _plan([0, 1, 1, 1], 3))
    np.testing.assert_array_equal(out.values, [[1.0], [8.0], [0.0]])


def test_softmax_max_sees_the_last_row_before_empty_segments():
    out = _softmax([0.0, 0.0, 1000.0], [0, 1, 1], 3)
    np.testing.assert_array_equal(out, [1.0, 0.0, 1.0])
    trimmed = _softmax([0.0, 0.0, 1000.0], [0, 1, 1], 2)
    np.testing.assert_array_equal(out, trimmed)


def test_softmax_single_logit_is_one():
    out = _softmax([3.7], [0], 1, temperature=2.0)
    assert out[0] == pytest.approx(1.0, abs=1e-15)


def test_softmax_segments_sum_to_one():
    seg = [0, 0, 0, 1, 1]
    alpha = _softmax([0.3, -1.0, 2.0, 0.5, 0.5], seg, 2, temperature=0.7)
    sums = np.bincount(seg, weights=alpha)
    assert np.allclose(sums, 1.0, atol=1e-12)


@given(st.lists(finite_floats(), min_size=1, max_size=8), finite_floats())
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(logits, shift):
    seg = [0] * len(logits)
    a = _softmax(logits, seg, 1)
    b = _softmax(np.array(logits) + shift, seg, 1)
    assert np.allclose(a, b, atol=1e-9)


def test_softmax_temperature_must_be_positive():
    with pytest.raises(ValueError):
        _softmax([1.0], [0], 1, temperature=0.0)
    with pytest.raises(ValueError):
        _softmax([1.0], [0], 1, temperature=-1.0)


def test_segment_ids_must_be_sorted():
    with pytest.raises(ad.EngineError):
        _plan([1, 0], 2)
    with pytest.raises(ad.EngineError):
        ad.segment_mean(ad.Tensor([1.0, 2.0]), [1, 0], 2)


def test_segment_mean_empty_segment_errors():
    with pytest.raises(ad.EngineError):
        ad.segment_mean(ad.Tensor([1.0]), [0], 2)


def test_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))),
                  ad.Tensor(np.zeros(3)))


def test_nonfinite_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([1.0, np.nan])
    x = ad.Tensor([1e308])
    with ad.Tape(), np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            ad.mul(x, x)


def test_finite_tensor_whose_sum_overflows_passes():
    big = np.full(4, 1e308)
    with np.errstate(over="ignore"):
        x = ad.Tensor(big)
        with pytest.raises(ad.NonFiniteError,
                           match="add: produced 4 non-finite values"):
            ad.add(x, x)
    np.testing.assert_array_equal(x.values, big)


def test_finite_screen_raises_no_warning():
    """The screen never sums the values, so a finite tensor whose sum
    overflows builds without numpy's overflow warning; a NaN or an inf is
    still refused with its count."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.Tensor(np.full(4, 1e308))
        ad.Tensor(np.zeros((0, 3)))
        for bad in ([1.0, np.nan, np.nan], [np.inf, 0.0, -np.inf]):
            with pytest.raises(ad.NonFiniteError,
                               match="produced 2 non-finite values"):
                ad.Tensor(bad)


def test_backward_requires_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, 2.0)
    with pytest.raises(ad.ShapeError):
        tape.backward(y)


def test_second_backward_errors():
    x = ad.Tensor(2.0, requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    tape.backward(y)
    with pytest.raises(ad.TapeConsumedError):
        tape.backward(y)


def test_backward_frees_the_graph_without_the_cycle_collector():
    import gc
    import weakref

    def step():
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        with ad.Tape() as tape:
            hidden = ad.relu(matmul(ad.as_tensor(np.ones((4, 3))), w))
            loss = ad.total_sum(hidden)
        tape.backward(loss)
        assert tape.records == []
        return weakref.ref(hidden), w.grad

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ref, grad = step()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    np.testing.assert_array_equal(grad, 4.0)


def test_linear_gradient_is_input():
    # f(w) = sum(w * x) has exact gradient x
    x = np.array([0.5, -2.0, 3.0])
    w = ad.Tensor([1.0, 1.0, 1.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.total_sum(ad.mul(w, x))
    tape.backward(loss)
    assert np.array_equal(w.grad, x)


def test_gradient_accumulates_over_reuse():
    x = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape() as tape:
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
    tape.backward(y)
    assert x.grad == pytest.approx(7.0)


def test_no_grad_skips_recording():
    x = ad.Tensor(1.0, requires_grad=True)
    with ad.Tape() as tape:
        with ad.no_grad():
            y = ad.mul(x, x)
    assert tape.records == [] and y._tape is None


def _check(build, params, seed=0):
    ok, worst, rows = ad.gradcheck(build, params, n_samples=100, seed=seed)
    assert ok, f"gradcheck failed, worst rel err {worst}: {rows}"


def test_gradcheck_matmul_bias_relu():
    r = np.random.Generator(np.random.PCG64(1))
    x = ad.Tensor(r.normal(size=(7, 5)) + 0.05)
    W = ad.Tensor(r.normal(size=(5, 4)), requires_grad=True, name="W")
    b = ad.Tensor(r.normal(size=4), requires_grad=True, name="b")
    t = ad.Tensor(r.normal(size=(7, 4)))

    def build():
        return ad.l1_loss(ad.sub(ad.relu(ad.add(matmul(x, W), b)), t))

    _check(build, [W, b])


def test_gradcheck_layer_norm():
    r = np.random.Generator(np.random.PCG64(2))
    x = ad.Tensor(r.normal(size=(6, 8)), requires_grad=True, name="x")
    g = ad.Tensor(r.normal(size=8) + 1.0, requires_grad=True, name="gain")
    s = ad.Tensor(r.normal(size=8), requires_grad=True, name="shift")
    res = ad.Tensor(r.normal(size=(6, 8)), requires_grad=True, name="res")
    w = r.normal(size=(6, 8))

    def build():
        return ad.total_sum(ad.mul(ad.layer_norm(x, g, s), w))

    def build_residual():
        return ad.total_sum(ad.mul(ad.layer_norm(x, g, s, residual=res), w))

    _check(build, [x, g, s])
    for t in (x, g, s):
        t.zero_grad()
    _check(build_residual, [x, g, s, res])


def test_gradcheck_linear():
    r = np.random.Generator(np.random.PCG64(9))
    x = ad.Tensor(r.normal(size=(7, 5)), requires_grad=True, name="x")
    W = ad.Tensor(r.normal(size=(5, 4)), requires_grad=True, name="W")
    b = ad.Tensor(r.normal(size=4), requires_grad=True, name="b")
    w = r.normal(size=(7, 4))

    def build():
        return ad.total_sum(ad.mul(ad.linear(x, W, b), w))

    _check(build, [x, W, b])
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.linear(x, W, np.ones((1, 4)))


def test_layer_norm_matches_finite_difference_on_vector():
    # tiny hand case: single row of 4
    x = ad.Tensor([[0.2, -1.0, 0.5, 2.0]], requires_grad=True, name="x")
    g = ad.Tensor(np.ones(4), requires_grad=True, name="g")
    s = ad.Tensor(np.zeros(4), requires_grad=True, name="s")
    w = np.array([[1.0, -0.3, 0.7, 0.1]])

    def build():
        return ad.total_sum(ad.mul(ad.layer_norm(x, g, s), w))

    _check(build, [x, g, s])


def _awkward_rows(d=64):
    """Rows with -0.0 entries, an all-negative row and constant rows."""
    r = np.random.Generator(np.random.PCG64(4))
    x = r.normal(size=(40, d)) * 3.0
    x[0] = -np.abs(x[0])
    x[1] = -0.0
    x[2] = 1.75
    x[3] = 0.0
    x[4, ::2] = -0.0
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_relu_is_bitwise_np_where():
    x = _awkward_rows()
    w = np.random.Generator(np.random.PCG64(5)).normal(size=x.shape)
    t = ad.Tensor(x, requires_grad=True, name="x")
    with ad.Tape():
        out = ad.relu(t)
        ad.backward(ad.total_sum(ad.mul(out, w)))
    np.testing.assert_array_equal(_bits(out.values),
                                  _bits(np.where(x > 0.0, x, 0.0)))
    np.testing.assert_array_equal(_bits(t.grad), _bits(w * (x > 0.0)))


def test_layer_norm_is_bitwise_the_mean_var_formula():
    x = _awkward_rows()
    r = np.random.Generator(np.random.PCG64(6))
    gain, bias = r.normal(size=64), r.normal(size=64)
    mu = x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=1) + 1e-5)
    expected = (x - mu) * inv_std[:, None] * gain + bias
    out = ad.layer_norm(x, gain, bias).values
    np.testing.assert_array_equal(_bits(out), _bits(expected))


def test_gradcheck_segment_ops():
    r = np.random.Generator(np.random.PCG64(3))
    x = ad.Tensor(r.normal(size=(9, 3)), requires_grad=True, name="x")
    seg = np.array([0, 0, 0, 1, 1, 3, 3, 3, 3])
    logits = r.normal(size=(9, 1))
    w_sum = r.normal(size=(4, 3))
    seg_full = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3])
    w_mean = r.normal(size=(4, 3))

    def build_sum():
        return ad.total_sum(ad.mul(
            ad.softmax_aggregate(x, logits, _plan(seg, 4)), w_sum))

    def build_mean():
        return ad.total_sum(ad.mul(ad.segment_mean(x, seg_full, 4), w_mean))

    _check(build_sum, [x])
    x.zero_grad()
    _check(build_mean, [x])


def test_gradcheck_segment_softmax():
    r = np.random.Generator(np.random.PCG64(4))
    logits = ad.Tensor(r.normal(size=(10, 1)), requires_grad=True,
                       name="logits")
    msgs = ad.Tensor(r.normal(size=(10, 3)), requires_grad=True, name="msgs")
    plan = _plan([0, 0, 0, 0, 1, 1, 2, 2, 2, 2], 4)
    w = r.normal(size=(4, 3))

    def build():
        return ad.total_sum(ad.mul(
            ad.softmax_aggregate(msgs, logits, plan, temperature=0.6), w))

    _check(build, [logits, msgs])


def _edge_case(seed):
    """Six nodes and seven receiver-sorted edges: node 0 has no incoming
    edge, node 5 none at all, and of four types type 2 has no edge."""
    r = np.random.Generator(np.random.PCG64(seed))
    x = ad.Tensor(r.normal(size=(6, 4)), requires_grad=True, name="x")
    z = r.normal(size=(7, 2))
    recv = np.array([1, 1, 2, 3, 3, 3, 4])
    send = np.array([0, 2, 1, 1, 4, 0, 3])
    types = np.array([0, 3, 1, 0, 3, 3, 1])
    ws = [ad.Tensor(r.normal(size=(10, 3)), requires_grad=True, name=f"W{k}")
          for k in range(4)]
    return r, x, z, recv, send, types, ws


def _type_partition(types, n_types):
    order = np.argsort(types, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(types, minlength=n_types))]
    return order, bounds


def _edge_plan(z, recv, send, types):
    return ad.EdgePlan(recv, send, z, *_type_partition(types, 4), 6)


def _edge_rows(x, z, recv, send):
    return np.concatenate((x[recv], x[send], z), axis=1)


def test_gradcheck_gather_and_typed_edge_matmul():
    r, x, z, recv, send, types, ws = _edge_case(5)
    plan = _edge_plan(z, recv, send, types)
    idx = np.array([0, 2, 2, 4, 1, 3])
    w = r.normal(size=(7, 3))
    w_gather = r.normal(size=(6, 4))

    def build():
        msgs = ad.typed_edge_matmul(x, ws, plan)
        return ad.add(ad.total_sum(ad.mul(msgs, w)),
                      ad.total_sum(ad.mul(ad.gather_rows(x, idx), w_gather)))

    _check(build, [x, *ws])
    assert ws[2].grad is None  # no edge of type 2


def test_typed_edge_matmul_matches_the_concatenated_rows():
    _, x, z, recv, send, types, ws = _edge_case(7)
    got = ad.typed_edge_matmul(x, ws, _edge_plan(z, recv, send, types)).values
    rows = _edge_rows(x.values, z, recv, send)
    want = np.stack([rows[k] @ ws[t].values for k, t in enumerate(types)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_typed_edge_matmul_rejects_a_partial_partition():
    _, x, z, recv, send, types, ws = _edge_case(7)
    order, bounds = _type_partition(types, 4)
    with pytest.raises(ad.EngineError, match="partition"):
        ad.EdgePlan(recv, send, z, order, bounds[:-1], 6)
    with pytest.raises(ad.ShapeError, match="weight rows"):
        ad.typed_edge_matmul(x, ws, ad.EdgePlan(recv, send, z[:, :1], order,
                                                bounds, 6))
    with pytest.raises(ad.ShapeError, match="types"):
        ad.typed_edge_matmul(x, ws[:3], ad.EdgePlan(recv, send, z, order,
                                                    bounds, 6))


def _attention_operands(r):
    a = ad.Tensor(r.normal(size=(3, 1)), requires_grad=True, name="a")
    beta = ad.Tensor(r.normal(size=(4, 1)), requires_grad=True, name="beta")
    return a, beta, r.normal(size=(7, 4))


def test_gradcheck_attention_score():
    r, x, z, recv, send, types, ws = _edge_case(6)
    a, beta, prior = _attention_operands(r)
    plan = _edge_plan(z, recv, send, types)
    w = r.normal(size=(7, 1))

    def build():
        return ad.total_sum(ad.mul(
            ad.attention_score(x, ws[0], a, prior, beta, plan), w))

    _check(build, [x, ws[0], a, beta])


def test_attention_score_matches_the_concatenated_rows():
    r, x, z, recv, send, types, ws = _edge_case(8)
    a, beta, prior = _attention_operands(r)
    got = ad.attention_score(x, ws[1], a, prior, beta,
                             _edge_plan(z, recv, send, types)).values
    hidden = np.maximum(_edge_rows(x.values, z, recv, send) @ ws[1].values,
                        0.0)
    want = hidden @ a.values + prior @ beta.values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_edge_ops_take_an_empty_edge_set():
    x = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    w = ad.Tensor(np.ones((5, 4)), requires_grad=True)
    score = ad.Tensor(np.ones((4, 1)), requires_grad=True)
    beta = ad.Tensor(np.ones((4, 1)), requires_grad=True)
    none = np.zeros(0, dtype=np.intp)
    plan = ad.EdgePlan(none, none, np.zeros((0, 1)), none, [0, 0, 0], 3)
    with ad.Tape() as tape:
        a = ad.attention_score(x, w, score, np.zeros((0, 4)), beta, plan)
        b = ad.typed_edge_matmul(x, [w, w], plan)
        agg = ad.softmax_aggregate(b, a, plan)
        loss = ad.add(ad.total_sum(agg), ad.total_sum(x))
    assert a.shape == (0, 1) and b.shape == (0, 4)
    np.testing.assert_array_equal(agg.values, np.zeros((3, 4)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 1.0)
    for t in (w, score, beta):
        np.testing.assert_array_equal(t.grad, 0.0)


# -- the edge ops against their whole-edge references -------------------------
#
# ``typed_edge_matmul_reference`` forms one [E, 2d] gather of every edge's
# node rows and a second [E, out] buffer; ``softmax_aggregate_reference``
# builds its receiver bins on every call. Both are the ops as they were
# before the plan's bins and the per-block gathers; the ops must stay
# bitwise equal to them, values and gradients, with a tape or without.


def typed_edge_matmul_reference(x, weights, plan):
    x = ad.as_tensor(x)
    ws = [ad.as_tensor(w) for w in weights]
    d = x.shape[1]
    n_edges = len(plan.recv)
    out_dim = ws[0].shape[1]
    nodes = x.values[plan.pairs].reshape(n_edges, 2 * d)
    z_t = plan.z_typed
    out = np.empty((n_edges, out_dim), dtype=np.float64)
    for r, a, b in plan.blocks:
        np.matmul(nodes[a:b], ws[r].values[:2 * d], out=out[a:b])
        out[a:b] += z_t[a:b] @ ws[r].values[2 * d:]
    vals = np.empty_like(out)
    vals[plan.order] = out

    def bwd(g):
        g_t = g[plan.order]
        d_nodes = np.empty((n_edges, 2 * d), dtype=np.float64)
        dws = [None] * len(ws)
        for r, a, b in plan.blocks:
            w = ws[r].values
            np.matmul(g_t[a:b], w[:2 * d].T, out=d_nodes[a:b])
            dws[r] = np.empty_like(w)
            np.matmul(nodes[a:b].T, g_t[a:b], out=dws[r][:2 * d])
            np.matmul(z_t[a:b].T, g_t[a:b], out=dws[r][2 * d:])
        dx = ad._scatter_add_rows(d_nodes.reshape(2 * n_edges, d),
                                  plan.pairs, x.shape[0])
        return (dx, *dws)

    return ad._record("typed_edge_matmul", vals, (x, *ws), bwd)


def softmax_aggregate_reference(messages, logits, plan, temperature=1.0):
    m, s = ad.as_tensor(messages), ad.as_tensor(logits)
    n_edges, n = len(plan.recv), plan.n_nodes
    seg = plan.recv
    x = s.values.reshape((n_edges,))
    if n_edges == 0:
        alpha = np.zeros(0, dtype=np.float64)
    else:
        seg_max = np.zeros(n, dtype=np.float64)
        seg_max[plan.filled] = np.maximum.reduceat(x, plan.starts)
        e = np.exp((x - seg_max[seg]) / temperature)
        alpha = e / np.bincount(seg, weights=e, minlength=n)[seg]
    alpha_col = alpha.reshape((n_edges, 1))
    weighted = m.values * alpha_col

    def bwd(g):
        g_w = g[seg]
        d_alpha = ad._unbroadcast(g_w * m.values, (n_edges, 1)).reshape(
            (n_edges,))
        inner = np.bincount(seg, weights=alpha * d_alpha, minlength=n)
        d_logits = alpha * (d_alpha - inner[seg]) / temperature
        return (g_w * alpha_col, d_logits.reshape((n_edges, 1)))

    return ad._record("softmax_aggregate",
                      ad._scatter_add_rows(weighted, seg, n), (m, s), bwd)


def _wide_edge_case(seed, d=16, out_dim=64):
    """A receiver-sorted random graph of 30 nodes at the model's message
    width: nodes 0 and 29 have no incoming edge, type 1 has no edge, and
    one node row and part of another are -0.0."""
    r = np.random.Generator(np.random.PCG64(seed))
    n, n_edges = 30, 90
    x_values = r.normal(size=(n, d))
    x_values[3] = -0.0
    x_values[7, ::3] = -0.0
    x = ad.Tensor(x_values, requires_grad=True, name="x")
    recv = np.sort(r.integers(1, n - 1, n_edges))
    send = r.integers(0, n, n_edges)
    types = r.choice([0, 2, 3], n_edges)
    z = r.normal(size=(n_edges, 5))
    z[:4] = 0.0
    ws = [ad.Tensor(r.normal(size=(2 * d + 5, out_dim)), requires_grad=True,
                    name=f"W{k}") for k in range(4)]
    plan = ad.EdgePlan(recv, send, z, *_type_partition(types, 4), n)
    return r, x, plan, ws


def _oracle_cases():
    r, x, z, recv, send, types, ws = _edge_case(9)
    yield r, x, _edge_plan(z, recv, send, types), ws
    yield _wide_edge_case(10)


def _edge_chain(typed, aggregate, x, ws, plan, logits, w_out):
    msgs = typed(x, ws, plan)
    agg = aggregate(msgs, logits, plan, 0.7)
    return msgs, agg, ad.total_sum(ad.mul(agg, w_out))


@pytest.mark.parametrize("taped", [False, True])
def test_edge_ops_equal_their_whole_edge_references_bitwise(taped):
    for r, x, plan, ws in _oracle_cases():
        out_dim = ws[0].shape[1]
        n_edges = len(plan.recv)
        logit_values = r.normal(size=(n_edges, 1))
        w_out = r.normal(size=(plan.n_nodes, out_dim))
        got, want = [], []
        for typed, aggregate, record in (
                (ad.typed_edge_matmul, ad.softmax_aggregate, got),
                (typed_edge_matmul_reference, softmax_aggregate_reference,
                 want)):
            for t in (x, *ws):
                t.zero_grad()
            logits = ad.Tensor(logit_values, requires_grad=True,
                               name="logits")
            if taped:
                with ad.Tape() as tape:
                    msgs, agg, loss = _edge_chain(typed, aggregate, x, ws,
                                                  plan, logits, w_out)
                tape.backward(loss)
                record.extend(t.grad for t in (x, *ws, logits))
            else:
                with ad.no_grad():
                    msgs, agg, loss = _edge_chain(typed, aggregate, x, ws,
                                                  plan, logits, w_out)
                assert loss._tape is None
            record.extend((msgs.values, agg.values, loss.values))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if b is None:  # the type without an edge gets no gradient
                assert a is None
                continue
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_a_negative_zero_message_aggregates_like_the_reference():
    plan = _plan([0, 1, 1, 3], 4)
    messages = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 2.0],
                         [-0.0, -0.0]])
    logits = np.array([[0.5], [0.0], [1000.0], [-2.0]])
    got = ad.softmax_aggregate(messages, logits, plan).values
    want = softmax_aggregate_reference(messages, logits, plan).values
    assert got.tobytes() == want.tobytes()


def test_a_second_forward_reuses_the_receiver_bins():
    r, x, plan, ws = _wide_edge_case(11)
    logits = r.normal(size=(len(plan.recv), 1))
    with ad.no_grad():
        ad.softmax_aggregate(ad.typed_edge_matmul(x, ws, plan), logits, plan)
        assert list(plan._bins) == [("recv", 64)]
        bins = plan._bins["recv", 64]
        ad.softmax_aggregate(ad.typed_edge_matmul(x, ws[::-1], plan),
                             -logits, plan)
    assert list(plan._bins) == [("recv", 64)]
    assert plan._bins["recv", 64] is bins


def test_l2_penalty_value_and_grad():
    # the L2 term is off the tape: its gradient (here at weight 1) is
    # seeded into the store's buffer while the tape records
    p = ad.Tensor([1.0, -2.0], requires_grad=True, name="p")
    q = ad.Tensor([[3.0]], requires_grad=True, name="q")
    store = ad.FlatStore([p, q])
    with ad.Tape() as tape:
        pen = store.l2_term(1.0)
    assert pen == pytest.approx(14.0)
    assert tape.records == []
    assert np.allclose(p.grad, [2.0, -4.0])
    assert np.allclose(q.grad, [[6.0]])
    assert p.grad is store.grad_views[0] and q.grad is store.grad_views[1]


# -- the flat store --------------------------------------------------------------


def _taped_l2(params):
    """The L2 term as a chain of tape records (the reference)."""
    acc = ad.total_sum(ad.mul(params[0], params[0]))
    for p in params[1:]:
        acc = ad.add(acc, ad.total_sum(ad.mul(p, p)))
    return acc


def _reuse_loss(a, b, x):
    """A loss that reaches ``a`` by two paths and ``b`` by one."""
    h = ad.relu(matmul(ad.as_tensor(x), a))
    return ad.total_sum(ad.mul(ad.add(matmul(h, b), matmul(h, b)),
                               ad.reshape(ad.total_sum(a), (1, 1))))


def _store_pair(seed):
    r = np.random.default_rng(seed)
    a = ad.Tensor(r.normal(size=(4, 3)), requires_grad=True, name="a")
    b = ad.Tensor(r.normal(size=(3, 2)), requires_grad=True, name="b")
    return a, b, r.normal(size=(5, 4))


def test_flat_store_views_share_the_vector():
    a, b, _ = _store_pair(0)
    want = np.concatenate([a.values.ravel(), b.values.ravel()])
    store = ad.FlatStore([a, b])
    np.testing.assert_array_equal(store.values, want)
    assert a.values.base is store.values and b.values.base is store.values
    store.values[:] = 0.0
    assert not a.values.any() and not b.values.any()


@pytest.mark.parametrize("lam", [1e-5, 0.37])
def test_l2_term_gradient_equals_the_taped_chain_bitwise(lam):
    """Seeding 2*lam*theta and then running backward gives the gradients
    of the taped term recorded after the forward pass, bit for bit."""
    a, b, x = _store_pair(1)
    with ad.Tape() as tape:
        loss = ad.add(_reuse_loss(a, b, x), ad.mul(_taped_l2([a, b]), lam))
    tape.backward(loss)
    taped = (a.grad.copy(), b.grad.copy(), float(loss.values))
    a.zero_grad()
    b.zero_grad()
    store = ad.FlatStore([a, b])
    with ad.Tape() as tape:
        fwd = _reuse_loss(a, b, x)
        loss = ad.add(fwd, ad.mul(store.l2_term(lam), lam))
    tape.backward(loss)
    assert a.grad.tobytes() == taped[0].tobytes()
    assert b.grad.tobytes() == taped[1].tobytes()
    assert float(loss.values) == taped[2]
    assert a.grad.base is store.grad


def test_l2_term_refuses_trainable_tensors_that_are_not_one_span():
    a, b, _ = _store_pair(2)
    frozen = ad.Tensor([4.0], requires_grad=False, name="frozen")
    store = ad.FlatStore([a, frozen, b])
    assert store.l2_term(1e-3) == pytest.approx(
        np.square(a.values).sum() + np.square(b.values).sum())
    with ad.Tape(), pytest.raises(ValueError, match="contiguous"):
        store.l2_term(1e-3)


def test_first_gradient_is_copied_not_shared():
    # add hands the same array to both inputs; a later gradient into one
    # must not show up in the other
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([5.0, 6.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.add(ad.total_sum(ad.add(a, b)),
                      ad.total_sum(ad.mul(a, 3.0)))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, [4.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def _scatter_per_column(g, idx, n):
    """Per-column bincount scatter-add (the reference)."""
    if g.ndim == 1:
        return np.bincount(idx, weights=g, minlength=n)
    out = np.empty((n, g.shape[1]))
    for c in range(g.shape[1]):
        out[:, c] = np.bincount(idx, weights=g[:, c], minlength=n)
    return out


@pytest.mark.parametrize("case", ["sorted", "unsorted", "empty", "1-d"])
def test_scatter_add_rows_matches_per_column_bincount(case):
    r = np.random.default_rng(3)
    n = 40
    idx = {"sorted": np.sort(r.integers(0, n, 360)),
           "unsorted": r.integers(0, n, 360),
           "empty": np.zeros(0, dtype=np.intp),
           "1-d": r.integers(0, n, 97)}[case].astype(np.intp)
    g = r.normal(size=(len(idx),) if case == "1-d" else (len(idx), 64))
    got = ad._scatter_add_rows(g, idx, n)
    want = _scatter_per_column(g, idx, n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(st.lists(finite_floats(), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_l1_loss_matches_numpy(xs):
    val = ad.l1_loss(ad.Tensor(xs)).values
    assert val == pytest.approx(np.mean(np.abs(xs)), rel=1e-12, abs=1e-12)
