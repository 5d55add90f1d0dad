import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridvolt import autodiff as ad


def finite_floats(**kw):
    return st.floats(min_value=-50, max_value=50, allow_nan=False, **kw)


def test_relu_values():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def test_segment_sum_definition():
    out = ad.segment_sum(ad.Tensor([1.0, 2.0, 3.0]), [0, 0, 1], 2)
    assert np.array_equal(out.values, [3.0, 3.0])


def test_segment_sum_empty_segment_is_zero():
    out = ad.segment_sum(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), [0, 2], 4)
    assert np.array_equal(out.values, [[1, 2], [0, 0], [3, 4], [0, 0]])


def test_softmax_single_logit_is_one():
    out = ad.segment_softmax(ad.Tensor([3.7]), [0], 1, temperature=2.0)
    assert out.values[0] == pytest.approx(1.0, abs=1e-15)


def test_softmax_segments_sum_to_one():
    logits = ad.Tensor([0.3, -1.0, 2.0, 0.5, 0.5])
    seg = [0, 0, 0, 1, 1]
    alpha = ad.segment_softmax(logits, seg, 2, temperature=0.7).values
    sums = np.bincount(seg, weights=alpha)
    assert np.allclose(sums, 1.0, atol=1e-12)


@given(st.lists(finite_floats(), min_size=1, max_size=8), finite_floats())
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(logits, shift):
    seg = [0] * len(logits)
    a = ad.segment_softmax(ad.Tensor(logits), seg, 1).values
    b = ad.segment_softmax(ad.Tensor(np.array(logits) + shift), seg, 1).values
    assert np.allclose(a, b, atol=1e-9)


def test_softmax_temperature_must_be_positive():
    with pytest.raises(ValueError):
        ad.segment_softmax(ad.Tensor([1.0]), [0], 1, temperature=0.0)
    with pytest.raises(ValueError):
        ad.segment_softmax(ad.Tensor([1.0]), [0], 1, temperature=-1.0)


def test_segment_ids_must_be_sorted():
    with pytest.raises(ad.EngineError):
        ad.segment_sum(ad.Tensor([1.0, 2.0]), [1, 0], 2)


def test_segment_mean_empty_segment_errors():
    with pytest.raises(ad.EngineError):
        ad.segment_mean(ad.Tensor([1.0]), [0], 2)


def test_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_nonfinite_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([1.0, np.nan])
    x = ad.Tensor([1e308])
    with ad.Tape(), np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            ad.mul(x, x)


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
        return ad.l1_loss(ad.sub(ad.relu(ad.add(ad.matmul(x, W), b)), t))

    _check(build, [W, b])


def test_gradcheck_layer_norm():
    r = np.random.Generator(np.random.PCG64(2))
    x = ad.Tensor(r.normal(size=(6, 8)), requires_grad=True, name="x")
    g = ad.Tensor(r.normal(size=8) + 1.0, requires_grad=True, name="gain")
    s = ad.Tensor(r.normal(size=8), requires_grad=True, name="shift")
    w = r.normal(size=(6, 8))

    def build():
        return ad.total_sum(ad.mul(ad.layer_norm(x, g, s), w))

    _check(build, [x, g, s])


def test_layer_norm_matches_finite_difference_on_vector():
    # tiny hand case: single row of 4
    x = ad.Tensor([[0.2, -1.0, 0.5, 2.0]], requires_grad=True, name="x")
    g = ad.Tensor(np.ones(4), requires_grad=True, name="g")
    s = ad.Tensor(np.zeros(4), requires_grad=True, name="s")
    w = np.array([[1.0, -0.3, 0.7, 0.1]])

    def build():
        return ad.total_sum(ad.mul(ad.layer_norm(x, g, s), w))

    _check(build, [x, g, s])


def test_gradcheck_segment_ops():
    r = np.random.Generator(np.random.PCG64(3))
    x = ad.Tensor(r.normal(size=(9, 3)), requires_grad=True, name="x")
    seg = np.array([0, 0, 0, 1, 1, 3, 3, 3, 3])
    w_sum = r.normal(size=(4, 3))
    seg_full = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3])
    w_mean = r.normal(size=(4, 3))

    def build_sum():
        return ad.total_sum(ad.mul(ad.segment_sum(x, seg, 4), w_sum))

    def build_mean():
        return ad.total_sum(ad.mul(ad.segment_mean(x, seg_full, 4), w_mean))

    _check(build_sum, [x])
    x.zero_grad()
    _check(build_mean, [x])


def test_gradcheck_segment_softmax():
    r = np.random.Generator(np.random.PCG64(4))
    logits = ad.Tensor(r.normal(size=10), requires_grad=True, name="logits")
    seg = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 2])
    w = r.normal(size=10)

    def build():
        return ad.total_sum(ad.mul(
            ad.segment_softmax(logits, seg, 3, temperature=0.6), w))

    _check(build, [logits])


def test_gradcheck_gather_and_typed_matmul():
    r = np.random.Generator(np.random.PCG64(5))
    x = ad.Tensor(r.normal(size=(5, 4)), requires_grad=True, name="x")
    idx = np.array([0, 2, 2, 4, 1, 3])
    tids = np.array([0, 1, 2, 0, 1, 2])
    ws = [ad.Tensor(r.normal(size=(4, 3)), requires_grad=True, name=f"W{k}")
          for k in range(3)]
    w = r.normal(size=(6, 3))

    def build():
        rows = ad.gather_rows(x, idx)
        return ad.total_sum(ad.mul(ad.typed_matmul(rows, ws, tids), w))

    _check(build, [x, *ws])


def test_gradcheck_concat_cols():
    r = np.random.Generator(np.random.PCG64(6))
    a = ad.Tensor(r.normal(size=(4, 2)), requires_grad=True, name="a")
    b = ad.Tensor(r.normal(size=(4, 3)), requires_grad=True, name="b")
    w = r.normal(size=(4, 5))

    def build():
        return ad.total_sum(ad.mul(ad.concat_cols([a, b]), w))

    _check(build, [a, b])


def test_l2_penalty_value_and_grad():
    p = ad.Tensor([1.0, -2.0], requires_grad=True, name="p")
    q = ad.Tensor([[3.0]], requires_grad=True, name="q")
    with ad.Tape() as tape:
        pen = ad.l2_penalty([p, q])
    assert pen.values == pytest.approx(14.0)
    tape.backward(pen)
    assert np.allclose(p.grad, [2.0, -4.0])
    assert np.allclose(q.grad, [[6.0]])


@given(st.lists(finite_floats(), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_l1_loss_matches_numpy(xs):
    val = ad.l1_loss(ad.Tensor(xs)).values
    assert val == pytest.approx(np.mean(np.abs(xs)), rel=1e-12, abs=1e-12)
