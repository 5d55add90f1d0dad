"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A ``Tape`` records every operation executed while it is active; calling
``backward`` on a scalar result walks the record in exact reverse order and
accumulates gradients additively into the participating tensors. The op set
is deliberately small: dense linear algebra, elementwise arithmetic, a
segment mean, and the fused ops of a message-passing encoder layer, each
one tape record in place of a chain of small ones:

* ``linear``: ``x @ w + b``;
* ``typed_edge_matmul``: ``[x[recv] ‖ x[send] ‖ z]`` times each edge
  type's weight, without putting that concatenation on the tape;
* ``attention_score``: ``relu([x[recv] ‖ x[send] ‖ z] @ w) @ a`` plus
  ``prior @ beta``, with the node blocks of ``w`` applied once per node;
* ``softmax_aggregate``: each node's sum of its incoming messages, weighted
  by a temperature softmax of the logits over its incoming edges;
* ``layer_norm``, optionally of ``residual + x``.

A fused op runs the numpy operations of the chain it replaces, in the same
order, forward and backward, so its values and gradients are bitwise
those of the chain, and it checks every intermediate the chain's ops
checked. The edge ops share one ``EdgePlan`` per batch: the index arrays
every layer needs, with the flat bins of their scatter-adds built once
and reused by every forward and backward on that batch. Every sum over
rows into buckets (the aggregation, the backward of a gather or an edge
op) is one flat-bin ``bincount`` scatter-add. ``relu`` and ``layer_norm``
make no more full-size passes than their outputs need and stay bitwise
equal to ``np.where(x > 0, x, 0)`` and the ``mean``/``var`` formula.

A ``FlatStore`` packs leaf tensors back to back into one value vector and
one gradient buffer, with every tensor a reshaped view of its span. An
optimizer then updates its span of the vector at once, and one copy
snapshots every tensor. A tensor does not refer back to its store. The
squared L2 norm of a store is computed outside the tape: the tensors that
require a gradient form one contiguous span, ``FlatStore.l2_term`` writes
its closed-form gradient over that span of the buffer and binds their
gradients to their views, and the backward pass that follows adds the
taped gradients to it.

Conventions:

* all values are float64; anything non-finite raises ``NonFiniteError`` as
  soon as it is produced,
* segment ids must be sorted (non-decreasing); builders sort once up front,
* a tape is single-threaded and is consumed by its first backward pass,
  which drops each record once it has used it, so a step's graph is freed
  by reference counting as soon as the caller lets go of its tensors,
* gradients accumulate in ``grad``: a tensor whose ``grad`` is None takes a
  copy of the first gradient that reaches it; a tensor whose ``grad`` is
  its view of a store's gradient buffer, bound and seeded by ``l2_term``
  before the backward pass, has every gradient that reaches it added in
  place, in the order the backward pass produces them.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

import numpy as np


class EngineError(Exception):
    """Base class for tensor-engine failures."""


class NonFiniteError(EngineError):
    """A tensor value came out NaN or infinite."""


class ShapeError(EngineError):
    """Operands have incompatible shapes for the requested op."""


class TapeConsumedError(EngineError):
    """backward was called twice on the same tape without a new forward."""


def _check_finite(op: str, values: np.ndarray) -> None:
    if values.size == 0:
        return
    # one sum screens the array; the count decides, because finite values
    # whose sum overflows also fail the screen
    s = values.sum()
    if not np.isfinite(s):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise NonFiniteError(f"{op}: produced {bad} non-finite values")


class Tensor:
    """A dense float64 array plus an optional gradient slot."""

    __slots__ = ("values", "requires_grad", "grad", "name", "_tape", "_is_leaf",
                 "__weakref__")

    def __init__(self, values, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(values, dtype=np.float64)
        _check_finite(name or "tensor", arr)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._tape: Tape | None = None
        self._is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.values.shape}, grad={self.requires_grad})"


class _OpRecord:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of ops; backward traverses it in exact reverse order."""

    def __init__(self):
        self.records: list[_OpRecord] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev

    def backward(self, loss: Tensor) -> None:
        if self.consumed:
            raise TapeConsumedError(
                "tape already consumed by a backward pass; run a new forward"
            )
        if loss.values.shape != ():
            raise ShapeError(
                f"backward requires a scalar loss, got shape {loss.values.shape}"
            )
        self.consumed = True
        # every output tensor refers back to this tape; dropping the records
        # as they are used breaks that cycle and frees each op's saved
        # arrays as soon as the pass is past it
        records, self.records = self.records, []
        loss.grad = np.ones((), dtype=np.float64)
        while records:
            rec = records.pop()
            out_grad = rec.output.grad
            if out_grad is None:
                continue
            grads = rec.backward_fn(out_grad)
            for t, g in zip(rec.inputs, grads):
                if g is None or not (t.requires_grad or not t._is_leaf):
                    continue
                if t.grad is None:
                    t.grad = np.array(g, dtype=np.float64)
                else:
                    t.grad += g


_ACTIVE_TAPE: Tape | None = None


class no_grad:
    """Context manager that disables recording (evaluation fast path)."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev


class FlatStore:
    """Leaf tensors packed back to back into one value vector and one
    gradient buffer.

    Packing copies every tensor into ``values`` and rebinds its ``values``
    to a reshaped view of its span, so an in-place update of the vector
    updates the tensors and one copy of it snapshots them all. Tensor ``k``
    spans ``bounds[k]:bounds[k + 1]``, and ``grad_views[k]`` is its view of
    ``grad``; a tensor's own ``grad`` points there once ``l2_term`` has
    bound it.
    """

    def __init__(self, tensors: Sequence[Tensor]):
        self.tensors = list(tensors)
        if len({id(t) for t in self.tensors}) != len(self.tensors):
            raise ValueError("a tensor is packed twice")
        self.bounds = [0]
        for t in self.tensors:
            self.bounds.append(self.bounds[-1] + t.values.size)
        self.values = np.empty(self.bounds[-1], dtype=np.float64)
        self.grad = np.zeros(self.bounds[-1], dtype=np.float64)
        self.grad_views: list[np.ndarray] = []
        for k, t in enumerate(self.tensors):
            span = slice(self.bounds[k], self.bounds[k + 1])
            shape = t.values.shape
            self.values[span] = t.values.reshape(-1)
            t.values = self.values[span].reshape(shape)
            self.grad_views.append(self.grad[span].reshape(shape))

    def l2_term(self, lam: float) -> float:
        """Squared L2 norm of the tensors that require a gradient, summed
        tensor by tensor in store order.

        The term stays off the tape. Those tensors must form one contiguous
        span of the store. While a tape records, their gradient
        ``2 * lam * theta`` is written over that span of ``grad`` and each
        tensor's ``grad`` is bound to its view, replacing whatever it held;
        call it before the backward pass of the step. The backward pass
        that follows adds the taped gradients after it, the order a taped
        term recorded after the forward pass gave.
        """
        ks = [k for k, t in enumerate(self.tensors) if t.requires_grad]
        total = 0.0
        for k in ks:
            total += np.square(self.tensors[k].values).sum()
        if _ACTIVE_TAPE is None or not ks:
            return float(total)
        if ks[-1] - ks[0] + 1 != len(ks):
            raise ValueError("the tensors that require a gradient are not "
                             "one contiguous span of the store")
        span = slice(self.bounds[ks[0]], self.bounds[ks[-1] + 1])
        np.multiply(self.values[span], 2.0 * lam, out=self.grad[span])
        for k in ks:
            self.tensors[k].grad = self.grad_views[k]
        return float(total)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss."""
    if loss._tape is None:
        raise EngineError("loss is not attached to a tape; run inside `with Tape()`")
    loss._tape.backward(loss)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, output_values: np.ndarray, inputs: tuple[Tensor, ...],
            backward_fn) -> Tensor:
    _check_finite(op, output_values)
    out = Tensor.__new__(Tensor)
    out.values = output_values
    out.grad = None
    out.name = op
    tape = _ACTIVE_TAPE
    tracked = tape is not None and any(t.requires_grad or not t._is_leaf for t in inputs)
    out.requires_grad = False
    out._is_leaf = not tracked
    out._tape = tape if tracked else None
    if tracked:
        tape.records.append(_OpRecord(out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        vals = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")
    return _record(
        "add", vals, (a, b),
        lambda g: (_unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        vals = a.values - b.values
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}")
    return _record(
        "sub", vals, (a, b),
        lambda g: (_unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        vals = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")

    def bwd(g):
        return (
            _unbroadcast(g * b.values, a.values.shape),
            _unbroadcast(g * a.values, b.values.shape),
        )

    return _record("mul", vals, (a, b), bwd)


def relu(x) -> Tensor:
    x = as_tensor(x)
    vals = np.maximum(x.values, 0.0)
    vals += 0.0  # -0.0 becomes +0.0, as np.where(x > 0, x, 0.0) gives
    return _record("relu", vals, (x,), lambda g: (g * (vals > 0.0),))


def gather_rows(x, index) -> Tensor:
    """y[k] = x[index[k]] along the first axis."""
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-D, got {idx.shape}")
    vals = x.values[idx]
    n = x.shape[0]

    def bwd(g):
        return (_scatter_add_rows(g, idx, n),)

    return _record("gather_rows", vals, (x,), bwd)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for a bias ``b`` of one value per output column."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} vs output width {w.shape[1]}")
    vals = x.values @ w.values
    _check_finite("linear/matmul", vals)
    vals += b.values

    def bwd(g):
        return (g @ w.values.T, x.values.T @ g, g.sum(axis=0))

    return _record("linear", vals, (x, w, b), bwd)


def _row_bins(idx: np.ndarray, cols: int) -> np.ndarray:
    """Flat (row, column) bins of a scatter-add of ``cols``-wide rows."""
    return (idx[:, None] * cols + np.arange(cols)).reshape(-1)


def _scatter_add_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Deterministic scatter-add of the rows of g into an [n, ...] zero
    array: row k adds into row ``idx[k]``, and every output row sums its
    rows in index order. ``idx`` need not be sorted."""
    if g.ndim == 1:
        return np.bincount(idx, weights=g, minlength=n)
    # one bincount over (row, column) bins; each bin still sums its rows in
    # index order, as a per-column bincount does
    cols = int(np.prod(g.shape[1:]))
    return np.bincount(_row_bins(idx, cols), weights=g.reshape(-1),
                       minlength=n * cols).reshape((n,) + g.shape[1:])


def _require_sorted(op: str, seg: np.ndarray) -> None:
    if seg.size and np.any(np.diff(seg) < 0):
        raise EngineError(f"{op}: segment ids must be non-decreasing")


class EdgePlan:
    """The edge index arrays that the edge ops of one forward pass share.

    Edges are sorted by receiver (``recv`` non-decreasing, so each node's
    incoming edges are one contiguous segment), ``z`` holds a constant
    ``[E, k]`` feature row per edge, and ``type_order`` lists the edges
    grouped by type: edges ``type_order[type_bounds[r]:type_bounds[r + 1]]``
    have type ``r``. The plan forms once what every layer would otherwise
    form again: the pair index (row ``2k`` is the receiver of the ``k``-th
    edge in type order, row ``2k + 1`` its sender), ``z`` in type order,
    the non-empty type blocks and the receiver segments' starts. The flat
    bins of a scatter-add are built by the first op that needs them and
    reused by every layer and every forward after it: the aggregation's
    ``("recv", out)`` bins by the first forward, so a forward without a
    tape holds one ``[E * out]`` index array per plan, and the bins of the
    backward scatter-adds by the first backward that needs them.
    ``with_z`` gives the plan over another ``z`` of the same edges: it
    shares every index array and the bins, built or still to be built.
    """

    def __init__(self, recv, send, z, type_order, type_bounds, n_nodes: int):
        recv = np.asarray(recv, dtype=np.intp)
        send = np.asarray(send, dtype=np.intp)
        z = np.asarray(z, dtype=np.float64)
        order = np.asarray(type_order, dtype=np.intp)
        bounds = np.asarray(type_bounds, dtype=np.intp)
        if z.ndim != 2 or recv.shape != (z.shape[0],) or send.shape != recv.shape:
            raise ShapeError(f"EdgePlan: recv {recv.shape}, send {send.shape} "
                             f"vs z {z.shape}")
        n_edges = len(recv)
        if (order.shape != (n_edges,) or bounds.ndim != 1 or len(bounds) < 2
                or bounds[0] != 0 or bounds[-1] != n_edges
                or np.any(np.diff(bounds) < 0)):
            raise EngineError(f"EdgePlan: type partition (order {order.shape}, "
                              f"bounds {bounds.tolist()}) does not cover "
                              f"{n_edges} edges")
        _require_sorted("EdgePlan", recv)
        self.recv, self.send, self.z = recv, send, z
        self.n_nodes = int(n_nodes)
        self.order = order
        self.n_types = len(bounds) - 1
        self.blocks = [(r, a, b) for r, (a, b)
                       in enumerate(zip(bounds[:-1].tolist(),
                                        bounds[1:].tolist()))
                       if b > a]
        self.pairs = np.stack((recv[order], send[order]), axis=1).reshape(-1)
        self.z_typed = z[order]
        # row 2i of a [2N, out] array takes node i's receiving edges, row
        # 2i + 1 its sending ones
        self.ends = np.concatenate((2 * recv, 2 * send + 1))
        counts = np.bincount(recv, minlength=self.n_nodes)
        self.filled = counts > 0
        self.starts = (np.cumsum(counts) - counts)[self.filled]
        self._bins: dict[tuple[str, int], np.ndarray] = {}

    def with_z(self, z) -> "EdgePlan":
        """This plan over ``z``, another ``[E, k]`` feature row per edge in
        edge order, as constructing it over ``z`` would give."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != self.z.shape:
            raise ShapeError(f"EdgePlan.with_z: z {z.shape} vs {self.z.shape}")
        plan = copy.copy(self)
        plan.z, plan.z_typed = z, z[self.order]
        return plan

    def scatter(self, index: str, g: np.ndarray, n: int) -> np.ndarray:
        """``_scatter_add_rows(g, getattr(self, index), n)`` for 2-D ``g``
        and ``index`` "recv", "pairs" or "ends", with the flat bins of that
        index and width built once."""
        cols = g.shape[1]
        bins = self._bins.get((index, cols))
        if bins is None:
            bins = self._bins[index, cols] = _row_bins(getattr(self, index),
                                                       cols)
        return np.bincount(bins, weights=g.reshape(-1),
                           minlength=n * cols).reshape(n, cols)


def _edge_weight_rows(op: str, x: Tensor, plan: EdgePlan, w_rows: int) -> int:
    """Check ``x`` against a weight of ``[x ‖ x ‖ z]`` rows; x's width."""
    if x.values.ndim != 2:
        raise ShapeError(f"{op}: x {x.shape} must be 2-D")
    d = x.shape[1]
    if w_rows != 2 * d + plan.z.shape[1]:
        raise ShapeError(f"{op}: weight rows {w_rows} vs [x ‖ x ‖ z] width "
                         f"{2 * d + plan.z.shape[1]}")
    return d


def typed_edge_matmul(x, weights: Sequence[Tensor], plan: EdgePlan) -> Tensor:
    """Edge rows ``[x[recv] ‖ x[send] ‖ z]``, each times its type's weight.

    Each type's edges are multiplied by ``weights[r]`` as one contiguous
    block of the plan's type order. Per block, the op gathers the node rows
    ``[x[recv] ‖ x[send]]`` off the tape through its span of the pair
    index, adds the product of the constant ``z`` block to their product
    and writes the result straight to the block's edges. No ``[E, 2d]``
    gather of every edge is formed; the backward pass keeps the blocks,
    and scatter-adds the gradient of the two ``x`` blocks by the pair
    index.
    """
    x = as_tensor(x)
    ws = [as_tensor(w) for w in weights]
    if (len(ws) != plan.n_types
            or any(w.values.ndim != 2 or w.shape != ws[0].shape for w in ws)):
        raise ShapeError(f"typed_edge_matmul: weight shapes "
                         f"{[w.shape for w in ws]} for {plan.n_types} types")
    d = _edge_weight_rows("typed_edge_matmul", x, plan, ws[0].shape[0])
    n_edges = len(plan.recv)
    out_dim = ws[0].shape[1]
    z_t = plan.z_typed
    vals = np.empty((n_edges, out_dim), dtype=np.float64)
    nodes = []
    for r, a, b in plan.blocks:
        block = x.values[plan.pairs[2 * a:2 * b]].reshape(b - a, 2 * d)
        out = block @ ws[r].values[:2 * d]
        out += z_t[a:b] @ ws[r].values[2 * d:]
        vals[plan.order[a:b]] = out
        nodes.append(block)

    def bwd(g):
        d_nodes = np.empty((n_edges, 2 * d), dtype=np.float64)
        dws = [None] * len(ws)
        for (r, a, b), block in zip(plan.blocks, nodes):
            w = ws[r].values
            g_t = g[plan.order[a:b]]
            np.matmul(g_t, w[:2 * d].T, out=d_nodes[a:b])
            dws[r] = np.empty_like(w)
            np.matmul(block.T, g_t, out=dws[r][:2 * d])
            np.matmul(z_t[a:b].T, g_t, out=dws[r][2 * d:])
        dx = plan.scatter("pairs", d_nodes.reshape(2 * n_edges, d),
                          x.shape[0])
        return (dx, *dws)

    return _record("typed_edge_matmul", vals, (x, *ws), bwd)


def attention_score(x, w, a, prior, beta, plan: EdgePlan) -> Tensor:
    """Edge logits ``relu([x[recv] ‖ x[send] ‖ z] @ w) @ a + prior @ beta``.

    The two ``x`` blocks of ``w`` are applied once per node, as one
    ``[N, d] @ [d, 2 * out]`` product whose halves are gathered by
    ``recv`` and by ``send``; ``prior`` is a constant ``[E, p]`` array.
    The backward pass scatter-adds the edge gradient to the nodes first,
    so it multiplies at node level too. Returns ``[E, 1]``.
    """
    x, w, a, beta = as_tensor(x), as_tensor(w), as_tensor(a), as_tensor(beta)
    prior = np.asarray(prior, dtype=np.float64)
    if w.values.ndim != 2 or a.shape != (w.shape[1], 1):
        raise ShapeError(f"attention_score: weight {w.shape}, score {a.shape}")
    if beta.values.ndim != 2 or prior.shape != (len(plan.recv), beta.shape[0]):
        raise ShapeError(f"attention_score: prior {prior.shape}, "
                         f"coefficients {beta.shape}")
    d = _edge_weight_rows("attention_score", x, plan, w.shape[0])
    n = x.shape[0]
    out_dim = w.shape[1]
    recv, send, z = plan.recv, plan.send, plan.z
    w_nodes = np.concatenate((w.values[:d], w.values[d:2 * d]), axis=1)
    q = x.values @ w_nodes
    edge = q[recv, :out_dim]
    edge += q[send, out_dim:]
    edge += z @ w.values[2 * d:]
    _check_finite("attention_score/edge_matmul", edge)
    hidden = np.maximum(edge, 0.0)
    hidden += 0.0  # -0.0 becomes +0.0, as relu gives
    _check_finite("attention_score/relu", hidden)
    learned = hidden @ a.values
    _check_finite("attention_score/learned", learned)
    structural = prior @ beta.values
    _check_finite("attention_score/prior", structural)

    def bwd(g):
        d_edge = (g @ a.values.T) * (hidden > 0.0)
        dq = plan.scatter("ends", np.concatenate((d_edge, d_edge)),
                          2 * n).reshape(n, 2 * out_dim)
        dw = np.empty_like(w.values)
        dw_nodes = x.values.T @ dq
        dw[:d], dw[d:2 * d] = dw_nodes[:, :out_dim], dw_nodes[:, out_dim:]
        dw[2 * d:] = z.T @ d_edge
        return (dq @ w_nodes.T, dw, hidden.T @ g, prior.T @ g)

    return _record("attention_score", learned + structural, (x, w, a, beta),
                   bwd)


def softmax_aggregate(messages, logits, plan: EdgePlan,
                      temperature: float = 1.0) -> Tensor:
    """Per receiving node, the sum of its incoming edges' messages, each
    weighted by the temperature softmax of the edge logits over that
    node's incoming edges. A node without incoming edges gets zeros.

    ``messages`` is ``[E, out]`` and ``logits`` ``[E, 1]``, both in edge
    order; the result is ``[N, out]`` for the plan's ``N`` nodes.
    """
    if not temperature > 0.0:
        raise ValueError(f"softmax_aggregate: temperature must be > 0, "
                         f"got {temperature}")
    m, s = as_tensor(messages), as_tensor(logits)
    n_edges, n = len(plan.recv), plan.n_nodes
    if m.values.ndim != 2 or m.shape[0] != n_edges or s.shape != (n_edges, 1):
        raise ShapeError(f"softmax_aggregate: messages {m.shape}, logits "
                         f"{s.shape} vs {n_edges} edges")
    seg = plan.recv
    x = s.values.reshape((n_edges,))
    if n_edges == 0:
        alpha = np.zeros(0, dtype=np.float64)
    else:
        # reduceat over the starts of the non-empty segments only: an empty
        # segment's start would cut the row range of the one before it
        seg_max = np.zeros(n, dtype=np.float64)
        seg_max[plan.filled] = np.maximum.reduceat(x, plan.starts)
        e = np.exp((x - seg_max[seg]) / temperature)
        alpha = e / np.bincount(seg, weights=e, minlength=n)[seg]
    _check_finite("softmax_aggregate/softmax", alpha)
    alpha_col = alpha.reshape((n_edges, 1))
    weighted = m.values * alpha_col
    _check_finite("softmax_aggregate/weighted", weighted)

    def bwd(g):
        g_w = g[seg]
        d_alpha = _unbroadcast(g_w * m.values, (n_edges, 1)).reshape(
            (n_edges,))
        inner = np.bincount(seg, weights=alpha * d_alpha, minlength=n)
        d_logits = alpha * (d_alpha - inner[seg]) / temperature
        return (g_w * alpha_col, d_logits.reshape((n_edges, 1)))

    return _record("softmax_aggregate", plan.scatter("recv", weighted, n),
                   (m, s), bwd)


def segment_mean(x, segment_ids, num_segments: int) -> Tensor:
    """Mean over each segment. Every segment must be non-empty."""
    x = as_tensor(x)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape != (x.shape[0],):
        raise ShapeError(f"segment_mean: ids {seg.shape} vs rows {x.shape}")
    _require_sorted("segment_mean", seg)
    counts = np.bincount(seg, minlength=num_segments)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise EngineError(f"segment_mean: segment {empty} is empty")
    sums = _scatter_add_rows(x.values, seg, num_segments)
    denom = counts.astype(np.float64)
    denom_col = denom if x.values.ndim == 1 else denom[:, None]
    vals = sums / denom_col

    def bwd(g):
        return ((g / denom_col)[seg],)

    return _record("segment_mean", vals, (x,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5, *, residual=None) -> Tensor:
    """Row-wise layer normalization with learnable gain and bias, of
    ``residual + x`` when a residual is given."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.values.ndim != 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(
            f"layer_norm: x {x.shape}, gain {gain.shape}, bias {bias.shape}"
        )
    if residual is None:
        inputs, s = (x, gain, bias), x.values
    else:
        residual = as_tensor(residual)
        if residual.shape != x.shape:
            raise ShapeError(f"layer_norm: residual {residual.shape} vs x "
                             f"{x.shape}")
        inputs, s = (residual, x, gain, bias), residual.values + x.values
        _check_finite("layer_norm/residual", s)
    d = x.shape[1]
    # one centring pass serves the variance and xhat; the same operations
    # as s.var(axis=1), which would centre again
    xhat = s - s.mean(axis=1, keepdims=True)
    var = np.square(xhat).sum(axis=1) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    vals = xhat * gain.values + bias.values

    def bwd(g):
        gg = g * gain.values
        m1 = gg.mean(axis=1, keepdims=True)
        m2 = (gg * xhat).mean(axis=1, keepdims=True)
        dx = inv_std[:, None] * (gg - m1 - xhat * m2)
        dx_in = (dx,) if residual is None else (dx, dx)
        return (*dx_in, (g * xhat).sum(axis=0), g.sum(axis=0))

    return _record("layer_norm", vals, inputs, bwd)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        vals = x.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}")
    orig = x.values.shape
    return _record("reshape", vals, (x,), lambda g: (g.reshape(orig),))


def absolute(x) -> Tensor:
    x = as_tensor(x)
    sign = np.sign(x.values)
    return _record("abs", np.abs(x.values), (x,), lambda g: (g * sign,))


def total_sum(x) -> Tensor:
    x = as_tensor(x)
    shape = x.values.shape
    return _record(
        "sum", np.asarray(x.values.sum()), (x,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    if x.values.size == 0:
        raise EngineError("mean_all: cannot average an empty tensor")
    n = x.values.size
    shape = x.values.shape
    return _record(
        "mean", np.asarray(x.values.mean()), (x,),
        lambda g: (np.broadcast_to(g / n, shape).copy(),),
    )


def l1_loss(x) -> Tensor:
    """Mean absolute value of all entries."""
    return mean_all(absolute(x))


def gradcheck(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
              n_samples: int = 20, eps: float = 1e-5, rtol: float = 1e-4,
              atol: float = 1e-8, seed: int = 0) -> tuple[bool, float, list[dict]]:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must rebuild the forward graph from the current parameter
    values each time it is called. For every parameter, up to ``n_samples``
    coordinates are probed. Returns (all_ok, worst relative error, rows).
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.Generator(np.random.PCG64(seed))
    rows: list[dict] = []
    worst = 0.0
    for p, an in zip(params, analytic):
        size = p.values.size
        if size == 0:
            continue
        coords = np.arange(size) if size <= n_samples else np.sort(
            rng.choice(size, size=n_samples, replace=False))
        flat = p.values.reshape(-1)
        a_flat = np.zeros(size) if an is None else an.reshape(-1)
        max_rel = 0.0
        ok = True
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            with no_grad():
                up = float(build_loss().values)
            flat[c] = keep - eps
            with no_grad():
                down = float(build_loss().values)
            flat[c] = keep
            numeric = (up - down) / (2.0 * eps)
            a = float(a_flat[c])
            err = abs(a - numeric)
            if err > rtol * max(abs(a), abs(numeric)) + atol:
                ok = False
            max_rel = max(max_rel, err / max(abs(a), abs(numeric), 1e-12))
        rows.append({"param": p.name or "param", "max_rel_err": max_rel, "ok": ok})
        worst = max(worst, max_rel)
    return all(r["ok"] for r in rows), worst, rows
