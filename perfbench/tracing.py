"""Span tracing of gridvolt from outside the package.

The tracer wraps the public functions of each traced module, plus a few
named methods and private helpers the per-layer metrics need, and rebinds
every reference to them in the loaded ``gridvolt`` modules. The rebinding
matters because modules bind imports at module scope: ``training`` calls
``build_batch`` through its own global, not through ``gridvolt.model``.

Each call records one span (name, start, end, parent, attrs) in memory;
``write`` dumps them as gzipped JSON lines when the run ends. Nothing under
``src/`` changes, and ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("simulation", "network", "dataset", "autodiff", "model", "losses",
          "training", "evaluation", "cli")

AUTODIFF_OPS = ("matmul", "typed_matmul", "gather_rows", "concat_cols",
                "segment_softmax", "segment_sum", "segment_mean",
                "layer_norm", "add", "mul", "relu", "reshape")

CHECK_SPAN = "bench.check"
CONSERVATION_LIMIT_PU = 1e-6   # README criterion 2, per solved snapshot


class Tracer:
    """In-memory span recorder bound to the gridvolt modules it wraps.

    Span ``i`` is ``names[i]``, ``start[i]``, ``end[i]``, ``parent[i]`` (-1
    at the top) and, for the few functions that report them, ``attrs[i]``.
    Flat arrays keep the hundreds of thousands of autodiff spans out of the
    garbage collector's way.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.counters: dict[str, float] = {"cli.bytes_hashed": 0}
        self.check_failures: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, attrs=None, on_error=None):
        span_open, span_close = self._open, self._close
        spans_attrs = self.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = span_open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span_close(i)
                if on_error is not None:
                    spans_attrs[i] = on_error(exc, args, kwargs)
                raise
            span_close(i)
            if attrs is not None:
                spans_attrs[i] = attrs(out, args, kwargs)
            return out

        return traced

    def _count_bytes(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            counters["cli.bytes_hashed"] += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def check_span(self):
        """Time benchmark-side checks as their own span, so they never count
        as self time of the layer that called them."""
        i = self._open(CHECK_SPAN)
        try:
            yield
        finally:
            self._close(i)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and rebind every reference to them."""
        mods = {name: importlib.import_module(f"gridvolt.{name}")
                for name in LAYERS}
        sim, ad = mods["simulation"], mods["autodiff"]
        conservation = sim.conservation_residuals

        def solve_attrs(state, args, kwargs):
            with self.check_span():
                residual = float(np.max(conservation(state), initial=0.0))
                finite = bool(np.all(np.isfinite(state.v_mag)))
                if residual > CONSERVATION_LIMIT_PU or not finite:
                    self.check_failures.append(
                        f"solve at t={kwargs.get('timestamp', 0.0)} min: "
                        f"conservation {residual:.3e} pu, finite={finite}")
                return {"iters": int(state.sweep_iterations),
                        "residual": residual,
                        "v_min": float(np.min(state.v_mag))}

        def solve_error(exc, args, kwargs):
            minute = float(kwargs.get("timestamp", 0.0))
            return {"failed": True, "seed": int(args[0].seed),
                    "step": int(minute // sim.TIMESTEP_MINUTES),
                    "error": str(exc)}

        def second(args, kwargs, name):
            return args[1] if len(args) > 1 else kwargs[name]

        special = {
            "simulation.solve_powerflow": (solve_attrs, solve_error),
            "dataset.save_dataset": (
                lambda out, a, k: {"bytes": os.path.getsize(
                    second(a, k, "path"))}, None),
            "model.build_batch": (lambda out, a, k: {"n": out.n_graphs}, None),
            "model.forward": (
                lambda out, a, k: {"n": second(a, k, "batch").n_graphs,
                                   "grad": ad._ACTIVE_TAPE is not None},
                None),
            "evaluation.predict": (
                lambda out, a, k: {"n": len(second(a, k, "items"))}, None),
        }

        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and not n.startswith("_")
                     and v.__module__ == mod.__name__]
            if layer == "cli":
                # the user-facing entry; the rest of cli is its self time
                names = ["dispatch"]
            if layer == "training":
                names += ["_val_metrics", "_val_batch"]
            for n in names:
                fn = getattr(mod, n)
                attrs, on_error = special.get(f"{layer}.{n}", (None, None))
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn, attrs,
                                                   on_error))
        sha = mods["cli"]._sha256
        wrappers[id(sha)] = (sha, self._count_bytes(sha))

        for mod in [m for k, m in sys.modules.items()
                    if k == "gridvolt" or k.startswith("gridvolt.")]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        methods = ((mods["dataset"].SnapshotDataset, "snapshot",
                    "dataset.SnapshotDataset.snapshot"),
                   (mods["training"].Adam, "step", "training.Adam.step"),
                   (mods["training"]._Trainer, "run_epoch",
                    "training.run_epoch"))
        for cls, attr, name in methods:
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.start[i],
                                     "end": self.end[i],
                                     "parent": self.parent[i],
                                     "attrs": self.attrs.get(i)}) + "\n")

    def failures(self) -> list[dict]:
        """Failed solves with their substation seed and timestep."""
        return [a for a in self.attrs.values() if a.get("failed")]


# -- per-layer metrics -------------------------------------------------------


def _pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0 when there are no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, extra: dict, declared: list[str]) -> dict:
    """The ``declared`` per-layer metric values from the spans of ``tracer``.

    ``extra`` supplies the values measured outside the spans:
    ``training.val_rmse_final``, ``trace.overhead_s`` and ``failed_ratio``.
    Layers a workload does not exercise report zero. A declared name this
    function does not compute raises ``KeyError``.
    """
    names, attrs = tracer.names, tracer.attrs
    n = len(names)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    child_sum = np.zeros(n)
    nested = parent >= 0
    np.add.at(child_sum, parent[nested], dur[nested])
    excl = dur - child_sum
    children: dict[int, list[int]] = {}
    for i in np.flatnonzero(nested):
        children.setdefault(int(parent[i]), []).append(int(i))
    layer_of = [name.split(".", 1)[0] for name in names]
    # self time of a span's layer: its own exclusive time plus that of the
    # same-layer spans nested under it (children come after their parent)
    layer_self = excl.copy()
    for i in range(n - 1, -1, -1):
        p = parent[i]
        if p >= 0 and layer_of[p] == layer_of[i]:
            layer_self[p] += layer_self[i]

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(*span_names, of=dur):
        return float(sum(of[i] for name in span_names for i in idx(name)))

    def ms(values):
        return [1e3 * v for v in values]

    solves = idx("simulation.solve_powerflow")
    solved = [attrs[i] for i in solves if not attrs[i].get("failed")]
    iters = [a["iters"] for a in solved]
    forwards = idx("model.forward")
    grad_fw = [dur[i] for i in forwards if attrs[i]["grad"]]
    nograd_fw = [i for i in forwards if not attrs[i]["grad"]]
    nograd_snaps = sum(attrs[i]["n"] for i in nograd_fw)

    # one Adam step runs from its item_from_view to the end of Adam.step
    step_ms = []
    for e in idx("training.run_epoch"):
        kids = children.get(e, [])
        starts = [start[c] for c in kids
                  if names[c] == "model.item_from_view"]
        ends = [start[c] + dur[c] for c in kids
                if names[c] == "training.Adam.step"]
        step_ms.extend(1e3 * (b - a) for a, b in zip(starts, ends))

    def attr_sum(name, key):
        return sum(attrs[i][key] for i in idx(name))

    m = {
        "simulation.solve_calls": len(solves),
        "simulation.solve_ms_p50": _pct(ms(dur[solves]), 50),
        "simulation.solve_ms_p95": _pct(ms(dur[solves]), 95),
        "simulation.solve_s": total("simulation.solve_powerflow"),
        "simulation.sweep_iterations_mean":
            float(np.mean(iters)) if iters else 0.0,
        "simulation.sweep_iterations_max": max(iters, default=0),
        "simulation.solve_failures": len(solves) - len(solved),
        "simulation.run_timeseries_self_s":
            total("simulation.run_timeseries", of=excl),
        "simulation.conservation_max_pu":
            max((a["residual"] for a in solved), default=0.0),
        "simulation.v_min_pu": min((a["v_min"] for a in solved), default=0.0),
        "network.build_features_calls": len(idx("network.build_features")),
        "network.build_features_ms_p50":
            _pct(ms(dur[idx("network.build_features")]), 50),
        "network.structural_annotations_s":
            total("network.structural_annotations"),
        "network.apply_mask_s": total("network.apply_mask_to_features"),
        "network.mask_sample_s": total("network.sample_observed_mask",
                                       "network.sample_mask",
                                       "network.fleet_order",
                                       "network.fleet_mask"),
        "dataset.from_states_self_s":
            total("dataset.dataset_from_states", of=excl),
        "dataset.save_s": total("dataset.save_dataset"),
        "dataset.bytes_written": attr_sum("dataset.save_dataset", "bytes"),
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.snapshot_s": total("dataset.SnapshotDataset.snapshot"),
    }
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.calls"] = len(idx(f"autodiff.{op}"))
        m[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}", of=excl)
    m.update({
        "autodiff.backward_calls": len(idx("autodiff.backward")),
        "autodiff.backward_s": total("autodiff.backward"),
        "model.build_batch_calls": len(idx("model.build_batch")),
        "model.build_batch_ms_p50": _pct(ms(dur[idx("model.build_batch")]),
                                         50),
        "model.build_batch_snapshots": attr_sum("model.build_batch", "n"),
        "model.item_from_view_s": total("model.item_from_view"),
        "model.forward_grad_ms_p50": _pct(ms(grad_fw), 50),
        "model.forward_nograd_ms_per_snapshot":
            1e3 * float(sum(dur[i] for i in nograd_fw)) / nograd_snaps
            if nograd_snaps else 0.0,
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "losses.batch_loss_self_ms_p50":
            _pct(ms(layer_self[idx("losses.batch_loss")]), 50),
        "training.steps": len(idx("training.Adam.step")),
        "training.step_ms_p50": _pct(step_ms, 50),
        "training.step_ms_p95": _pct(step_ms, 95),
        "training.adam_ms_p50": _pct(ms(dur[idx("training.Adam.step")]), 50),
        "training.validation_s": total("training._val_metrics",
                                       "training._val_batch"),
        "training.epochs": len(idx("training.run_epoch")),
        "evaluation.predict_calls": len(idx("evaluation.predict")),
        "evaluation.predict_s": total("evaluation.predict"),
        "evaluation.predictions": attr_sum("evaluation.predict", "n"),
        "evaluation.baseline_fit_s": total("evaluation.fit_linear_baseline"),
        "evaluation.baseline_predict_s": total("evaluation.baseline_masked"),
        "cli.self_s": total("cli.dispatch", of=excl),
        "cli.bytes_hashed": tracer.counters["cli.bytes_hashed"],
    })
    m.update(extra)
    missing = set(declared) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    for name, value in m.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return {name: m[name] for name in declared}
