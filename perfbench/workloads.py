"""The three benchmark workloads, driven through ``gridvolt.cli.dispatch``.

Each workload has a set-up that makes its inputs from the workload seed, a
round of user-facing commands that the timed phase repeats, and output
checks that run outside the timed phase. A command that exits non-zero, or
whose outputs fail a check, is a failed operation; it never aborts the run.

Sizes live in ``Scale`` so the self-check can run the same code small.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridvolt import cli
from gridvolt import dataset as gds
from gridvolt import model as gmodel
from gridvolt import network as gnet
from gridvolt import training as gtr


@dataclass(frozen=True)
class Scale:
    gen_size: str = "medium"
    gen_minutes: int = 1440
    gen_commands: int = 10
    gen_warmup_minutes: int = 720
    train_minutes: int = 2880
    train_config: dict = field(default_factory=lambda: {
        "steps_per_epoch": 60, "max_warmup_epochs": 4, "ramp_epochs": 2,
        "levels": [80, 50, 20, 5, 1]})
    eval_feeders: int = 6
    eval_minutes: int = 2880
    eval_levels: str = "1,5,20,50"
    eval_seeds: int = 5
    setup_repeats: int = 5


FULL = Scale()
DER_PERCENT = 20
FEEDERS = 3           # gen-medium and train-tiny substations
EVAL_FRACTION = 0.5


def derive(seed: int, *labels) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    text = "/".join(str(x) for x in ("perfbench", seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Op:
    """One CLI command and what became of it."""

    argv: list
    phase: str                 # "setup" or "timed"
    rc: int = 0
    seconds: float = 0.0
    cpu_s: float = 0.0
    stdout: str = ""
    stderr: str = ""
    work: int = 0              # snapshots solved, Adam steps or predictions
    errors: list = field(default_factory=list)   # failed output checks
    hashes: dict = field(default_factory=dict)
    output: Path | None = None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)

    def record(self) -> dict:
        return {"argv": self.argv, "phase": self.phase, "rc": self.rc,
                "seconds": self.seconds, "cpu_s": self.cpu_s,
                "work": self.work,
                "stderr": self.stderr.strip(), "errors": self.errors,
                "hashes": self.hashes}


def run_cli(argv: list, phase: str) -> Op:
    op = Op(argv=[str(a) for a in argv], phase=phase)
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            op.rc = cli.dispatch(op.argv)
        except SystemExit as exc:   # argparse usage errors
            op.rc = exc.code if isinstance(exc.code, int) else 2
    op.seconds = time.perf_counter() - start
    op.cpu_s = time.process_time() - cpu
    op.stdout, op.stderr = out.getvalue(), err.getvalue()
    return op


_FAILED_STEP = re.compile(r"timestep (\d+):")


def solved_before_failure(op: Op) -> int:
    """Snapshots a diverging ``generate`` solved before its failing step."""
    hit = _FAILED_STEP.search(op.stderr)
    return int(hit.group(1)) if hit else 0


def check_dataset(op: Op, path: Path,
                  n_snapshots: int) -> gds.SnapshotDataset | None:
    """Load a written dataset under the current feature order and check it."""
    try:
        data = gds.load_dataset(path)
    except (OSError, ValueError, KeyError) as exc:
        op.errors.append(f"dataset {path.name} does not load: {exc}")
        return None
    if data.meta.get("feature_order_hash") != gnet.feature_order_hash():
        op.errors.append(f"dataset {path.name}: feature-order hash differs")
    if data.n_snapshots != n_snapshots:
        op.errors.append(f"dataset {path.name}: {data.n_snapshots} snapshots,"
                         f" expected {n_snapshots}")
    if not np.all(np.isfinite(data.arrays["v_true"])):
        op.errors.append(f"dataset {path.name}: non-finite voltages")
    op.hashes[path.name] = sha256(path)
    op.hashes[path.with_suffix(".spec.json").name] = sha256(
        path.with_suffix(".spec.json"))
    return data


def generate_argv(seed: int, size: str, feeders: int, minutes: int,
                  out: Path, close_ties: bool = False) -> list:
    argv = ["generate", "--seed", seed, "--size", size, "--feeders", feeders,
            "--der", DER_PERCENT, "--horizon-minutes", minutes, "--out", out]
    return argv + (["--close-ties"] if close_ties else [])


def generate_dataset(seed: int, feeders: int, minutes: int,
                     out_dir: Path) -> tuple[list[Op], dict | None]:
    """Set-up data: a tiny dataset from the first derived substation seed
    whose run converges. Diverging candidates stay in the returned ops as
    failed operations, so the solver defect still shows in the result."""
    ops = []
    for candidate in range(8):
        out = out_dir / f"data{candidate}.npz"
        op = run_cli(generate_argv(derive(seed, "data", candidate), "tiny",
                                   feeders, minutes, out), "setup")
        ops.append(op)
        if op.rc != 0:
            op.work = solved_before_failure(op)
            continue
        op.work = minutes // 15
        data = check_dataset(op, out, op.work)
        if data is not None and not op.errors:
            return ops, {"data": out, "n_nodes": data.n_nodes,
                         "n_snapshots": data.n_snapshots,
                         "feeder_ids": [int(f) for f in data.feeder_ids]}
    return ops, None


class Workload:
    """Base: ``setup`` returns a state dict, ``round`` runs timed ops."""

    name = ""
    unit = ""   # what ``work`` counts

    def __init__(self, seed: int, work_dir: Path, scale: Scale = FULL):
        self.seed = seed
        self.dir = work_dir / self.name
        self.scale = scale

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def setup(self, rep: int) -> tuple[list[Op], dict | None]:
        raise NotImplementedError

    def round(self, state: dict, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, state: dict, op: Op) -> None:
        raise NotImplementedError

    def sizes(self, state: dict) -> dict:
        raise NotImplementedError


class GenMedium(Workload):
    name = "gen-medium"
    unit = "snapshots solved"

    def setup(self, rep):
        # warm-up only, the same for every workload seed: the night and
        # morning hours of one tiny substation
        s = self.scale
        out = self.dir / f"setup{rep}" / "warmup.npz"
        op = run_cli(generate_argv(derive(0, "warmup"), "tiny", FEEDERS,
                                   s.gen_warmup_minutes, out), "setup")
        op.work = s.gen_warmup_minutes // 15
        if op.rc == 0:
            check_dataset(op, out, op.work)
        return [op], {}

    def round(self, state, k):
        s = self.scale
        ops = []
        for i in range(s.gen_commands):
            out = self.dir / f"r{k}c{i}" / "data.npz"
            op = run_cli(generate_argv(
                derive(self.seed, "gen", i), s.gen_size, FEEDERS,
                s.gen_minutes, out, close_ties=(i % 5 == 4)),
                "timed")
            op.output = out
            ops.append(op)
        return ops

    def check(self, state, op):
        if op.rc != 0:
            op.work = solved_before_failure(op)
            if not op.stderr.startswith("ERROR powerflow"):
                op.errors.append("unexpected failure: " + op.stderr.strip())
            return
        op.work = self.scale.gen_minutes // 15
        data = check_dataset(op, op.output, op.work)
        if data is not None:
            state["n_nodes"] = data.n_nodes

    def sizes(self, state):
        s = self.scale
        return {"commands_per_round": s.gen_commands, "size": s.gen_size,
                "feeders": FEEDERS, "bus_phases": state.get("n_nodes"),
                "snapshots_per_command": s.gen_minutes // 15}


class TrainTiny(Workload):
    name = "train-tiny"
    unit = "Adam steps"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = dict(self.scale.train_config)
        cfg["levels"] = tuple(cfg["levels"])
        self.config = gtr.TrainConfig(**cfg)

    def setup(self, rep):
        d = self.dir / f"setup{rep}"
        d.mkdir(parents=True)
        ops, state = generate_dataset(self.seed, FEEDERS,
                                      self.scale.train_minutes, d)
        if state is not None:
            state["config"] = d / "config.json"
            state["config"].write_text(
                json.dumps(self.scale.train_config, sort_keys=True))
        return ops, state

    def round(self, state, k):
        out = self.dir / f"r{k}" / "model.npz"
        op = run_cli(["train", "--data", state["data"], "--config",
                      state["config"], "--seed", 0, "--out", out], "timed")
        op.output = out
        return [op]

    def steps_per_epoch(self, state) -> int:
        n = state["n_snapshots"]
        n_train = n - max(1, int(round(n * self.config.val_fraction)))
        return min(self.config.steps_per_epoch, n_train)

    def check(self, state, op):
        cfg = self.config
        history = op.output.with_suffix(".history.csv")
        rows = []
        if history.exists():
            with open(history, newline="") as fh:
                rows = list(csv.DictReader(fh))
            op.hashes[history.name] = sha256(history)
        op.work = len(rows) * self.steps_per_epoch(state)
        if op.rc != 0:
            return
        expected = cfg.max_warmup_epochs + cfg.ramp_epochs + len(cfg.levels)
        if len(rows) != expected:
            op.errors.append(f"{len(rows)} epochs, expected {expected}")
        try:
            params = gmodel.load_checkpoint(op.output)
        except (OSError, ValueError, KeyError) as exc:
            op.errors.append(f"checkpoint does not load: {exc}")
            return
        if not all(np.all(np.isfinite(t.values))
                   for t in params.tensors.values()):
            op.errors.append("checkpoint holds non-finite tensors")
        op.hashes[op.output.name] = sha256(op.output)
        if rows:
            state["val_rmse_final"] = float(rows[-1]["val_rmse"])

    def sizes(self, state):
        return {"feeders": FEEDERS, "bus_phases": state["n_nodes"],
                "snapshots": state["n_snapshots"],
                "steps_per_epoch": self.steps_per_epoch(state),
                "config": self.scale.train_config}


class EvalTiny6(Workload):
    name = "eval-tiny6"
    unit = "GNN snapshot predictions"

    def setup(self, rep):
        s = self.scale
        d = self.dir / f"setup{rep}"
        d.mkdir(parents=True)
        ops, state = generate_dataset(self.seed, s.eval_feeders,
                                      s.eval_minutes, d)
        if state is not None:
            # forward cost does not depend on the weight values
            params = gmodel.ModelParams.create(gmodel.ModelConfig(),
                                               state["feeder_ids"], seed=0)
            state["checkpoint"] = d / "init.npz"
            gmodel.save_checkpoint(params, state["checkpoint"])
            ops[-1].hashes["init.npz"] = sha256(state["checkpoint"])
            state["n_eval"] = max(1, int(round(state["n_snapshots"]
                                               * EVAL_FRACTION)))
        return ops, state

    def round(self, state, k):
        s = self.scale
        out = self.dir / f"r{k}"
        op = run_cli(["evaluate", "--study", "A", "--checkpoint",
                      state["checkpoint"], "--data", state["data"],
                      "--levels", s.eval_levels, "--seeds", s.eval_seeds,
                      "--eval-fraction", EVAL_FRACTION, "--out-dir", out],
                     "timed")
        op.output = out / "study_A.csv"
        return [op]

    def check(self, state, op):
        if op.rc != 0:
            return
        s = self.scale
        with open(op.output, newline="") as fh:
            rows = list(csv.DictReader(fh))
        gnn = [r for r in rows if r["model"] == "gnn"]
        op.work = len(gnn) * state["n_eval"]
        expected = len(s.eval_levels.split(",")) * s.eval_seeds
        if len(gnn) != expected or len(rows) != 2 * expected:
            op.errors.append(f"{len(gnn)} GNN rows of {len(rows)}, expected "
                             f"{expected} of {2 * expected}")
        bad = [r for r in rows
               if not (math.isfinite(float(r["RMSE"]))
                       and math.isfinite(float(r["MAE"])))]
        if bad:
            op.errors.append(f"{len(bad)} study rows are not finite")
        for f in (op.output, op.output.with_name("study_A_summary.txt")):
            op.hashes[f.name] = sha256(f)

    def sizes(self, state):
        s = self.scale
        return {"feeders": s.eval_feeders, "bus_phases": state["n_nodes"],
                "snapshots": state["n_snapshots"],
                "eval_snapshots": state["n_eval"], "levels": s.eval_levels,
                "mask_seeds": s.eval_seeds, "chunk": 32}


WORKLOADS = {w.name: w for w in (GenMedium, TrainTiny, EvalTiny6)}
