"""Benchmark of gridvolt through its user-facing commands.

    python3 perfbench/run.py --workload gen-medium --seed 1 --seconds 30 \
        --trace 0

Runs one workload (``gen-medium``, ``train-tiny`` or ``eval-tiny6``, see
``perfbench/README.md``) in-process through ``gridvolt.cli.dispatch``,
against the ``src/`` tree of the checkout this file sits in (or ``--root``).
Inputs are made from ``--seed``. Set-up runs several times and reports its
median; the timed phase repeats the workload's round of commands while
another round still fits in ``--seconds`` (at least once).

With ``--trace 0`` the end-to-end metrics are measured untraced. With
``--trace 1`` the run measures the workload untraced, then again with every
public function of the traced modules wrapped, and reports the per-layer
metrics of the traced pass plus the difference in wall time.

Every output is checked outside the timed phase and hashed; the details
(environment, commands, failures with their step, SHA-256 per output) go to
``.perfbench/results/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
# workload and metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, default=HERE.parent,
                   help="checkout whose src/ is measured")
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    """Pin BLAS to one thread; call before numpy loads.

    The model's matrices are at most a few hundred rows by 141 columns, too
    small for BLAS threads to pay, and threads that spin while waiting for
    a core make timings on a small shared machine swing by several times.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_gridvolt(root: Path) -> None:
    """Import gridvolt from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "gridvolt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridvolt sources under {src}")
    sys.path.insert(0, str(src))
    import gridvolt
    if Path(gridvolt.__file__).resolve().parent != src / "gridvolt":
        raise SystemExit(f"perfbench: gridvolt imported from "
                         f"{gridvolt.__file__}, not {src}")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": git_commit(root),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workload_seed": seed}


@dataclass
class Pass:
    """One run of set-up plus timed phase over a workload."""

    ops: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    setup_windows: list = field(default_factory=list)
    timed_s: float = 0.0
    timed_window: tuple = (0.0, 0.0)
    rounds: int = 0
    state: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def timed_ops(self):
        return [op for op in self.ops if op.phase == "timed"]

    @property
    def wall_s(self) -> float:
        return sum(self.setup_s) + self.timed_s

    def hashes(self) -> dict:
        return {f"{op.phase}{i}/{name}": digest
                for i, op in enumerate(self.ops)
                for name, digest in op.hashes.items()}


def run_pass(wl, seconds: float, setup_repeats: int,
             rounds: int | None = None, tracer=None, hostref=None) -> Pass:
    """Set up ``setup_repeats`` times and run rounds: a fixed number, or as
    many as fit in ``seconds`` (at least one). Every round repeats the same
    commands, so a faster program measures the same inputs more often
    rather than different inputs. ``hostref`` samples the host's speed
    from the first set-up to the last.

    The first half of the set-ups (rounded up) runs before the rounds and
    the rest after them. The host's speed changes for seconds at a time, so
    set-ups timed back to back share one speed; timed on both sides of the
    rounds, their median is less often a brief fast or slow spell.
    """
    result = Pass()
    wl.reset()
    if tracer is not None:
        tracer.install()
    if hostref is not None:
        hostref.start()
    first_hashes = None

    def set_up(rep: int) -> bool:
        nonlocal first_hashes
        start = time.perf_counter()
        ops, state = wl.setup(rep)
        end = time.perf_counter()
        result.setup_s.append(end - start)
        result.setup_windows.append((start, end))
        hashes = [op.hashes for op in ops]
        if rep == 0:
            result.ops.extend(ops)   # repeats only time the set-up
            result.state, first_hashes = state, hashes
        elif hashes != first_hashes:
            result.problems.append(
                f"set-up {rep} wrote different bytes than set-up 0")
        return state is not None

    try:
        before = (setup_repeats + 1) // 2
        for rep in range(before):
            if not set_up(rep):
                return result
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            result.ops.extend(wl.round(result.state, result.rounds))
            result.rounds += 1
            now = time.perf_counter()
            if (result.rounds >= rounds if rounds is not None
                    else (now - start) + (now - began) > seconds):
                break
        result.timed_window = (start, time.perf_counter())
        result.timed_s = result.timed_window[1] - start
        for rep in range(before, setup_repeats):
            set_up(rep)
    finally:
        if hostref is not None:
            hostref.stop()
        if tracer is not None:
            tracer.uninstall()
    for op in result.timed_ops:
        wl.check(result.state, op)
    per_round = len(result.timed_ops) // max(result.rounds, 1)
    first = [op.hashes for op in result.timed_ops[:per_round]]
    for k in range(1, result.rounds):
        ops = result.timed_ops[k * per_round:(k + 1) * per_round]
        if [op.hashes for op in ops] != first:
            result.problems.append(f"round {k} wrote different bytes than "
                                   f"round 0")
    for op in result.ops:
        result.problems.extend(f"{' '.join(op.argv[:3])}: {e}"
                               for e in op.errors)
    return result


def failure_lines(ops) -> list[str]:
    return [f"FAILED {' '.join(op.argv[:3])} ({op.phase}): "
            f"{op.stderr.strip() or '; '.join(op.errors)}"
            for op in ops if op.failed]


def measure(wl, seconds: float, trace: bool, results_dir: Path,
            env: dict) -> tuple[dict, dict]:
    """Run one workload; return the result line and the detail record.

    Untraced, the timed phase runs as many rounds as fit in ``seconds``.
    Traced, one untraced and one traced round are compared, and the metrics
    are the per-layer ones of the traced pass.
    """
    import tracing   # imports numpy, so only after limit_blas_threads
    from hostref import HostRef

    hostref = None if trace else HostRef()
    untraced = run_pass(wl, seconds, 1 if trace else wl.scale.setup_repeats,
                        rounds=1 if trace else None, hostref=hostref)
    if untraced.state is None or not untraced.timed_ops:
        raise SetupFailed("\n".join(failure_lines(untraced.ops)))
    passes = [untraced]
    work = sum(op.work for op in untraced.timed_ops)
    spans_path, solve_failures = None, []
    if trace:
        tracer = tracing.Tracer()
        traced = run_pass(wl, seconds, 1, rounds=1, tracer=tracer)
        passes.append(traced)
        if traced.hashes() != untraced.hashes():
            traced.problems.append("traced outputs differ from untraced")
        traced.problems.extend("solver output check: " + msg
                               for msg in tracer.check_failures)
        metrics = tracing.layer_metrics(tracer, {
            "training.val_rmse_final": traced.state.get("val_rmse_final",
                                                        0.0),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "failed_ratio":
                sum(op.failed for op in traced.ops) / len(traced.ops),
        }, [m["name"] for m in SPEC["per_layer"]])
        spans_path = results_dir / f"{wl.name}-seed{wl.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        solve_failures = tracer.failures()
    else:
        host = host_speed(hostref, untraced)
        metrics = {
            "throughput_per_s": work / host["timed_s"],
            "setup_s": statistics.median(host["setup_s"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}

    ops = [op for p in passes for op in p.ops]
    problems = [msg for p in passes for msg in p.problems]
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(op.failed for op in ops),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    detail = {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "sizes": wl.sizes(untraced.state),
        "work_unit": wl.unit, "work": work, "rounds": untraced.rounds,
        "timed_s": untraced.timed_s, "setup_s_each": untraced.setup_s,
        "host": None if trace else {
            **host, "throughput_wall_per_s": work / untraced.timed_s,
            "setup_wall_s": statistics.median(untraced.setup_s)},
        "outputs_sha256": untraced.hashes(),
        "ops": [op.record() for op in ops],
        "solve_failures": solve_failures,
        "spans": str(spans_path) if spans_path else None,
        "problems": problems, "result": result,
    }
    return result, detail


def host_speed(hostref, p: Pass) -> dict:
    """Timed and set-up seconds of ``p`` at the reference host speed, each
    phase corrected by the kernel samples taken during it."""
    setup_samples = [d for w in p.setup_windows for d in hostref.samples(*w)]
    timed_samples = hostref.samples(*p.timed_window)
    return {"timed_s": hostref.corrected(*p.timed_window),
            "timed_slowdown": hostref.slowdown(timed_samples),
            "timed_samples": len(timed_samples),
            "setup_s": [hostref.corrected(*w) for w in p.setup_windows],
            "setup_slowdown": hostref.slowdown(setup_samples),
            "setup_samples": len(setup_samples)}


class SetupFailed(Exception):
    """No input could be made, so there is nothing to measure."""


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    limit_blas_threads()
    import_gridvolt(root)
    from workloads import WORKLOADS

    os.environ.pop("GRIDVOLT_RUN_DIR", None)   # manifests next to outputs
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, root / ".perfbench")
    try:
        result, detail = measure(wl, args.seconds, bool(args.trace),
                                 results_dir,
                                 environment(root, args.seed))
    except SetupFailed as exc:
        print(f"perfbench: set-up failed, nothing to measure\n{exc}",
              file=sys.stderr)
        return 1
    detail_path = results_dir / (f"{wl.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{wl.name} seed {args.seed}: {detail['rounds']} round(s), "
          f"{detail['work']} {wl.unit} in {detail['timed_s']:.3f} s; "
          f"{result['failed']}/{result['attempted']} commands failed")
    if detail["host"]:
        h = detail["host"]
        print(f"  host ran {h['timed_slowdown']:.3f}x / "
              f"{h['setup_slowdown']:.3f}x the reference kernel time in the "
              f"timed phase / set-ups; wall-clock throughput "
              f"{h['throughput_wall_per_s']:.6g}, set-up "
              f"{h['setup_wall_s']:.6g} s")
    for rec in detail["ops"]:
        if rec["rc"] != 0 or rec["errors"]:
            print(f"  FAILED {' '.join(rec['argv'][:3])} ({rec['phase']}): "
                  f"{rec['stderr'] or '; '.join(rec['errors'])}")
    for msg in detail["problems"]:
        print(f"  PROBLEM {msg}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  details: {detail_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
