"""Compare two commits with the benchmark: paired runs, gain and regression.

Run alternating pairs of the same benchmark code against two checkouts,
then report:

    python3 perfbench/compare.py run --parent ../parent --change . \
        --workload gen-medium --workload train-tiny --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

Ten pairs run per workload. Pair ``i`` uses workload seed ``1000 + i`` on
both sides and runs the parent first when ``i`` is even, the change first
when it is odd. The report prints one row per workload and end-to-end
metric:

* each side's median and quartiles, and its failed commands summed over
  the pairs;
* the pairs the change won (ties count for neither side);
* ``gain`` when the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range, but only when at
  least ten pairs ran and the change failed no more commands than the
  parent (otherwise the row says why the gain is withheld);
* ``regression`` when the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` when either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change run beat every
  parent run;
* ``within bound`` otherwise.

It also says, per workload, in how many pairs the two sides wrote
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, SPEC

RUN_TIMEOUT_S = 600
PAIRS = 10
FIRST_SEED = 1000


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--root", str(root),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    detail = json.loads((root / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "outputs_sha256": detail["outputs_sha256"]}


def cmd_run(args) -> None:
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(args.out, "a") as fh:
        for workload in args.workload:
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    rec = {"workload": workload, "pair": i, "seed": seed,
                           "side": side,
                           **run_once(sides[side], workload, seed,
                                      SPEC["run_seconds"])}
                    fh.write(json.dumps(rec) + "\n")
                    fh.flush()
                    print(f"{workload} pair {i} {side}: "
                          f"{json.dumps(rec['result']['metrics'])}",
                          flush=True)
    report(args.out)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failed: tuple[int, int]) -> tuple[str, int]:
    """``failed`` is (parent, change) failed commands over all pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    improvement = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and improvement > p3 - p1:
        if len(parent) < PAIRS:
            return f"no gain: fewer than {PAIRS} pairs", wins
        if failed[1] > failed[0]:
            return "no gain: more failed commands", wins
        return "gain", wins
    if -improvement > bound * abs(pm):
        return "regression", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if spread > bound and not every_run_better:
        return "unresolved", wins
    return "within bound", wins


def report(path) -> None:
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    runs: dict[tuple, dict] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[(rec["workload"], rec["pair"], rec["side"])] = rec
    workloads = sorted({k[0] for k in runs})
    print(f"{'workload':<12} {'metric':<18} {'parent med [q1, q3]':<30} "
          f"{'change med [q1, q3]':<30} {'failed':>9} {'wins':>6}  verdict")
    for workload in workloads:
        pairs = sorted({k[1] for k in runs if k[0] == workload
                        and (workload, k[1], "parent") in runs
                        and (workload, k[1], "change") in runs})
        if len(pairs) < 2:
            print(f"{workload:<12} fewer than two complete pairs")
            continue
        failed = tuple(sum(runs[(workload, i, side)]["result"]["failed"]
                           for i in pairs) for side in ("parent", "change"))
        for name, m in spec.items():
            parent = [runs[(workload, i, "parent")]["result"]["metrics"]
                      [name]["value"] for i in pairs]
            change = [runs[(workload, i, "change")]["result"]["metrics"]
                      [name]["value"] for i in pairs]
            result, wins = verdict(parent, change, m["better"], m["bound"],
                                   failed)
            cols = ["{:.4g} [{:.4g}, {:.4g}]".format(q[1], q[0], q[2])
                    for q in (quartiles(parent), quartiles(change))]
            print(f"{workload:<12} {name:<18} {cols[0]:<30} {cols[1]:<30} "
                  f"{failed[0]:>4}/{failed[1]:<4} "
                  f"{wins:>2}/{len(pairs):<3}  {result} "
                  f"({m['unit']}, {m['better']} is better, bound "
                  f"{m['bound']:.0%})")
        same = sum(runs[(workload, i, "parent")]["outputs_sha256"]
                   == runs[(workload, i, "change")]["outputs_sha256"]
                   for i in pairs)
        bad = sum(not runs[(workload, i, s)]["result"]["correct"]
                  for i in pairs for s in ("parent", "change"))
        print(f"{workload:<12} outputs byte-identical in {same}/{len(pairs)} "
              f"pairs; {bad} runs not correct")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs, then report")
    r.add_argument("--parent", type=Path, required=True,
                   help="checkout of the parent commit")
    r.add_argument("--change", type=Path, required=True,
                   help="checkout of the change")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--out", type=Path, required=True,
                   help="JSON lines file the runs are appended to")
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("report", help="report on recorded pairs")
    s.add_argument("pairs_file", type=Path)
    s.set_defaults(func=lambda a: report(a.pairs_file))
    args = p.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
