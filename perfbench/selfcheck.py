"""Reduced-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at a small scale, untraced and traced, through the same
code as ``run.py`` and checks that:

* the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every metric of ``BENCHMARK.json``
  appears with its unit and a finite value;
* a ``generate`` whose power flow diverges is counted as a failed command
  and in ``failed_ratio`` and ``simulation.solve_failures``, with its step,
  instead of raising. The divergence is real: the solver is called with an
  iteration limit of 1 from the fifth timestep of one substation on.

Exits non-zero and lists what failed. Takes a few seconds.
"""

from __future__ import annotations

import functools
import math
import sys

import run

SMALL = dict(gen_size="tiny", gen_minutes=120, gen_commands=2,
             gen_warmup_minutes=60, train_minutes=480,
             train_config={"steps_per_epoch": 2, "max_warmup_epochs": 1,
                           "ramp_epochs": 1, "levels": [50]},
             eval_feeders=3, eval_minutes=480, eval_levels="20",
             eval_seeds=1, setup_repeats=2)
DIVERGE_FROM_STEP = 4


def check_result(result: dict, spec: list[dict], where: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        errors.append(f"{where}: attempted/failed not whole numbers")
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        wrong_unit = [k for k in got
                      if k in expected and got[k] != expected[k]]
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, extra "
                      f"{sorted(set(got) - set(expected))}, "
                      f"units {wrong_unit}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r}")
    return errors


def main() -> int:
    root = run.HERE.parent
    run.limit_blas_threads()
    run.import_gridvolt(root)
    from gridvolt import simulation as sim
    from workloads import WORKLOADS, Scale, derive

    spec = run.SPEC
    errors = []
    scale = Scale(**SMALL)
    work_dir = root / ".perfbench" / "selfcheck"
    results_dir = work_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = run.environment(root, 0)
    seed = 3
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            where = f"{name} trace={int(trace)}"
            result, detail = run.measure(WORKLOADS[name](seed, work_dir,
                                                         scale), 0.0,
                                         trace, results_dir, env)
            kind = "per_layer" if trace else "end_to_end"
            errors += check_result(result, spec[kind], where)
            if not result["correct"]:
                errors.append(f"{where}: not correct: {detail['problems']}")
            print(f"{where}: {result['attempted']} commands, "
                  f"{result['failed']} failed, correct={result['correct']}")

    # a diverging generate is a failed command, not a crash
    solve = sim.solve_powerflow
    target = derive(seed, "gen", 0)

    @functools.wraps(solve)
    def diverging(spec_, graph, s_injection, controls, timestamp=0.0,
                  **kwargs):
        if (spec_.seed == target
                and timestamp >= DIVERGE_FROM_STEP * sim.TIMESTEP_MINUTES):
            kwargs["max_iter"] = 1
        return solve(spec_, graph, s_injection, controls,
                     timestamp=timestamp, **kwargs)

    sim.solve_powerflow = diverging
    try:
        for trace in (False, True):
            where = f"diverging gen trace={int(trace)}"
            result, detail = run.measure(
                WORKLOADS["gen-medium"](seed, work_dir, scale), 0.0, trace,
                results_dir, env)
            failed = [op for op in detail["ops"] if op["rc"] != 0]
            if not failed or result["failed"] < 1 or not all(
                    op["stderr"].startswith(
                        f"ERROR powerflow: timestep {DIVERGE_FROM_STEP}:")
                    for op in failed):
                errors.append(f"{where}: divergence not counted: "
                              f"{[op['stderr'] for op in failed]}")
            if not result["correct"]:
                errors.append(f"{where}: a reported divergence made the "
                              f"run incorrect: {detail['problems']}")
            if trace:
                m = result["metrics"]
                steps = [f["step"] for f in detail["solve_failures"]]
                if not (m["failed_ratio"]["value"] > 0
                        and m["simulation.solve_failures"]["value"] >= 1
                        and steps and steps[0] == DIVERGE_FROM_STEP):
                    errors.append(f"{where}: failed_ratio "
                                  f"{m['failed_ratio']['value']}, "
                                  f"solve_failures "
                                  f"{m['simulation.solve_failures']['value']}"
                                  f", steps {steps}")
            print(f"{where}: {result['failed']}/{result['attempted']} "
                  f"commands failed")
    finally:
        sim.solve_powerflow = solve

    for e in errors:
        print("SELF-CHECK FAILED:", e)
    print("self-check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
