"""The benchmark's span tracer against the current package.

``perfbench/tracing.py`` looks gridvolt functions and methods up by name
and rebinds every reference to them. A refactor that deletes or renames
one of those names breaks every traced benchmark run, so these tests
install the tracer (read-only: the file is loaded, never edited) and
check that it finds its names, that ``uninstall`` restores every
attribute it patched, and that its per-solve check runs on what
``solve_powerflow`` returns.
"""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gridvolt_attributes(classes):
    """Every attribute of every loaded gridvolt module and of ``classes``,
    by (owner, name)."""
    owners = [m for k, m in sys.modules.items()
              if k == "gridvolt" or k.startswith("gridvolt.")] + classes
    return {(owner, name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_tracer_install_finds_its_names_and_uninstall_restores_them():
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"gridvolt.{name}")
            for name in tracing.LAYERS}
    training = mods["training"]
    classes = [mods["dataset"].SnapshotDataset, training.Adam,
               training._Trainer]
    before = _gridvolt_attributes(classes)
    named = [(training, "_val_metrics"), (training, "_val_batch"),
             (training._Trainer, "run_epoch"), (training.Adam, "step"),
             (mods["dataset"].SnapshotDataset, "snapshot"),
             (mods["model"], "build_batch"), (mods["model"], "forward"),
             (mods["cli"], "_sha256")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(owner, name) for owner, name, _ in tracer._restore}
        for owner, name in named:
            assert (owner, name) in patched, name
            assert vars(owner)[name] is not before[owner, name], name
    finally:
        tracer.uninstall()
    after = _gridvolt_attributes(classes)
    assert after.keys() == before.keys()
    assert [name for owner, name in before
            if after[owner, name] is not before[owner, name]] == []


def test_traced_generate_checks_every_solve(tmp_path):
    """Under the tracer, a short generate records one span per step for
    ``solve_powerflow``, each with the scalar iteration count and the
    conservation residual of that step's own state, and no solver-check
    failure; the counts agree with the manifest's solver block."""
    tracing = _load_tracing()
    cli = importlib.import_module("gridvolt.cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.dispatch(["generate", "--seed", "3", "--horizon-minutes",
                           "120", "--out", str(tmp_path / "d.npz")])
    finally:
        tracer.uninstall()
    assert rc == 0
    solves = [tracer.attrs[i] for i, name in enumerate(tracer.names)
              if name == "simulation.solve_powerflow"]
    assert len(solves) == 8
    assert all(type(a["iters"]) is int and a["iters"] >= 1 for a in solves)
    assert all(0.0 <= a["residual"] < tracing.CONSERVATION_LIMIT_PU
               for a in solves)
    assert tracer.check_failures == [] and tracer.failures() == []
    solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
    assert solver["sweep_iterations_hist"] == {
        str(k): c for k, c in sorted(Counter(a["iters"]
                                             for a in solves).items())}
    assert solver["conservation_max_pu"] == max(a["residual"]
                                                for a in solves)
