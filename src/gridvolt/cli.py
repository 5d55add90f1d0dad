"""Command-line entry point.

Subcommands cover the pipeline end to end: ``generate`` synthesizes a
substation and solves a day (or longer) of snapshots into a dataset,
``train`` runs the observability curriculum, ``finetune`` adapts a
checkpoint to a new substation, ``evaluate`` runs one of the five case
studies, and ``gradcheck`` validates gradients of the full model. The
case studies are defined here, in ``_study_rows``: each is a list of
``evaluation.sweep`` calls, one per estimator (the model, or study A's
ridge baseline) under its scenario and model labels.

Every run writes a manifest into its run directory (the directory of the
primary output, overridable via the ``GRIDVOLT_RUN_DIR`` environment
variable): command name, a hash of the effective configuration, the seeds
involved, input and output paths, and a SHA-256 per output file, plus the
solver's health (``generate``) or what model selection chose (``train``,
``finetune``). Two runs with the same configuration and seeds produce
byte-identical outputs, so the manifests certify reproducibility.

Failures exit with code 1 and print one line, ``ERROR <category>:
<message>``, where category is one of config, data, powerflow, training,
checkpoint, internal. Usage errors exit with code 2 (argparse behavior).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from . import dataset as gds
from . import evaluation as gev
from . import model as gmodel
from . import simulation as gsim
from . import training as gtr
from .gradcheck import format_report, run_gradcheck
from .settings import from_settings

ERROR_CATEGORIES = ("config", "data", "powerflow", "training", "checkpoint",
                    "internal")
# observability levels of each case study when --levels is not given
STUDY_LEVELS = {"A": (1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70,
                      75, 80),
                "B": (5, 20, 50), "C": (5, 20, 50), "D": (5, 20, 50),
                "E": (20, 50)}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        if category not in ERROR_CATEGORIES:
            raise ValueError(f"unknown error category {category!r}")
        super().__init__(message)
        self.category = category


# -- manifests ----------------------------------------------------------------


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seeds: list
    inputs: list
    outputs: dict  # path -> sha256
    version: str
    wall_clock_s: float
    solver: dict | None = None  # generate: simulation.solver_health
    training: dict | None = None  # train, finetune: TrainResult.summary


def _sha256(path) -> str:
    """SHA-256 of the file at ``path``, read through one reused 64 KiB
    buffer so hashing allocates nothing per block."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _config_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def run_dir_for(primary_output) -> Path:
    override = os.environ.get("GRIDVOLT_RUN_DIR")
    if override:
        return Path(override)
    return Path(primary_output).resolve().parent


def write_manifest(run_dir, manifest: RunManifest) -> Path:
    """Atomically (re)place the single manifest of a run directory."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "manifest.json"
    tmp = run_dir / "manifest.json.tmp"
    data = {k: v for k, v in asdict(manifest).items() if v is not None}
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def _finish(command: str, config_obj, seeds, inputs, outputs,
            started: float, **blocks) -> None:
    """Write the run's manifest; ``blocks`` are its optional blocks."""
    manifest = RunManifest(
        command=command,
        config_hash=_config_hash(config_obj),
        seeds=[int(s) for s in seeds],
        inputs=[str(p) for p in inputs],
        outputs={str(p): _sha256(p) for p in outputs},
        version=__version__,
        wall_clock_s=round(time.monotonic() - started, 3),
        **blocks)
    write_manifest(run_dir_for(outputs[0]), manifest)


# -- shared loaders -------------------------------------------------------------


# what reading an unreadable npz raises: an empty file (EOFError), a file
# that is not a whole zip or fails a member's CRC (BadZipFile), and a
# deflated member from an earlier writer that does not inflate (zlib.error)
_UNREADABLE = (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile,
               zlib.error)


def _load(read, category: str, noun: str, path):
    """``read(path)``, with its failures as ``ERROR <category>`` lines
    that name the ``noun`` read."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise CliError(category, f"{noun} not found: {path}") from exc
    except _UNREADABLE as exc:
        raise CliError(category, f"cannot load {noun} {path}: {exc}") from exc


def _train_config(args) -> gtr.TrainConfig:
    values = {}
    if getattr(args, "config", None):
        try:
            values = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise CliError("config",
                           f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise CliError("config", f"malformed config JSON: {exc}") from exc
    try:
        config = from_settings(gtr.TrainConfig, values, "training config")
        return config if args.seed is None else replace(config, seed=args.seed)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


def _parse_levels(text: str) -> tuple:
    try:
        levels = tuple(gtr.canonical_level(x) for x in text.split(",")
                       if x.strip())
    except ValueError as exc:
        raise CliError("config", f"cannot parse levels {text!r}") from exc
    if not levels:
        raise CliError("config", "empty levels list")
    if not all(0 < x < 100 for x in levels):
        raise CliError("config", f"levels must lie in (0, 100), got {text!r}")
    if len(set(levels)) != len(levels):
        raise CliError("config", f"levels repeat a level: {text!r}")
    return levels


# -- commands -------------------------------------------------------------------


def cmd_generate(args) -> None:
    started = time.monotonic()
    try:
        spec = gsim.generate_substation(args.seed, args.size, args.feeders)
        closures = tuple(range(len(spec.ties))) if args.close_ties else ()
        scenario = gsim.ScenarioConfig(horizon_minutes=args.horizon_minutes,
                                       der_penetration=args.der,
                                       tie_closures=closures,
                                       tie_close_step=0)
        run = gsim.run_timeseries(spec, scenario)
        flows = gsim.derive_flows(run)
        run.v = run.i_branch = None  # only derive_flows reads them
        data = gds.dataset_from_states(spec, scenario, run, flows)
    except gsim.PowerFlowError as exc:
        raise CliError("powerflow", str(exc)) from exc
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    health = gsim.solver_health(run, flows)
    del run, flows  # freed before the writes
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    gds.save_dataset(data, out)
    spec_path = out.with_suffix(".spec.json")
    gsim.save_spec(spec, spec_path)
    print(f"generated {spec.name}: {data.n_snapshots} snapshots, "
          f"{data.n_nodes} bus-phases -> {out}")
    print(_solver_line(health))
    config = {"seed": args.seed, "size": args.size, "feeders": args.feeders,
              "der": args.der, "horizon_minutes": args.horizon_minutes,
              "close_ties": bool(args.close_ties)}
    _finish("generate", config, [args.seed], [], [out, spec_path], started,
            solver=health)


def _solver_line(health: dict) -> str:
    """simulation.solver_health in one line, naming the voltage range of
    each bus type that leaves the band."""
    lo, hi = health["band_pu"]
    ranges = health["v_range_pu"]
    outside = ", ".join(f"{t} {a:.4f}-{b:.4f}" for t, (a, b) in ranges.items()
                        if not lo < a <= b < hi)
    verdict = (f"inside the {lo}-{hi} band" if health["in_band"] else
               f"outside the {lo}-{hi} band at {outside}")
    return (f"solver: {health['snapshots']} snapshots, sweep iterations mean "
            f"{health['sweep_iterations_mean']:.2f} max "
            f"{health['sweep_iterations_max']}, conservation max "
            f"{health['conservation_max_pu']:.1e} p.u., v "
            f"{min(a for a, _ in ranges.values()):.4f}-"
            f"{max(b for _, b in ranges.values()):.4f} p.u., {verdict}")


def _save_training(command: str, result, config, inputs, out,
                   started: float) -> Path:
    """Write a train or finetune run's checkpoint, history CSV and
    manifest; a diverged run is an ``ERROR training`` once they are
    written."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    gmodel.save_checkpoint(result.params, out)
    history_path = out.with_suffix(".history.csv")
    gtr.history_to_csv(result.history, history_path)
    _finish(command, asdict(config), [config.seed], inputs,
            [out, history_path], started, training=result.summary())
    if result.aborted:
        raise CliError("training",
                       f"diverged; last good checkpoint written to {out}")
    return out


def cmd_train(args) -> None:
    started = time.monotonic()
    config = _train_config(args)
    datasets = [_load(gds.load_dataset, "data", "dataset", p)
                for p in args.data]
    try:
        result = gtr.train(datasets, config)
    except ValueError as exc:
        raise CliError("data", str(exc)) from exc
    out = _save_training("train", result, config, args.data, args.out,
                         started)
    final = result.history[-1]
    print(f"trained {len(result.history)} epochs -> {out} "
          f"(final val RMSE {final.val_rmse:.5f} at p_obs {final.p_obs:g}%)")


def cmd_finetune(args) -> None:
    started = time.monotonic()
    if args.pretrain_snapshots is not None and args.pretrain_snapshots < 1:
        raise CliError("config", f"--pretrain-snapshots must be at least 1, "
                                 f"got {args.pretrain_snapshots}")
    config = _train_config(args)
    params = _load(gmodel.load_checkpoint, "checkpoint", "checkpoint",
                   args.checkpoint)
    data = _load(gds.load_dataset, "data", "dataset", args.data)
    try:
        result = gtr.finetune(params, data, config,
                              n_pretrain=args.pretrain_snapshots)
    except ValueError as exc:
        raise CliError("data", str(exc)) from exc
    out = _save_training("finetune", result, config,
                         [args.checkpoint, args.data], args.out, started)
    print(f"fine-tuned {len(result.history)} epochs -> {out}")


def _study_rows(args) -> list:
    params = _load(gmodel.load_checkpoint, "checkpoint", "checkpoint",
                   args.checkpoint)
    common = dict(levels=_parse_levels(args.levels) if args.levels
                  else STUDY_LEVELS[args.study],
                  n_seeds=args.seeds, seed=args.seed)
    data = _load(gds.load_dataset, "data", "dataset", args.data[0])
    name = data.meta.get("substation", "?")

    def test_views(d):
        test = gds.split_windows(d.n_snapshots, 0.0, args.eval_fraction)[2]
        return [d.snapshot(i) for i in test]

    def sweep(estimator, snaps, scenario, model="gnn", attack=None,
              substation=name):
        return gev.sweep(estimator, snaps, substation, attack=attack,
                         scenario=scenario, model=model, **common)

    if args.study == "A":
        # the ridge fit reads a strided sample of the snapshots before the
        # evaluation window; only those are assembled
        before = gds.split_windows(data.n_snapshots, 0.0,
                                   args.eval_fraction)[0]
        baseline = gev.fit_linear_baseline(
            [data.snapshot(i) for i in gev.baseline_sample(before)],
            levels=common["levels"], seed=args.seed)
        snaps = test_views(data)
        return (sweep(gev.gnn(params), snaps, "A-observability")
                + sweep(baseline.level_predictions, snaps, "A-observability",
                        "linear"))
    if args.study == "B":
        sets = [data] + [_load(gds.load_dataset, "data", "dataset", p)
                         for p in args.data[1:]]
        by_pen = {}
        for path, d in zip(args.data, sets):
            pen = int(d.meta["scenarios"][0]["der_penetration"])
            if pen in by_pen:
                raise CliError("config", f"study B takes one --data set per "
                                         f"DER penetration; {path} repeats "
                                         f"{pen} %")
            by_pen[pen] = (test_views(d), d.meta.get("substation", "?"))
        return [row for pen, (snaps, sub) in sorted(by_pen.items())
                for row in sweep(gev.gnn(params), snaps, f"B-der{pen}",
                                 substation=sub)]
    if args.study == "C":
        closed = _load(gds.load_dataset, "data", "dataset", args.data_closed)
        closed_name = closed.meta.get("substation", "?")
        if closed_name != name:
            raise CliError("config", f"study C compares one substation; "
                                     f"--data-closed {args.data_closed} is "
                                     f"{closed_name}, --data is {name}")
        return (sweep(gev.gnn(params), test_views(data), "C-radial")
                + sweep(gev.gnn(params), test_views(closed), "C-tie-closed",
                        substation=closed_name))
    if args.study == "D":
        tuned = _load(gmodel.load_checkpoint, "checkpoint", "checkpoint",
                      args.finetuned_checkpoint)
        snaps = test_views(data)
        return (sweep(gev.gnn(params), snaps, "D-transfer", "gnn-zeroshot")
                + sweep(gev.gnn(tuned), snaps, "D-transfer", "gnn-finetuned"))
    ablation = _load(gmodel.load_checkpoint, "checkpoint", "checkpoint",
                     args.ablation_checkpoint)
    try:
        attack = gev.AttackConfig(penetration=args.attack_penetration,
                                  targets=args.attack_targets)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    snaps = test_views(data)
    return [row for model, p in (("gnn-physics", params),
                                 ("gnn-nophysics", ablation))
            for scenario, hit in (("E-clean", None), ("E-attacked", attack))
            for row in sweep(gev.gnn(p), snaps, scenario, model, hit)]


def cmd_evaluate(args) -> None:
    started = time.monotonic()
    if args.study == "C" and not args.data_closed:
        raise CliError("config", "study C requires --data-closed")
    if args.study == "D" and not args.finetuned_checkpoint:
        raise CliError("config", "study D requires --finetuned-checkpoint")
    if args.study == "E" and not args.ablation_checkpoint:
        raise CliError("config", "study E requires --ablation-checkpoint")
    if args.seeds < 1:
        raise CliError("config", f"--seeds must be at least 1, got "
                                 f"{args.seeds}")
    if not 0 < args.eval_fraction < 1:
        raise CliError("config", f"--eval-fraction must lie in (0, 1), got "
                                 f"{args.eval_fraction}")
    try:
        rows = _study_rows(args)
    except ValueError as exc:  # the series cannot hold the evaluation window
        raise CliError("data", str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / f"study_{args.study}.csv"
    gev.write_report(report, rows)
    summary = out_dir / f"study_{args.study}_summary.txt"
    summary.write_text(gev.summarize(rows) + "\n")
    print(gev.summarize(rows))
    config = {"study": args.study, "levels": args.levels,
              "seeds": args.seeds, "eval_fraction": args.eval_fraction}
    inputs = list(args.data) + [args.checkpoint]
    for extra in (args.data_closed, args.finetuned_checkpoint,
                  args.ablation_checkpoint):
        if extra:
            inputs.append(extra)
    _finish("evaluate", config, [args.seed], inputs, [report, summary],
            started)


def cmd_gradcheck(args) -> None:
    started = time.monotonic()
    report = run_gradcheck(seed=args.seed or 0)
    print(format_report(report))
    out = Path(args.out) if args.out else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(format_report(report) + "\n")
        _finish("gradcheck", {"seed": args.seed or 0}, [args.seed or 0], [],
                [out], started)
    if not report.all_ok:
        raise CliError("internal",
                       f"gradient check failed (worst rel err "
                       f"{report.worst_rel_err:.3e})")


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridvolt",
        description="Synthetic substations and voltage estimation under "
                    "partial observability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a substation and solve "
                                        "a snapshot time series")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--size", choices=("tiny", "small", "medium"),
                   default="tiny")
    g.add_argument("--feeders", type=int, default=3)
    g.add_argument("--der", type=int, choices=gsim.DER_PENETRATIONS,
                   default=0, help="DER penetration percent")
    g.add_argument("--horizon-minutes", type=int, default=1440)
    g.add_argument("--close-ties", action="store_true",
                   help="close all tie switches from the first timestep")
    g.add_argument("--out", required=True, help="output dataset .npz path")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="run the observability curriculum")
    t.add_argument("--data", action="append", required=True,
                   help="dataset .npz (repeatable; trained sequentially)")
    t.add_argument("--config", help="JSON file with training settings")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True, help="output checkpoint .npz path")
    t.set_defaults(func=cmd_train)

    f = sub.add_parser("finetune", help="adapt a checkpoint to a new "
                                        "substation (head only)")
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--config", help="JSON file with training settings")
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--pretrain-snapshots", type=int, default=None,
                   help="snapshot count of the pretraining dataset")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("evaluate", help="run a case study")
    e.add_argument("--study", choices=("A", "B", "C", "D", "E"),
                   required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", action="append", required=True)
    e.add_argument("--data-closed", help="tie-closed dataset (study C)")
    e.add_argument("--finetuned-checkpoint", help="study D")
    e.add_argument("--ablation-checkpoint", help="study E")
    e.add_argument("--levels", help="comma-separated observability levels")
    e.add_argument("--seeds", type=int, default=10,
                   help="mask seeds per level")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--eval-fraction", type=float, default=gds.TEST_FRACTION,
                   help="tail fraction of snapshots used for evaluation; the "
                        "default is the window that training holds out, "
                        "larger values reach into training data")
    e.add_argument("--attack-penetration", type=float, default=0.06)
    e.add_argument("--attack-targets", default="both",
                   choices=("voltage", "power", "both"))
    e.add_argument("--out-dir", required=True)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("gradcheck", help="finite-difference gradient "
                                         "validation of the full model")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="optional path for the report table")
    c.set_defaults(func=cmd_gradcheck)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except CliError as exc:
        print(f"ERROR {exc.category}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unforeseen stays machine-parseable
        print(f"ERROR internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
