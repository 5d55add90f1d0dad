#!/usr/bin/env python3
"""SHA-256 of a fixed set of generate/train/evaluate outputs.

Runs the commands below in-process through ``gridvolt.cli.dispatch`` and
prints one ``<file> <sha256>`` line per output, sorted by path. The
manifests are skipped: they record wall-clock time. After the files comes
a content listing: one ``<dataset>[<i>] <sha256>`` line per snapshot of
every generated dataset, over snapshot i's rows of
``load_dataset(path).arrays``: row i of each per-snapshot array and row
``config_index[i]`` of each per-configuration array. It reads only the
stored arrays, so the one script lists any two checkouts that share the
dataset format. A change to how the npz container encodes its members
(compression, zip metadata) that stores the same arrays shows up as the
``.npz`` file lines alone: every content line and every other file line
stays the same.
A change that must keep every output byte-identical is checked by running
this script on both checkouts and diffing the two listings:

    python3 scripts/output_hashes.py --root ../parent --workdir /tmp/a > a.txt
    python3 scripts/output_hashes.py --workdir /tmp/b > b.txt
    diff a.txt b.txt

The set: ``generate`` for tiny seeds 0-4 (defaults), tiny 7 with its ties
closed at 40 % DER, tiny 0 at 40 % DER, tiny 0 with its ties closed,
medium 100-103 at 20 % DER, medium 103 with its ties closed, small 50 with
six feeders and all five ties closed at 40 % DER (regulators of several
feeders share a sweep level), a two-day tiny dataset (seed 0), and the
ROADMAP's protocol dataset (tiny seed 11, 3 feeders, 20 % DER, 2000
snapshots, the data the acceptance numbers are measured on);
``train --seed 0`` on the two-day set with a short curriculum, and a
shorter one there without weight decay (``lam_reg`` 0, where the decay
gradient is zero of either sign), which runs once more on medium 103 with
its ties closed (603 bus-phases, whose regulator taps change within the
training window, so its steps refill one batch structure with new edge
features); ``evaluate --seeds 2`` of
the first checkpoint in every study: A on the two-day set, B on tiny 0 at
0 % and 40 % DER, C on tiny 0 with its ties open and closed, E on the
two-day set with the no-decay checkpoint as the ablation, and D with the
checkpoint from ``finetune --seed 0`` of it on tiny seed 1; and E once
more on the two-day set at levels 1 and 20. It takes about 45 s on one
core of a 2-vCPU Xeon host.

A level's replicates that draw the same sensor fleet share one forward
(and one ridge score) when no attack is set. On the 93-node two-day set
the 1 % budget is one node, the hub row, so both replicate fleets are the
same there: study A's default levels start at 1 % and take that shared
path, and so does the clean half of the ``--levels 1,20`` study E, whose
attacked half forwards each replicate on its own. The other studies'
default levels start at 5 % or 20 %, where the fleets differ.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SHORT_TRAIN = {"steps_per_epoch": 60, "max_warmup_epochs": 4,
               "ramp_epochs": 2, "levels": [80, 50, 20, 5, 1],
               "finetune_epochs": 6}
NO_DECAY_TRAIN = {"steps_per_epoch": 30, "max_warmup_epochs": 2,
                  "ramp_epochs": 1, "levels": [50, 5], "lam_reg": 0.0}
CONFIGS = {"train_config.json": SHORT_TRAIN,
           "no_decay_config.json": NO_DECAY_TRAIN}


def commands(work: Path) -> list[list[str]]:
    def gen(name, *args):
        return ["generate", *args, "--out", str(work / f"{name}.npz")]

    runs = [gen(f"tiny{s}", "--seed", str(s)) for s in range(5)]
    runs.append(gen("tiny7c", "--seed", "7", "--close-ties", "--der", "40"))
    runs.append(gen("tiny0d40", "--seed", "0", "--der", "40"))
    runs.append(gen("tiny0c", "--seed", "0", "--close-ties"))
    runs += [gen(f"med{s}", "--seed", str(s), "--size", "medium",
                 "--der", "20") for s in range(100, 104)]
    runs.append(gen("med103c", "--seed", "103", "--size", "medium",
                    "--close-ties"))
    runs.append(gen("small50f6c", "--seed", "50", "--size", "small",
                    "--feeders", "6", "--close-ties", "--der", "40"))
    runs.append(gen("train2d", "--seed", "0", "--horizon-minutes", "2880"))
    runs.append(gen("protocol11", "--seed", "11", "--feeders", "3", "--der",
                    "20", "--horizon-minutes", "30000"))
    data = str(work / "train2d.npz")
    runs.append(["train", "--data", data, "--config",
                 str(work / "train_config.json"), "--seed", "0",
                 "--out", str(work / "model.npz")])
    runs.append(["train", "--data", data, "--config",
                 str(work / "no_decay_config.json"), "--seed", "0",
                 "--out", str(work / "no_decay" / "model.npz")])
    runs.append(["train", "--data", str(work / "med103c.npz"), "--config",
                 str(work / "no_decay_config.json"), "--seed", "0",
                 "--out", str(work / "med103c_train" / "model.npz")])
    model = str(work / "model.npz")

    def study(name, *args, out=None):
        out_dir = work / (out or f"study{name}")
        return ["evaluate", "--study", name, "--checkpoint", model, *args,
                "--seeds", "2", "--out-dir", str(out_dir)]

    runs.append(study("A", "--data", data))
    runs.append(study("B", "--data", str(work / "tiny0.npz"),
                      "--data", str(work / "tiny0d40.npz")))
    runs.append(study("C", "--data", str(work / "tiny0.npz"),
                      "--data-closed", str(work / "tiny0c.npz")))
    runs.append(study("E", "--data", data, "--ablation-checkpoint",
                      str(work / "no_decay" / "model.npz")))
    runs.append(study("E", "--data", data, "--ablation-checkpoint",
                      str(work / "no_decay" / "model.npz"), "--levels", "1,20",
                      out="studyE1"))
    target = str(work / "tiny1.npz")
    runs.append(["finetune", "--checkpoint", model,
                 "--data", target, "--config",
                 str(work / "train_config.json"), "--seed", "0",
                 "--pretrain-snapshots", "192",
                 "--out", str(work / "tuned" / "model.npz")])
    runs.append(study("D", "--finetuned-checkpoint",
                      str(work / "tuned" / "model.npz"), "--data", target))
    return runs


def snapshot_digests(data) -> list[str]:
    """SHA-256 per snapshot over its rows of the stored arrays, each with
    its name, dtype and shape: row i of every per-snapshot array and row
    ``config_index[i]`` of every per-configuration array."""
    from gridvolt import dataset

    arrays = data.arrays
    digests = []
    for i, c in enumerate(arrays["config_index"]):
        h = hashlib.sha256()
        for name in sorted(dataset._PER_TIME + dataset._PER_CONFIG):
            row = np.ascontiguousarray(
                arrays[name][c if name in dataset._PER_CONFIG else i])
            h.update(f"{name}:{row.dtype.str}:{row.shape}:".encode())
            h.update(row.tobytes())
        digests.append(h.hexdigest())
    return digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ is run (default: this one)")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="output directory (default: a temporary one)")
    args = ap.parse_args()

    # one BLAS thread, so the checkpoint cannot depend on the thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GRIDVOLT_RUN_DIR", None)
    sys.path.insert(0, str((args.root / "src").resolve()))
    from gridvolt import cli, dataset

    with tempfile.TemporaryDirectory() as tmp:
        work = (args.workdir or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        for name, config in CONFIGS.items():
            (work / name).write_text(json.dumps(config))
        datasets = []
        for argv in commands(work):
            print("+", " ".join(argv[:3]), file=sys.stderr)
            if argv[0] == "generate":
                datasets.append(Path(argv[-1]))
            # the commands' own reports go to stderr, the listing to stdout
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.dispatch(argv)
            if rc != 0:
                print(f"failed: {' '.join(argv)}", file=sys.stderr)
                return 1
        for path in sorted(work.rglob("*")):
            if (not path.is_file() or path.name == "manifest.json"
                    or path.name in CONFIGS):
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{path.relative_to(work).as_posix()} {digest}")
        for path in sorted(datasets):
            name = path.relative_to(work).as_posix()
            for i, digest in enumerate(
                    snapshot_digests(dataset.load_dataset(path))):
                print(f"{name}[{i}] {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
