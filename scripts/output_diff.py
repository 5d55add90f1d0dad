#!/usr/bin/env python3
"""Largest absolute differences between two output directories.

Takes the work directories of two ``scripts/output_hashes.py --workdir``
runs and walks the files they share, sorted by path. A file whose bytes
are equal prints ``identical``. Otherwise it prints the max |Δ|:

* of an npz file, one line per array (``<file>:<array>``); an array whose
  dtype or shape differs, or that is not numeric and differs, prints
  ``differs``. An npz whose arrays all have equal names, dtypes, shapes
  and bytes prints one line, ``same arrays, container bytes differ``: only
  its zip encoding changed,
* of a JSON file whose parsed content is equal (key order, spacing and
  indentation aside), one line, ``same JSON, text differs``,
* of a CSV file, one line per column (``<file>[<column>]``), over the
  cells that parse as numbers on both sides; the line also counts the
  other cells of that column that differ,
* of any other file, one line over the numbers in its text, read in
  order; the line says whether the text between them differs too.

Files on one side only are listed, and so are the CSV or text files whose
row or number counts differ. The manifests (wall-clock times) and the run
configs are skipped, as ``output_hashes.py`` skips them. Run it on the
two listings' directories, as in:

    python3 scripts/output_hashes.py --root ../parent --workdir /tmp/a > a.txt
    python3 scripts/output_hashes.py --workdir /tmp/b > b.txt
    python3 scripts/output_diff.py /tmp/a /tmp/b
"""

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

SKIP = {"manifest.json", "train_config.json", "no_decay_config.json"}
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _fmt(value: float) -> str:
    return f"max|Δ| {value:.3e}"


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def diff_npz(name: str, a: Path, b: Path) -> list[str]:
    lines, all_same = [], True
    with np.load(a, allow_pickle=False) as da, \
            np.load(b, allow_pickle=False) as db:
        for key in sorted(set(da.files) | set(db.files)):
            label = f"{name}:{key}"
            if key not in da.files or key not in db.files:
                side = "b" if key in db.files else "a"
                lines.append(f"{label} only in {side}")
                all_same = False
                continue
            x, y = da[key], db[key]
            if x.dtype != y.dtype or x.shape != y.shape:
                lines.append(f"{label} differs ({x.dtype}{list(x.shape)} vs "
                             f"{y.dtype}{list(y.shape)})")
                all_same = False
                continue
            same = x.tobytes() == y.tobytes()
            all_same = all_same and same
            if np.issubdtype(x.dtype, np.number):
                lines.append(f"{label} {_fmt(_max_abs(x, y))}")
            else:
                lines.append(f"{label} {'identical' if same else 'differs'}")
    if all_same:
        return [f"{name} same arrays, container bytes differ"]
    return lines


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def diff_csv(name: str, a: Path, b: Path) -> list[str]:
    rows_a = list(csv.reader(io.StringIO(a.read_text())))
    rows_b = list(csv.reader(io.StringIO(b.read_text())))
    if (len(rows_a) != len(rows_b) or not rows_a
            or any(len(r) != len(s) for r, s in zip(rows_a, rows_b))):
        return [f"{name} differs ({len(rows_a)} vs {len(rows_b)} rows, or "
                "ragged)"]
    header = rows_a[0]
    lines = []
    for c, column in enumerate(header):
        worst, numeric, other = 0.0, 0, 0
        for r, s in zip(rows_a[1:], rows_b[1:]):
            x, y = _as_float(r[c]), _as_float(s[c])
            if x is not None and y is not None:
                numeric += 1
                worst = max(worst, abs(x - y))
            elif r[c] != s[c]:
                other += 1
        if numeric == 0 and other == 0:
            continue  # a text column that matches
        extra = f", {other} other cells differ" if other else ""
        lines.append(f"{name}[{column}] {_fmt(worst)} over {numeric} "
                     f"cells{extra}")
    if rows_a[0] != rows_b[0]:
        lines.append(f"{name} header differs")
    return lines


def diff_text(name: str, a: Path, b: Path) -> list[str]:
    parts_a = NUMBER.split(a.read_text(errors="replace"))
    parts_b = NUMBER.split(b.read_text(errors="replace"))
    if len(parts_a) != len(parts_b):
        return [f"{name} differs ({len(parts_a) // 2} vs "
                f"{len(parts_b) // 2} numbers)"]
    # odd positions hold the numbers, even ones the text between them
    nums_a = np.array([float(p) for p in parts_a[1::2]])
    nums_b = np.array([float(p) for p in parts_b[1::2]])
    text_same = parts_a[0::2] == parts_b[0::2]
    tail = "" if text_same else ", text between them differs"
    return [f"{name} {_fmt(_max_abs(nums_a, nums_b))} over {len(nums_a)} "
            f"numbers{tail}"]


def _canonical_json(path: Path):
    """The file's JSON content written one canonical way (sorted keys, so
    -0.0, 1 and 1.0 stay apart), or None when it does not parse."""
    try:
        return json.dumps(json.loads(path.read_text()), sort_keys=True)
    except ValueError:
        return None


def diff_file(name: str, a: Path, b: Path) -> list[str]:
    if a.read_bytes() == b.read_bytes():
        return [f"{name} identical"]
    if a.suffix == ".json":
        content = _canonical_json(a)
        if content is not None and content == _canonical_json(b):
            return [f"{name} same JSON, text differs"]
    if a.suffix == ".npz":
        return diff_npz(name, a, b)
    if a.suffix == ".csv":
        return diff_csv(name, a, b)
    return diff_text(name, a, b)


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in SKIP}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="first work directory")
    ap.add_argument("b", type=Path, help="second work directory")
    args = ap.parse_args()
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    in_a, in_b = files(args.a), files(args.b)
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            print(f"{name} only in {'a' if name in in_a else 'b'}")
            continue
        for line in diff_file(name, args.a / name, args.b / name):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
