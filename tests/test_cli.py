"""Command-line surface: exit codes, error lines, manifests, determinism."""

import csv
import hashlib
import io
import json
import re
import shutil
import struct
import zipfile
from dataclasses import dataclass

import numpy as np
import pytest

from gridvolt import cli
from gridvolt import dataset as ds
from gridvolt import simulation as gsim

ERROR_LINE = re.compile(r"^ERROR (config|data|powerflow|training|checkpoint"
                        r"|internal): .+$")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and one micro-trained checkpoint, shared."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data" / "sub.npz"
    rc = cli.dispatch(["generate", "--seed", "31", "--size", "tiny",
                       "--feeders", "3", "--der", "20",
                       "--horizon-minutes", "720", "--out", str(data)])
    assert rc == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "steps_per_epoch": 8, "max_warmup_epochs": 2, "ramp_epochs": 1,
        "levels": [80, 20], "plateau_window": 2, "val_max_snapshots": 4,
    }))
    ckpt = root / "model" / "model.npz"
    rc = cli.dispatch(["train", "--data", str(data), "--config", str(cfg),
                       "--seed", "7", "--out", str(ckpt)])
    assert rc == 0
    return {"root": root, "data": data, "cfg": cfg, "ckpt": ckpt}


def run(argv, capsys):
    rc = cli.dispatch(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- generate -------------------------------------------------------------------


def test_generate_outputs_and_manifest(workspace):
    data_dir = workspace["data"].parent
    assert workspace["data"].exists()
    assert (data_dir / "sub.spec.json").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    # manifest hashes its outputs but never itself
    assert len(manifest["outputs"]) == 2
    assert all(not p.endswith("manifest.json") for p in manifest["outputs"])
    assert all(re.fullmatch(r"[0-9a-f]{64}", h)
               for h in manifest["outputs"].values())
    assert manifest["seeds"] == [31]
    assert manifest["command"] == "generate"
    assert manifest["version"]
    assert manifest["wall_clock_s"] >= 0
    assert manifest["solver"]["snapshots"] == 48


def test_generate_reports_solver_health(tmp_path, capsys):
    """One summary line and the manifest's solver block, read from the
    solved states: the dataset's voltages give the same range."""
    out = tmp_path / "d.npz"
    rc, stdout, _ = run(["generate", "--seed", "5", "--horizon-minutes",
                         "240", "--out", str(out)], capsys)
    assert rc == 0
    line = stdout.splitlines()[-1]
    assert re.fullmatch(r"solver: 16 snapshots, sweep iterations mean "
                        r"[0-9.]+ max \d+, conservation max \S+ p\.u\., "
                        r"v [0-9.]+-[0-9.]+ p\.u\., inside the 0\.94-1\.06 "
                        r"band", line), line
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    solver = manifest["solver"]
    assert solver["snapshots"] == 16
    assert 1 <= solver["sweep_iterations_mean"] <= solver["sweep_iterations_max"] < 100
    assert 0 <= solver["conservation_max_pu"] < 1e-10
    # the number of solves per sweep iteration count, keyed by the count
    hist = {int(k): c for k, c in solver["sweep_iterations_hist"].items()}
    assert sum(hist.values()) == 16
    assert max(hist) == solver["sweep_iterations_max"]
    assert (sum(k * c for k, c in hist.items()) / 16
            == pytest.approx(solver["sweep_iterations_mean"]))
    # the lowest and highest tap step of any regulator over the run, read
    # back from the dataset's normalized edge taps
    taps = ds.load_dataset(out).arrays["edge_tap"] * gsim.REG_MAX_TAP
    assert solver["tap_steps"] == [taps.min(), taps.max()]
    assert solver["tap_steps"][0] <= 0 <= solver["tap_steps"][1]
    assert solver["band_pu"] == list(gsim.VOLTAGE_BAND)
    assert solver["in_band"] is True
    v = ds.load_dataset(out).arrays["v_true"]
    ranges = solver["v_range_pu"]
    assert min(lo for lo, _ in ranges.values()) == v.min()
    assert max(hi for _, hi in ranges.values()) == v.max()
    assert set(ranges) <= set(gsim.net.BUS_TYPES)


def test_generate_deterministic_outputs(tmp_path, capsys):
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub / "d.npz"
        rc, _, _ = run(["generate", "--seed", "5", "--horizon-minutes", "120",
                        "--out", str(out)], capsys)
        assert rc == 0
        manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
        hashes.append(sorted(manifest["outputs"].values()))
    assert hashes[0] == hashes[1]


def test_generate_bad_der_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["generate", "--seed", "1", "--der", "17",
                      "--out", str(tmp_path / "d.npz")])
    assert exc.value.code == 2


def test_generate_bad_feeder_count_reports_config(tmp_path, capsys):
    rc, _, err = run(["generate", "--seed", "1", "--feeders", "9",
                      "--out", str(tmp_path / "d.npz")], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")


def test_generate_out_of_range_voltage_reports_config(tmp_path, capsys,
                                                     monkeypatch):
    solve = gsim.run_timeseries

    def sagging(spec, scenario):
        run = solve(spec, scenario)
        run.v_mag[2, 4] = 0.3
        return run

    monkeypatch.setattr(gsim, "run_timeseries", sagging)
    rc, _, err = run(["generate", "--seed", "1", "--horizon-minutes", "60",
                      "--out", str(tmp_path / "d.npz")], capsys)
    assert rc == 1
    assert err.strip() == ("ERROR config: bus-phase 4: voltage 0.3 outside "
                           "(0.5, 1.5) at step 2")
    assert not (tmp_path / "d.npz").exists()


def test_close_ties_flag_changes_dataset(tmp_path, capsys):
    outs = {}
    for flag, name in (((), "radial"), (("--close-ties",), "closed")):
        out = tmp_path / name / "d.npz"
        rc, _, _ = run(["generate", "--seed", "5", "--horizon-minutes", "60",
                        *flag, "--out", str(out)], capsys)
        assert rc == 0
        outs[name] = json.loads(
            (tmp_path / name / "manifest.json").read_text())["outputs"]
    assert sorted(outs["radial"].values()) != sorted(outs["closed"].values())
    closed = ds.load_dataset(tmp_path / "closed" / "d.npz")
    assert closed.meta["scenarios"][0]["tie_closures"]


# -- train / finetune ------------------------------------------------------------


def test_train_writes_history_and_manifest(workspace):
    assert workspace["ckpt"].exists()
    model_dir = workspace["ckpt"].parent
    history = model_dir / "model.history.csv"
    assert history.exists()
    assert history.read_text().startswith("epoch,stage,p_obs")
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert str(workspace["data"]) in manifest["inputs"]
    assert manifest["seeds"] == [7]


def test_train_missing_dataset(tmp_path, capsys):
    rc, _, err = run(["train", "--data", str(tmp_path / "nope.npz"),
                      "--out", str(tmp_path / "m.npz")], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR data:")


def test_train_unknown_config_key(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"steps_per_epoch": 4, "momentum": 0.9}))
    rc, _, err = run(["train", "--data", str(workspace["data"]),
                      "--config", str(bad), "--out", str(tmp_path / "m.npz")],
                     capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")
    assert "momentum" in err


def test_train_invalid_config_value(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lam_max": -1.0}))
    rc, _, err = run(["train", "--data", str(workspace["data"]),
                      "--config", str(bad), "--out", str(tmp_path / "m.npz")],
                     capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")


@dataclass(frozen=True)
class EvaluateLevels:
    """An ``evaluate --levels`` value, a config case beside the train
    configs."""

    text: str


@pytest.mark.parametrize("config", [
    {"levels": 5}, 5, [80, 20], {"val_max_snapshots": 0},
    {"warmup_p_obs": 100},
    {"max_warmup_epochs": 0, "ramp_epochs": 0, "epochs_per_level": 0},
    {"steps_per_epoch": 0}, {"seed": "a"}, {"select_levels": []},
    {"plateau_eps": "x"}, {"levels": [True]}, {"lam_max": True},
    {"select_levels": [True, 5]}, {"seed": True}, {"plateau_window": True},
    {"steps_per_epoch": True}, {"val_max_snapshots": True},
    {"epochs_per_level": True}, {"max_warmup_epochs": False},
    {"ramp_epochs": False}, {"finetune_epochs": True},
    EvaluateLevels("20,20"), EvaluateLevels("20,20.0")],
    ids=["levels-not-a-list", "not-an-object", "a-list", "no-val-snapshot",
         "warmup-fully-observed", "no-epoch", "no-step", "seed-not-an-int",
         "no-selection-level", "eps-not-a-number", "level-a-bool",
         "weight-a-bool", "selection-level-a-bool", "seed-a-bool",
         "window-a-bool", "steps-a-bool", "val-snapshots-a-bool",
         "epochs-per-level-a-bool", "warmup-epochs-a-bool",
         "ramp-epochs-a-bool", "finetune-epochs-a-bool",
         "evaluate-level-repeated", "evaluate-level-repeated-as-float"])
def test_malformed_config_is_one_config_line(workspace, tmp_path, capsys,
                                             config):
    out = tmp_path / "m.npz"
    if isinstance(config, EvaluateLevels):
        argv = ["evaluate", "--study", "A",
                "--checkpoint", str(workspace["ckpt"]),
                "--data", str(workspace["data"]), "--levels", config.text,
                "--seeds", "2", "--out-dir", str(out)]
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        argv = ["train", "--data", str(workspace["data"]),
                "--config", str(bad), "--out", str(out)]
    rc, stdout, err = run(argv, capsys)
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("ERROR config:")
    assert not stdout and not out.exists()


def test_finetune_roundtrip(workspace, tmp_path, capsys):
    target = tmp_path / "target.npz"
    rc, _, _ = run(["generate", "--seed", "77", "--horizon-minutes", "360",
                    "--out", str(target)], capsys)
    assert rc == 0
    cfg = tmp_path / "ft.json"
    cfg.write_text(json.dumps({"steps_per_epoch": 6, "finetune_epochs": 2,
                               "levels": [20, 5], "val_max_snapshots": 4}))
    out = tmp_path / "tuned.npz"
    rc, _, _ = run(["finetune", "--checkpoint", str(workspace["ckpt"]),
                    "--data", str(target), "--config", str(cfg),
                    "--seed", "3", "--out", str(out)], capsys)
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "tuned.history.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "finetune"
    assert str(workspace["ckpt"]) in manifest["inputs"]


def test_finetune_bad_checkpoint(workspace, tmp_path, capsys):
    rc, _, err = run(["finetune", "--checkpoint", str(workspace["data"]),
                      "--data", str(workspace["data"]),
                      "--out", str(tmp_path / "m.npz")], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR checkpoint:")


def _malformed_checkpoint(workspace, tmp_path, edit):
    """The workspace checkpoint with ``edit`` applied to its arrays."""
    with np.load(workspace["ckpt"]) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    path = tmp_path / "bad.npz"
    ds.write_npz(path, arrays)
    return path


def _checkpoint_error(argv, capsys):
    rc, _, err = run(argv, capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR checkpoint:")
    assert ERROR_LINE.match(err.strip())
    return err


def _evaluate_argv(ckpt, workspace, tmp_path):
    return ["evaluate", "--study", "A", "--checkpoint", str(ckpt),
            "--data", str(workspace["data"]), "--out-dir", str(tmp_path)]


def _member_data_offset(path, info):
    """Offset in ``path`` of the first data byte of member ``info``: the
    30-byte local header, then its name and extra field."""
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
    return info.header_offset + 30 + name_len + extra_len


def _corrupt(src, dst, how):
    """A copy of the npz ``src`` at ``dst``, broken as ``how`` says."""
    if how == "empty":
        dst.write_bytes(b"")
    elif how == "truncated":
        data = src.read_bytes()
        dst.write_bytes(data[:len(data) // 2])
    else:
        if how == "deflated-flip":  # deflated, as earlier versions wrote
            with zipfile.ZipFile(src) as zin, \
                    zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
                for info in zin.infolist():
                    zout.writestr(info.filename, zin.read(info))
        else:
            shutil.copyfile(src, dst)
        # flip one byte of the largest member's data, which both loaders
        # read (the voltages, a weight matrix): mid-way through stored data
        # (a CRC mismatch), or the first byte of a deflate stream, its
        # block header (the stream no longer inflates)
        with zipfile.ZipFile(dst) as zf:
            info = max(zf.infolist(), key=lambda i: i.compress_size)
        at = 0 if how == "deflated-flip" else info.compress_size // 2
        data = bytearray(dst.read_bytes())
        data[_member_data_offset(dst, info) + at] ^= 0xFF
        dst.write_bytes(bytes(data))
    return dst


# each corruption and a word of the error it raises inside np.load
CORRUPTIONS = {"empty": "No data left", "truncated": "not a zip file",
               "flip": "Bad CRC-32", "deflated-flip": "decompressing"}


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_unreadable_dataset_is_a_data_error(workspace, tmp_path, capsys,
                                            how):
    bad = _corrupt(workspace["data"], tmp_path / "bad.npz", how)
    rc, _, err = run(["train", "--data", str(bad),
                      "--out", str(tmp_path / "m.npz")], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR data:")
    assert ERROR_LINE.match(err.strip())  # one line
    assert CORRUPTIONS[how] in err


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_unreadable_checkpoint_is_a_checkpoint_error(workspace, tmp_path,
                                                     capsys, how):
    bad = _corrupt(workspace["ckpt"], tmp_path / "bad.npz", how)
    err = _checkpoint_error(_evaluate_argv(bad, workspace, tmp_path), capsys)
    assert CORRUPTIONS[how] in err


def test_checkpoint_with_too_few_gate_rows(workspace, tmp_path, capsys):
    def drop_gates(arrays):
        arrays["tensor/eta"] = arrays["tensor/eta"][:1]

    ckpt = _malformed_checkpoint(workspace, tmp_path, drop_gates)
    err = _checkpoint_error(_evaluate_argv(ckpt, workspace, tmp_path), capsys)
    assert "eta" in err


def test_checkpoint_with_an_unknown_tensor(workspace, tmp_path, capsys):
    def add_extra(arrays):
        arrays["tensor/zzz.extra"] = np.ones(3)

    ckpt = _malformed_checkpoint(workspace, tmp_path, add_extra)
    for argv in (_evaluate_argv(ckpt, workspace, tmp_path),
                 ["finetune", "--checkpoint", str(ckpt),
                  "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "m.npz")]):
        assert "zzz.extra" in _checkpoint_error(argv, capsys)


def test_checkpoint_with_a_non_finite_value(workspace, tmp_path, capsys):
    def poison(arrays):
        arrays["tensor/decoder.W2"][0, 0] = np.nan

    ckpt = _malformed_checkpoint(workspace, tmp_path, poison)
    err = _checkpoint_error(_evaluate_argv(ckpt, workspace, tmp_path), capsys)
    assert "decoder.W2" in err and "non-finite" in err


@pytest.mark.parametrize("edit", [
    {"hidden_dim": "8"}, {"zzz_extra": 1}, {"n_layers": True},
    {"temperature": float("inf")}, {"beta_init": [1.0, 1.0, 0.5]}],
    ids=["int-as-string", "unknown-key", "int-as-bool", "non-finite-float",
         "short-beta"])
def test_checkpoint_with_a_malformed_config(workspace, tmp_path, capsys,
                                            edit):
    def rewrite(arrays):
        meta = json.loads(str(arrays["meta_json"][()]))
        meta["config"].update(edit)
        arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))

    ckpt = _malformed_checkpoint(workspace, tmp_path, rewrite)
    err = _checkpoint_error(_evaluate_argv(ckpt, workspace, tmp_path), capsys)
    assert next(iter(edit)) in err


@pytest.mark.parametrize("count", ["0", "-5"])
def test_finetune_non_positive_pretrain_snapshots(workspace, tmp_path,
                                                  capsys, count):
    out = tmp_path / "m.npz"
    rc, _, err = run(["finetune", "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--pretrain-snapshots", count, "--out", str(out)],
                     capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")
    assert "--pretrain-snapshots" in err
    assert not out.exists()


# -- evaluate --------------------------------------------------------------------


def test_study_b_refuses_two_sets_with_one_penetration(workspace, tmp_path,
                                                       capsys):
    rc, _, err = run(["evaluate", "--study", "B",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--data", str(workspace["data"]),
                      "--levels", "20", "--seeds", "1",
                      "--out-dir", str(tmp_path / "out")], capsys)
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.strip().startswith("ERROR config:")
    assert "20 %" in err
    assert not (tmp_path / "out").exists()


def test_evaluate_study_a(workspace, tmp_path, capsys):
    out_dir = tmp_path / "evalA"
    rc, out, _ = run(["evaluate", "--study", "A",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--levels", "20,5", "--seeds", "2",
                      "--out-dir", str(out_dir)], capsys)
    assert rc == 0
    report = (out_dir / "study_A.csv").read_text()
    assert report.startswith("scenario,substation,p_obs,model,RMSE,MAE,seed")
    assert "linear" in report and "gnn" in report
    assert (out_dir / "study_A_summary.txt").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 2
    assert "A-observability" in out


def test_study_a_assembles_only_the_ridge_sample(workspace, tmp_path, capsys,
                                                 monkeypatch):
    from gridvolt import evaluation as gev
    real_sample, real_snapshot = gev.baseline_sample, ds.SnapshotDataset.snapshot
    asked = []

    def spy(self, i):
        asked.append(int(i))
        return real_snapshot(self, i)

    monkeypatch.setattr(gev, "baseline_sample",
                        lambda window: real_sample(window, max_snapshots=10))
    monkeypatch.setattr(ds.SnapshotDataset, "snapshot", spy)
    rc, _, _ = run(["evaluate", "--study", "A",
                    "--checkpoint", str(workspace["ckpt"]),
                    "--data", str(workspace["data"]),
                    "--levels", "20", "--seeds", "1",
                    "--out-dir", str(tmp_path / "evalA")], capsys)
    assert rc == 0
    n = ds.load_dataset(workspace["data"]).n_snapshots
    before, _, test = ds.split_windows(n, 0.0, ds.TEST_FRACTION)
    sample = real_sample(before, max_snapshots=10)
    assert len(before) > len(sample) == 10
    assert sorted(asked) == sorted(list(sample) + list(test))


def test_integral_levels_parse_as_ints():
    levels = cli._parse_levels("20.0,2.5,1,50.")
    assert levels == (20, 2.5, 1, 50)
    assert [type(x) for x in levels] == [int, float, int, int]


def test_study_a_is_the_same_for_either_spelling_of_a_level(workspace,
                                                           tmp_path, capsys):
    texts = []
    for spelling in ("20.0,5", "20,5"):
        out_dir = tmp_path / spelling
        rc, _, _ = run(["evaluate", "--study", "A",
                        "--checkpoint", str(workspace["ckpt"]),
                        "--data", str(workspace["data"]),
                        "--levels", spelling, "--seeds", "2",
                        "--out-dir", str(out_dir)], capsys)
        assert rc == 0
        texts.append((out_dir / "study_A.csv").read_bytes())
    assert texts[0] == texts[1]


def test_train_is_the_same_for_either_spelling_of_a_level(workspace,
                                                         tmp_path, capsys):
    spellings = {
        "floats": {"levels": [80.0, 5.0]},
        "ints": {"levels": [80, 5], "warmup_p_obs": 80,
                 "select_levels": [5, 10, 20, 40, 60, 80]},
    }
    outputs = []
    for name, spelled in spellings.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "steps_per_epoch": 4, "max_warmup_epochs": 1, "ramp_epochs": 1,
            "val_max_snapshots": 4, **spelled}))
        ckpt = tmp_path / name / "model.npz"
        rc, _, _ = run(["train", "--data", str(workspace["data"]),
                        "--config", str(cfg), "--seed", "7",
                        "--out", str(ckpt)], capsys)
        assert rc == 0
        outputs.append((ckpt.read_bytes(),
                        ckpt.with_suffix(".history.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_evaluate_deterministic_report(workspace, tmp_path, capsys):
    texts = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        rc, _, _ = run(["evaluate", "--study", "A",
                        "--checkpoint", str(workspace["ckpt"]),
                        "--data", str(workspace["data"]),
                        "--levels", "5", "--seeds", "2",
                        "--out-dir", str(out_dir)], capsys)
        assert rc == 0
        texts.append((out_dir / "study_A.csv").read_bytes())
    assert texts[0] == texts[1]


@pytest.fixture(scope="module")
def study_sets(workspace):
    """Study B's 0 % DER set, of another substation (seed 32), and study
    C's closed-tie set of the workspace substation."""
    root = workspace["root"]
    sets = {"der0": root / "der0" / "sub.npz",
            "closed": root / "closed" / "sub.npz"}
    for name, flags in (("der0", ["--seed", "32", "--der", "0"]),
                        ("closed", ["--seed", "31", "--der", "20",
                                    "--close-ties"])):
        assert cli.dispatch(["generate", "--size", "tiny", "--feeders", "3",
                             "--horizon-minutes", "720", *flags,
                             "--out", str(sets[name])]) == 0
    return sets


# the (scenario, model) blocks of each study, in report order
STUDY_BLOCKS = {
    "B": [("B-der0", "gnn"), ("B-der20", "gnn")],
    "C": [("C-radial", "gnn"), ("C-tie-closed", "gnn")],
    "D": [("D-transfer", "gnn-zeroshot"), ("D-transfer", "gnn-finetuned")],
    "E": [("E-clean", "gnn-physics"), ("E-attacked", "gnn-physics"),
          ("E-clean", "gnn-nophysics"), ("E-attacked", "gnn-nophysics")],
}


@pytest.mark.parametrize("study", sorted(STUDY_BLOCKS))
def test_evaluate_study_blocks_and_determinism(workspace, study_sets,
                                               tmp_path, capsys, study):
    """Studies B-E run to completion through the CLI: their report holds
    each (scenario, model) block in order, one row per level and seed,
    under the substation of the set it was computed on, and two runs
    write the same bytes. B's blocks follow DER penetration, not --data
    order, and each carries its own set's substation. The workspace
    checkpoint stands in for the fine-tuned and the ablation
    checkpoints."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    flags, named = {
        "B": (["--data", data, "--data", str(study_sets["der0"])],
              [study_sets["der0"], workspace["data"]]),
        "C": (["--data", data, "--data-closed", str(study_sets["closed"])],
              [workspace["data"], study_sets["closed"]]),
        "D": (["--data", data, "--finetuned-checkpoint", ckpt],
              [workspace["data"]] * 2),
        "E": (["--data", data, "--ablation-checkpoint", ckpt],
              [workspace["data"]] * 4),
    }[study]
    blocks = STUDY_BLOCKS[study]
    outputs = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        rc, _, _ = run(["evaluate", "--study", study, "--checkpoint", ckpt,
                        *flags, "--levels", "20,5", "--seeds", "2",
                        "--out-dir", str(out_dir)], capsys)
        assert rc == 0
        outputs.append([(out_dir / f"study_{study}{suffix}").read_bytes()
                        for suffix in (".csv", "_summary.txt")])
    assert outputs[0] == outputs[1]

    rows = list(csv.DictReader(io.StringIO(outputs[0][0].decode())))
    assert len(rows) == 4 * len(blocks)
    for b, (block, path) in enumerate(zip(blocks, named, strict=True)):
        part = rows[4 * b:4 * b + 4]
        assert {(r["scenario"], r["model"]) for r in part} == {block}
        assert [r["p_obs"] for r in part] == ["20", "20", "5", "5"]
        substation = ds.load_dataset(path).meta["substation"]
        assert {r["substation"] for r in part} == {substation}
    if study == "B":
        assert len({r["substation"] for r in rows}) == 2


def test_evaluate_study_c_requires_closed_data(workspace, tmp_path, capsys):
    rc, _, err = run(["evaluate", "--study", "C",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--out-dir", str(tmp_path)], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")


def test_study_c_refuses_a_closed_set_of_another_substation(
        workspace, study_sets, tmp_path, capsys):
    """Study C compares one substation with its ties open and closed: a
    closed set of seed 32 beside the seed-31 set is a config error, not a
    report whose closed block carries the seed-31 name."""
    rc, _, err = run(["evaluate", "--study", "C",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--data-closed", str(study_sets["der0"]),
                      "--levels", "20", "--out-dir", str(tmp_path)], capsys)
    assert rc == 1
    assert ERROR_LINE.match(err.strip())
    assert err.strip().startswith("ERROR config:")
    assert "s32-tiny-f3" in err and "s31-tiny-f3" in err
    assert not (tmp_path / "study_C.csv").exists()


def test_evaluate_missing_checkpoint(workspace, tmp_path, capsys):
    rc, _, err = run(["evaluate", "--study", "A",
                      "--checkpoint", str(tmp_path / "none.npz"),
                      "--data", str(workspace["data"]),
                      "--out-dir", str(tmp_path)], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR checkpoint:")
    assert ERROR_LINE.match(err.strip())


def test_evaluate_bad_attack_penetration(workspace, tmp_path, capsys):
    rc, _, err = run(["evaluate", "--study", "E",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--ablation-checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--attack-penetration", "0.5",
                      "--out-dir", str(tmp_path)], capsys)
    assert rc == 1
    assert err.strip().startswith("ERROR config:")


@pytest.mark.parametrize("study", ["A", "B"])
@pytest.mark.parametrize("flags", [["--levels", "0"], ["--levels", "100"],
                                   ["--seeds", "0"],
                                   ["--eval-fraction", "1.5"]])
def test_evaluate_bad_flags_are_config_errors(workspace, tmp_path, capsys,
                                              study, flags):
    rc, _, err = run(["evaluate", "--study", study,
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]), *flags,
                      "--out-dir", str(tmp_path / "out")], capsys)
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.strip().startswith("ERROR config:")
    assert not (tmp_path / "out").exists()


def test_evaluate_unknown_study_is_usage_error(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["evaluate", "--study", "Z",
                      "--checkpoint", str(workspace["ckpt"]),
                      "--data", str(workspace["data"]),
                      "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


# -- plumbing --------------------------------------------------------------------


def test_run_dir_env_override(tmp_path, capsys, monkeypatch):
    run_dir = tmp_path / "runs"
    monkeypatch.setenv("GRIDVOLT_RUN_DIR", str(run_dir))
    out = tmp_path / "data" / "d.npz"
    rc, _, _ = run(["generate", "--seed", "2", "--horizon-minutes", "60",
                    "--out", str(out)], capsys)
    assert rc == 0
    assert (run_dir / "manifest.json").exists()
    assert not (tmp_path / "data" / "manifest.json").exists()


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16,
                                  (1 << 16) + 1, 3 * (1 << 16) + 17])
def test_sha256_equals_hashing_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.dispatch([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_error_lines_are_machine_parseable(tmp_path, capsys):
    cases = [
        ["train", "--data", str(tmp_path / "x.npz"),
         "--out", str(tmp_path / "m.npz")],
        ["generate", "--seed", "1", "--feeders", "1",
         "--out", str(tmp_path / "d.npz")],
    ]
    for argv in cases:
        rc, _, err = run(argv, capsys)
        assert rc == 1
        assert ERROR_LINE.match(err.strip().splitlines()[-1])


def test_gradcheck_command(tmp_path, capsys):
    out = tmp_path / "grad.txt"
    rc, stdout, _ = run(["gradcheck", "--seed", "0", "--out", str(out)],
                        capsys)
    assert rc == 0
    assert "overall: pass" in stdout
    assert "overall: pass" in out.read_text()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "gradcheck"
