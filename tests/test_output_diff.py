"""scripts/output_diff.py on two small hand-made output directories."""

import importlib.util
import json
import zipfile
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_diff.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_diff", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(root, weights, rmse, summary):
    root.mkdir()
    np.savez(root / "model.npz", w=np.array(weights), tag=np.array("v1"))
    (root / "study.csv").write_text(f"model,level,RMSE\ngnn,5,{rmse}\n")
    (root / "summary.txt").write_text(summary)
    (root / "manifest.json").write_text(str(rmse))


def test_reports_max_abs_difference_per_array_column_and_text(
        tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, [1.0, 2.0, 3.0], 0.00475, "gnn 5% 0.00475\n")
    _write(b, [1.0, 2.5, 3.0], 0.00477, "gnn 5% 0.00475\n")
    (b / "extra.csv").write_text("x\n1\n")
    monkeypatch.setattr("sys.argv", ["output_diff.py", str(a), str(b)])
    assert _load().main() == 0
    out = capsys.readouterr().out.splitlines()
    assert "extra.csv only in b" in out
    assert "model.npz:w max|Δ| 5.000e-01" in out
    assert "model.npz:tag identical" in out
    assert "study.csv[RMSE] max|Δ| 2.000e-05 over 1 cells" in out
    assert "study.csv[level] max|Δ| 0.000e+00 over 1 cells" in out
    assert "summary.txt identical" in out
    assert not any(line.startswith("manifest.json") for line in out)


def test_text_numbers_and_shapes(tmp_path):
    mod = _load()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("rmse 0.5 at level 20\n")
    b.write_text("rmse 0.25 at level 20\n")
    assert mod.diff_file("s.txt", a, b) == [
        "s.txt max|Δ| 2.500e-01 over 2 numbers"]
    b.write_text("RMSE 0.5 at level 20\n")
    assert mod.diff_file("s.txt", a, b) == [
        "s.txt max|Δ| 0.000e+00 over 2 numbers, text between them differs"]
    np.savez(tmp_path / "x.npz", w=np.zeros(2))
    np.savez(tmp_path / "y.npz", w=np.zeros(3))
    assert mod.diff_file("m.npz", tmp_path / "x.npz", tmp_path / "y.npz") == [
        "m.npz:w differs (float64[2] vs float64[3])"]


def test_npz_with_equal_arrays_in_another_encoding_is_one_line(tmp_path):
    mod = _load()
    a, b, c = (tmp_path / n for n in ("a.npz", "b.npz", "c.npz"))
    arrays = {"w": np.arange(6.0).reshape(2, 3), "tag": np.array("v1")}
    np.savez(a, **arrays)
    np.savez_compressed(b, **arrays)
    with zipfile.ZipFile(a) as za, zipfile.ZipFile(b) as zb:
        assert {i.compress_type for i in za.infolist()} == {
            zipfile.ZIP_STORED}
        assert {i.compress_type for i in zb.infolist()} == {
            zipfile.ZIP_DEFLATED}
    assert mod.diff_file("m.npz", a, b) == [
        "m.npz same arrays, container bytes differ"]
    # one value's bytes differ (-0.0 == 0.0, so max|Δ| alone reads 0)
    np.savez_compressed(c, w=np.where(arrays["w"] == 0, -0.0, arrays["w"]),
                        tag=arrays["tag"])
    assert mod.diff_file("m.npz", a, c) == [
        "m.npz:tag identical", "m.npz:w max|Δ| 0.000e+00"]


def test_json_with_equal_content_in_another_layout_is_one_line(tmp_path):
    mod = _load()
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    content = {"seed": 7, "buses": [{"v": -0.0, "on": True}], "ties": []}
    a.write_text(json.dumps(content, indent=2, sort_keys=True))
    b.write_text(json.dumps(content))
    assert mod.diff_file("s.spec.json", a, b) == [
        "s.spec.json same JSON, text differs"]
    # 0.0 equals -0.0 as a number but is other content
    c.write_text(json.dumps({**content, "buses": [{"v": 0.0, "on": True}]},
                            indent=2, sort_keys=True))
    assert mod.diff_file("s.spec.json", a, c) == [
        "s.spec.json max|Δ| 0.000e+00 over 2 numbers"]
