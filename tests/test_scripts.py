import importlib.util
from pathlib import Path

from hrvwp import run_pipeline

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_synthetic_dataset_writes_a_runnable_manifest(tmp_path, monkeypatch, capsys):
    script = load_script("make_synthetic_dataset")
    monkeypatch.setattr("sys.argv", ["make_synthetic_dataset.py", "--out", str(tmp_path),
                                     "--per-group", "2", "--intervals", "400"])
    assert script.main() == 0
    assert f"manifest: {tmp_path / 'manifest.csv'}" in capsys.readouterr().out

    report = run_pipeline(tmp_path / "manifest.csv")
    assert len(report.recordings) == 6
    assert report.all_ok
    assert all(r.n_intervals == 400 for r in report.recordings)
