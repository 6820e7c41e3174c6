from hrvwp import run_pipeline

from conftest import load_script


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
