import importlib.util
from pathlib import Path

from conftest import synthetic_rr

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_mad_sources_prints_one_row_per_band(write_dataset, monkeypatch, capsys):
    manifest = write_dataset([("a0", "Control", synthetic_rr(300, seed=40)),
                              ("b0", "VT", synthetic_rr(300, seed=41))])
    script = load_script("compare_mad_sources")
    monkeypatch.setattr("sys.argv", ["compare_mad_sources.py", "--manifest", str(manifest)])
    assert script.main() == 0

    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["subject", "band", "h(band)", "h(lvl1)", "lam(band)",
                              "lam(lvl1)", "sig(band)", "sig(lvl1)"]
    assert set(rule) == {"-"}
    assert [row.split()[:2] for row in rows] == [
        ["a0", "LF"], ["a0", "HF"], ["b0", "LF"], ["b0", "HF"]]
    for row in rows:
        h_band, h_lvl1, lam_band, lam_lvl1 = map(float, row.split()[2:6])
        assert h_band > 0.0 and h_lvl1 > 0.0
        assert lam_band > 0.0 and lam_lvl1 > 0.0
        assert all(count.isdigit() for count in row.split()[6:])
