import ast
import importlib
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrvwp
from hrvwp import emit_report, run_pipeline
from hrvwp.cli import build_parser
from hrvwp.features import FeatureVector
from conftest import synthetic_rr

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(hrvwp.__file__).resolve().parents[1])
MODULES = sorted(Path(hrvwp.__file__).parent.glob("[!_]*.py"))


def test_cli_import_loads_no_scipy():
    # scipy.interpolate alone took about 0.65 s of every CLI start
    code = ("import sys; import hrvwp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_module_entry_point_runs(monkeypatch, capsys):
    # python -m hrvwp runs the same parser as the console script
    monkeypatch.setattr(sys, "argv", ["hrvwp", "--help"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("hrvwp", run_name="__main__")
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "--manifest" in out and "--out" in out


# numpy hands these to BLAS, whose kernel OpenBLAS picks from the CPU at run
# time, so a result would round differently from one CPU to the next; einsum's
# `optimize` routes through tensordot to BLAS too. The one LAPACK call left is
# np.roots in daubechies_filters: it runs once, at import, to design TAPS, and
# every output is the same bytes under the Haswell and Prescott kernels.
BLAS_ATTRIBUTES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def test_no_blas_call():
    found = []
    for path in sorted(Path(hrvwp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(getattr(node, "op", None), ast.MatMult)  # a @ b and a @= b
                    or isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES
                    or isinstance(node, ast.keyword) and node.arg == "optimize"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_public_names_are_the_readme_list():
    readme = README.read_text(encoding="utf-8")
    listed = re.search(r"`hrvwp` exports these names: (.*?)\.\n", readme, re.DOTALL)
    assert listed, "README names no public API"
    assert hrvwp.__all__ == re.findall(r"`(\w+)`", listed.group(1))
    assert all(hasattr(hrvwp, name) for name in hrvwp.__all__)


def test_module_exports_exist():
    # a name left in __all__ after its definition went fails only a star import
    for module in ["hrvwp", *(f"hrvwp.{path.stem}" for path in MODULES)]:
        mod = importlib.import_module(module)
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], module


def test_cli_flags_are_the_readme_table():
    # the flag table of the "Command line" section, up to the next section
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(--[\w-]+)", section, re.MULTILINE)
    options = [opt for action in build_parser()._actions if action.dest != "help"
               for opt in action.option_strings]
    assert documented == options


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # the block reads tachogram.txt from the working directory
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    t = np.arange(1024) / 4.0
    samples = 800.0 + 40.0 * np.sin(2 * np.pi * 0.1 * t) + 25.0 * np.sin(2 * np.pi * 0.3 * t)
    np.savetxt(tmp_path / "tachogram.txt", samples)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    features, bands = namespace["features"], namespace["bands"]
    assert isinstance(features, FeatureVector)
    assert bands["LF"].leaves == (1, 2, 3, 4) and bands["HF"].leaves == tuple(range(5, 13))
    assert features.e_lf > 0.0 and features.e_hf > 0.0


def test_readme_band_table_runs(write_dataset, tmp_path, monkeypatch, capsys):
    # the block reads the output directory "results" under the working directory
    section = README.read_text(encoding="utf-8").split("### Outputs", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    rr = synthetic_rr(300, seed=30)
    rr[150:153] += 300.0  # a burst gives both bands significant coefficients
    report = run_pipeline(write_dataset([("spike", "Control", rr)]))
    emit_report(report, tmp_path / "results")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    rows = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    (rec,) = report.recordings
    for band, nodes in zip(rec.bands, [set(range(1, 5)), set(range(5, 13))]):
        table = [row[1:] for row in rows if row[0] == band.band]
        assert len(table) == band.n and band.n_significant > 0
        assert {int(node) for node, *_ in table} == nodes == set(band.leaves)
        leaf_len = band.n // len(band.leaves)
        assert [(int(node), int(offset)) for node, offset, *_ in table] == [
            (band.leaves[i // leaf_len], i % leaf_len) for i in range(band.n)]
        values = np.array([float(value) for _, _, value, _ in table])
        assert np.array_equal(values, band.values)
        significant = [i for i, row in enumerate(table) if row[3] == "significant"]
        assert significant == band.significant.tolist()
        assert significant == np.flatnonzero(np.abs(values) > band.lam).tolist()
        assert {row[3] for row in table} == {"significant", "background"}
