import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import hrvwp
from hrvwp.cli import build_parser
from hrvwp.features import FeatureVector

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(hrvwp.__file__).resolve().parents[1])


def test_cli_import_loads_no_scipy():
    # scipy.interpolate alone took about 0.65 s of every CLI start
    code = ("import sys; import hrvwp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_public_names_are_the_readme_list():
    readme = README.read_text(encoding="utf-8")
    listed = re.search(r"`hrvwp` exports these names: (.*?)\.\n", readme, re.DOTALL)
    assert listed, "README names no public API"
    assert hrvwp.__all__ == re.findall(r"`(\w+)`", listed.group(1))
    assert all(hasattr(hrvwp, name) for name in hrvwp.__all__)


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
