import re
import subprocess
import sys
from pathlib import Path

import hrvwp

SRC = str(Path(hrvwp.__file__).resolve().parents[1])


def test_cli_import_loads_no_scipy():
    # scipy.interpolate alone took about 0.65 s of every CLI start
    code = ("import sys; import hrvwp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_public_names_are_the_readme_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`hrvwp` exports these names: (.*?)\.\n", readme, re.DOTALL)
    assert listed, "README names no public API"
    assert hrvwp.__all__ == re.findall(r"`(\w+)`", listed.group(1))
    assert all(hasattr(hrvwp, name) for name in hrvwp.__all__)
