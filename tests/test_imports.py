import re
import subprocess
import sys
from pathlib import Path

import hrvwp
from hrvwp.cli import build_parser

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
