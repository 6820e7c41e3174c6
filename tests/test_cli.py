import ctypes
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

from hrvwp.cli import main
from conftest import synthetic_rr

SRC = Path(__file__).resolve().parents[1] / "src"

# Ten times over, hold six signal-length float64 arrays (a 24 h recording at
# 4 Hz, 2.7 MB each, under numpy's 4 MiB hugepage size), as the spline does,
# then free them all; print the minor page faults of the loop. Freeing one
# array at a time would not show the difference: glibc's dynamic threshold
# already reuses a single freed block.
FAULT_LOOP = """
import resource
import numpy as np

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

start = faults()
for _ in range(10):
    arrays = [np.ones(341_504) for _ in range(6)]
    del arrays
print(faults() - start)
"""

SET_PAGES = 6 * 341_504 * 8 // 4096


def loop_faults(setup: str) -> int:
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{setup}\n{FAULT_LOOP}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return int(done.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
def test_cli_keeps_freed_buffers_in_the_heap(tmp_path):
    # main applies the setting once its arguments parse, before the manifest
    # is read: a missing manifest still runs it. The first set's first touch
    # is then the only fault of the loop
    missing = tmp_path / "missing.csv"
    applied = loop_faults(
        "from hrvwp.cli import main\n"
        f"assert main(['--manifest', {str(missing)!r}, '--out', {str(tmp_path)!r}]) == 2")
    assert applied < 1.5 * SET_PAGES
    # importing the library leaves the allocator alone: every set is re-faulted
    assert loop_faults("import hrvwp.cli") > 5 * SET_PAGES


def no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_libc, lambda name: types.SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_cli_runs_without_mallopt(write_dataset, tmp_path, monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    manifest = write_dataset([("only", "Control", synthetic_rr(300, seed=12))])
    # one recording: it is processed, and the ANOVA is skipped
    assert main(["--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 1
    assert "1 ok, 0 failed" in capsys.readouterr().out
    assert (tmp_path / "out" / "report.json").is_file()


def test_cli_sets_the_documented_thresholds(tmp_path, monkeypatch):
    # the README's 32 MiB mmap threshold and 64 MiB trim threshold, by glibc's parameter numbers
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=lambda *args: calls.append(args)))
    assert main(["--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == 2
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
