import ctypes
import platform
import types

import pytest

from hrvwp.cli import main
from conftest import SET_PAGES, loop_faults, no_libc, synthetic_rr


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
