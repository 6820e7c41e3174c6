import ast
import json
import os
import signal
import subprocess
import sys
import time
import types

from hrvwp import run_pipeline

from conftest import SCRIPTS, load_script


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


SAMPLE = '''"""A module docstring."""
__all__ = ["f"]


def f(xs, s):
    """A function docstring."""
    if len(xs) > 1 and s.strip():
        return xs[1:len(xs)], max(xs[0], 2.5)
    raise ValueError(f"bad {s!r}: need 2")
'''


def outermost_changes(a, b):
    """The outermost nodes of tree a that differ from tree b."""
    if type(a) is not type(b) or any(
            getattr(a, f) != getattr(b, f) for f in a._fields
            if not isinstance(getattr(a, f), (ast.AST, list))):
        return [a]
    changes = []
    for f in a._fields:
        x, y = getattr(a, f), getattr(b, f)
        if isinstance(x, list) and len(x) != len(y):
            return [a]
        for p, q in zip(x, y) if isinstance(x, list) else [(x, y)]:
            changes += outermost_changes(p, q) if isinstance(p, ast.AST) else [a] * (p != q)
    return changes


def test_mutation_catalogue_of_a_sample_module():
    found = load_script("mutation_run").mutants(SAMPLE, "sample.py")
    assert [(m["line"], m["kind"], m["detail"]) for m in found] == [
        (7, "statement", "`if len(xs) > 1 and s.strip(): return xs[1:len(xs)], max(xs[0`: -> pass"),
        (7, "boolop", "`len(xs) > 1 and s.strip()`: drop `len(xs) > 1`"),
        (7, "boolop", "`len(xs) > 1 and s.strip()`: drop `s.strip()`"),
        (7, "compare", "`len(xs) > 1`: > -> >="),
        (7, "constant", "`1`: 1 -> 2"),
        (7, "constant", "`1`: 1 -> 0"),
        (7, "strip", "`s.strip()`: removed"),
        (8, "statement", "`return xs[1:len(xs)], max(xs[0], 2.5)`: -> pass"),
        (8, "slice", "`len(xs)`: + 1"),
        (8, "slice", "`len(xs)`: - 1"),
        (8, "constant", "`1`: 1 -> 2"),
        (8, "constant", "`1`: 1 -> 0"),
        (8, "swap", "`max(xs[0], 2.5)`: arguments swapped"),
        (8, "constant", "`0`: 0 -> 1"),
        (8, "constant", "`0`: 0 -> -1"),
        (8, "constant", "`2.5`: 2.5 -> 2.5000002500000003"),
        (9, "statement", '`raise ValueError(f"bad {s!r}: need 2")`: -> pass'),
    ]
    assert len({m["key"] for m in found}) == len(found)
    assert {m["function"] for m in found} == {"f"}
    source = ast.parse(SAMPLE)
    for m in found:
        changes = outermost_changes(source, ast.parse(m["text"]))
        if m["kind"] == "swap":  # the call's two arguments, in place
            assert [type(node) for node in changes] == [ast.Subscript, ast.Constant]
        else:
            assert len(changes) == 1, m["key"]


TEST_X = """import os, pathlib, time


def test_ok():
    pass


def test_bad():
    assert False


def test_slow():
    pathlib.Path("pid").write_text(str(os.getpid()))
    time.sleep(60)
"""

# loads the runner by path and runs it on the directory named by its arguments;
# hypothesis is imported first, as the runner's main does, so that each forked
# session starts with it loaded
RUN = """
import hypothesis, importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("mutation_run", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
copy = pathlib.Path(sys.argv[2])
print(json.dumps([script.run(copy, 60, ["test_x.py::test_ok"])[:2],
                  script.run(copy, 60, ["test_x.py::test_ok", "test_x.py::test_bad",
                                        "test_x.py::test_slow"])[:2],
                  script.run(copy, 0.3, ["test_x.py::test_slow"])[:2]]))
"""


def test_mutation_run_outcomes(tmp_path):
    # a fresh interpreter: pytest.main in a child forked from this session collects nothing
    (tmp_path / "test_x.py").write_text(TEST_X, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", RUN, str(SCRIPTS / "mutation_run.py"),
                           str(tmp_path)], capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(done.stdout) == [
        ["survived", None], ["killed", "test_x.py::test_bad"], ["timeout", None]]


# runs one slow session under the runner's SIGTERM handler, as main installs it
TERM = """
import importlib.util, pathlib, signal, sys
spec = importlib.util.spec_from_file_location("mutation_run", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
signal.signal(signal.SIGTERM, script.terminate)
script.run(pathlib.Path(sys.argv[2]), 60, ["test_x.py::test_slow"])
"""


def test_mutation_run_sigterm_ends_the_session(tmp_path):
    (tmp_path / "test_x.py").write_text(TEST_X, encoding="utf-8")
    runner = subprocess.Popen([sys.executable, "-c", TERM, str(SCRIPTS / "mutation_run.py"),
                               str(tmp_path)])
    pid_file, deadline = tmp_path / "pid", time.monotonic() + 30
    while not (pid_file.exists() and pid_file.read_text()):
        if runner.poll() is not None or time.monotonic() > deadline:
            runner.kill()
            raise AssertionError(f"the session never started its test ({runner.poll()})")
        time.sleep(0.02)
    runner.send_signal(signal.SIGTERM)
    assert runner.wait(timeout=10) == 143
    pid, deadline = int(pid_file.read_text()), time.monotonic() + 1
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    raise AssertionError(f"the session's process {pid} outlived the runner")


# runs main with run replaced by a stub: the traced clean run records no calls,
# and every mutant is killed; prints main's status, the stub's calls (traced or
# not) and what the temporary directory and --out hold after each main. The
# heavy imports main makes for the forked sessions are refused (a second saved)
MAIN = """
import importlib.util, json, pathlib, sys, tempfile
sys.modules.update(dict.fromkeys(["numpy", "scipy.stats", "scipy.integrate", "hypothesis"]))
spec = importlib.util.spec_from_file_location("mutation_run", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
calls = []

def run(copy, timeout, tests=("tests",), trace=None):
    calls.append(trace is not None)
    if trace:
        trace.write_text(json.dumps({"calls": {}, "fixtures": {}, "spawn": []}))
        return "survived", None, 1.0
    return "killed", "test_x.py::test_bad", 0.0

script.run = run
tempfile.tempdir, out = sys.argv[2], pathlib.Path(sys.argv[3])
none = script.main(["--out", str(out), "--only", "no such key"])
result = [none, calls[:], sorted(p.name for p in pathlib.Path(sys.argv[2]).iterdir())]
out.write_text(json.dumps({"key": "stale", "outcome": "killed"}) + "\\n")
status = script.main(["--out", str(out), "--only", "pipeline.py::load_manifest"])
print(json.dumps(result + [status, calls, out.read_text().splitlines()]))
"""


def test_mutation_run_main_writes_only_this_runs_records(tmp_path):
    temp, out = tmp_path / "temp", tmp_path / "out.jsonl"
    temp.mkdir()
    done = subprocess.run([sys.executable, "-c", MAIN, str(SCRIPTS / "mutation_run.py"),
                           str(temp), str(out)], capture_output=True, text=True, check=True,
                          timeout=60)
    none, none_calls, none_temp, status, calls, lines = json.loads(done.stdout.splitlines()[-1])
    assert (none, none_calls, none_temp) == (1, [], [])
    expected = [m["key"] for _, m in load_script("mutation_run").catalogue(SCRIPTS.parent)
                if "pipeline.py::load_manifest" in m["key"]]
    records = [json.loads(line) for line in lines]
    assert status == 0
    assert calls == [True] + [False] * len(expected)
    assert [r["key"] for r in records] == expected
    assert {(r["outcome"], r["killer"]) for r in records} == {("killed", "test_x.py::test_bad")}


def test_mutation_calls_record_only_spawns_that_name_src(tmp_path):
    # a process whose args, cwd or env name the copy's src can import its hrvwp;
    # one that runs the runner on a throwaway directory cannot, so no mutant needs it
    src = str(tmp_path / "src")
    calls = load_script("mutation_run").Calls(src + os.sep)

    def popen(where, args, cwd=None, env=None):
        calls.where = where
        code = types.SimpleNamespace(co_filename=subprocess.__file__, co_qualname="Popen.__init__")
        calls.trace(types.SimpleNamespace(f_code=code, f_locals=dict(args=args, cwd=cwd, env=env)),
                    "call", None)

    popen("test_args", [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})"])
    popen("test_args", [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})"])
    popen("test_cwd", [sys.executable, "-m", "hrvwp", "--help"], cwd=src)
    popen("test_env", [sys.executable, "-m", "hrvwp"], env={"PYTHONPATH": src})
    popen("test_runner", [sys.executable, "-c", RUN, str(SCRIPTS / "mutation_run.py"),
                          str(tmp_path)])
    popen("test_runner", [sys.executable, "-c", TERM], cwd=tmp_path, env={"HOME": str(tmp_path)})
    assert calls.spawn == ["test_args", "test_cwd", "test_env"]
    assert calls.calls == {}
