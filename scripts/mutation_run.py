#!/usr/bin/env python3
"""Mutation run: which tier-1 tests hold src/hrvwp.

    python scripts/mutation_run.py --out pass.jsonl
    python scripts/mutation_run.py --out part.jsonl --only load_manifest --only _analyze

Each mutant of a fixed catalogue changes one node of one src/hrvwp module:
a flipped comparison (< and <=, > and >=, == and !=, is and is not, in and
not in), a slice bound or an integer constant shifted by +-1, a float
constant times 1 + 1e-7, one operand of an `and`/`or` dropped, the two
positional arguments of a call swapped, a `.strip()` removed, or a
statement in a function body replaced by `pass`. Docstrings, `__all__`,
f-strings and exception messages are left alone. With --only, given once or
more, only the mutants whose key contains one of its values run.

The run copies the checkout's src, tests, scripts, README.md, pyproject.toml
and perfbench/oracle.py to a temporary directory and runs tier-1 there once,
which must pass, recording which tests call each function. Then it applies
one mutant at a time by replacing that node's source text and runs
`pytest -x` with one hypothesis seed on the tests that can see the mutant
(see selection), in tier-1's order, so the first failing test is the one a
whole run would report. This process imports the tests' heavy dependencies
once and forks each pytest session from itself: one at a time, each in its
own session, with one BLAS thread, under an address-space limit and a
timeout; its whole process group is killed when it ends, on Ctrl-C and on
SIGTERM (which also removes the copy). --out is overwritten with one JSON
line per mutant: key, site, outcome (killed / survived / timeout), first
failing test, seconds and the number of tests run. The checkout itself is
never written. The exit status is 0 when at least one mutant ran and every
one was killed, else 1 (also before any run when --only selects none).
Needs Python 3.11 or later: Calls reads co_qualname.
"""

import argparse
import ast
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml", "perfbench/oracle.py")
# main imports hypothesis before pytest registers it as a plugin, which pytest
# reports with an assertion-rewrite warning; that warning alone is ignored
PYTEST_ARGS = ["-x", "-q", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "-W", "ignore::pytest.PytestAssertRewriteWarning"]
ADDRESS_SPACE = 3 << 30
FLIP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
        ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in", ast.NotIn: "in"}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in"}


def mutants(source: str, name: str = "") -> list[dict]:
    """Every catalogue mutant of a module's source, in source order.

    Each is a dict of key (stable under edits to other lines), line,
    kind, detail, function (the enclosing function whose callers can see the
    mutant; None at module or class level and in a cached function) and the
    mutated source text.
    """
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found, seen, functions = [], {}, set()

    def span(node):  # byte offsets: ast columns count UTF-8 bytes
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    def seg(node):
        a, b = span(node)
        return data[a:b].decode()

    def add(node, scope, kind, change, text):
        a, b = span(node)
        shown = " ".join(seg(node).split())
        detail = f"`{shown[:60]}`: {change}"
        line = data[starts[node.lineno - 1]:starts[node.lineno]].decode().strip()
        key = f"{name}::{scope}::{kind}::{detail}::{line}"
        seen[key] = seen.get(key, 0) + 1
        found.append(dict(key=f"{key}#{seen[key]}", line=node.lineno, kind=kind, detail=detail,
                          function=scope if scope in functions else None,
                          text=(data[:a] + text.encode() + data[b:]).decode()))

    def body(stmts, scope, in_function):
        for i, stmt in enumerate(stmts):
            if i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue  # docstring
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                continue
            if in_function and not isinstance(
                    stmt, (ast.Pass, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                add(stmt, scope, "statement", "-> pass", "pass")
            visit(stmt, scope, in_function)

    def visit(node, scope, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            for sub in node.decorator_list:
                visit(sub, scope, in_function)
            if not isinstance(node, ast.ClassDef):
                for default in node.args.defaults + node.args.kw_defaults:
                    if default is not None:
                        visit(default, scope, in_function)
                if not any("cache" in ast.unparse(d) for d in node.decorator_list):
                    functions.add(inner)  # a cached result outlives the test that made it
            body(node.body, inner, not isinstance(node, ast.ClassDef))
            return
        if isinstance(node, (ast.JoinedStr, ast.arg)):
            return
        if isinstance(node, ast.Raise):
            return  # the exception and its message
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                visit(node.value, scope, in_function)
            return
        expression(node, scope)
        for field, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                body(value, scope, in_function)
            elif field != "returns":
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, scope, in_function)

    def expression(node, scope):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                parts = [seg(node.left)]
                for j, (other, right) in enumerate(zip(node.ops, node.comparators)):
                    parts += [FLIP[type(other)] if j == k else SYMBOL[type(other)], seg(right)]
                add(node, scope, "compare", f"{SYMBOL[type(op)]} -> {FLIP[type(op)]}",
                    "(" + " ".join(parts) + ")")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if isinstance(node.value, int):
                for step in (1, -1):
                    add(node, scope, "constant", f"{node.value} -> {node.value + step}",
                        f"({node.value + step})")
            elif node.value * (1 + 1e-7) != node.value:
                nudged = node.value * (1 + 1e-7)
                add(node, scope, "constant", f"{node.value!r} -> {nudged!r}", f"({nudged!r})")
        elif isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper):
                if bound is None or isinstance(bound, ast.Constant) or (
                        isinstance(bound, ast.UnaryOp) and isinstance(bound.operand, ast.Constant)):
                    continue  # a constant bound is shifted as a constant
                for step in ("+ 1", "- 1"):
                    add(bound, scope, "slice", step, f"({seg(bound)} {step})")
        elif isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            for k, dropped in enumerate(node.values):
                kept = [seg(v) for j, v in enumerate(node.values) if j != k]
                add(node, scope, "boolop", f"drop `{' '.join(seg(dropped).split())[:40]}`",
                    "(" + f" {op} ".join(kept) + ")")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "strip" \
                    and not node.args and not node.keywords:
                add(node, scope, "strip", "removed", f"({seg(node.func.value)})")
            elif len(node.args) == 2 and not any(isinstance(a, ast.Starred) for a in node.args) \
                    and seg(node.args[0]) != seg(node.args[1]):
                args = [seg(node.args[1]), seg(node.args[0]), *map(seg, node.keywords)]
                add(node, scope, "swap", "arguments swapped",
                    f"{seg(node.func)}({', '.join(args)})")

    body(ast.parse(source).body, "<module>", False)
    return found


def catalogue(root: Path) -> list[tuple[Path, dict]]:
    """(module path relative to root, mutant) for every src/hrvwp module."""
    return [(path.relative_to(root), m)
            for path in sorted((root / "src" / "hrvwp").glob("*.py"))
            for m in mutants(path.read_text(encoding="utf-8"), path.name)]


class Calls:
    """A pytest plugin recording the callers of each function under src: a test,
    "fixture NAME" for a fixture shared by tests, or None (collection, imports).
    spawn lists the tests that start a process whose args, cwd or env name src:
    the process can import that hrvwp, and its calls there go unseen."""

    def __init__(self, src):
        self.src, self.where, self.calls, self.fixtures, self.spawn = src, None, {}, {}, []

    def trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self.src):
            where = self.calls.setdefault(code.co_filename[len(self.src):] + "::"
                                          + code.co_qualname, [])
            if self.where not in where:
                where.append(self.where)
        elif (code.co_qualname == "Popen.__init__" and self.where not in self.spawn
              and any(self.src.rstrip(os.sep) in str(frame.f_locals.get(name))
                      for name in ("args", "cwd", "env"))):
            self.spawn.append(self.where)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.where, self.fixtures[item.nodeid] = item.nodeid, item.fixturenames
        yield
        self.where = None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef):
        outer = self.where
        if fixturedef.scope != "function":
            self.where = "fixture " + fixturedef.argname
        yield
        self.where = outer


def run(copy: Path, timeout: float, tests=("tests",), trace=None) -> tuple[str, str | None, float]:
    """(outcome, first failing test, seconds) of one pytest session on tests (node ids, in order).

    A forked child runs the session in copy, in its own session, under the
    address-space limit, writing its output to copy/.pytest-output; the child's
    process group is killed when it ends or times out. With a trace file, the
    child records which tests call each src function (Calls) and writes it there.
    """
    for stale in (copy / "src" / "hrvwp" / "__pycache__", copy / ".hypothesis"):
        shutil.rmtree(stale, ignore_errors=True)  # a same-size mutant must not reuse bytecode
    log, start = copy / ".pytest-output", time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 99
        try:
            os.chdir(copy)
            os.setsid()
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            calls = Calls(os.path.abspath("src") + os.sep)
            if trace:
                sys.settrace(calls.trace)
            code = int(pytest.main(PYTEST_ARGS + list(tests), plugins=[calls]))
            sys.settrace(None)
            if trace:
                Path(trace).write_text(json.dumps(vars(calls)))
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    deadline, status = time.monotonic() + timeout, None
    try:
        while status is None and time.monotonic() < deadline:
            done, wait = os.waitpid(pid, os.WNOHANG)
            status = os.waitstatus_to_exitcode(wait) if done else time.sleep(0.02)
    finally:  # also on Ctrl-C, or SIGTERM under terminate
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if status is None:
            os.waitpid(pid, 0)
    seconds = round(time.perf_counter() - start, 2)
    if status is None:
        return "timeout", None, seconds
    if status == 0:
        return "survived", None, seconds
    for line in log.read_text(errors="replace").splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed", line.split(" ", 1)[1].split(" - ", 1)[0], seconds
    return "killed", f"(pytest exit {status})", seconds


def selection(calls: dict) -> "callable":
    """A function from a mutant to the tests that can see it, in run order.

    Those are the tests that call the mutant's function, directly or through a
    shared fixture, and the tests that start a process naming src (Calls). All
    tests run for a mutant outside a function, in a cached function or in one
    called while collecting (a module constant is computed then).
    """
    order, callers = list(calls["fixtures"]), {}
    for site, wheres in calls["calls"].items():
        file, qualname = site.split("::")
        function = ".".join(p for p in qualname.split(".") if not p.startswith("<"))
        callers.setdefault((file, function), set()).update(wheres)

    def tests(path: Path, m: dict) -> list[str]:
        wheres = callers.get((str(path.relative_to("src")), m["function"]), set())
        if m["function"] is None or None in wheres:
            return ["tests"]
        chosen = wheres | set(calls["spawn"])
        return [t for t in order if t in chosen or any(
            f"fixture {name}" in chosen for name in calls["fixtures"][t])]

    return tests


def terminate(signum, frame):
    """A SIGTERM handler: exit as 128 + the signal's number, running every finally."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON-lines results (overwritten)")
    parser.add_argument("--only", action="append", default=[],
                        help="run only mutants whose key contains this (repeatable: any of them)")
    args = parser.parse_args(argv)
    args.out = args.out.absolute()  # the runs below work inside the copy
    sites = [(path, m) for path, m in catalogue(ROOT)
             if not args.only or any(part in m["key"] for part in args.only)]
    if not sites:
        print("no mutant selected", file=sys.stderr)
        return 1

    signal.signal(signal.SIGTERM, terminate)
    copy = Path(tempfile.mkdtemp(prefix="hrvwp-mutants-"))
    try:
        for part in COPIED:
            (copy / part).parent.mkdir(parents=True, exist_ok=True)
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / part, copy / part)
        # one BLAS thread per run, and no PYTHONPATH naming the checkout's src for
        # the processes tests start; the tests' heavy dependencies (not hrvwp) are
        # imported once, here, so each forked run starts with them loaded, and in
        # the copy, since hypothesis keeps its examples under the directory it is
        # imported in
        os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        os.environ.pop("PYTHONPATH", None)
        os.chdir(copy)
        for name in ("numpy", "scipy.stats", "scipy.integrate", "hypothesis"):
            try:
                __import__(name)
            except ImportError:
                pass
        outcome, failed, clean = run(copy, timeout=1200, trace=copy / ".calls.json")
        if outcome != "survived":
            print(f"tier-1 does not pass unmutated ({outcome}: {failed})", file=sys.stderr)
            return 1
        tests_for = selection(json.loads((copy / ".calls.json").read_text()))
        timeout = 3 * clean
        print(f"clean run {clean:.1f} s; {len(sites)} mutants, timeout {timeout:.0f} s",
              file=sys.stderr)
        records = []
        with open(args.out, "w", encoding="utf-8") as out:
            for n, (path, m) in enumerate(sites, 1):
                original = (copy / path).read_bytes()
                (copy / path).write_text(m["text"], encoding="utf-8")
                try:
                    tests = tests_for(path, m)
                    outcome, killer, seconds = run(copy, timeout, tests)
                finally:
                    (copy / path).write_bytes(original)
                records.append(dict(key=m["key"], file=str(path), line=m["line"], kind=m["kind"],
                                    detail=m["detail"], outcome=outcome, killer=killer,
                                    seconds=seconds,
                                    tests=len(tests) if tests != ["tests"] else "all"))
                out.write(json.dumps(records[-1]) + "\n")
                out.flush()
                print(f"[{n}/{len(sites)}] {outcome:8} {path}:{m['line']} "
                      f"{m['kind']} {m['detail']}", file=sys.stderr)
    finally:
        shutil.rmtree(copy, ignore_errors=True)

    counts = {k: sum(r["outcome"] == k for r in records) for k in ("killed", "survived", "timeout")}
    print(f"{len(records)} mutants: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    for r in records:
        if r["outcome"] != "killed":
            print(f"  {r['outcome']}: {r['file']}:{r['line']} {r['kind']} {r['detail']}")
    return int(counts["killed"] < len(records))


if __name__ == "__main__":
    sys.exit(main())
