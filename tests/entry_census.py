"""Which ``src/repro`` functions does a test run never enter?

The stricter companion of :mod:`tests.test_census`.  That census counts
references by name, so a dead method that shares its name with a called
one passes it.  This one profiles the run (``sys.setprofile`` and
``threading.setprofile``, re-armed at every ``pytest_runtest_*`` phase
because a test may install and clear a profiler of its own) and lists
every function or method defined under ``src/repro`` whose code the run
never entered.  Two groups are left out: bodies with nothing to run (only
a docstring, ``pass``, ``...`` or ``raise NotImplementedError``) and
:data:`ALLOWLIST`.

Over the whole suite (about 2.5x the suite's time; hypothesis draws
vary between runs, so pin them)::

    python -m tests.entry_census --hypothesis-seed=0

or over any pytest selection.  The runner is ``pytest -p
tests.entry_census`` with ``src`` on the path.  It is not a CI step.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: qualified name -> why the profiled run cannot enter it
ALLOWLIST = {
    "repro.cli._cmd_serve": "runs in the `repro serve` subprocess of the CLI tests",
    "repro.cli._cmd_serve.<locals>._main": "the served event loop of `repro serve`",
    "repro.server.node.run_server": "what `repro serve` awaits, in its subprocess",
    "repro.experiments.grid._worker_init": "runs in the grid's pool processes",
    "repro.experiments.grid._compute_block_worker": "runs in the grid's pool processes",
    "repro.core.online.OnlineClassifierAdmission.on_hit": (
        "every instance shadows it with its generated hit callable"
    ),
}


def _nothing_to_run(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        if isinstance(first.value.value, str):
            body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def definitions():
    """``(qualified name, path, first line)`` of every function under
    ``src/repro`` with something to run; the first line is the first
    decorator's, as in the compiled code object."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, module.removesuffix(".__init__"))]
        while stack:
            parent, prefix = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    stack.append((node, f"{prefix}.{node.name}"))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{node.name}"
                    stack.append((node, f"{qual}.<locals>"))
                    if not _nothing_to_run(node):
                        line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        yield qual, path, line
                elif not isinstance(node, ast.Lambda):
                    stack.append((node, prefix))


def never_entered(codes) -> list[tuple[str, Path, int]]:
    """The definitions none of ``codes`` belongs to, allowlist aside."""
    files: dict[str, str] = {}
    entered = set()
    for code in codes:
        name = code.co_filename
        if name not in files:
            files[name] = os.path.realpath(name)
        entered.add((files[name], code.co_firstlineno))
    return sorted(
        (
            (qual, path, line)
            for qual, path, line in definitions()
            if (os.path.realpath(path), line) not in entered and qual not in ALLOWLIST
        ),
        key=lambda d: (d[1], d[2]),
    )


class EntryCensus:
    """The plugin: records every code object the session enters."""

    def __init__(self):
        # Keyed by identity: code objects compare equal across files (the
        # same body at the same line number in two modules), so a set
        # would keep only one of them.
        self.codes: dict[int, object] = {}
        codes = self.codes

        def record(frame, event, arg):
            if event == "call":
                code = frame.f_code
                codes[id(code)] = code

        self._record = record

    def _arm(self) -> None:
        threading.setprofile(self._record)
        sys.setprofile(self._record)

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionstart(self, session):
        self._arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self._arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self._arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self._arm()

    def pytest_terminal_summary(self, terminalreporter):
        sys.setprofile(None)
        threading.setprofile(None)
        missed = never_entered(self.codes.values())
        terminalreporter.write_sep("=", f"entry census: {len(missed)} never entered")
        for qual, path, line in missed:
            terminalreporter.write_line(f"{qual}  ({path.relative_to(ROOT)}:{line})")


def pytest_configure(config):
    config.pluginmanager.register(EntryCensus(), "entry-census")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SRC))
    # Subprocesses the tests start import repro the way Tier-1's do.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return int(pytest.main([*args, "-p", "tests.entry_census"]))


if __name__ == "__main__":
    sys.exit(main())
