"""Every ``repro`` name a benchmark script imports still exists.

Bench scripts run only under ``--benchmark-only``, never in Tier-1, so a
deleted name that a bench still imports — at module level or inside a
function — would otherwise fail nothing here.  The scripts are parsed with
``ast``; none is run or edited.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def repro_imports():
    """``(path, line, module, name)`` for every ``repro`` import, at any
    nesting level; ``name`` is ``None`` for a plain ``import repro…``."""
    for path in sorted(BENCHMARKS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path, node.lineno, alias.name, None
            elif (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield path, node.lineno, node.module, alias.name


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # ``from repro.pkg import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_import_of_a_bench_resolves():
    imports = list(repro_imports())
    # Sanity: the scan sees the benches and the imports nested in functions.
    assert len({path for path, *_ in imports}) > 20
    assert any(
        path.name == "bench_staging.py" and module == "repro.experiments.staging"
        for path, _, module, _ in imports
    )
    missing = [
        f"{path.relative_to(BENCHMARKS)}:{line}: {module}"
        + (f".{name}" if name else "")
        for path, line, module, name in imports
        if not resolves(module, name)
    ]
    assert missing == []
