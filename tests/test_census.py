"""Every definition under ``src/repro`` has a caller outside the tests.

A static census with the stdlib ``ast``: a module-level function or class,
or a method, counts as called when its name is referenced — as a name, an
attribute or a string constant (``getattr``, dispatch tables) — anywhere in
``src/``, ``benchmarks/`` or ``examples/`` outside its own body and
``__all__`` lists (an import alone is no reference).  The census is by
name, so it errs towards "called": two definitions sharing a name share
their callers.
Dunder methods are called by the language and are not counted.

A definition that only tests reach (or nothing at all) fails here unless
:data:`ALLOWLIST` names it with its reason, and an allowlist entry that
has gained a caller or lost its definition fails too, so the list cannot
go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples")

#: qualified name -> why it stays although only tests call it
ALLOWLIST = {
    "repro.cache.learned.LearnedCache.is_protected": (
        "tests/cache/test_learned.py asserts through it that no learned "
        "victim lies inside the protected-admission window"
    ),
    "repro.cache.segments.SegmentPlan.from_arrays": (
        "tests/trace/test_stack_distances.py builds its oracle plan from "
        "independently computed arrays with it"
    ),
    "repro.core.admission.NeverAdmit": (
        "the deny-everything admission the cluster and admission tests "
        "pin 'no admit, no write' with"
    ),
    "repro.core.features.FeatureMatrix.column": (
        "the feature-semantics tests read named columns through it"
    ),
    "repro.obs.spans.Tracer.use_track": (
        "pins one Perfetto track for a hand-instrumented block; the span "
        "tests pin its nesting contract"
    ),
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) for module- and class-level defs."""
    stack = [(tree, module)]
    while stack:
        parent, prefix = stack.pop()
        for node in parent.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{node.name}"
                yield qual, node.name, node
                if isinstance(node, ast.ClassDef):
                    stack.append((node, qual))


def _names(node: ast.AST, counts: dict[str, int]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            key = sub.id
        elif isinstance(sub, ast.Attribute):
            key = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            key = sub.value
            if not key.isidentifier():
                continue
        else:
            continue
        counts[key] = counts.get(key, 0) + 1


def _is_export_list(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def census() -> set[str]:
    """Qualified names of the ``src/repro`` definitions no caller outside
    the tests references."""
    refs: dict[str, int] = {}
    defs = []
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                if not _is_export_list(stmt):
                    _names(stmt, refs)
            if top == "src":
                module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
                defs.extend(_definitions(tree, module.removesuffix(".__init__")))
    uncalled = set()
    for qual, name, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        own: dict[str, int] = {}
        _names(node, own)
        if refs.get(name, 0) - own.get(name, 0) <= 0:
            uncalled.add(qual)
    return uncalled


def test_every_definition_has_a_caller_outside_the_tests():
    uncalled = census()
    unlisted = sorted(uncalled - set(ALLOWLIST))
    assert not unlisted, (
        "only tests (or nothing) call these src definitions; delete them, "
        "or allowlist each with its reason: " + ", ".join(unlisted)
    )
    stale = sorted(set(ALLOWLIST) - uncalled)
    assert not stale, (
        "allowlisted definitions that now have a caller outside the tests, "
        "or no longer exist; drop them from ALLOWLIST: " + ", ".join(stale)
    )
