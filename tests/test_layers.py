"""Layering: each front-end step has one home.

How an augmented instance becomes per-choice texts, and how scores become a
label, is decided in `privqa.harness`. The scorer must not reach back into
the modules that know about instances, contexts or runs. Run reports are
built by `harness.evaluate`; the CLI asks for one and only rebuilds saved
reports it reads back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "privqa"
SCORER = SRC / "scorer.py"
CLI = SRC / "cli.py"
FORBIDDEN = {"privqa.contexts", "privqa.corpus", "privqa.harness"}
REPORT_STEPS = {"accuracy", "predict_labels", "provenance", "asdict"}


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import statement names, relative ones resolved against privqa."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "privqa" + (f".{base}" if base else "")
            names.add(base)
            # `from privqa import contexts` imports a module by name
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_sees_every_form():
    tree = ast.parse(
        "import privqa.contexts\n"
        "from privqa.corpus import X\n"
        "from privqa import harness\n"
        "from . import contexts\n"
        "from .corpus import Y\n"
        "def f():\n"
        "    import privqa.harness as h\n"
    )
    assert FORBIDDEN <= imported_modules(tree)


def test_scorer_imports_no_instance_modules():
    found = imported_modules(parse(SCORER))
    bad = {name for name in found if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)}
    assert not bad, f"privqa.scorer imports {sorted(bad)}"


def test_cli_builds_no_run_report():
    tree = parse(CLI)
    imported = {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & REPORT_STEPS, f"privqa.cli imports {sorted(imported & REPORT_STEPS)}"
    builders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EvalReport"
    }
    assert builders == {"_load_report"}
