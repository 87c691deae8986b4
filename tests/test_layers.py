"""Layering: each front-end step has one home.

How an augmented instance becomes per-choice texts, and how scores become a
label, is decided in `privqa.harness`. The scorer must not reach back into
the modules that know about instances, contexts or runs. Run reports are
built by `harness.evaluate`; the CLI asks for one and only rebuilds saved
reports it reads back. Every context provider materializes through the one
`ContextProvider.stream`, under the keyword maps it is handed: no
module of the package calls `provide`, so an OOD target's test split opens
a stream too. The context cue is spelled once, in `privqa.contexts`. No module keeps an import it does not use. Scores and
predictions reduce in a fixed order: no BLAS product and no numpy `exp`.
Every error class derives from `privqa.errors.PrivqaError`, and the CLI
catches that base, not a hand-kept list of classes. Only a live transport
loads an HTTP stack: importing the CLI loads none, and nothing imports
`requests`. A synthetic sweep loads neither OpenSSL's hashes, `logging` nor
`concurrent.futures`. The package re-exports nothing, so importing a module
loads only what that module imports: the reference external scorer loads no
other privqa module and no numpy, and `privqa.contexts` loads no numpy.
"""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "privqa"
SCORER = SRC / "scorer.py"
CLI = SRC / "cli.py"
FORBIDDEN = {"privqa.contexts", "privqa.corpus", "privqa.harness"}
REPORT_STEPS = {"accuracy", "predict_labels", "provenance", "asdict"}
PROVIDER_MODULES = (SRC / "harness.py", SRC / "synthetic.py")
CUE = "Context:"
# not used in privqa.synthetic, but perfbench/tracer.py patches them there by name
REEXPORTS = {"synthetic.parse_generation", "synthetic.subsample_keywords"}
# OpenBLAS picks its dot-product kernel, and numpy its exp kernel, per CPU
ORDERED_MODULES = (SCORER, SRC / "harness.py")
BLAS_PRODUCTS = {"dot", "matmul", "einsum", "inner"}
NUMPY = {"np", "numpy"}
# `certifi` is left out: a site `.pth` file may load it at interpreter start
HTTP_MODULES = {"requests", "urllib3", "urllib.request", "urllib.error", "http.client", "ssl"}


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


def test_no_module_imports_requests():
    found = {
        f"{path.stem}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in imported_modules(parse(path))
        if name.split(".")[0] == "requests"
    }
    assert not found, f"imports of requests: {sorted(found)}"


def test_cli_import_loads_no_http_stack():
    # privqa.gateway is named so the guard holds even if the CLI stops importing it
    probe = (
        "import sys, privqa.gateway, privqa.cli; "
        f"print(sorted(m for m in {sorted(HTTP_MODULES)} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]", f"importing privqa loads {out.stdout.strip()}"


def loaded_after(module: str) -> list[str]:
    """numpy and the privqa modules loaded in a fresh interpreter that imports `module`."""
    probe = (
        f"import sys, {module}; "
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'privqa'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout.split()


def test_plugin_stub_loads_only_itself():
    # the reference external scorer needs json and sys, nothing of privqa's
    assert loaded_after("privqa.plugin_stub") == ["privqa", "privqa.plugin_stub"]


def test_contexts_import_loads_no_numpy():
    assert "numpy" not in loaded_after("privqa.contexts")


def test_synthetic_sweep_loads_only_what_it_runs():
    # a synthetic sweep sends no request and computes its digests with the
    # builtin hash modules: no OpenSSL, no logging, no thread pool
    probe = (
        "import sys; from privqa.cli import main; "
        "code = main(['sweep', '--synthetic', '--train-size', '20', '--dev-size', '10', "
        "'--test-size', '10', '--max-epochs', '1', '--dim', '4096']); "
        "print(code, sorted(m for m in ('_hashlib', 'logging', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 []", out.stdout


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


def provider_classes(tree: ast.AST) -> dict[str, ast.ClassDef]:
    """Classes that derive, directly or through one another, from ContextProvider."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found: dict[str, ast.ClassDef] = {}
    grew = True
    while grew:
        grew = False
        for cls in classes:
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases}
            if cls.name not in found and bases & ({"ContextProvider"} | set(found)):
                found[cls.name] = cls
                grew = True
    return found


def test_provider_classes_sees_indirect_subclasses():
    tree = ast.parse(
        "class A(ContextProvider): pass\n"
        "class B(A): pass\n"
        "class C(harness.ContextProvider): pass\n"
        "class D: pass\n"
    )
    assert set(provider_classes(tree)) == {"A", "B", "C"}


def test_providers_only_supply_completions():
    overriders = {
        f"{path.stem}.{name}"
        for path in PROVIDER_MODULES
        for name, cls in provider_classes(parse(path)).items()
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("augment_all", "stream")
    }
    assert not overriders, f"{sorted(overriders)} override ContextProvider's materializing"


def test_no_run_path_calls_provide():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "provide"
    ]
    assert not calls, f"{calls} materialize outside ContextProvider.stream"


def cue_literals(tree: ast.AST) -> list[int]:
    """Line numbers of string constants, docstrings aside, that spell the cue."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and CUE in node.value
        and id(node) not in docstrings
    ]


def test_cue_literals_skip_docstrings():
    source = '"""Context: doc."""\ndef f():\n    """Context:"""\n    return f"{1}Context:"\n'
    tree = ast.parse(source)
    assert cue_literals(tree) == [4]


def test_cue_is_spelled_only_in_contexts():
    spelled = {
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "contexts"
        for line in cue_literals(parse(path))
    }
    assert not spelled, f"{CUE!r} is spelled outside privqa.contexts at {sorted(spelled)}"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads or exports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_unused_imports_sees_every_binding():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c\n"
        "from d import e as f, g\n"
        "__all__ = ['g']\n"
        "def h(x: c) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(tree) == ["b", "f", "j"]


def test_no_unused_imports():
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(parse(path))
    }
    assert not unused - REEXPORTS, f"unused imports: {sorted(unused - REEXPORTS)}"


def dispatched_reductions(tree: ast.AST) -> list[str]:
    """`line: form` of each BLAS product (`@`, dot, matmul, einsum, inner) and numpy `exp`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and (
            node.attr in BLAS_PRODUCTS
            or node.attr == "exp" and getattr(node.value, "id", None) in NUMPY
        ):
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_PRODUCTS:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom) and node.module in NUMPY:
            found += [
                f"{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name in BLAS_PRODUCTS | {"exp"}
            ]
    return found


def test_dispatched_reductions_sees_every_form():
    tree = ast.parse(
        "a @ b\n"
        "a @= b\n"
        "np.dot(a, b)\n"
        "a.dot(b)\n"
        "numpy.matmul(a, b)\n"
        "np.einsum('i,i', a, b)\n"
        "inner(a, b)\n"
        "np.exp(a)\n"
        "from numpy import exp\n"
        "math.exp(1.0)\n"
        "np.bincount(a, weights=b)\n"
    )
    assert set(dispatched_reductions(tree)) == {
        "1: @", "2: @", "3: dot", "4: dot", "5: matmul", "6: einsum", "7: inner", "8: exp", "9: exp",
    }


def test_scores_reduce_in_a_fixed_order():
    found = {
        f"{path.stem}:{where}"
        for path in ORDERED_MODULES
        for where in dispatched_reductions(parse(path))
    }
    assert not found, f"CPU-dependent reductions: {sorted(found)}"


def _names_an_exception(name: str) -> bool:
    """A builtin exception, or a name spelled like one (`JSONDecodeError`)."""
    value = getattr(builtins, name, None)
    if isinstance(value, type) and issubclass(value, BaseException):
        return True
    return name.endswith(("Error", "Exception"))


def error_classes(trees: list[ast.AST]) -> dict[str, set[str]]:
    """Each exception class the trees define, by name, with every name it derives from.

    Bases are followed through the classes the trees define, in any module,
    and named without their module (`errors.PrivqaError` is `PrivqaError`).
    """
    bases = {
        node.name: [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def ancestors(name: str) -> set[str]:
        found = set()
        for base in bases.get(name, []):
            found |= {base} | ancestors(base)
        return found

    return {
        name: ancestors(name)
        for name in bases
        if any(_names_an_exception(a) for a in ancestors(name))
    }


def test_error_classes_follow_bases_across_modules():
    trees = [
        ast.parse("class Base(Exception): pass\nclass A(Base): pass\nclass E(enum.Enum): pass\n"),
        ast.parse("class B(m.A): pass\nclass C(json.JSONDecodeError): pass\nclass D(KeyError): pass\n"),
    ]
    found = error_classes(trees)
    assert set(found) == {"Base", "A", "B", "C", "D"}
    assert found["B"] == {"A", "Base", "Exception"}
    assert found["C"] == {"JSONDecodeError"}


def test_every_error_derives_from_privqa_error():
    found = error_classes([parse(path) for path in sorted(SRC.glob("*.py"))])
    assert found["PrivqaError"] == {"Exception"}
    stray = sorted(name for name, parents in found.items() if "PrivqaError" not in parents)
    assert stray == ["PrivqaError"], f"error classes not derived from PrivqaError: {stray}"


def test_cli_keeps_no_list_of_error_classes():
    errors = set(error_classes([parse(path) for path in sorted(SRC.glob("*.py"))]))
    tuples = [
        [ast.unparse(elt) for elt in node.elts]
        for node in ast.walk(parse(CLI))
        if isinstance(node, ast.Tuple)
        and node.elts
        and all(ast.unparse(elt) in errors or _names_an_exception(ast.unparse(elt)) for elt in node.elts)
    ]
    assert tuples == [["PrivqaError", "OSError"]], f"tuples of error classes in privqa.cli: {tuples}"


# A builtin conversion of a subscript or a `.get(...)` is how the loaders once
# read a field of another type as a wrong value: `str(rec["question"])` of a
# list, `int(rec["seed"])` of 1.7. `privqa.errors.field` is the one check.
CONVERSIONS = {"str", "int", "float", "bool"}


def record_coercions(tree: ast.AST) -> list[str]:
    """Each call of a builtin conversion on a subscript or on a `.get(...)` call."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in CONVERSIONS
        and node.args
        and (
            isinstance(node.args[0], ast.Subscript)
            or isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "attr", None) == "get"
        )
    ]


def test_record_coercions_sees_every_form():
    tree = ast.parse(
        "str(rec['id'])\nint(rec.get('n', 0))\nbool(m[k])\nfloat(x)\nstr(a.b)\nlen(rec['x'])\n"
        "def f(c):\n    return float(c['bias'][0])\n"
    )
    found = record_coercions(tree)
    assert found == ["str(rec['id'])", "int(rec.get('n', 0))", "bool(m[k])", "float(c['bias'][0])"]


def test_no_loader_coerces_a_decoded_field():
    found = [f"{p.stem}: {c}" for p in sorted(SRC.glob("*.py")) for c in record_coercions(parse(p))]
    assert not found, f"conversions of decoded fields outside privqa.errors.field: {found}"
    defined = {
        node.name for p in sorted(SRC.glob("*.py")) for node in ast.walk(parse(p))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_exact" not in defined and "field" in defined
