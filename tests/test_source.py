import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import quadeq

SRC = Path(quadeq.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts; checks in the package must be explicit raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__.py imports names to re-export them
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = [entry for path in paths for entry in _unused_imports(path)]
    assert found == []


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def _unused_locals(path: Path) -> list[str]:
    """Names a function binds in its own scope (assignments, loop and
    unpacking targets) that nothing in it, nested scopes included, reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for qualname, fn in _functions(tree, path.stem + "."):
        stored, declared = set(), set()
        todo = list(fn.body)
        while todo:
            n = todo.pop()
            if isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.add(n.id)
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(n))
        # ``x += 1`` reads x
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for n in ast.walk(fn)
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found += [f"{qualname}: {name}" for name in sorted(stored)
                  if name not in read and name not in declared and not name.startswith("_")]
    return found


def test_no_unused_locals():
    # a local that is assigned and never read is dead code or a lost result
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_locals(path)]
    assert found == []


def _referenced_names(path: Path) -> set[str]:
    """Names a file uses: identifiers, attributes, imports and the words of
    its non-docstring string literals (``getattr`` and monkeypatch targets)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = {
        id(n.value) for n in ast.walk(tree)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            names.update(re.findall(r"\w+", n.value))
    return names


def test_no_unreferenced_definitions():
    # a function, method or class of the package that nothing names is dead
    root = Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    used = set().union(*(_referenced_names(p) for p in paths))
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = n.name.startswith("__") and n.name.endswith("__")
                if not dunder and n.name not in used:
                    found.append(f"{path.name}:{n.lineno} {n.name}")
    assert found == []



def _is_packing(node: ast.AST) -> bool:
    """Is node ``2 * X.sym + (Y.sign < 0)``, the packed letter of words.pack?"""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = node.left, node.right
    return (isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mult)
            and isinstance(left.left, ast.Constant) and left.left.value == 2
            and isinstance(left.right, ast.Attribute) and left.right.attr == "sym"
            and isinstance(right, ast.Compare) and isinstance(right.ops[0], ast.Lt)
            and isinstance(right.left, ast.Attribute) and right.left.attr == "sign"
            and isinstance(right.comparators[0], ast.Constant) and right.comparators[0].value == 0)


def test_letter_packing_has_one_owner():
    # a packed letter is spelled out only in words.pack; docstrings may show it
    root = Path(__file__).resolve().parent.parent
    paths = sorted(SRC.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_packing(n)]
    assert [f.split(":")[0] for f in found] == ["words.py"]


def _is_root_test(node: ast.AST) -> bool:
    """Is node ``X[:d] * (n // d)``, a prefix repeated to test for a root?"""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Subscript) and isinstance(node.left.slice, ast.Slice)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.FloorDiv))


def _is_letter_solve(node: ast.AST) -> bool:
    """Is node a call on ``X[k + 1:], X[:k]``, the product v u of u x v = 1?"""
    if not (isinstance(node, ast.Call) and len(node.args) == 2
            and all(isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Slice) for a in node.args)):
        return False
    after, before = (a.slice for a in node.args)
    return (ast.dump(node.args[0].value) == ast.dump(node.args[1].value)
            and isinstance(after.lower, ast.BinOp) and isinstance(after.lower.op, ast.Add)
            and after.upper is None and before.lower is None and before.upper is not None
            and ast.dump(after.lower.left) == ast.dump(before.upper)
            and isinstance(after.lower.right, ast.Constant) and after.lower.right.value == 1)


def test_word_rules_have_one_owner():
    # the root of a word and the value of a lone letter are computed only in
    # words.py, which the oracle and the solver call
    for rule in (_is_root_test, _is_letter_solve):
        found = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [path.name for n in ast.walk(tree) if rule(n)]
        assert found == ["words.py"], rule.__name__


def test_solver_reads_packed_letters():
    # the solve path reads letters as packed bytes, never through Generator views
    found = []
    for module in ("solver.py", "standardize.py", "oracle.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        found += [f"{module}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in ("sym", "sign")
                  or isinstance(n, ast.Name) and n.id == "Generator"
                  or isinstance(n, ast.alias) and n.name == "Generator"]
    assert found == []


def test_word_storage_has_one_owner():
    # outside words.py a Word is read through .packed and built through its
    # constructor or Word.from_packed; its storage slot and any other private
    # member (such as a second, private trusted constructor) stay in words.py
    from quadeq.words import Word

    private = {n for n in (*vars(Word), *Word.__slots__) if n.startswith("_") and not n.endswith("__")}
    assert set(Word.__slots__) <= private
    root = Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [path.name for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in private
                  or isinstance(n, ast.Constant) and n.value in private]
    assert found and set(found) == {"words.py"}


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, without those of the functions it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_pending_cluster_rule_has_one_owner():
    # a pending cluster is taken up to inverting all its cycles: one function
    # states that rule, for the search's states and the certificate's alike
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    found = []
    for qualname, fn in _functions(tree):
        operands = [x for n in _own_nodes(fn) if isinstance(n, ast.Compare)
                    for x in (n.left, *n.comparators)]
        if any(isinstance(x, ast.Name) and x.id == "_PENDING" for x in operands):
            found.append(qualname)
    assert len(found) == 1, found


def test_cli_reports_every_package_error_as_bad_input():
    # a ValueError of the package that main does not catch ends as
    # "internal error", exit 4, instead of an error line and exit 2
    from quadeq.cli import BAD_INPUT

    modules = [importlib.import_module(f"quadeq.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]
    errors = [c for m in modules for c in vars(m).values() if isinstance(c, type)
              and issubclass(c, ValueError) and c.__module__ == m.__name__]
    assert len(errors) >= 10
    assert [c.__qualname__ for c in errors if not issubclass(c, BAD_INPUT)] == []


# the modules the benchmark imports; its setup_s times their import
SOLVE_PATH = ("words", "parsing", "equations", "oracle", "standardize", "solver")


def test_solve_path_imports():
    # importing surfaces.py into the solve path once raised setup_s by 27-33 %
    code = (
        f"import sys\nfor m in {SOLVE_PATH!r}: __import__('quadeq.' + m)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('quadeq.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == sorted(f"quadeq.{m}" for m in SOLVE_PATH)


def test_solve_path_is_the_benchmarks_module_list():
    # perfbench/run.py times the import of MODULES in setup_s; SOLVE_PATH restates it
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8"))
    modules = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
               and [getattr(t, "id", None) for t in n.targets] == ["MODULES"]]
    assert modules == [SOLVE_PATH]


def test_tracer_hooks_find_their_targets():
    # the benchmark's tracer wraps named attributes of the solve-path modules;
    # a renamed or deleted one is a KeyError in every traced run
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"quadeq.{m}") for m in SOLVE_PATH})
    before = {m: dict(vars(getattr(lib, m))) for m in SOLVE_PATH}
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        system = lib.equations.parse_system("gens: a b\nvars: x y\n[x, y] = [a, b]\n")
        assert lib.solver.solve_quadratic(system).status == "sat"
        # a non-orientable witness goes through the oracle span
        system = lib.equations.parse_system("gens: a b\nvars: x y\nx x y y = a a b b\n")
        assert lib.solver.solve_quadratic(system).status == "sat"
    finally:
        tracer.uninstall()
    assert {m: dict(vars(getattr(lib, m))) for m in SOLVE_PATH} == before
    metrics = tracer.metrics()
    assert metrics["solver.diagram_calls"][0] > 0
    assert metrics["oracle.witness_calls"][0] > 0 and metrics["oracle.witness_letters"][0] > 0
