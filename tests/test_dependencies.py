"""Every import in the package is the standard library, the package itself,
or a dependency declared in pyproject.toml.  An undeclared import (say, a
plotting or JIT library present on one machine only) would make code paths
depend on what happens to be installed.  And every name a module imports is
used there, and every name its ``__all__`` exports exists: an import or an
export left behind by a deletion fails here.  So does a dataclass field
that nothing reads, and a public function or class that only tests read."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "follmer"


def _names(deps: list) -> set:
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower().replace("-", "_") for d in deps}


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fp:
        return tomllib.load(fp)["project"]


def _declared() -> set:
    return _names(_project()["dependencies"])


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_declared_dependencies_are_parsed():
    # scipy is only the tests' oracle for the package's own quadrature,
    # interpolation and binomial interval, so it sits in the test extra
    assert _declared() == {"numpy", "click"}
    assert "scipy" in _names(_project()["optional-dependencies"]["test"])


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, follmer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_package_or_declared(path):
    allowed = set(sys.stdlib_module_names) | {"follmer"} | _declared()
    assert _imported_roots(path) - allowed == set()


def _unused_imports(path: Path) -> set:
    """The names ``path`` binds by import and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export, so it is left out
    assert _unused_imports(path) == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    module = importlib.import_module("follmer" if path.stem == "__init__" else f"follmer.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def _dataclass_fields(path: Path) -> list:
    """``Class.field`` for each annotated field of each ``@dataclass`` in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            out.extend(
                f"{node.name}.{st.target.id}"
                for st in node.body
                if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
            )
    return out


def _set_attributes(path: Path) -> list:
    """``Class.name`` for each ``object.__setattr__(self, "name", ...)`` in a
    class of ``path``: the attributes a frozen class sets outside its fields."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(cls, ast.ClassDef):
            out.extend(
                f"{cls.name}.{node.args[1].value}"
                for node in ast.walk(cls)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"
                and len(node.args) == 3
                and ast.unparse(node.args[0]) == "self"
                and isinstance(node.args[1], ast.Constant)
            )
    return out


def test_every_dataclass_field_is_read():
    # a field whose value nothing reads is work for no one: some were
    # computed over the whole grid on every call; so is an attribute set
    # with object.__setattr__
    read = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    fields = [f for path in sorted(PACKAGE.glob("*.py")) for f in _dataclass_fields(path)]
    assert len(fields) > 100
    set_attrs = [a for path in sorted(PACKAGE.glob("*.py")) for a in _set_attributes(path)]
    assert len(set_attrs) > 10
    assert [f for f in fields + set_attrs if f.split(".")[1] not in read] == []


# names under which a report kept a copy of its trend's per-level values
_TREND_COPIES = {"residual_per_level", "gaps", "level_gaps", "integral_gaps", "sup_errors", "integral_residual"}


def test_a_trend_is_the_only_record_of_its_per_level_values():
    # a report with a TrendReport reads its per-level values as trend.gaps and
    # the last as trend.final_gap; a second field holding them is a copy
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                fields = {st.target.id: ast.unparse(st.annotation) for st in node.body if isinstance(st, ast.AnnAssign)}
                if "TrendReport" in fields.get("trend", ""):
                    copies.extend(f"{node.name}.{f}" for f in sorted(_TREND_COPIES & fields.keys()))
    assert copies == []


def test_cli_catches_no_value_error():
    # a model-domain rule raises DomainError where it is defined; a ValueError
    # caught in the runner would turn an internal fault into a "config error"
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = [node.type for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type]
    caught = {n.id for h in handlers for n in ast.walk(h) if isinstance(n, ast.Name)}
    assert "DomainError" in caught and "ValueError" not in caught


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    # a name another module uses is an interface: it gets a public name, so
    # that the module declares it
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "follmer")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _sites(match) -> list:
    """``module.qualname`` of the function or class around each node of the package that ``match`` accepts."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                out.append(".".join(scope))
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return sorted(out)


def _calls_of(attr: str) -> list:
    """The sites of each call of ``<...>.attr`` in the package."""
    return _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr)


def _imports_of(module: str) -> list:
    """The sites of each import of ``module`` or a submodule of it in the package."""

    def match(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == module for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == module

    return _sites(match)


def test_every_discrete_running_sum_is_the_kernel():
    # one function decides the summation order of every sum an identity
    # reads; the other cumsums are path values, index arithmetic and a lattice
    assert _calls_of("cumsum") == [
        "drawdown._CumulativeExponent._grow",  # the node lattice of the floor transform
        "mc._sup_error",  # the grid indices of the segments it evaluates
        "paths.CompoundJumpGenerator.generate",  # the path values from x0 and the jumps
        "stieltjes.running_sum",
    ]


def test_only_the_allocator_helper_reaches_the_c_library():
    # the runner sets glibc's malloc thresholds through ctypes, once, from its
    # entry point; a library caller's allocator is left as it was
    assert _imports_of("ctypes") == ["cli._keep_freed_memory"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import follmer, follmer.cli; print(follmer.cli._keep_freed_memory.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def _verdict_list(node) -> bool:
    """Whether ``node`` is ``<...>.failures`` or ``<...>.inconclusive``, a run's verdict lists."""
    return isinstance(node, ast.Attribute) and node.attr in ("failures", "inconclusive")


def _writes_a_verdict(node) -> bool:
    if isinstance(node, ast.Call):  # append, extend, insert, ...
        return isinstance(node.func, ast.Attribute) and _verdict_list(node.func.value)
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return any(_verdict_list(t) for t in getattr(node, "targets", [getattr(node, "target", None)]))
    return False


def _compares_in_a_recorder_call(node) -> bool:
    recorder = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("bound", "settle")
    if not recorder:
        return False
    args = node.args + [k.value for k in node.keywords]
    ops = [op for a in args for n in ast.walk(a) if isinstance(n, ast.Compare) for op in n.ops]
    return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in ops)


def test_every_cli_verdict_goes_through_the_two_recorders():
    # a run's failures and unsettled trends are written only by Run.bound,
    # which compares through diagnostics.within, and Run.settle, which reads
    # a status; a recorder call that compares its own arguments would bring
    # back a second rule, one under which a NaN can pass
    writes = sorted({s for s in _sites(_writes_a_verdict) if s.startswith("cli.")})
    assert writes == ["cli.Run.__init__", "cli.Run.bound", "cli.Run.settle"]
    assert [s for s in _sites(_compares_in_a_recorder_call) if s.startswith("cli.")] == []


# the path CSV reader and writer: ROADMAP item 4 gives the runner ingested paths
_UNREAD_ALLOWED = {"read_path_csv", "write_path_csv"}


def _reads(path: Path) -> set:
    """The names ``path`` reads or imports, a top-level function or class
    naming itself left out, so that a recursive call is not a reader."""
    out = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        out |= names
    return out


def test_every_public_function_and_class_has_a_reader():
    # code that only its own tests read is code for no one: a reader is the
    # package itself (not its re-exports), the benchmark, the tools or the
    # acceptance suite
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_reads, readers))
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) > 100
    assert [d for d in defined if d.split(".")[1] not in read | _UNREAD_ALLOWED] == []
