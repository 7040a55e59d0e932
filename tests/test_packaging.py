"""The dependencies declared in pyproject.toml are the third-party packages
the source imports, no more and no fewer; every console script it declares
resolves; a verdict loads no ``scipy.linalg``; a misspelt test marker fails
collection; every dataclass field is read; every public name has a caller
outside the tests; every traced layer function is reached through a module
attribute the benchmark's tracer rebinds."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "shockstab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {name for name in imported if name not in sys.stdlib_module_names}
    assert third_party - {"shockstab"} == declared


def test_console_scripts_resolve():
    # an installed script whose target does not import dies on every run
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


VERDICT = """
import sys
from shockstab import shock_problem, stability
from shockstab.scheme import Scheme

cfg = shock_problem.ShockProblemConfig(epsilon=0.1, nx=11, ny=4)
scheme = Scheme(solver="roe", order=1)
profile, _ = shock_problem.converge_1d(cfg, scheme)
stability.eigensolve(stability.assemble(shock_problem.project_to_2d(profile, cfg), scheme))
sys.exit("scipy.linalg" in sys.modules and "the verdict imported scipy.linalg")
"""


def test_a_verdict_loads_no_scipy_linalg():
    # scipy.linalg loads SciPy's own OpenBLAS beside NumPy's, about 10 MB of peak
    # memory; scipy.sparse, the one SciPy module the package imports, does
    # not load it.  A fresh interpreter, since this one has it from the tests
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", VERDICT], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_a_misspelt_marker_fails_collection(tmp_path):
    # else the test runs unmarked, and -m "not slow" quietly keeps it
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_a():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(test)],
        capture_output=True, text=True)
    assert run.returncode == pytest.ExitCode.INTERRUPTED, run.stdout
    assert "'slwo' not found in `markers`" in run.stdout


def _is_frozen_dataclass(node):
    return any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in node.decorator_list
    )


def test_config_fields_are_read():
    # a field that is only set, or only validated in __post_init__, is dead
    fields, read = set(), set()
    for path in (ROOT / "src" / "shockstab").glob("*.py"):
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        fields.add(f"{path.stem}.{node.name}.{item.target.id}")
                    elif isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                        skip.update(map(id, ast.walk(item)))
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skip
        )
    assert fields
    assert sorted(f for f in fields if f.rsplit(".", 1)[1] not in read) == []


def _is_plain_dataclass(node):
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    ) and not _is_frozen_dataclass(node)


def test_result_fields_are_read():
    # a field of a mutable state or result dataclass that neither the package,
    # its tests nor the benchmark reads is write-only
    src = list((ROOT / "src" / "shockstab").glob("*.py"))
    fields, read = set(), set()
    for path in src:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_plain_dataclass(node):
                fields.update(
                    f"{path.stem}.{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                )
    for path in src + list((ROOT / "tests").glob("*.py")) + list((ROOT / "shockbench").rglob("*.py")):
        read.update(
            node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    assert fields
    assert sorted(f for f in fields if f.rsplit(".", 1)[1] not in read) == []


# public names whose only callers are tests, each kept for a stated reason
TEST_ONLY_NAMES = {
    "stability.localize": "localises the unstable mode at the shock (paper claim C5)",
}


def _public_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_public_names_have_a_package_caller():
    # a public function, class or constant that only tests reach is test-only
    # surface: it belongs in the tests or nowhere
    src = sorted((ROOT / "src" / "shockstab").glob("*.py"))
    defined = {
        f"{path.stem}.{name}"
        for path in src
        for name in _public_top_level_names(ast.parse(path.read_text()))
        if not name.startswith("_")
    }
    referenced = set()
    for path in src + sorted((ROOT / "shockbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert defined
    uncalled = sorted(name for name in defined if name.rsplit(".", 1)[1] not in referenced)
    assert uncalled == sorted(TEST_ONLY_NAMES)


# parameters with a default that no call in the package or the benchmark
# passes, each kept for a stated reason
UNPASSED_DEFAULTS = {
    "stability.assemble.check_steady": "tests linearise about fields that are not steady",
}


def _defaulted_parameters(path):
    """(qualified name, position at a call site, keyword) of every parameter
    with a default; a method's position does not count its first parameter,
    which the call's receiver supplies."""
    tree = ast.parse(path.read_text())
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            first_default = len(positional) - len(a.defaults)
            for index in range(first_default, len(positional)):
                name = positional[index].arg
                yield f"{path.stem}.{node.name}.{name}", node.name, index - (id(node) in methods), name
            for param, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{node.name}.{param.arg}", node.name, None, param.arg


def test_every_default_is_passed_by_some_caller():
    # a default that no call overrides is a constant in disguise: a knob the
    # program never turns
    src = sorted((ROOT / "src" / "shockstab").glob("*.py"))
    passed = set()  # (function name, position or keyword)
    for path in src + sorted((ROOT / "shockbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((name, "*"))
            passed.update((name, position) for position in range(len(node.args)))
            passed.update((name, k.arg or "**") for k in node.keywords)
    params = [p for path in src for p in _defaulted_parameters(path)]
    assert params
    unpassed = sorted(
        qualified for qualified, function, position, keyword in params
        if not {(function, position), (function, keyword), (function, "**")} & passed
        and not (position is not None and (function, "*") in passed)
    )
    assert unpassed == sorted(UNPASSED_DEFAULTS)


def test_traced_layers_are_not_imported_by_name_elsewhere():
    # shockbench/spans.py traces a layer by rebinding its attribute in the
    # modules LAYERS lists; a module that imports the function by name keeps
    # the original, and its calls drop out of the trace without an error
    spec = importlib.util.spec_from_file_location("spans", ROOT / "shockbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rebound = {}  # (defining module, function name) -> modules whose attribute is rebound
    for _, modules, attr, _ in spans.LAYERS:
        owner = getattr(modules[0], attr).__module__
        rebound[(owner, attr)] = {module.__name__ for module in modules}
    assert rebound
    unseen = []
    for path in sorted((ROOT / "src" / "shockstab").glob("*.py")):
        importer = f"shockstab.{path.stem}"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = f"shockstab.{node.module}" if node.level == 1 else node.module
            for alias in node.names:
                modules = rebound.get((source, alias.name))
                if modules is not None and importer not in modules:
                    unseen.append(f"{importer} imports {source}.{alias.name}")
    assert unseen == []
