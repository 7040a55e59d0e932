"""The dependencies declared in pyproject.toml are the third-party packages
the source imports, no more and no fewer, and its ``test`` extra declares the
rest of what the tests import; every console script it declares resolves; a
verdict and a march load no SciPy module; a misspelt test marker fails
collection; every dataclass field is read and every field default is set by
some caller; every public name has a caller outside the tests; every traced
layer function is reached through a module attribute the benchmark's tracer
rebinds; only ``fields`` converts cells, and the soft conversion has its
listed callers."""

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


def _declared(requirements):
    """Distribution names of PEP 508 requirement strings."""
    return {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower() for dep in requirements}


def _third_party_imports(paths):
    """Top-level names of the absolute imports of ``paths``, wherever in a
    module they sit, less the standard library's."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return {name for name in imported if name not in sys.stdlib_module_names}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = _third_party_imports((ROOT / "src" / "shockstab").glob("*.py"))
    assert imported - {"shockstab"} == _declared(project["dependencies"])


def test_test_extra_declares_what_the_tests_import():
    # a package the tests import that neither list declares is missing from an
    # install made with the test extra
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in tests} | {"shockstab"}
    declared = _declared(project["dependencies"]) | _declared(project["optional-dependencies"]["test"])
    assert sorted(_third_party_imports(tests) - local - declared) == []


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


VERDICT_AND_MARCH = """
import sys
from shockstab import marching, shock_problem, stability
from shockstab.scheme import Scheme

cfg = shock_problem.ShockProblemConfig(epsilon=0.1, nx=11, ny=4)
scheme = Scheme(solver="roe", order=1)
profile, _ = shock_problem.converge_1d(cfg, scheme)
field = shock_problem.project_to_2d(profile, cfg)
stability.eigensolve(stability.assemble(field, scheme))
run = marching.RunConfig(scheme=scheme)
series, _ = marching.march(field, run)
marching.fit_growth_rate(series, run.amplitude)
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
sys.exit(f"the verdict and the march imported {loaded[:3]}" if loaded else None)
"""


def test_a_verdict_and_a_march_load_no_scipy():
    # SciPy is a test dependency only: scipy.linalg alone loads SciPy's own
    # OpenBLAS beside NumPy's, about 10 MB of peak memory.  A fresh
    # interpreter, since this one has SciPy from the tests
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", VERDICT_AND_MARCH], env=env, capture_output=True, text=True)
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
TEST_ONLY_NAMES = {}


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
UNPASSED_DEFAULTS = {}


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


def _call_arguments():
    """(callee name, position or keyword) of every argument that a call in
    the package or the benchmark passes; a starred argument gives "*" and a
    double-starred one "**"."""
    passed = set()
    for path in sorted((ROOT / "src" / "shockstab").glob("*.py")) + sorted((ROOT / "shockbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((name, "*"))
            passed.update((name, position) for position in range(len(node.args)))
            passed.update((name, k.arg or "**") for k in node.keywords)
    return passed


def test_every_default_is_passed_by_some_caller():
    # a default that no call overrides is a constant in disguise: a knob the
    # program never turns
    passed = _call_arguments()
    params = [p for path in sorted((ROOT / "src" / "shockstab").glob("*.py"))
              for p in _defaulted_parameters(path)]
    assert params
    unpassed = sorted(
        qualified for qualified, function, position, keyword in params
        if not {(function, position), (function, keyword), (function, "**")} & passed
        and not (position is not None and (function, "*") in passed)
    )
    assert unpassed == sorted(UNPASSED_DEFAULTS)


# dataclass fields with a default that no call in the package or the
# benchmark sets, each kept for a stated reason
UNSET_FIELD_DEFAULTS = {
    "scheme.Scheme.weno_variant": "the WENO-JS weights stay selectable beside WENO-Z; tests run both",
    "scheme.Scheme.cap": "near-shock order caps are an option of the lab; tests assemble and march them",
    "shock_problem.ShockProblemConfig.mach": "tests check the jump relations at other Mach numbers",
    "shock_problem.ShockProblemConfig.shock_column": "tests place the shock in column 5 of a 9-column grid",
}


def _defaulted_fields(path):
    """(qualified name, class name, position in the constructor, field name)
    of every dataclass field with a default."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and (_is_frozen_dataclass(node) or _is_plain_dataclass(node)):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for position, item in enumerate(fields):
                if item.value is not None:
                    name = item.target.id
                    yield f"{path.stem}.{node.name}.{name}", node.name, position, name


def test_every_field_default_is_set_by_some_caller():
    # a field default that no construction and no replace(..., field=...)
    # overrides is a config field the program never sets
    passed = _call_arguments()
    defaulted = [f for path in sorted((ROOT / "src" / "shockstab").glob("*.py"))
                 for f in _defaulted_fields(path)]
    assert defaulted
    unset = sorted(
        qualified for qualified, cls, position, name in defaulted
        if not {(cls, position), (cls, name), (cls, "*"), (cls, "**"), ("replace", name)} & passed
    )
    assert unset == sorted(UNSET_FIELD_DEFAULTS)


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


# the functions that may name euler.cons_to_prim: the one conversion of a
# field's cells and ghost states, and the flux probes' conversion of
# perturbed face states
CONVERTERS = {
    "fields.MeanField.interior_primitive",
    "fields.apply_boundaries",
    "stability._fd_jacobians_U",
}


def _scopes_naming(target):
    """The qualified functions and classes of the package whose code names
    ``target``, as a name, an attribute or an imported alias."""
    named = set()
    for path in sorted((ROOT / "src" / "shockstab").glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                name = getattr(child, "id", None) or getattr(child, "attr", None)
                if name == target or (isinstance(child, ast.alias) and child.name == target):
                    named.add(".".join((path.stem,) + scope))
                visit(child, scope)

        visit(ast.parse(path.read_text()), ())
    return named


def test_only_fields_converts_cells():
    # every other module reads primitive cell states from the state axes
    # that fields.apply_boundaries builds
    assert _scopes_naming("cons_to_prim") == CONVERTERS


# the verdicts on whether a row is steady, each through the one measure: the
# LM's stop test, the steady solve's attempts and assemble's steady check
STEADY_VERDICTS = {"shock_problem._lm_refine_1d", "shock_problem.converge_1d", "stability.assemble"}


def test_one_measure_says_whether_a_row_is_steady():
    assert _scopes_naming("density_residual") == STEADY_VERDICTS


def _assigned_in(target):
    """The modules of the package that assign the name ``target`` anywhere."""
    return {path.stem for path in sorted((ROOT / "src" / "shockstab").glob("*.py"))
            if any(isinstance(node, ast.Name) and node.id == target
                   and isinstance(node.ctx, ast.Store)
                   for node in ast.walk(ast.parse(path.read_text())))}


def test_one_bound_says_whether_a_row_is_steady():
    # the verdicts compare the one measure with the one bound, defined in
    # marching next to the measure; ShockProblemConfig.converge_tol only
    # shows it to the code that reads a config
    assert _assigned_in("STEADY_TOL") == {"marching"}
    assert _scopes_naming("STEADY_TOL") == STEADY_VERDICTS | {
        "marching", "shock_problem.ShockProblemConfig"}


def test_the_step_owns_the_check_of_its_end_state():
    # step_ssprk3 refuses a non-finite end state, so neither march scans it
    named = _scopes_naming("isfinite")
    assert "marching.step_ssprk3" in named
    assert not named & {"marching.march", "shock_problem.converge_1d"}


# one rule says a state is usable.  euler._primitive is the formula both
# conversions share, and only euler names it.  euler.soft_primitive, the
# conversion that never raises, and euler.admissible, the one mask, serve
# the reconstruction's positivity fallback, the LM's damped trial rows and
# the steady solve's jittered restart starts
USABLE_STATE_READERS = {"reconstruction._reconstruct_sides",
                        "shock_problem._lm_refine_1d.evaluated.damped",
                        "shock_problem.converge_1d"}


def _defined_in(target):
    """The modules of the package that define a function named ``target``."""
    return {path.stem for path in sorted((ROOT / "src" / "shockstab").glob("*.py"))
            if any(isinstance(node, ast.FunctionDef) and node.name == target
                   for node in ast.walk(ast.parse(path.read_text())))}


def test_only_euler_names_the_conversion_formula():
    assert _defined_in("_primitive") == {"euler"}
    assert _scopes_naming("_primitive") == {"euler.cons_to_prim", "euler.soft_primitive"}


@pytest.mark.parametrize("target", ["soft_primitive", "admissible"])
def test_the_usable_state_rule_has_its_listed_readers(target):
    # a new reader is one more site that a complex-safe conversion of the
    # face states has to reach
    assert _defined_in(target) == {"euler"}
    assert _scopes_naming(target) == USABLE_STATE_READERS
