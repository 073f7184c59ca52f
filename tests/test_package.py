import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import powersde
from powersde import cli, montecarlo, params, quadrature

SRC = Path(powersde.__file__).resolve().parent


def test_every_exported_name_resolves():
    """Stale entries in a module's __all__ break star imports; fail fast."""
    modules = [powersde] + [
        importlib.import_module(f"powersde.{info.name}")
        for info in pkgutil.iter_modules(powersde.__path__)
        if not info.name.startswith("_")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_name_the_span_tracer_patches_exists():
    """perfbench/spans.py wraps package names from outside src/, and a
    renamed target shows there only as a missing span, so every target is
    checked here.  The file is parsed, not imported."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("_SPANS", "_MODEL_BUILDERS")
    }
    assert set(tables) == {"_SPANS", "_MODEL_BUILDERS"}
    targets = [(module, attr) for table in tables.values() for module, attr, _ in table]
    missing = [f"{module}.{attr}" for module, attr in targets if not hasattr(importlib.import_module(module), attr)]
    assert missing == []

    assert cli._COMMANDS and all(isinstance(name, str) and callable(fn) for name, fn in cli._COMMANDS.items())
    assert callable(quadrature.CumulativeTable.inverse)


def _import_time_nodes(nodes):
    """Every node that runs when its module is imported: all of them but
    function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _import_time_nodes(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    """scipy is most of the package's import time and only path draws and
    the clock-change threshold use it, so those import it where they run."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def _names_a_kind(node):
    """kind, something.kind or something["kind"]."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "kind"
    return getattr(node, "id", None) == "kind" or getattr(node, "attr", None) == "kind"


def _is_text(node):
    """A string literal, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_text(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_module_but_models_branches_on_a_kind_name():
    """Every fact about a prototype kind is declared in models.KINDS, so no
    other module compares a kind with a literal name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_names_a_kind, operands)) and any(map(_is_text, operands)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_but_models_and_schemes_reads_a_coefficients_function():
    """A coefficient's calling convention (fn, fed by its time table) is
    read by models, which declares it, and schemes, which steps with it."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("models.py", "schemes.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "fn"
    ]
    assert found == []


def test_no_module_but_params_spells_a_parameter_family():
    """params.FAMILIES holds each config spelling of a family once.  The test
    is for the whole literal, so a docstring or message that names a spec
    (const:v, say) passes."""
    assert set(params.FAMILIES) == {"const", "constant", "affine", "sin", "sinusoidal"}
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "params.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in params.FAMILIES
    ]
    assert found == []


def test_no_subcommand_prints_or_writes():
    """Each cmd_* returns its records and cli.main is their one writer."""
    commands = [
        node for node in ast.parse((SRC / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    found = [
        f"{node.name}:{call.lineno} {call.func.id}"
        for node in commands
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("print", "_write_table")
    ]
    assert len(commands) == len(cli._COMMANDS) and found == []


def _fresh_python(script, cwd=None):
    """The stdout lines of script run by a fresh interpreter that imports
    this package's source."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_the_package_leaves_scipy_unloaded():
    script = (
        "import sys\n"
        "import powersde\n"
        "print('scipy' in sys.modules)\n"
        "import powersde.cli\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _fresh_python(script) == ["False", "False"]


def test_runs_that_draw_no_path_leave_scipy_unloaded(tmp_path):
    """The analytic subcommands, every dry run and a refused run never load
    scipy."""
    (tmp_path / "moments.ini").write_text("[condition]\nq = -1\n")
    runs = [
        (["predict"], 0),
        (["feller", "--out", "feller.csv"], 0),
        (["ito", "--out", "ito.csv"], 0),
        (["converge", "--dry-run"], 0),
        (["moments", "--config", "moments.ini", "--dry-run"], 0),
        (["compare", "--dry-run"], 0),
        (["moments"], 3),
    ]
    script = (
        "import contextlib, io, sys\n"
        "from powersde import cli\n"
        f"for argv, _ in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'scipy' in sys.modules)\n"
    )
    assert _fresh_python(script, cwd=tmp_path) == [f"{argv[0]} {code} False" for argv, code in runs]


@pytest.mark.skipif(montecarlo._START_METHOD != "fork", reason="only forked workers inherit the parent's modules")
def test_forked_workers_inherit_the_normal_map():
    """The first pool of a process forks after scipy.special is loaded, so
    its workers need not import it."""
    script = (
        "import sys\n"
        "from functools import partial\n"
        "from powersde import montecarlo\n"
        "def loaded(name, i):\n"
        "    return name in sys.modules\n"
        "print('scipy' in sys.modules)\n"
        "print(montecarlo._run_batches(partial(loaded, 'scipy.special'), 2, 2))\n"
    )
    assert _fresh_python(script) == ["False", "[True, True]"]


def test_a_first_pooled_run_writes_the_serial_bytes(tmp_path):
    """A 2-worker converge run that is the first draw of its process, then a
    serial one: the same CSV."""
    (tmp_path / "run.ini").write_text("[experiment]\nlevels = 3:5\nref_level = 9\npaths = 1200\nseed = 7\n")
    script = (
        "from powersde import cli\n"
        "for out, workers in (('pooled.csv', '2'), ('serial.csv', '1')):\n"
        "    assert cli.main(['converge', '--config', 'run.ini', '--out', out, '--workers', workers]) == 0\n"
    )
    _fresh_python(script, cwd=tmp_path)
    pooled = (tmp_path / "pooled.csv").read_bytes()
    assert pooled.startswith(b"level,N,dt") and pooled == (tmp_path / "serial.csv").read_bytes()
