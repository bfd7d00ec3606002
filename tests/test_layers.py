"""Layer order of the package: graph kernel, then qualitative partitions,
then exact values and strategies.  No module imports from a layer above it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgsolve

PACKAGE = Path(sgsolve.__file__).parent


def _package_imports(module: str) -> set[str]:
    """Names of the sgsolve modules that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("sgsolve"):
                continue
            path = (node.module or "").removeprefix("sgsolve").lstrip(".")
            if path:
                found.add(path.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sgsolve."):
                    found.add(alias.name.split(".")[1])
    return found


def _reaches(module: str) -> set[str]:
    """The sgsolve modules that ``module`` imports directly or through other
    package modules."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for name in _package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {module}


def test_graph_kernel_imports_only_the_model():
    assert _reaches("graphs") <= {"model"}


def test_objectives_import_only_model_and_graphs():
    assert _reaches("objectives") <= {"model", "graphs"}


def test_exact_imports_only_model_and_graphs():
    assert _reaches("exact") <= {"model", "graphs"}


def test_qualitative_layer_does_not_import_exact_values_or_strategies():
    # Not even through another module: the peel takes the game it is given.
    assert _reaches("winning") <= {"graphs", "model"}


def test_transforms_reach_only_the_model():
    # ``rvi`` and ``classify_transitions`` take values their caller solved.
    assert _reaches("transforms") <= {"model"}


def test_import_reader_sees_every_form():
    assert "winning" in _package_imports("strategies")  # from . import winning
    assert "exact" in _package_imports("oracle")  # from .exact import ...
    assert "winning" in _reaches("oracle") - _package_imports("oracle")  # via values


def test_model_imports_no_other_package_module():
    assert not _package_imports("model")


def test_every_traced_name_resolves():
    # bench/run.py --trace 1 wraps each name of this table and fails on a
    # missing one, so renames must keep the traced names importable.
    path = PACKAGE.parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"sgsolve.{module}"), name, None))]
    assert not missing


def test_cli_import_leaves_numpy_unloaded():
    # Only iterate mode and simulation use numpy; they import it when run.
    probe = "import sys, sgsolve.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert done.stdout.strip() == "False"


def test_decided_leaves_numpy_unloaded():
    # The verdict table that ``decided`` and the sampler share is plain Python.
    probe = ("import sys; from sgsolve import Game, decided, reach; "
             "g = Game.of([('a', 'max', ('t', 'a')), ('t', 'max', ('t',))]); "
             "print(decided(reach('t'), g, ('a', 't')).value, "
             "'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert done.stdout.split() == ["satisfied-forever", "False"]


# Runs ``cli.main`` on the arguments after ``-c`` in a fresh interpreter,
# then writes to stderr the sgsolve modules it loaded and whether numpy is.
_PROBE = ("import sys; from sgsolve import cli; cli.main(sys.argv[1:]); print(repr(("
          "sorted(m for m in sys.modules if m.startswith('sgsolve')), "
          "'numpy' in sys.modules)), file=sys.stderr)")


def _loaded_by(*argv: str) -> tuple[set[str], bool]:
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    modules, numpy = ast.literal_eval(done.stderr.splitlines()[-1])
    return {m.removeprefix("sgsolve.") for m in modules}, numpy


@pytest.fixture(scope="module")
def ruin_file(tmp_path_factory):
    from sgsolve.cli import main

    path = tmp_path_factory.mktemp("games") / "ruin.game"
    assert main(["gallery", "ruin", "--cap", "5", "--emit", str(path)]) == 0
    return str(path)


def test_help_loads_only_the_package_and_the_cli():
    assert _loaded_by("--help") == ({"sgsolve", "cli"}, False)


def test_help_loads_neither_decimal_nor_fractions():
    # Directed printing imports ``decimal`` only when it prints, so a start
    # that prints nothing pays for neither module.
    probe = ("import sys; from sgsolve import cli; cli.main(['--help']); "
             "print('decimal' in sys.modules, 'fractions' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert done.stderr.split() == ["False", "False"]


def test_validate_loads_only_model_and_textio(ruin_file):
    assert _loaded_by("validate", ruin_file)[0] <= {"sgsolve", "cli", "model", "textio"}


def test_gallery_loads_no_solver():
    loaded, _ = _loaded_by("gallery", "ruin", "--cap", "5")
    assert not loaded & {"exact", "values", "winning", "strategies", "simulate", "oracle"}


@pytest.fixture(scope="module")
def fig2_file(tmp_path_factory):
    from sgsolve.cli import main

    path = tmp_path_factory.mktemp("games") / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "8", "--emit", str(path)]) == 0
    return str(path)


def test_exact_solve_loads_no_strategy_simulation_oracle_or_numpy(ruin_file, fig2_file):
    # Ruin has no owned choice, so its solve skips the float guess; fig2's
    # owned states have two moves, so its solve runs the guess.
    for path in (ruin_file, fig2_file):
        loaded, numpy = _loaded_by("solve", path)
        assert "values" in loaded
        assert not loaded & {"simulate", "strategies", "oracle", "gallery"}
        assert not numpy


@pytest.mark.parametrize("objective", ["reach", "buchi", "safety"])
def test_winning_set_loads_no_exact_solver_or_transform(fig2_file, objective):
    # The peels run on the game graph alone, on the game the file gives.
    loaded, numpy = _loaded_by("winning-set", fig2_file, "--objective", objective)
    assert "winning" in loaded
    assert not loaded & {"exact", "transforms", "values", "strategies", "simulate", "oracle"}
    assert not numpy


def test_package_holds_no_assert():
    # ``python -O`` strips asserts, so a guard on a result raises instead.
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found


def test_every_exception_class_derives_from_the_package_base():
    # ``main`` maps the base to exit 1, so a new error class must join it.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(f"sgsolve.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    found[node.name] = cls
    assert {"GameFormatError", "TruncationError", "InvariantError", "ConvergenceError",
            "ValueDecreaseError"} <= set(found)
    assert [name for name, cls in found.items() if not issubclass(cls, sgsolve.SgsolveError)] == []
