"""The package namespace re-exports every module's public names, importing
the command line loads no module that gckit only needs for type hints or
class declarations, no module or test file keeps an unused import, no
module keeps an unreferenced private helper, and the benchmark's tracer
finds every function and cache it reads."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gckit

MODULES = ["graphs", "complexes", "orient", "multivectors"]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_bound_to_the_same_objects(name):
    module = importlib.import_module(f"gckit.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert attr in gckit.__all__
        assert getattr(gckit, attr) is getattr(module, attr), attr


def test_package_all_is_the_union_of_the_modules():
    names = ["__version__"]
    for name in MODULES:
        names += importlib.import_module(f"gckit.{name}").__all__
    assert gckit.__all__ == names


def _load_tracer():
    """The benchmark's trace mode, ``perfbench/tracer.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_function_of_its_module():
    tracer = _load_tracer()
    missing = [
        name
        for name, (module, attr, _, _) in tracer.TARGETS.items()
        if not inspect.isfunction(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"the tracer wraps undefined {missing}"


def test_the_tracer_reads_both_module_caches(tmp_path):
    tracer = _load_tracer()
    assert isinstance(tracer._normalize_before(), int)
    path = tmp_path / "dump.json"
    tracer.Tracer().dump(str(path))
    counters = json.loads(path.read_text())["counters"]
    assert sorted(counters) == [
        "canonical_entries", "canonical_hits", "canonical_misses", "normalize_entries",
    ]
    assert all(isinstance(value, int) for value in counters.values())


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    """Every verb is a fresh process, so what ``import gckit.cli`` loads is
    paid on each call.  ``-S`` leaves out ``site``, whose ``.pth`` files may
    import ``typing`` on their own."""
    probe = (
        "import gckit.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_orient_is_the_orientation_morphism():
    assert inspect.isfunction(gckit.orient)
    assert gckit.orient is importlib.import_module("gckit.orient").orient


SOURCES = sorted((ROOT / "src" / "gckit").glob("*.py"))


def _module_level_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's own import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names.append(alias.asname or alias.name.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", SOURCES + sorted((ROOT / "tests").glob("*.py")), ids=lambda path: path.name
)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _module_level_imports(tree) if name not in used]
    assert not unused, f"{path.name} never uses {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_integers_are_read_as_ascii_digits(path):
    """``\\d`` and ``isdecimal`` accept the digits of every script, which no
    writer prints; patterns spell ``[0-9]`` instead."""
    text = path.read_text(encoding="utf-8")
    assert "\\d" not in text and "isdecimal" not in text


def test_every_private_helper_is_referenced():
    texts = [
        path.read_text()
        for folder in ("src/gckit", "tests", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    unreferenced = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            word = re.compile(rf"(?<!\w){re.escape(node.name)}(?!\w)")
            if sum(len(word.findall(text)) for text in texts) == 1:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, unreferenced


def test_readme_names_only_defined_private_names():
    """Every private name in backticks in the README, bare or as
    ``module._name``, is defined in a module of ``src/gckit``."""
    modules = {name: importlib.import_module(f"gckit.{name}") for name in [*MODULES, "cli"]}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`(?:(\w+)\.)?(_[^\W_]\w*)[`(]", text)
    assert names
    missing = [
        f"{owner}.{name}" if owner else name
        for owner, name in names
        if not any(hasattr(modules[key], name) for key in modules if owner in ("", key))
    ]
    assert not missing, f"README names undefined {missing}"


def test_the_benchmark_selftest_passes():
    """``perfbench/selftest.py`` checks the tracer's bindings, that traced
    stdout is byte-identical to untraced, and the operation goldens, so a
    refactor that breaks any of them fails here and not only in the benchmark."""
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAIL")]
    assert (done.returncode, failed) == (0, []), done.stdout + done.stderr
