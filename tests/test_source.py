import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ctxprob

SOURCES = sorted(Path(ctxprob.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_with_the_oldest_supported_grammar(path):
    # pyproject.toml's requires-python is ">=3.10": syntax new in 3.11 would pass every
    # other test on 3.11 and still fail to import on 3.10.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"cli.py", "core.py", "interference.py", "twoslit.py"}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports anywhere in a source file, function bodies too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", d)[0].lower().replace("-", "_") for d in pyproject["project"]["dependencies"]}
    used = set().union(*map(imported_modules, SOURCES)) - set(sys.stdlib_module_names)
    assert used == declared


def top_level_names(path: Path) -> set[str]:
    """The names a source file defines at module level: its functions, classes and assigned names."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_every_public_name_is_used_outside_its_home_module_and_the_tests():
    # A public name earns its place by a use in another module, the benchmark, the README or the
    # acceptance gate; the package's __init__ only re-exports it and so does not count.
    users = [p for p in SOURCES if p.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))
    users += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    texts = {path: path.read_text(encoding="utf-8") for path in users}
    homes = {name: path for path in SOURCES for name in top_level_names(path)}
    unused = [
        name for name in ctxprob.__all__
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for path, text in texts.items() if path != homes[name])
    ]
    assert unused == []


def test_importing_the_cli_leaves_orjson_unloaded():
    # orjson is imported on its first use, so importing the CLI does not pay for it.
    code = "import sys, ctxprob, ctxprob.cli; print(sorted(m for m in sys.modules if 'orjson' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(ctxprob.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


FAILING_PROPERTY = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test_after_it():
    pass


def test_a_deprecation_warning_still_fails():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_a_failing_property_test_is_reported(tmp_path):
    # On a failure hypothesis imports libcst to print a patch, and libcst warns a
    # DeprecationWarning of its own; the warning filters must let the session go on.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
               str(tmp_path / "test_property.py")]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("2 failed, 1 passed"), result.stdout
