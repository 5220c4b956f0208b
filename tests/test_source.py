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


def test_importing_the_cli_leaves_orjson_unloaded():
    # orjson is imported on its first use, so importing the CLI does not pay for it.
    code = "import sys, ctxprob, ctxprob.cli; print(sorted(m for m in sys.modules if 'orjson' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(ctxprob.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
