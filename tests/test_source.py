import ast
from pathlib import Path

import pytest

import ctxprob

SOURCES = sorted(Path(ctxprob.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_with_the_oldest_supported_grammar(path):
    # pyproject.toml's requires-python is ">=3.10": syntax new in 3.11 would pass every
    # other test on 3.11 and still fail to import on 3.10.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"cli.py", "core.py", "interference.py", "twoslit.py"}
