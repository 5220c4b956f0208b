import collections

import pytest

from ctxprob import cli, twoslit


@pytest.fixture
def validation_calls(monkeypatch):
    """A count of the calls of ``validate_scenario`` and ``validate_grid``, wherever they are imported."""
    calls = collections.Counter()
    for name in ("validate_scenario", "validate_grid"):
        def counted(record, name=name, check=getattr(twoslit, name)):
            calls[name] += 1
            return check(record)
        for module in (twoslit, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
