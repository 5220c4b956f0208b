import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_library_quickstart_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    assert names["p"] == pytest.approx(0.9)
    assert names["lam"] == pytest.approx(0.8)
    assert abs(names["amp"]) ** 2 == pytest.approx(0.9)
    assert names["report"].violation_statistic > 5.0
