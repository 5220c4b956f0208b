import re
from pathlib import Path

import pytest

from ctxprob import cli

README = Path(__file__).parent.parent / "README.md"


def test_library_quickstart_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    assert names["p"] == pytest.approx(0.9)
    assert names["lam"] == pytest.approx(0.8)
    assert abs(names["amp"]) ** 2 == pytest.approx(0.9)
    assert names["report"].violation_statistic > 5.0
    assert abs(names["wave"].born_probabilities().sum() - 1.0) <= 1e-9


def test_scenario_example_runs(capsys, tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
    scenario.write_text(block)
    assert cli.main(["pattern", str(scenario)]) == 0
    assert capsys.readouterr().out.count("\n") == 257  # the header and 256 bins
    assert cli.main(["simulate", str(scenario), "--out", str(report)]) == 0
    assert report.stat().st_size > 0
    assert capsys.readouterr() == ("", "")


def test_a_byte_order_mark_is_not_text(capsys, tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        scenario, report = tmp_path / "scenario.json", tmp_path / f"report{len(mark)}.json"
        scenario.write_bytes(mark + block.encode())
        assert cli.main(["pattern", str(scenario)]) == 0
        assert cli.main(["simulate", str(scenario), "--out", str(report)]) == 0
        outputs.append((capsys.readouterr(), report.read_bytes()))
    assert outputs[0] == outputs[1]
