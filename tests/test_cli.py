import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctxprob import ScenarioError, cli, twoslit
from ctxprob.core import EnsembleCounts, OutcomeSpace
from ctxprob.interference import KIND_LABELS
from ctxprob.twoslit import MAX_RUNS, decompose_empirical, interference_pattern, run_experiment

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCENARIO = {
    "grid": {"bins": 16, "x_min": -4.0, "x_max": 4.0},
    "envelopes": {
        "slit1": {"kind": "gaussian", "mean": 0.0, "sigma": 1.0},
        "slit2": {"kind": "gaussian", "mean": 0.0, "sigma": 1.0},
    },
    "phase": {"kind": "freewave", "p1": 2.5, "p2": -2.5, "h": 1.0},
    "sampling": {"n_emitted": 2000, "runs": 1, "seed": 42},
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    doc = {**SCENARIO, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


#: One bin where the branches cancel: equal table envelopes and the phase pi.
DARK_BIN = {
    "grid": {"bins": 1, "x_min": -1.0, "x_max": 1.0},
    "envelopes": {"slit1": {"kind": "table", "values": [1]}, "slit2": {"kind": "table", "values": [1]}},
    "phase": {"kind": "explicit", "values": [math.pi]},
}


@pytest.mark.parametrize("argv, scenario_checks", [
    (["pattern"], 1), (["simulate"], 1), (["--seed", "3", "simulate"], 2),  # --seed makes a new scenario
])
def test_each_record_is_checked_once(capsys, tmp_path, validation_calls, argv, scenario_checks):
    code, _, _ = run_cli(capsys, *argv, write_scenario(tmp_path))
    assert code == 0
    assert validation_calls == {"validate_scenario": scenario_checks, "validate_grid": 1}


def test_gaussian_parameters_are_checked_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(mean, sigma, check=twoslit._check_gaussian):
        calls.append((mean, sigma))
        return check(mean, sigma)

    for module in (twoslit, cli):
        monkeypatch.setattr(module, "_check_gaussian", counted)
    assert run_cli(capsys, "pattern", write_scenario(tmp_path))[0] == 0
    assert calls == [(0.0, 1.0), (0.0, 1.0)]  # one per envelope
    message = "envelopes.slit1: sigma must be positive and finite and mean finite, got sigma -1.0, mean 0.0"
    envelopes = {**SCENARIO["envelopes"], "slit1": {"kind": "gaussian", "mean": 0.0, "sigma": -1.0}}
    for grid in (SCENARIO["grid"], {**SCENARIO["grid"], "bins": 0.5}):  # with a grid, and without one
        code, _, err = run_cli(capsys, "pattern", write_scenario(tmp_path, grid=grid, envelopes=envelopes))
        assert (code, err.count("envelopes."), f"error: {message}\n" in err) == (2, 1, True)


#: 4096 bins on [-0.001, 0.003]: 204 midpoints near 0 print in exponent form
#: ("-4.882812499999462e-07"), so the counts objects' sorted keys interleave forms.
SMALL_X = {
    "grid": {"bins": 4096, "x_min": -0.001, "x_max": 0.003},
    "envelopes": {
        "slit1": {"kind": "gaussian", "mean": 0.0008, "sigma": 0.0007},
        "slit2": {"kind": "gaussian", "mean": 0.0012, "sigma": 0.0007},
    },
    "phase": {"kind": "freewave", "p1": 2500.0, "p2": -2500.0},
    "sampling": {"n_emitted": 100000, "runs": 2, "seed": 1},
}


@pytest.mark.parametrize("argv, size, digest", [
    (["--seed", "5", "simulate"], 2868380,
     "9ee88397ccf9c08ca6e6fdc48d41bae8468e4b1b90136dacb0ba227b388f9339"),
    (["pattern"], 472628, "d6b5014def432dcaa6518cfacd087efdfcd3822d1ce0aa32bab35946223e7558"),
], ids=["simulate", "pattern"])
def test_small_x_output_is_pinned(capsys, tmp_path, argv, size, digest):
    code, out, _ = run_cli(capsys, *argv, write_scenario(tmp_path, **SMALL_X))
    assert code == 0
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)


#: ``simulate`` of the golden scenario at seeds of two 32-bit words.
TWO_WORD_SEED = "7a274068a4e651938067ea48110e44037a292845a0a2d6421488f2bba8c40f19"
SEVEN_RUNS = "b0baef997a4ab9bccff1ed9667887cd0c7fefacfc15a90a6e02cba0a6201b6ad"


@pytest.mark.parametrize("argv, sampling, digest", [
    (["--seed", str(2**64 - 1), "simulate", "--workers", "1"], {}, TWO_WORD_SEED),
    (["--seed", str(2**64 - 1), "simulate", "--workers", "2"], {}, TWO_WORD_SEED),
    (["simulate", "--workers", "2"], {"runs": 7, "seed": 2**32}, SEVEN_RUNS),
], ids=["seed-2**64-1-workers-1", "seed-2**64-1-workers-2", "seed-2**32-runs-7-workers-2"])
def test_two_word_seeds_are_pinned(capsys, tmp_path, argv, sampling, digest):
    doc = json.loads((GOLDENS / "freewave_small.json").read_text())
    doc["sampling"].update(sampling)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, *argv, str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPattern:
    def test_a_pattern_summing_to_zero_is_written(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "pattern", write_scenario(tmp_path, **DARK_BIN))
        assert (code, err) == (0, "")
        assert out == "x,p1,p2,theta,p_classical,p_interference\n0,1,1,3.14159265358979,1,0\n"

    def test_classical_columns_coincide(self, capsys, tmp_path):
        path = write_scenario(
            tmp_path, phase={"kind": "explicit", "values": [math.pi / 2] * 16}
        )
        code, out, _ = run_cli(capsys, "pattern", path)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(row[4] == row[5] for row in rows)

    def test_explicit_nodes_render_as_zero(self, capsys, tmp_path):
        values = [math.pi / 2] * 16
        values[5] = math.pi
        values[9] = math.pi
        path = write_scenario(tmp_path, phase={"kind": "explicit", "values": values})
        code, out, _ = run_cli(capsys, "pattern", path)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[5][5] == "0" and rows[9][5] == "0"
        assert rows[5][4] != "0"  # the plain mixture stays positive

    def test_freewave_columns_differ_with_near_zero_nodes(self, capsys, tmp_path):
        path = write_scenario(
            tmp_path,
            grid={"bins": 512, "x_min": -7.0, "x_max": 7.0},
            phase={"kind": "freewave", "p1": 5.0, "p2": -4.7, "h": 1.0},
        )
        code, out, _ = run_cli(capsys, "pattern", path)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        xs = [float(r[0]) for r in rows]
        classical = [float(r[4]) for r in rows]
        full = [float(r[5]) for r in rows]
        assert any(abs(c - f) > 1e-6 for c, f in zip(classical, full))
        # closed-form node positions: theta(x) = 9.7 x = pi (mod 2 pi)
        k = 9.7
        for m in (-1, 1):
            node_x = m * math.pi / k
            i = min(range(len(xs)), key=lambda j: abs(xs[j] - node_x))
            assert full[i] < 0.02 * classical[i]

    @pytest.mark.parametrize("overrides, formatted", [
        ({"envelopes": {"slit1": {"kind": "table", "values": list(range(1, 17))},
                        "slit2": {"kind": "table", "values": list(range(16, 0, -1))}},
          "phase": {"kind": "explicit", "values": [0.37 * i - 2.0 for i in range(16)]}}, 6),
        ({"envelopes": {"slit1": {"kind": "gaussian", "mean": -1.0, "sigma": 1.0},
                        "slit2": {"kind": "gaussian", "mean": 1.0, "sigma": 0.5}},
          "phase": {"kind": "explicit", "values": [math.sin(i) for i in range(16)]}}, 6),
        ({}, 4),  # p2 and p_classical are p1
        ({"phase": {"kind": "freewave", "p1": 0.5, "p2": -0.5}}, 3),  # and theta is x
        ({"envelopes": {"slit1": {"kind": "table", "values": [0, 1] * 8},
                        "slit2": {"kind": "table", "values": [0, 1] * 8}},
          "phase": {"kind": "explicit", "values": [-0.0, 0.125] * 8}}, 4),  # -0.0 is not 0.0
    ], ids=["asymmetric-tables", "asymmetric-explicit", "symmetric", "phase-is-x", "signed-zero"])
    def test_cells_are_the_per_value_format_of_each_column(
        self, capsys, tmp_path, monkeypatch, overrides, formatted
    ):
        path = write_scenario(tmp_path, **overrides)
        scenario = cli.load_scenario(path)
        p1, p2, theta = scenario.envelope1, scenario.envelope2, scenario.phase_table()
        columns = (
            scenario.grid.midpoints(), p1, p2, theta, 0.5 * (p1 + p2),
            interference_pattern(p1, p2, theta),
        )
        calls = []
        fmt15 = cli.fmt15
        monkeypatch.setattr(cli, "fmt15", lambda value: calls.append(value) or fmt15(value))
        code, out, _ = run_cli(capsys, "pattern", path)
        assert code == 0
        # Each distinct value of each column that is not bit for bit an earlier one, formatted once.
        bits = [c.view(np.int64) for c in columns]
        fresh = [b for i, b in enumerate(bits) if not any(np.array_equal(a, b) for a in bits[:i])]
        assert len(fresh) == formatted
        assert len(calls) == sum(len(set(b.tolist())) for b in fresh)
        expected = [",".join("%.15g" % v for v in row) for row in zip(*(c.tolist() for c in columns))]
        assert out.splitlines() == [",".join(cli.PATTERN_HEADER), *expected]

    def test_missing_file_exits_2_and_names_path(self, capsys):
        code, out, err = run_cli(capsys, "pattern", "no_such_scenario.json")
        assert code == 2
        assert "no_such_scenario.json" in err

    def test_parse_errors_are_field_addressed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "grid": {"bins": "three", "x_min": 0.0, "x_max": 1.0},
            "envelopes": {
                "slit1": {"kind": "gaussian", "mean": 0.0, "sigma": -1.0},
                "slit2": {"kind": "uniform"},
            },
            "phase": {"kind": "mystery"},
            "sampling": {"n_emitted": 100},
        }))
        code, out, err = run_cli(capsys, "pattern", str(path))
        assert code == 2
        assert "error: envelopes.slit1: sigma must be positive and finite and mean finite, got sigma -1.0, mean 0.0\n" in err
        assert "phase.kind" in err
        assert "grid.bins" in err

    def test_an_unknown_envelope_kind_is_refused(self, capsys, tmp_path):
        envelopes = {**SCENARIO["envelopes"], "slit1": {"kind": "x"}}
        code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, envelopes=envelopes))
        assert (code, out, err) == (2, "", "error: envelopes.slit1.kind: unknown envelope kind 'x'\n")

    def test_invariant_violations_are_field_addressed_too(self, capsys, tmp_path):
        path = write_scenario(tmp_path, grid={"bins": -3, "x_min": 0.0, "x_max": 1.0},
                              phase={"kind": "freewave", "p1": 1.0, "p2": -1.0, "h": 1.0})
        code, _, err = run_cli(capsys, "pattern", path)
        assert code == 2
        assert "grid.bins" in err

    def test_golden_output_is_stable(self, capsys):
        # pattern draws nothing, so the global --seed leaves it as it is
        for seed in ([], ["--seed", "5"]):
            code, out, _ = run_cli(capsys, *seed, "pattern", str(GOLDENS / "classical_small.json"))
            assert code == 0
            assert out == (GOLDENS / "pattern_classical.csv").read_text()

    def test_out_flag_writes_file_instead_of_stdout(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        target = tmp_path / "pattern.csv"
        code, out, _ = run_cli(capsys, "pattern", scenario, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,p1,p2,theta,")


class TestSimulate:
    def test_golden_report_is_reproduced(self, capsys):
        # Pins the random streams and every per-bin field of the report.
        code, out, _ = run_cli(capsys, "simulate", str(GOLDENS / "freewave_small.json"))
        assert code == 0
        assert out == (GOLDENS / "simulate_freewave_small.json").read_text()

    @pytest.mark.parametrize("rows", [1, 7])
    def test_golden_report_in_blocks_of_rows(self, capsys, monkeypatch, rows):
        # 16 bins: one record per block, and blocks of 7, 7 and 2 records.
        monkeypatch.setattr(cli, "BLOCK_ROWS", rows)
        code, out, _ = run_cli(capsys, "simulate", str(GOLDENS / "freewave_small.json"))
        assert code == 0
        assert out == (GOLDENS / "simulate_freewave_small.json").read_text()

    def test_failed_render_leaves_the_out_file_as_it_was(self, tmp_path, monkeypatch):
        report_document = cli.report_document

        def infinite(report):
            doc = report_document(report)
            doc["violation_statistic"] = math.inf  # rendered after the bins
            return doc

        monkeypatch.setattr(cli, "report_document", infinite)
        scenario = write_scenario(tmp_path)
        target = tmp_path / "report.json"
        target.write_bytes(b"an earlier report\n")
        with pytest.raises(ValueError) as expected:
            canonical({"violation_statistic": math.inf})
        with pytest.raises(ValueError) as raised:
            cli.main(["simulate", scenario, "--out", str(target)])
        assert str(raised.value) == str(expected.value)
        assert target.read_bytes() == b"an earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "scenario.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("through_symlink", [False, True])
    def test_out_to_a_fifo_is_written_in_place(self, capsys, tmp_path, through_symlink):
        scenario = write_scenario(tmp_path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        target = tmp_path / "link" if through_symlink else fifo
        if through_symlink:
            target.symlink_to(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, "simulate", scenario, "--out", str(target))
        reader.join(timeout=30)
        _, expected, _ = run_cli(capsys, "simulate", scenario)
        assert code == 0
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert target.is_symlink() == through_symlink
        assert len(list(tmp_path.iterdir())) == 2 + through_symlink

    @pytest.mark.parametrize("link", [os.symlink, os.link])
    def test_out_through_a_link_writes_the_linked_file(self, capsys, tmp_path, link):
        scenario = write_scenario(tmp_path)
        report = tmp_path / "report.json"
        report.write_text("an earlier report\n")
        target = tmp_path / "out.json"
        link(report, target)
        code, expected, _ = run_cli(capsys, "simulate", scenario)
        assert run_cli(capsys, "simulate", scenario, "--out", str(target))[0] == code == 0
        assert report.read_text() == target.read_text() == expected
        assert target.is_symlink() == (link is os.symlink)

    def test_out_file_keeps_its_permissions(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        target = tmp_path / "report.json"
        target.write_text("an earlier report\n")
        target.chmod(0o640)
        code, _, _ = run_cli(capsys, "simulate", scenario, "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["report"]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_reports_are_byte_identical_across_runs_and_workers(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        outs = []
        for name, workers in (("a.json", "1"), ("b.json", "1"), ("c.json", "4")):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "simulate", scenario, "--out", str(out_path), "--workers", workers
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_report_round_trips_byte_identically(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", scenario)
        assert code == 0
        assert canonical(json.loads(out)) == out

    @pytest.mark.parametrize("constant, overrides", [
        ("NaN", {"envelopes": {
            "slit1": {"kind": "gaussian", "mean": 0.0, "sigma": math.nan},
            "slit2": {"kind": "uniform"},
        }}),
        ("-Infinity", {"grid": {"bins": 16, "x_min": -math.inf, "x_max": 4.0}}),
    ])
    def test_non_finite_constants_exit_2(self, capsys, tmp_path, constant, overrides):
        path = write_scenario(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert f"error: {path}: {constant} is not a finite number" in err

    def test_non_finite_values_from_library_callers(self):
        grid = {"bins": 16, "x_min": -4.0, "x_max": math.inf}
        with pytest.raises(ScenarioError) as exc:
            cli.parse_scenario({**SCENARIO, "grid": grid})
        assert [p for p, _ in exc.value.problems] == ["grid.range"]
        envelopes = {"slit1": {"kind": "gaussian", "mean": 0.0, "sigma": math.nan},
                     "slit2": {"kind": "uniform"}}
        with pytest.raises(ScenarioError) as exc:
            cli.parse_scenario({**SCENARIO, "envelopes": envelopes})
        assert [p for p, _ in exc.value.problems] == ["envelopes.slit1"]

    @pytest.mark.parametrize("command", ["simulate", "pattern"])
    def test_grid_too_narrow_for_distinct_labels_exit_2(self, capsys, tmp_path, command):
        # Equal midpoints would give two bins one label, and one counts key.
        path = write_scenario(tmp_path, grid={"bins": 8, "x_min": 1.0, "x_max": 1.0000000000000004})
        code, out, err = run_cli(capsys, command, path)
        assert (code, out, err) == (2, "", "error: grid.range: 8 bins have equal midpoints on this range\n")

    @pytest.mark.parametrize("n_emitted, runs", [(10**20, 1), (2**62, 2)])
    def test_emissions_beyond_int64_exit_2(self, capsys, tmp_path, n_emitted, runs):
        path = write_scenario(tmp_path, sampling={"n_emitted": n_emitted, "runs": runs, "seed": 1})
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert "error: sampling.n_emitted: n_emitted * runs must be below 2**63" in err

    @pytest.mark.parametrize("command", ["simulate", "pattern"])
    @pytest.mark.parametrize("field, overrides", [
        ("phase.finite", {"phase": {"kind": "freewave", "p1": 1e308, "p2": -1e308, "h": 1.0}}),
        ("phase.finite", {"phase": {"kind": "freewave", "p1": 2.5, "p2": -2.5, "h": 1e-320}}),
        ("grid.range", {"grid": {"bins": 16, "x_min": -1e308, "x_max": 1e308}}),
        ("grid.x_min", {"grid": {"bins": 16, "x_min": -10**400, "x_max": 4.0}}),
        ("phase.values", {"phase": {"kind": "explicit", "values": [10**400] * 16}}),
        ("grid.bins", {"grid": {"bins": 2**63, "x_min": -4.0, "x_max": 4.0},
                       "envelopes": {"slit1": {"kind": "uniform"}, "slit2": {"kind": "uniform"}}}),
        ("envelopes.slit1.values", {"envelopes": {  # each weight finite, their sum not
            "slit1": {"kind": "table", "values": [1e308] * 16}, "slit2": {"kind": "uniform"}}}),
    ])
    def test_overflowing_numbers_exit_2(self, capsys, tmp_path, command, field, overrides):
        path = write_scenario(tmp_path, **overrides)
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("command", ["simulate", "pattern"])
    def test_overflowing_gaussian_sigma_exit_2(self, capsys, tmp_path, command):
        # json reads the literal 1e400 as inf; unchecked, it gives the uniform envelope.
        envelopes = {"slit1": {"kind": "gaussian", "mean": 0.0, "sigma": 0.5}, "slit2": {"kind": "uniform"}}
        path = Path(write_scenario(tmp_path, envelopes=envelopes))
        path.write_text(path.read_text().replace('"sigma": 0.5', '"sigma": 1e400'))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: envelopes.slit1: sigma must be positive and finite")

    @pytest.mark.parametrize("field, doc", [
        ("envelopes.slit1.values", lambda values: {"envelopes": {
            "slit1": {"kind": "table", "values": values}, "slit2": {"kind": "uniform"}}}),
        ("phase.values", lambda values: {"phase": {"kind": "explicit", "values": values}}),
    ], ids=["table", "explicit"])
    @pytest.mark.parametrize("values, message", [
        (5, "expected an array, got 5"),
        ([1.0] * 15, "15 values for 16 bins"),
        ([1.0] * 15 + ["a"], "expected a number, got 'a'"),
        ([None] + [1.0] * 15, "expected a number, got None"),
        (["1"] * 16, "expected a number, got '1'"),
        ([1] * 8 + [True] * 8, "expected a number, got True"),
        ([1.0] * 15 + [10**400], f"expected a number, got {10**400!r}"),
    ], ids=["not-a-list", "length", "string", "null", "numeric-string", "boolean", "int-beyond-float-range"])
    def test_per_bin_list_errors_exit_2(self, capsys, tmp_path, field, doc, values, message):
        path = write_scenario(tmp_path, **doc(values))
        code, out, err = run_cli(capsys, "pattern", path)
        assert code == 2 and out == ""
        assert err == f"error: {field}: {message}\n"

    @pytest.mark.parametrize("overrides, err", [
        ({"envelopes": {"slit1": {"kind": "gaussian", "sigma": 1.0}, "slit2": {"kind": "uniform"}}},
         "error: envelopes.slit1.mean: missing\n"),
        ({"envelopes": {"slit1": {"mean": 0.0, "sigma": 1.0}, "slit2": {"kind": "uniform"}}},
         "error: envelopes.slit1.kind: missing\n"),
        ({"phase": {"values": [0.0] * 16}}, "error: phase.kind: missing\n"),
        ({"phase": {"kind": "freewave", "p2": -2.5, "h": "x"}},
         "error: phase.p1: missing\nerror: phase.h: expected a number, got 'x'\n"),
    ], ids=["gaussian-mean", "envelope-kind", "phase-kind", "freewave-p1-and-h"])
    def test_missing_fields_exit_2(self, capsys, tmp_path, overrides, err):
        code, out, stderr = run_cli(capsys, "pattern", write_scenario(tmp_path, **overrides))
        assert (code, out, stderr) == (2, "", err)

    @pytest.mark.parametrize("doc", [[], "scenario", None], ids=["array", "string", "null"])
    def test_a_scenario_that_is_not_an_object_is_refused(self, doc):
        with pytest.raises(ScenarioError) as raised:
            cli.parse_scenario(doc)
        assert raised.value.problems == [("", f"expected a JSON object, got {doc!r}")]

    @pytest.mark.parametrize("text, shown", [("[1]", "[1]"), ("null", "None"), ('"x"', "'x'")],
                             ids=["array", "null", "string"])
    def test_a_scenario_file_that_is_not_an_object_is_named(self, capsys, tmp_path, text, shown):
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "pattern", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: expected a JSON object, got {shown}\n")

    @pytest.mark.parametrize("text, message", [
        (b'{"grid": \xff}', "cannot read scenario file"),
        (b'{"grid": 1' + b"0" * 5000 + b"}", "invalid JSON"),
    ])
    def test_unreadable_scenario_text_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("workers", ["-3", "0", "two", "abc"])
    def test_workers_must_be_a_positive_integer(self, capsys, tmp_path, workers):
        path = write_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", path, "--workers", workers])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --workers: must be an integer >= 1, got {workers!r}\n")

    def test_a_pattern_summing_to_zero_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", write_scenario(tmp_path, **DARK_BIN))
        assert (code, out, err) == (2, "", "error: pattern: interference pattern sums to zero\n")

    def test_zero_emissions_exit_3(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path, sampling={"n_emitted": 0, "runs": MAX_RUNS, "seed": 1}
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", scenario)
        assert time.perf_counter() - start < 0.5  # before any run is drawn
        assert (code, out, err) == (3, "", "error: pooled context has zero detected systems\n")

    @pytest.mark.parametrize("runs", [MAX_RUNS + 1, 2**63])
    def test_runs_are_bounded(self, capsys, tmp_path, runs):
        path = write_scenario(tmp_path, sampling={"n_emitted": 0, "runs": runs, "seed": 1})
        code, out, err = run_cli(capsys, "simulate", path)
        assert (code, out) == (2, "")
        assert err == f"error: sampling.runs: need 1 to {MAX_RUNS} runs, got {runs}\n"

    def test_fringe_scenario_reports_violation(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path, sampling={"n_emitted": 100000, "runs": 1, "seed": 7}
        )
        code, out, _ = run_cli(capsys, "simulate", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["violation_statistic"] > 5.0
        assert doc["tool"]["name"] == "ctxprob"
        assert doc["scenario"]["sampling"]["seed"] == 7

    def test_seed_override_changes_the_draw(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path)
        _, base, _ = run_cli(capsys, "simulate", scenario)
        _, overridden, _ = run_cli(capsys, "--seed", "123", "simulate", scenario)
        assert json.loads(base)["report"] != json.loads(overridden)["report"]
        assert json.loads(overridden)["scenario"]["sampling"]["seed"] == 123

    def test_out_dir_env_var_resolves_relative_paths(self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "outputs"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(out_dir))
        scenario = write_scenario(tmp_path)
        code, _, _ = run_cli(capsys, "simulate", scenario, "--out", "report.json")
        assert code == 0
        assert (out_dir / "report.json").exists()


class TestAnalyze:
    def test_golden_output_is_stable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            str(GOLDENS / "counts_s.csv"),
            str(GOLDENS / "counts_s1.csv"),
            str(GOLDENS / "counts_s2.csv"),
        )
        assert code == 0
        assert out == (GOLDENS / "analyze_freewave.csv").read_text()

    def test_labels_with_csv_specials_are_quoted(self, capsys, tmp_path):
        labels = ["a,b", 'say "hi"']
        files = []
        for name, counts in (("s", (30, 70)), ("s1", (50, 50)), ("s2", (40, 60))):
            path = tmp_path / f"{name}.csv"
            with path.open("w", newline="") as stream:
                csv.writer(stream).writerows([("bin", "count"), *zip(labels, counts)])
            files.append(str(path))
        code, out, _ = run_cli(capsys, "analyze", *files)
        assert code == 0
        rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == labels

    def test_branch_files_in_another_bin_order(self, capsys, tmp_path):
        # Bins are aligned by label, not by row: reordered branch files give
        # the same table, in the pooled file's order. A final blank line sends
        # a file to the csv row loop instead of the plain path.
        for end in ("\n", "\n\n"):
            paths = [str(GOLDENS / "counts_s.csv")]
            for name, shuffle in (
                ("counts_s1.csv", lambda rows: rows[::-1]),
                ("counts_s2.csv", lambda rows: rows[5:] + rows[:5]),
            ):
                header, *rows = (GOLDENS / name).read_text().splitlines()
                path = tmp_path / name
                path.write_text("\n".join([header, *shuffle(rows)]) + end)
                paths.append(str(path))
            code, out, _ = run_cli(capsys, "analyze", *paths)
            assert code == 0
            assert out == (GOLDENS / "analyze_freewave.csv").read_text()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        files = [str(GOLDENS / f"counts_{c}.csv") for c in ("s", "s1", "s2")]
        with pytest.raises(SystemExit) as exc:
            cli.main(["--tol", tol, "analyze", *files])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_matches_in_process_decomposition(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path, sampling={"n_emitted": 50000, "runs": 1, "seed": 3}
        )
        code, report_text, _ = run_cli(capsys, "simulate", scenario)
        assert code == 0
        doc = json.loads(report_text)
        paths = {}
        for ctx, fn in (("S", "s.csv"), ("S1", "s1.csv"), ("S2", "s2.csv")):
            rows = ["bin,count"] + [
                f"{b},{n}" for b, n in doc["report"]["counts"][ctx]["counts"].items()
            ]
            p = tmp_path / fn
            p.write_text("\n".join(rows) + "\n")
            paths[ctx] = str(p)
        code, out, _ = run_cli(capsys, "analyze", paths["S"], paths["S1"], paths["S2"])
        assert code == 0
        table = {}
        summary = {}
        for line in out.strip().splitlines()[1:]:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                summary[key.strip()] = float(value)
                continue
            cells = line.split(",")
            table[cells[0]] = cells
        by_bin = {b["bin"]: b for b in doc["report"]["bins"]}
        assert set(table) == set(by_bin)
        for label, cells in table.items():
            ref = by_bin[label]
            # 15-significant-digit rendering loses at most ~1 ulp per field
            for column, key in ((1, "p_s"), (2, "p_1"), (3, "p_2"), (4, "delta")):
                assert math.isclose(
                    float(cells[column]), ref[key], rel_tol=1e-13, abs_tol=1e-18
                )
            if cells[5]:
                assert math.isclose(float(cells[5]), ref["lambda"], rel_tol=1e-13)
            else:
                assert ref["lambda"] is None
        assert math.isclose(
            summary["violation_statistic"],
            doc["report"]["violation_statistic"],
            rel_tol=1e-13,
        )
        assert math.isclose(summary["splitting_c1"], doc["report"]["splitting"]["c1"], rel_tol=1e-13)

    def test_classical_counts_classify_near_quarter_phase(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            phase={"kind": "explicit", "values": [math.pi / 2] * 16},
            sampling={"n_emitted": 200000, "runs": 1, "seed": 19},
        )
        code, report_text, _ = run_cli(capsys, "simulate", scenario)
        assert code == 0
        doc = json.loads(report_text)
        for ctx, fn in (("S", "s.csv"), ("S1", "s1.csv"), ("S2", "s2.csv")):
            rows = ["bin,count"] + [
                f"{b},{n}" for b, n in doc["report"]["counts"][ctx]["counts"].items()
            ]
            (tmp_path / fn).write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "analyze",
            str(tmp_path / "s.csv"), str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv"),
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:] if not r.startswith("#")]
        classified = [(float(r[5]), float(r[7])) for r in rows if r[6] == "trigonometric"]
        assert len(classified) >= 0.75 * len(rows)
        well_sampled = [t for lam, t in classified if abs(lam) < 0.2]
        assert well_sampled, "expected bins with small lambda"
        median_theta = sorted(well_sampled)[len(well_sampled) // 2]
        assert abs(median_theta - math.pi / 2) < 0.2

    def test_degenerate_bins_are_rows_not_errors(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\na,50\nb,50\n")
        (tmp_path / "s1.csv").write_text("bin,count\na,0\nb,60\n")
        (tmp_path / "s2.csv").write_text("bin,count\na,30\nb,30\n")
        code, out, _ = run_cli(
            capsys, "analyze",
            str(tmp_path / "s.csv"), str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv"),
        )
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:] if not r.startswith("#")}
        assert rows["a"][6] == "degenerate"
        assert rows["a"][5] == "" and rows["a"][7] == ""
        assert rows["b"][6] != "degenerate"

    @pytest.mark.parametrize("context", ["S1", "S2"])
    def test_branch_with_zero_detections_exit_3(self, capsys, tmp_path, context):
        files = []
        for name, counts in (("S", (5, 5)), ("S1", (4, 1)), ("S2", (3, 2))):
            path = tmp_path / f"{name}.csv"
            rows = zip("ab", (0, 0) if name == context else counts)
            path.write_text("bin,count\n" + "".join(f"{b},{n}\n" for b, n in rows))
            files.append(str(path))
        code, out, err = run_cli(capsys, "analyze", *files)
        assert (code, out, err) == (3, "", f"error: context '{context}' has zero detected systems\n")

    def test_mismatched_bins_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\na,50\nb,50\n")
        (tmp_path / "s1.csv").write_text("bin,count\na,25\nc,25\n")
        (tmp_path / "s2.csv").write_text("bin,count\na,25\nb,25\n")
        path = str(tmp_path / "s1.csv")
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "s.csv"), path, str(tmp_path / "s2.csv"))
        assert (code, err) == (
            2, f"error: {path}: bin labels do not match the pooled file (first differences: ['b', 'c'])\n"
        )

    def test_malformed_csv_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("wrong,header\na,50\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        code, _, err = run_cli(
            capsys, "analyze",
            str(tmp_path / "s.csv"), str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"),
        )
        assert code == 2
        assert "bin,count" in err

    def test_duplicate_bin_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\na,50\na,10\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        code, _, err = run_cli(
            capsys, "analyze",
            str(tmp_path / "s.csv"), str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"),
        )
        assert code == 2
        assert "duplicate bin" in err

    def test_missing_counts_file_exit_2(self, capsys, tmp_path):
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        code, _, err = run_cli(
            capsys, "analyze",
            str(tmp_path / "absent.csv"), str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"),
        )
        assert code == 2
        assert "absent.csv" in err

    def test_non_integer_count_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\na,12.5\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        code, _, err = run_cli(
            capsys, "analyze",
            str(tmp_path / "s.csv"), str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"),
        )
        assert code == 2
        assert "not an integer" in err

    @pytest.mark.parametrize("rows", [
        f"a,{10**20}\n", f"a,{2**63 - 1}\nb,5\n", "".join(f"b{i},{'9' * 18}\n" for i in range(10)),
    ])
    def test_counts_beyond_int64_exit_2(self, capsys, tmp_path, rows):
        (tmp_path / "s.csv").write_text("bin,count\n" + rows)
        (tmp_path / "ok.csv").write_text("bin,count\na,25\nb,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: counts sum to ")
        assert "must be below 2**63" in err

    def test_undecodable_counts_file_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_bytes(b"bin,count\na,\xff\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: cannot read counts file")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_labels_with_line_breaks_round_trip(self, capsys, tmp_path, newline):
        # A quoted break stays in its label; a form feed, a line boundary of
        # str.splitlines but not of csv, neither splits its row nor is quoted.
        labels = ["a\nb", "c\x0cd", "e\r\nf", "g"]
        files = []
        for name, counts in (("s", (30, 70, 20, 5)), ("s1", (50, 50, 10, 5)), ("s2", (40, 60, 30, 5))):
            path = tmp_path / f"{name}.csv"
            with path.open("w", newline="") as stream:
                csv.writer(stream, lineterminator=newline).writerows([("bin", "count"), *zip(labels, counts)])
            files.append(str(path))
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "analyze", *files, "--out", str(out_path))
        assert (code, err) == (0, "")
        with out_path.open(newline="") as stream:
            rows = [row for row in csv.reader(stream) if not row[0].startswith("#")]
        assert [len(row) for row in rows] == [9] * 5
        assert [row[0] for row in rows[1:]] == labels

    def test_crlf_files_are_read_as_columns(self, capsys, tmp_path):
        # csv.writer ends lines with "\r\n"; such files take the plain path.
        paths = []
        for name in ("counts_s.csv", "counts_s1.csv", "counts_s2.csv"):
            path = tmp_path / name
            path.write_bytes((GOLDENS / name).read_bytes().replace(b"\n", b"\r\n"))
            paths.append(str(path))
        with mock.patch.object(csv, "reader", side_effect=AssertionError("not a plain file")):
            code, out, err = run_cli(capsys, "analyze", *paths)
        assert (code, err) == (0, "")
        assert out == (GOLDENS / "analyze_freewave.csv").read_text()

    def test_a_byte_order_mark_is_not_text(self, capsys, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with one; it is no part of the header.
        paths = []
        for name in ("counts_s.csv", "counts_s1.csv", "counts_s2.csv"):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + (GOLDENS / name).read_bytes())
            paths.append(str(path))
        code, out, err = run_cli(capsys, "analyze", *paths)
        assert (code, err) == (0, "")
        assert out == (GOLDENS / "analyze_freewave.csv").read_text()

    def test_lone_carriage_returns_end_rows(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_bytes(b"bin,count\ra,1\r\nb,x\rc,2\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:3: count 'x' is not an integer\n"

    def test_every_row_must_hold_one_comma(self, capsys, tmp_path):
        # Two rows with two commas in all: joining the rows and splitting once would read a: 1, b: 2.
        (tmp_path / "s.csv").write_text("bin,count\na,1,b\n2\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: expected 2 fields, got 3\nerror: {path}:3: expected 2 fields, got 1\n"

    def test_line_numbers_count_blank_lines(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\n\n\na,x\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:4: count 'x' is not an integer\n"

    def test_field_beyond_the_csv_limit_exit_2(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("bin,count\na,5\n" + "b" * (csv.field_size_limit() + 1) + ",5\n")
        (tmp_path / "ok.csv").write_text("bin,count\na,25\n")
        path = str(tmp_path / "s.csv")
        code, out, err = run_cli(capsys, "analyze", path, str(tmp_path / "ok.csv"), str(tmp_path / "ok.csv"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:3: field larger than field limit")

    def test_classification_tolerance_is_forwarded(self, capsys, tmp_path):
        # These counts give lambda = +-0.8; a wide band absorbs them.
        (tmp_path / "s.csv").write_text("bin,count\na,90\nb,10\n")
        (tmp_path / "s1.csv").write_text("bin,count\na,50\nb,50\n")
        (tmp_path / "s2.csv").write_text("bin,count\na,50\nb,50\n")
        files = [str(tmp_path / f) for f in ("s.csv", "s1.csv", "s2.csv")]
        code, out, _ = run_cli(capsys, "analyze", *files)
        assert code == 0
        kinds = [r.split(",")[6] for r in out.strip().splitlines()[1:] if not r.startswith("#")]
        assert set(kinds) == {"trigonometric"}
        code, out, _ = run_cli(capsys, "--tol", "0.5", "analyze", *files)
        assert code == 0
        kinds = [r.split(",")[6] for r in out.strip().splitlines()[1:] if not r.startswith("#")]
        assert set(kinds) == {"boundary"}


def canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


TEXT = st.text(max_size=6) | st.sampled_from(["%", "%s", '"', "\n", "é", "∑ %d\n"])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e300])
SCALARS = FLOATS | st.integers() | st.booleans() | st.none() | TEXT

NODE_FLOATS = st.floats(allow_infinity=False) | st.sampled_from(
    [math.nan, -0.0, 5e-324, 2.5e-310, 1e-05, 1e16, 0.1]
)


class Floats(list):
    """A float64 column: its node renders each value's ``repr``, NaN as null."""


class Texts(list):
    """A column of JSON values: its node renders the texts json.dumps gives them."""


class Records(dict):
    """Records as columns of one length, ``Floats`` or ``Texts``: its node renders the list of records."""


class Counts(dict):
    """A counts object ``{label: count}``: its node is a ``JsonCounts``."""


def part(column):
    """The part that gives a block's texts of a column."""
    if type(column) is Floats:
        return cli._floats(np.array(column, float))
    return list(map(json.dumps, column)).__getitem__


def node(doc):
    """``doc`` as a report holds it: each column, records or counts as a per-bin node."""
    kind = type(doc)
    if kind is Records:  # each field's head a str part, indented where the list is rendered
        parts = []
        for i, name in enumerate(sorted(doc)):
            parts += [("," if i else "{") + "\n    " + json.dumps(name) + ": ", part(doc[name])]
        return cli.PerBin("[]", len(next(iter(doc.values()))), [*parts, "\n  }"])
    if kind is Counts:
        labels = sorted(doc)
        row = np.array([doc[label] for label in labels], np.int64)
        return cli.JsonCounts(labels, list(map(json.dumps, labels)), row)
    if kind in (Floats, Texts):
        return cli.PerBin("[]", len(doc), [part(doc)])
    return {k: node(v) for k, v in doc.items()} if kind is dict else doc


def plain(doc):
    """``doc`` as json.dumps is given it, NaN in a float column read as None. A node the program
    built reads back as its entries, each parsed from a block of all rows on its own."""
    if isinstance(doc, (Counts, cli.JsonCounts)):
        return dict(doc)
    if isinstance(doc, cli.PerBin):
        texts = [[p] * doc.rows if type(p) is str else p(slice(0, doc.rows)) for p in doc.parts]
        return [json.loads("".join(entry)) for entry in zip(*texts)]
    if type(doc) is Records:
        return [dict(zip(doc, row)) for row in zip(*map(plain, doc.values()))]
    if type(doc) is Floats:
        return [None if v != v else v for v in doc]
    return {k: plain(v) for k, v in doc.items()} if isinstance(doc, dict) else doc


def columns(rows):
    return st.one_of(
        st.lists(NODE_FLOATS, min_size=rows, max_size=rows).map(Floats),
        st.lists(SCALARS, min_size=rows, max_size=rows).map(Texts),
    )


@st.composite
def per_bin_docs(draw):
    """A float or text column, records or counts, of 0 to 9 rows."""
    rows, shape = draw(st.integers(0, 9)), draw(st.sampled_from([Records, Counts, list]))
    if shape is Records:
        names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
        return Records({name: draw(columns(rows)) for name in names})
    if shape is Counts:
        labels = draw(st.lists(TEXT, min_size=rows, max_size=rows, unique=True))
        return Counts(zip(labels, draw(st.lists(st.integers(0, 2**63 - 1), min_size=rows, max_size=rows))))
    return draw(columns(rows))


DOCUMENTS = st.recursive(
    SCALARS | per_bin_docs(),
    lambda children: st.dictionaries(TEXT, children, max_size=4),
    max_leaves=30,
)


class TestRenderJson:
    @given(DOCUMENTS, st.integers(1, 4))
    def test_matches_json_dumps(self, doc, block_rows):
        with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
            assert cli.render_json(node(doc)) == canonical(plain(doc))

    def test_equal_floats_of_other_bits_keep_their_own_text(self):
        column = Floats([0.0, -0.0, 1e16, -0.0, 0.0, math.nan, 1e16])
        doc = {"a": column, "b": {"c": Records({"v": column})}}
        assert cli.render_json(node(doc)) == canonical(plain(doc))

    @pytest.mark.parametrize("value", [object(), np.array(1.0)], ids=["object", "0-d float64"])
    def test_a_value_without_a_length_raises_as_json_does(self, value):
        with pytest.raises(TypeError) as expected:
            canonical({"n": value})
        with pytest.raises(TypeError) as raised:
            cli.render_json({"n": value})
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_every_column_is_checked_before_the_first_chunk(self, bad):
        report = run_experiment(cli.parse_scenario(SCENARIO))
        z = report.table.z.copy()
        z[-1] = bad  # the last bin's
        report = dataclasses.replace(report, table=dataclasses.replace(report.table, z=z))
        with pytest.raises(ValueError) as expected:
            canonical([1.0, bad])
        with pytest.raises(ValueError) as raised:
            cli.report_document(report)  # as the document is built, before any text of it exists
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("doc", [
        {"a": [1.0, 2.0]},
        {"a": (1.0, 2.0)},
        {"a": {2: 1.0}},
        {"a": object()},
        {"a": np.array([1.0, 2.0])},
    ], ids=["list", "tuple", "int key", "object", "float64 array"])
    def test_shapes_a_report_does_not_hold_raise(self, doc):
        with pytest.raises(TypeError):
            cli.render_json(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [
        lambda v: {"a": None, "b": v},
        lambda v: {"a": {"b": {"c": v}}, "d": "text"},
        # NaN in a float column is null; the leaf's NaN raises after it
        lambda v: {"a": Records({"a": Floats([1.0, v])}), "b": v},
        lambda v: {"a": Floats([math.nan, -0.0, v]), "b": v},
    ], ids=["none/float column", "nested leaf", "node", "array"])
    def test_non_finite_floats_raise_as_json_does(self, bad, where):
        with pytest.raises(ValueError) as expected:
            canonical(plain(where(bad)))
        with pytest.raises(ValueError) as raised:  # a +-inf in a column raises as its node is built
            cli.render_json(node(where(bad)))
        assert str(raised.value) == str(expected.value)


CSV_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1e-05, math.nan])


def reference_cells(column):
    """The CSV cell of each value, formatted one by one: "%.15g", or empty for NaN."""
    return ["" if v != v else "%.15g" % v for v in column.tolist()]


def per_bin(values, bins):
    return st.lists(values, min_size=bins, max_size=bins)


@st.composite
def pattern_scenarios(draw):
    """Scenarios whose columns repeat values: asymmetric Gaussians, tables, explicit phases."""
    bins = draw(st.integers(1, 24))
    repeated = st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e-05])
    envelope = st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("gaussian"), "mean": st.floats(-3.0, 3.0), "sigma": st.floats(0.2, 5.0),
        }),
        st.fixed_dictionaries({
            "kind": st.just("table"), "values": per_bin(repeated | st.floats(0.0, 2.0), bins),
        }),
    ).filter(lambda e: e["kind"] != "table" or sum(e["values"]) > 0)
    phase = st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("explicit"), "values": per_bin(repeated | st.floats(-10.0, 10.0), bins),
        }),
        st.fixed_dictionaries({
            "kind": st.just("freewave"), "p1": st.floats(-5.0, 5.0), "p2": st.floats(-5.0, 5.0),
        }),
    )
    doc = {
        **SCENARIO,
        "grid": {"bins": bins, "x_min": -4.0, "x_max": draw(st.sampled_from([4.0, 1.5]))},
        "envelopes": {"slit1": draw(envelope), "slit2": draw(envelope)},
        "phase": draw(phase),
    }
    return cli.parse_scenario(doc)


@st.composite
def count_reports(draw, label=TEXT | st.sampled_from(["a,b", 'q"', "l\nm", "r\r"])):
    """decompose_empirical reports over labels that need quoting, with zero (degenerate) bins."""
    labels = draw(st.lists(label, min_size=1, max_size=12, unique=True))
    files = []
    for context in ("S", "S1", "S2"):
        counts = draw(per_bin(st.integers(0, 6) | st.sampled_from([0, 100]), len(labels)))
        counts[0] += 1  # no context detects nothing
        files.append(EnsembleCounts(context, dict(zip(labels, counts)), sum(counts)))
    return decompose_empirical(OutcomeSpace(tuple(labels)), *files)


class TestCsvCells:
    """Each distinct value of a column is formatted once, to the text it had per value."""

    @given(st.lists(CSV_FLOATS, max_size=40), st.integers(1, 4))
    def test_cells_match_the_per_value_format(self, values, repeats):
        column = np.array(values * repeats, float)
        for c in (column, column[::-1]):
            [texts] = cli._texts([c], "%.15g".__mod__, "")
            assert list(texts) == reference_cells(c)

    @given(st.lists(CSV_FLOATS, max_size=40), st.integers(1, 4))
    def test_a_column_equal_to_an_earlier_one_reuses_its_cells(self, values, repeats):
        column = np.array(values * repeats, float)
        columns = [column, column[::-1], column.copy()]
        texts = cli._texts(columns, "%.15g".__mod__, "")
        assert [list(t) for t in texts] == [reference_cells(c) for c in columns]
        assert texts[2] is texts[0]

    @given(pattern_scenarios())
    def test_pattern_rows_match_the_row_format(self, scenario):
        p1, p2 = scenario.envelope1, scenario.envelope2
        theta = scenario.phase_table()
        columns = (
            scenario.grid.midpoints(), p1, p2, theta, 0.5 * (p1 + p2),
            interference_pattern(p1, p2, theta),
        )
        row_format = ",".join(["%.15g"] * 6)
        expected = [(row_format % row).split(",") for row in zip(*(c.tolist() for c in columns))]
        assert cli.pattern_rows(scenario) == expected

    @given(count_reports())
    def test_analyze_lines_match_the_row_format(self, report):
        t = report.table
        kinds = [KIND_LABELS[k] + ("", "+", "-")[s] for k, s in zip(t.kind.tolist(), t.sign.tolist())]
        special = re.compile(r'[,"\r\n]')
        quoted = ['"%s"' % s.replace('"', '""') if special.search(s) else s for s in report.labels]
        rows = zip(
            quoted, t.p_s.tolist(), t.p1.tolist(), t.p2.tolist(), t.delta.tolist(),
            reference_cells(t.lam), kinds, reference_cells(t.theta), reference_cells(t.stderr_lambda),
        )
        expected = ["%s,%.15g,%.15g,%.15g,%.15g,%s,%s,%s,%s" % row for row in rows]
        assert cli.analyze_lines(report)[1:-4] == expected


@st.composite
def grid_reports(draw):
    """run_experiment reports on small grids, whose labels' string order is not their bin order."""
    bins = draw(st.integers(1, 40))
    x_min, x_max = draw(st.sampled_from([(-4.0, 4.0), (-0.001, 0.003), (9.5, 10.5)]))
    doc = {**SCENARIO, "grid": {"bins": bins, "x_min": x_min, "x_max": x_max},
           "envelopes": {"slit1": {"kind": "uniform"}, "slit2": {"kind": "uniform"}},
           "sampling": {"n_emitted": draw(st.integers(60, 200)), "runs": 1, "seed": draw(st.integers(0, 9))}}
    return run_experiment(cli.parse_scenario(doc))


#: Labels whose JSON text holds escapes, and labels whose string order is not their bin order.
ESCAPED_LABELS = TEXT | st.sampled_from(['"', "\\", "é", "\u2028", "b", "a", "10", "9", "a\0"])


def adapter_document(report):
    """The report document with each counts node replaced by the dict of its context's adapter."""
    doc = plain(cli.report_document(report))
    for counts in (report.counts_s, report.counts_s1, report.counts_s2):
        doc["counts"][counts.context_id]["counts"] = dict(counts.counts)
        assert doc["counts"][counts.context_id]["total_detected"] == counts.total_detected
    return doc


class TestCountsNode:
    """Each context's counts render from its int64 row as json renders the adapter's dict."""

    def test_counts_and_echo_lists_render_a_block_at_a_time(self):
        phase = {"kind": "explicit", "values": [0.25 * i for i in range(16)]}
        scenario = cli.parse_scenario({**SCENARIO, "phase": phase})
        doc = cli.simulation_document(scenario, run_experiment(scenario))
        echo = doc["scenario"]
        counts = doc["report"]["counts"]["S"]["counts"]
        for value, expected in [
            (counts, dict(counts)),
            (echo["phase"]["theta"], scenario.phase_table().tolist()),
            (echo["envelope1"], scenario.envelope1.tolist()),
        ]:
            whole = "".join(cli._render(value, "    "))
            assert json.loads(whole) == expected
            with mock.patch.object(cli, "BLOCK_ROWS", 2):
                chunks = list(cli._render(value, "    "))
            assert "".join(chunks) == whole
            assert len(chunks) > 8 and max(chunk.count("\n") for chunk in chunks) <= 2  # 16 bins, 2 per chunk

    @given(count_reports(ESCAPED_LABELS) | grid_reports(), st.integers(1, 4), st.booleans())
    def test_counts_render_as_the_adapter_dicts(self, report, block_rows, zero):
        if zero:  # an all-zero row, which no estimate yields but the node renders
            counts = report.counts.copy()
            counts[1] = 0
            report = dataclasses.replace(report, counts=counts)
        with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
            assert cli.render_json(cli.report_document(report)) == canonical(adapter_document(report))

    def test_key_order_differs_from_bin_order(self):
        report = run_experiment(cli.parse_scenario(SCENARIO))
        node = cli.report_document(report)["counts"]["S"]["counts"]
        assert list(node) == sorted(report.labels) != list(report.labels)
        assert [json.loads(k) for k in node.texts] == sorted(report.labels)

    @pytest.mark.parametrize("bins", [1, 16])
    def test_a_count_written_changes_that_count_only(self, bins):
        report = run_experiment(cli.parse_scenario({**SCENARIO, "grid": {**SCENARIO["grid"], "bins": bins}}))
        doc = cli.report_document(report)
        counts = doc["counts"]["S"]["counts"]
        label = next(iter(counts))
        counts[label] += 1  # as the benchmark's smoke check corrupts a report
        expected = adapter_document(report)
        expected["counts"]["S"]["counts"][label] += 1
        assert json.loads(cli.render_json(doc)) == expected
        assert counts[label] == report.counts_s.counts[label] + 1  # the report keeps its counts
        assert dict(counts) == expected["counts"]["S"]["counts"] and len(counts) == bins
        with pytest.raises(KeyError):
            counts["no such bin"] = 1


# Count files: plain rows, with odd rows put in among them. The odd rows hold
# what csv reads in its own way (quotes, line breaks, NUL) or int() reads or
# rejects, as well as blank lines, duplicates and the wrong number of fields.
PLAIN_LABELS = st.text(st.sampled_from(["a", "b", "c", "é", "日", " ", "\x0c"]), max_size=4)
ODD_LABELS = st.text(st.sampled_from(["a", ",", '"', "\r", "\n", "\0", " "]), min_size=1, max_size=3)
ODD_COUNTS = st.sampled_from(["+5", " 5", "5_0", "٣", "-1", "007", "", "9" * 18, "9" * 19, "1" * 20, "1.5"])
ODD_ROWS = st.one_of(
    st.sampled_from(["", "a,1", "a,1,2", "2"]),
    st.builds("%s,7".__mod__, ODD_LABELS),
    st.builds(lambda label: '"%s",7' % label.replace('"', '""'), ODD_LABELS),  # as csv.writer quotes it
    st.builds("x,%s".__mod__, ODD_COUNTS),
)


@st.composite
def count_files(draw) -> str:
    rows = draw(st.lists(st.tuples(PLAIN_LABELS, st.integers(0, 10**18 - 1)), max_size=8, unique_by=lambda row: row[0]))
    header = draw(st.sampled_from(["bin,count"] * 3 + [" bin , count", "\ufeffbin,count", "bin,count,x", ""]))
    lines = [header] + [f"{label},{count}" for label, count in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(ODD_ROWS))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, "", end + end]))


class TestCountFiles:
    """Count files read as columns give what the csv row loop gives, or its problems."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(count_files())
    def test_reader_matches_the_row_loop(self, tmp_path, text):
        path = tmp_path / "counts.csv"
        path.write_bytes(text.encode())

        def read():
            try:
                counts = cli.read_counts_csv(str(path), "S")
            except ScenarioError as exc:
                return exc.problems
            assert counts.total_emitted == counts.total_detected
            return list(counts.counts.items()), counts.total_emitted

        with mock.patch.object(cli, "_plain_columns", return_value=None):  # the row loop alone
            expected = read()
        assert read() == expected


def src_env():
    """The environment of a ``python -m ctxprob`` subprocess, with stdout buffered as usual."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_underflowing_gaussian_prints_only_the_error(tmp_path):
    # In a fresh interpreter, so that a numpy warning would reach stderr.
    envelopes = {"slit1": {"kind": "gaussian", "mean": 0.0, "sigma": 1e-320},
                 "slit2": {"kind": "uniform"}}
    path = write_scenario(tmp_path, envelopes=envelopes)
    done = subprocess.run(
        [sys.executable, "-m", "ctxprob", "simulate", path],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: envelopes.slit1: gaussian envelope underflows to zero on this grid\n"


@pytest.mark.parametrize("module", ["ctxprob", "ctxprob.cli"])
def test_python_m_runs_the_cli(module):
    env = src_env()
    golden = GOLDENS / "classical_small.json"
    done = subprocess.run(
        [sys.executable, "-m", module, "pattern", str(golden)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (GOLDENS / "pattern_classical.csv").read_text()
    done = subprocess.run(
        [sys.executable, "-m", module, "pattern", "no_such_scenario.json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "error: no_such_scenario.json:" in done.stderr


COMMANDS = {
    "pattern": ["pattern", "missing.json"],
    "simulate": ["simulate", "missing.json"],
    "analyze": ["analyze", "s.csv", "s1.csv", "s2.csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("out, out_dir, message", [
    ("d", None, "'{tmp}/d' names a directory"),
    ("x/", None, "'{tmp}/x/' names a directory"),
    ("f/x", None, "'{tmp}/f' is not a directory"),
    ("f/x/y", None, "'{tmp}/f' is not a directory"),
    ("x", "f", "'{tmp}/f' is not a directory"),
    ("", None, "'' names a directory"),
    ("n" * 300 + "/x", None, "cannot check '{tmp}/%s/x': File name too long" % ("n" * 300)),
], ids=["directory", "trailing slash", "under a file", "below a file", "out dir is a file", "empty",
        "name too long"])
def test_bad_out_exits_2_before_any_input_is_read(
    capsys, tmp_path, monkeypatch, command, out, out_dir, message
):
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("a file\n")
    if out_dir:
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / out_dir))
    elif out:
        out = os.path.join(tmp_path, out)
    # The inputs do not exist: only the --out problem is reported.
    code, stdout, err = run_cli(capsys, *COMMANDS[command], "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: --out: {message.format(tmp=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f"]
    assert (tmp_path / "f").read_text() == "a file\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_out_directories_are_made_only_at_write_time(capsys, tmp_path, command):
    out = tmp_path / "new" / "dir" / "out.txt"
    code, _, err = run_cli(capsys, *COMMANDS[command], "--out", str(out))
    assert code == 2 and err.startswith("error: ") and "--out" not in err
    assert list(tmp_path.iterdir()) == []  # the input error leaves no directory behind
    if command == "pattern":
        code, _, err = run_cli(capsys, "pattern", write_scenario(tmp_path), "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_text().startswith("x,p1,p2,theta,")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_to_a_full_device_exits_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pattern", write_scenario(tmp_path), "--out", "/dev/full")
    assert (code, out) == (3, "")
    assert err == "error: --out: cannot write '/dev/full': No space left on device\n"


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_exits_3_and_leaves_no_temporary_file(capsys, tmp_path, monkeypatch, existing):
    scenario = write_scenario(tmp_path)
    target = tmp_path / "pattern.csv"
    if existing:
        target.write_text("an earlier table\n")
    real_open = Path.open

    def open_then_fill_the_disk(path, *args, **kwargs):
        stream = real_open(path, *args, **kwargs)

        def writelines(chunks):  # the first chunk reaches the file, then the disk is full
            stream.write(next(iter(chunks)))
            stream.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stream.writelines = writelines
        return stream

    monkeypatch.setattr(Path, "open", open_then_fill_the_disk)
    code, out, err = run_cli(capsys, "pattern", scenario, "--out", str(target))
    assert (code, out) == (3, "")
    assert err == f"error: --out: cannot write {str(target)!r}: No space left on device\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == (["pattern.csv", "scenario.json"] if existing else ["scenario.json"])
    assert not existing or target.read_text() == "an earlier table\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("bins", [16, 16384])
@pytest.mark.parametrize("command", ["pattern", "simulate"])
def test_stdout_to_a_full_device_exits_3(tmp_path, command, bins):
    # The first write fails while stdout still buffers text: without its
    # redirection to devnull, the flush at exit would fail again (exit 120).
    path = write_scenario(tmp_path, grid={"bins": bins, "x_min": -4.0, "x_max": 4.0})
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "ctxprob", command, path],
            env=src_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert (done.returncode, done.stderr) == (3, "error: stdout: No space left on device\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_stdout_failing_at_the_flush_exits_3(capsys, tmp_path, monkeypatch):
    class Disk(io.RawIOBase):
        full = True

        def writable(self):
            return True

        def write(self, data):
            if self.full:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return len(data)

    disk = Disk()
    # A buffer larger than the output: nothing reaches the disk before the flush.
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(disk, 1 << 20)))
    assert cli.main(["pattern", write_scenario(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: stdout: No space left on device\n"
    disk.full = False  # so that the stream closes cleanly


@pytest.mark.parametrize("read", [0, 10])
@pytest.mark.parametrize("command, head", [
    ("pattern", b"x,p1,p2,th"), ("simulate", b'{\n  "repor'),
], ids=["pattern", "simulate"])
def test_stdout_closed_early_exits_1_quietly(tmp_path, command, head, read):
    # Far more output than a pipe buffers, so the writer meets the closed pipe;
    # closed before any read, the pipe fails the first write, as /dev/full does.
    path = write_scenario(tmp_path, grid={"bins": 16384, "x_min": -4.0, "x_max": 4.0})
    with subprocess.Popen(
        [sys.executable, "-m", "ctxprob", command, path],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(read) == head[:read]
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")
