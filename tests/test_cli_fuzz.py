"""Fuzz the command line with scenario documents and count files.

Whatever the input, ``cli.main`` must return 0, 2 or 3 and never raise; a
failing run prints ``error: ...``. The strategies mix plausible values with
the extremes that used to end in a traceback: overflowing momenta, grid
widths and scalings (``+-1e308``, ``1e-320``), integers beyond the float or
int64 range, the non-finite constants Python's json accepts, negative and
non-integer counts, and branch files whose labels differ from the pooled one.
Valid sizes stay small (at most 64 bins, 3 runs, 10**4 emissions), because
large valid inputs are slow, not wrong.
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctxprob import cli
from ctxprob.twoslit import MAX_BINS, MAX_RUNS

# Finite extremes pass the parser and overflow later, so they come twice.
FLOATS = [1e308, -1e308, 1e-320, -1e-320] * 2 + [0.0, 10**400, math.nan, math.inf, -math.inf]
INTS = {
    "bins": [0, -3, MAX_BINS + 1, 2**63, 10**20],
    "n_emitted": [-1, 0, 2**63, 10**20],
    "runs": [-1, 0, MAX_RUNS + 1, 2**63],
    "seed": [-1, 2**64],
}
WRONG = [None, True, "1", [], {}, [1.0], "unknown"]
FUZZ = settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def per_bin(values, bins):
    return st.lists(values, min_size=bins, max_size=bins)


@st.composite
def valid_documents(draw):
    """A valid scenario, except that one grid in four is too wide for a float."""
    bins = draw(st.integers(1, 64))
    envelope = st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("gaussian"), "mean": st.floats(-3.0, 3.0), "sigma": st.floats(0.2, 5.0),
        }),
        st.just({"kind": "uniform"}),
        st.fixed_dictionaries({
            "kind": st.just("table"), "values": per_bin(st.floats(0.01, 1.0), bins),
        }),
    )
    phase = st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("explicit"), "values": per_bin(st.floats(-10.0, 10.0), bins),
        }),
        st.fixed_dictionaries(
            {"kind": st.just("freewave"), "p1": st.floats(-10.0, 10.0), "p2": st.floats(-10.0, 10.0)},
            optional={"h": st.floats(0.1, 10.0)},
        ),
    )
    span = st.tuples(st.floats(-10.0, 0.0), st.floats(0.5, 10.0))
    x_min, x_max = draw(st.one_of(span, span, span, st.just((-1e308, 1e308))))
    return {
        "grid": {"bins": bins, "x_min": x_min, "x_max": x_max},
        "envelopes": {"slit1": draw(envelope), "slit2": draw(envelope)},
        "phase": draw(phase),
        "sampling": {
            "n_emitted": draw(st.integers(1, 10**4)),
            "runs": draw(st.integers(1, 3)),
            "seed": draw(st.integers(0, 2**64 - 1)),
        },
    }


def places(node, path=()):
    """``(path, value)`` of every field, and of the first item of each list."""
    items = node.items() if isinstance(node, dict) else enumerate(node[:1])
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from places(child, path + (key,))


@st.composite
def scenario_documents(draw):
    """A valid document, or one with one fault: an extreme number, a wrong type or no field."""
    doc = draw(valid_documents())
    fields = list(places(doc))
    numbers = [path for path, value in fields if type(value) in (int, float)]
    # sampled_from favours the first items; the field should be any one.
    rng = draw(st.randoms(use_true_random=False))
    path = rng.choice([None] * 2 + numbers * 6 + [()] + [path for path, _ in fields])
    if path is None:
        return doc
    if path in numbers:
        value = rng.choice(INTS.get(path[-1], FLOATS))
    else:
        value = rng.choice([*WRONG, "delete"])
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


labels = st.text(alphabet='ab0 ,"\ré', max_size=3)
count_cells = st.one_of(
    st.integers(0, 1000).map(str),
    st.integers(0, 10**6).map(str),
    st.sampled_from([-1, 2**63 - 1, 2**63, 10**20]).map(str),
    st.sampled_from(["12.5", "x", "", " 7", "1e3"]),
)


@st.composite
def count_files(draw):
    """Three ``bin,count`` texts; the branch files may drop, rename or repeat a bin."""
    pooled = draw(st.lists(labels, min_size=1, max_size=8, unique=True))
    texts = []
    for _ in range(3):
        bins = list(draw(st.permutations(pooled)))
        edit = draw(st.sampled_from(["keep", "keep", "keep", "drop", "rename", "repeat"]))
        if edit == "drop":
            bins.pop()
        elif edit == "rename":
            bins[0] += "~"
        elif edit == "repeat":
            bins.append(bins[0])
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(draw(st.sampled_from([["bin", "count"]] * 5 + [["bin"], ["x", "y"]])))
        writer.writerows([label, draw(count_cells)] for label in bins)
        texts.append(out.getvalue())
    return texts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_RUNTIME), (code, err.getvalue())
    if code != cli.EXIT_OK:
        assert "error: " in err.getvalue()


@FUZZ
@given(
    doc=scenario_documents(),
    flags=st.sampled_from([[], [], ["--seed", "-1"], ["--seed", str(2**64)], ["--tol", "0.5"]]),
)
def test_scenario_documents_never_raise(workdir, doc, flags):
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in ("simulate", "pattern"):
        run_main([*flags, command, str(path)])


@FUZZ
@given(texts=count_files(), flags=st.sampled_from([[], ["--tol", "0.5"]]))
def test_count_files_never_raise(workdir, texts, flags):
    paths = []
    for name, text in zip(("s.csv", "s1.csv", "s2.csv"), texts):
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    run_main([*flags, "analyze", *paths])
