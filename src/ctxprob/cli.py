"""Command-line surface: scenario files, simulation reports, count analysis.

Three subcommands:

* ``pattern <scenario.json>`` renders the exact per-bin pattern as CSV.
* ``simulate <scenario.json> --out report.json`` runs the Monte Carlo
  experiment and writes a JSON report that round-trips byte-identically.
* ``analyze <S.csv> <S1.csv> <S2.csv>`` decomposes externally supplied
  count histograms.

Exit codes: 0 success, 2 input/parse error, 3 runtime or statistical error.
Tabular output uses 15 significant digits; JSON reports use shortest
round-trip float rendering with sorted keys, so parse/re-serialize is
byte-identical. Both formats render each distinct value of a float column
once. ``analyze`` reads back the labels with line breaks that it writes
quoted. If the environment variable ``CTXPROB_OUT_DIR`` is set,
relative ``--out`` paths are resolved under it. Without ``--out`` the output
is streamed to stdout, so a render that fails partway leaves a partial
document there; ``--out`` replaces a plain file only once it is complete.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContextualError, ScenarioError
from .core import EnsembleCounts, OutcomeSpace
from .interference import DEFAULT_CLASSIFY_TOL, KIND_LABELS
from .twoslit import (
    CONTEXT_IDS,
    ExperimentReport,
    ExplicitPhase,
    FreeWavePhase,
    GridSpec,
    TwoSlitScenario,
    decompose_empirical,
    gaussian_envelope,
    interference_pattern,
    run_experiment,
    table_envelope,
    uniform_envelope,
    _require_valid,
    validate_grid,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3

ENV_OUT_DIR = "CTXPROB_OUT_DIR"

PATTERN_HEADER = ["x", "p1", "p2", "theta", "p_classical", "p_interference"]
ANALYZE_HEADER = [
    "bin", "p_hat_S", "p_hat_1", "p_hat_2", "delta", "lambda", "kind", "theta", "stderr_lambda",
]


#: Render a float with 15 significant digits.
fmt15 = "%.15g".__mod__


def _texts(values: np.ndarray, fmt, nan: str) -> tuple[str, ...]:
    """``fmt`` of each value of a 1-D float64 array, with ``nan`` for NaN.

    Each distinct bit pattern is formatted once (a column of counts / N, or a
    symmetric envelope, repeats its values). A tuple of str is one object the
    garbage collector stops tracking, so it is not traversed again while a
    caller builds rows from it.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = list(map(fmt, distinct.tolist()))
    for i in np.flatnonzero(np.isnan(distinct)).tolist():
        texts[i] = nan
    return tuple(map(texts.__getitem__, index.tolist()))


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

# Per field kind: the accepted JSON types and the noun of the error message.
# A bool is an int in Python, but never a number or an integer here.
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    dict: (dict, "an object"),
    list: (list, "an array"),
    str: (str, "a string"),
}


def _get(doc: dict, path: str, key: str, kind, errors: list, default=None, required=True):
    here = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            errors.append((here, "missing"))
        return default
    value = doc[key]
    accepted, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        errors.append((here, f"expected {noun}, got {value!r}"))
        return default
    if kind is float:
        try:
            return float(value)
        except OverflowError:  # a JSON integer beyond the float range
            errors.append((here, "integer too large for a float"))
            return default
    return value


def _per_bin(doc: dict, path: str, grid: GridSpec | None, errors: list, build):
    """``build`` of the per-bin ``values`` list at ``path``, one entry per bin of ``grid``."""
    values = _get(doc, path, "values", list, errors)
    if values is None:
        return None
    if grid is not None and len(values) != grid.bins:
        errors.append((f"{path}.values", f"{len(values)} values for {grid.bins} bins"))
        return None
    try:
        return build(values)
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append((f"{path}.values", str(exc)))
        return None


def _parse_envelope(doc: dict, path: str, grid: GridSpec | None, errors: list):
    kind = _get(doc, path, "kind", str, errors)
    if kind is None:
        return None
    if kind == "gaussian":
        mean = _get(doc, path, "mean", float, errors)
        sigma = _get(doc, path, "sigma", float, errors)
        if sigma is not None and sigma <= 0.0:
            errors.append((f"{path}.sigma", f"must be positive, got {sigma!r}"))
            return None
        if None in (mean, sigma) or grid is None:
            return None
        try:
            return gaussian_envelope(grid, mean, sigma)
        except ValueError as exc:
            errors.append((path, str(exc)))
            return None
    if kind == "uniform":
        return uniform_envelope(grid) if grid is not None else None
    if kind == "table":
        return _per_bin(doc, path, grid, errors, table_envelope)
    errors.append((f"{path}.kind", f"unknown envelope kind {kind!r}"))
    return None


def _parse_phase(doc: dict, grid: GridSpec | None, errors: list):
    kind = _get(doc, "phase", "kind", str, errors)
    if kind is None:
        return None
    if kind == "explicit":
        return _per_bin(doc, "phase", grid, errors, ExplicitPhase)
    if kind == "freewave":
        p1 = _get(doc, "phase", "p1", float, errors)
        p2 = _get(doc, "phase", "p2", float, errors)
        h = _get(doc, "phase", "h", float, errors, default=1.0, required=False)
        if None in (p1, p2, h):
            return None
        return FreeWavePhase(p1, p2, h)
    errors.append(("phase.kind", f"unknown phase kind {kind!r}"))
    return None


def parse_scenario(doc: dict) -> TwoSlitScenario:
    """Build a scenario from a parsed configuration document.

    Raises:
        ScenarioError: with one (field, message) pair per problem.
    """
    if not isinstance(doc, dict):
        raise ScenarioError([("", f"expected a JSON object, got {doc!r}")])
    errors: list[tuple[str, str]] = []

    grid_doc = _get(doc, "", "grid", dict, errors)
    grid = None
    if grid_doc is not None:
        bins = _get(grid_doc, "grid", "bins", int, errors)
        x_min = _get(grid_doc, "grid", "x_min", float, errors)
        x_max = _get(grid_doc, "grid", "x_max", float, errors)
        if None not in (bins, x_min, x_max):
            grid = GridSpec(bins, x_min, x_max)
            violations = validate_grid(grid)
            errors.extend((v.invariant, v.message) for v in violations)
            if violations:
                grid = None

    env_doc = _get(doc, "", "envelopes", dict, errors)
    env1 = env2 = None
    if env_doc is not None:
        slit1 = _get(env_doc, "envelopes", "slit1", dict, errors)
        slit2 = _get(env_doc, "envelopes", "slit2", dict, errors)
        if slit1 is not None:
            env1 = _parse_envelope(slit1, "envelopes.slit1", grid, errors)
        if slit2 is not None:
            env2 = _parse_envelope(slit2, "envelopes.slit2", grid, errors)

    phase_doc = _get(doc, "", "phase", dict, errors)
    phase = _parse_phase(phase_doc, grid, errors) if phase_doc is not None else None

    sampling = _get(doc, "", "sampling", dict, errors)
    n_emitted = runs = seed = None
    if sampling is not None:
        n_emitted = _get(sampling, "sampling", "n_emitted", int, errors)
        runs = _get(sampling, "sampling", "runs", int, errors, default=1, required=False)
        seed = _get(sampling, "sampling", "seed", int, errors, default=0, required=False)

    if errors:
        raise ScenarioError(errors)
    scenario = TwoSlitScenario(grid, env1, env2, phase, n_emitted, runs, seed)
    _require_valid(scenario)
    return scenario


def load_scenario(path: str) -> TwoSlitScenario:
    def reject_constant(name: str):
        # Python's json reads NaN, Infinity and -Infinity; JSON has no such numbers.
        raise ScenarioError([(path, f"{name} is not a finite number")])

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([(path, f"cannot read scenario file: {exc}")])
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond Python's digit limit
        raise ScenarioError([(path, f"invalid JSON: {exc}")])
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def scenario_document(scenario: TwoSlitScenario) -> dict:
    """Canonical resolved echo of a scenario (envelopes and phases expanded)."""
    if isinstance(scenario.phase, ExplicitPhase):
        phase: dict = {"kind": "explicit"}
    else:
        phase = {
            "kind": "freewave",
            "p1": scenario.phase.momentum1,
            "p2": scenario.phase.momentum2,
            "h": scenario.phase.scaling,
        }
    phase["theta"] = scenario.phase_table()
    return {
        "grid": {
            "bins": scenario.grid.bins,
            "x_min": scenario.grid.x_min,
            "x_max": scenario.grid.x_max,
        },
        "envelope1": scenario.envelope1,
        "envelope2": scenario.envelope2,
        "phase": phase,
        "sampling": {
            "n_emitted": scenario.n_emitted,
            "runs": scenario.runs,
            "seed": scenario.seed,
        },
        "splitting": {"c1": scenario.coeffs.c1, "c2": scenario.coeffs.c2},
    }


class RecordColumns(dict):
    """Records held as columns: ``node[name][i]`` is field ``name`` of record ``i``.
    It renders as the list of records, with NaN in a float64 array column as
    ``null``; the other columns hold plain scalars or are a :class:`JsonColumn`."""


class JsonColumn(tuple):
    """A :class:`RecordColumns` column of values already rendered as JSON text; so is each slice."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        return JsonColumn(item) if type(index) is slice else item


def report_document(report: ExperimentReport) -> dict:
    t = report.table
    labels, x = report.labels, report.x
    if report.bin_labels is None:  # each label is the text of its bin's finite x
        x = JsonColumn(labels)
    return {
        "counts": {
            c.context_id: {
                "context": c.context_id,
                "total_emitted": c.total_emitted,
                "total_detected": c.total_detected,
                "counts": c.counts,
            }
            for c in (report.counts_s, report.counts_s1, report.counts_s2)
        },
        "splitting": {
            "c1": report.coeffs.c1,
            "c2": report.coeffs.c2,
            "deviation": report.coeffs.deviation,
            "empirical": report.coeffs.empirical,
        },
        "pattern_normalization": report.pattern_normalization,
        "violation_statistic": report.violation_statistic,
        "classification_tol": report.classification_tol,
        "bins": RecordColumns({
            "bin": labels,
            "x": (None,) * len(labels) if x is None else x,
            "p_s": t.p_s,
            "p_1": t.p1,
            "p_2": t.p2,
            "classical": t.classical,
            "delta": t.delta,
            "lambda": t.lam,
            "kind": [KIND_LABELS[k] for k in t.kind.tolist()],
            "sign": [s or None for s in t.sign.tolist()],
            "theta": t.theta,
            "stderr_lambda": t.stderr_lambda,
            "stderr_theta": t.stderr_theta,
            "z": t.z,
        }),
    }


# JSON text of each plain scalar type; floats must be finite (see _column).
_SCALARS = {
    float: float.__repr__,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _column(values) -> Sequence[str] | None:
    """The JSON text of each value of a run: a :class:`JsonColumn` is text already, a 1-D
    float64 array's NaN is ``null`` and its +-inf raises json's ``ValueError``, and any
    other run has text (else None) if all its values are plain finite scalars."""
    kind = type(values)
    if kind is JsonColumn:
        return values
    if kind is np.ndarray:
        infinite = values[np.isinf(values)]
        if len(infinite):  # json's own error, which names the value when indenting
            json.dumps(infinite[0].item(), indent=2, allow_nan=False)
        return _texts(values, repr, "null")
    types = set(map(type, values))
    if not types <= _SCALARS.keys():
        return None
    if float in types:
        floats = values if len(types) == 1 else [v for v in values if type(v) is float]
        if not all(map(math.isfinite, floats)):
            return None
    if len(types) == 1:
        return list(map(_SCALARS[types.pop()], values))
    return [_SCALARS[type(v)](v) for v in values]


#: Records of a :class:`RecordColumns` node rendered per chunk of text.
BLOCK_ROWS = 4096


def _record_rows(node: RecordColumns, pad: str) -> Iterator[str]:
    """The text of a record-columns node, :data:`BLOCK_ROWS` records per chunk."""
    names = sorted(node)
    inner, field = pad + "  ", pad + "    "
    heads = [",\n" + field + encode_basestring_ascii(name) + ": " for name in names]
    heads[0] = "{" + heads[0][1:]
    close = "\n" + inner + "}"
    # A record is the head and the text of each field in turn, then the close.
    step = 2 * len(names) + 1
    rows = len(node[names[0]])
    for start in range(0, rows, BLOCK_ROWS):
        count = min(BLOCK_ROWS, rows - start)
        pieces = [close + ",\n" + inner] * (step * count)
        for i, name in enumerate(names):
            block = node[name][start:start + BLOCK_ROWS]
            pieces[2 * i::step] = [heads[i]] * count
            pieces[2 * i + 1::step] = _column(block) or ["".join(_render(v, field)) for v in block]
        pieces[-1] = close
        yield ("," if start else "[") + "\n" + inner + "".join(pieces)
    yield "\n" + pad + "]" if rows else "[]"


def _render(value, pad: str) -> Iterator[str]:
    """The text of ``value``, indented at ``pad``, in chunks."""
    kind = type(value)
    if kind is dict and all(type(k) is str for k in value):
        keys = sorted(value)
        heads = [encode_basestring_ascii(k) + ": " for k in keys]
        items, brackets = [value[k] for k in keys], "{}"
    elif kind in (list, tuple) or kind is np.ndarray and value.dtype == float and value.ndim == 1:
        heads, items, brackets = None, value, "[]"
    elif kind is RecordColumns:
        yield from _record_rows(value, pad)
        return
    else:
        column = _column((value,))
        if column is not None:
            yield column[0]
        else:
            # Non-str keys, subclasses, non-finite floats and unserializable
            # objects: json's own text (or error), re-indented. JSON strings
            # never hold a raw newline, so the replace is exact.
            text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
            yield text.replace("\n", "\n" + pad)
        return
    if not len(items):
        yield brackets
        return
    inner = pad + "  "
    comma = ",\n" + inner
    column = _column(items)
    yield brackets[0] + "\n" + inner
    if column is not None:
        yield comma.join(column if heads is None else map(str.__add__, heads, column))
    else:
        for i, item in enumerate(items):
            yield (comma if i else "") + (heads[i] if heads else "")
            yield from _render(item, inner)
    yield "\n" + pad + brackets[1]


def render_json(doc: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline.

    The text equals ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, and a non-finite float raises the same
    ``ValueError``. A 1-D float64 array, anywhere in ``doc``, renders as the
    list of its values with NaN as ``null``; a :class:`RecordColumns` node
    renders as its records. With ``indent`` set, ``json.dumps`` encodes value
    by value in Python; here each run of values (a list, a dict's values, an
    array, a node's column) is rendered as one column.
    """
    return "".join(_render(doc, "")) + "\n"


def simulation_document(scenario: TwoSlitScenario, report: ExperimentReport) -> dict:
    return {
        "tool": {"name": "ctxprob", "version": __version__},
        "scenario": scenario_document(scenario),
        "report": report_document(report),
    }


# ---------------------------------------------------------------------------
# Tabular output
# ---------------------------------------------------------------------------

def pattern_rows(scenario: TwoSlitScenario) -> list[list[str]]:
    """Per-bin table of envelopes, phase, and both combination rules.

    ``p_classical`` is the plain mixture ``(p1 + p2) / 2``;
    ``p_interference`` adds the cosine cross term. Both are the raw per-bin
    formula values, before any grid renormalization.
    """
    p1, p2 = scenario.envelope1, scenario.envelope2
    theta = scenario.phase_table()
    columns = (
        scenario.grid.midpoints(), p1, p2, theta, 0.5 * (p1 + p2),
        interference_pattern(p1, p2, theta),
    )
    return list(map(list, zip(*(_texts(c, fmt15, "nan") for c in columns))))


def analyze_lines(report: ExperimentReport) -> list[str]:
    """Analysis table plus '#'-prefixed summary lines."""
    t = report.table
    # hyperbolic kinds carry their sign: ("", "+", "-")[sign % 3] for sign 0, 1, -1
    names = [kind + mark for kind in KIND_LABELS for mark in ("", "+", "-")]
    kinds = map(names.__getitem__, (3 * t.kind + t.sign % 3).tolist())
    labels, special = report.labels, re.compile(r'[,"\r\n]')
    if special.search("".join(labels)):  # one scan of all labels; quote as csv.QUOTE_MINIMAL does
        labels = ['"%s"' % s.replace('"', '""') if special.search(s) else s for s in labels]
    p_s, p1, p2, delta, lam, theta, stderr = (
        _texts(c, fmt15, "")
        for c in (t.p_s, t.p1, t.p2, t.delta, t.lam, t.theta, t.stderr_lambda)
    )
    lines = [",".join(ANALYZE_HEADER)]
    lines.extend(map(",".join, zip(labels, p_s, p1, p2, delta, lam, kinds, theta, stderr)))
    lines.append(f"# splitting_c1 = {fmt15(report.coeffs.c1)}")
    lines.append(f"# splitting_c2 = {fmt15(report.coeffs.c2)}")
    lines.append(f"# splitting_deviation = {fmt15(report.coeffs.deviation)}")
    lines.append(f"# violation_statistic = {fmt15(report.violation_statistic)}")
    return lines


def read_counts_csv(path: str, context_id: str) -> EnsembleCounts:
    """Read a ``bin,count`` histogram file.

    Raises:
        ScenarioError: on missing file, bad header, duplicate bins,
            malformed counts, or a total of 2**63 or more.
    """
    problems: list[tuple[str, str]] = []
    counts: dict[str, int] = {}
    try:
        # csv reads the file itself, so a quoted label keeps its line breaks.
        with open(path, encoding="utf-8", newline="") as stream:
            reader = csv.reader(stream)
            rows = filter(None, reader)  # blank lines are skipped, yet counted in line_num
            header = next(rows, None)
            if header is None or [cell.strip() for cell in header] != ["bin", "count"]:
                stream.read()  # an undecodable file is reported as such, whatever its header
                raise ScenarioError([(path, "first row must be the header 'bin,count'")])
            for row in rows:
                if len(row) != 2:
                    problems.append((f"{path}:{reader.line_num}", f"expected 2 fields, got {len(row)}"))
                    continue
                label, value = row[0], row[1]
                if label in counts:
                    problems.append((f"{path}:{reader.line_num}", f"duplicate bin {label!r}"))
                    continue
                try:
                    n = int(value)
                except ValueError:
                    problems.append((f"{path}:{reader.line_num}", f"count {value!r} is not an integer"))
                    continue
                if n < 0:
                    problems.append((f"{path}:{reader.line_num}", f"count {n} is negative"))
                    continue
                counts[label] = n
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([(path, f"cannot read counts file: {exc}")])
    except csv.Error as exc:  # a field beyond csv.field_size_limit()
        raise ScenarioError([(f"{path}:{reader.line_num}", str(exc))])
    if problems:
        raise ScenarioError(problems)
    if not counts:
        raise ScenarioError([(path, "no data rows")])
    total = sum(counts.values())
    if total >= 2**63:
        # The counts are summed and decomposed as int64 arrays.
        raise ScenarioError([(path, f"counts sum to {total}, which must be below 2**63")])
    return EnsembleCounts(context_id, counts, total)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to stdout or ``--out``, replacing a plain file only once complete."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    path = Path(out)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    st = path.lstat() if os.path.lexists(path) else None
    if st and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):  # link, FIFO, device
        with path.open("w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        return
    partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with partial.open("x", encoding="utf-8") as stream:
            stream.writelines(chunks)
        if st:  # the replaced file keeps its permissions
            partial.chmod(stat.S_IMODE(st.st_mode))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _text_blocks(lines: Iterable[str]) -> Iterator[str]:
    """The lines as text, :data:`BLOCK_ROWS` lines per chunk."""
    lines = iter(lines)
    while block := list(islice(lines, BLOCK_ROWS)):
        yield "\n".join(block) + "\n"


def cmd_pattern(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    lines = chain([",".join(PATTERN_HEADER)], map(",".join, pattern_rows(scenario)))
    _emit(_text_blocks(lines), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run_experiment(scenario, tol=args.tol, workers=args.workers)
    doc = simulation_document(scenario, report)
    _emit(chain(_render(doc, ""), ["\n"]), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = (args.counts_s, args.counts_s1, args.counts_s2)
    ensembles = [read_counts_csv(path, which) for path, which in zip(paths, CONTEXT_IDS)]
    bins = ensembles[0].counts.keys()
    for path, other in zip(paths[1:], ensembles[1:]):
        if other.counts.keys() != bins:
            missing = sorted(other.counts.keys() ^ bins)
            raise ScenarioError(
                [(path, f"bin labels do not match the pooled file (first differences: {missing[:5]})")]
            )
    space = OutcomeSpace(tuple(bins))
    report = decompose_empirical(space, *ensembles, tol=args.tol)
    _emit(_text_blocks(analyze_lines(report)), args.out)
    return EXIT_OK


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxprob",
        description="Contextual probability calculus and two-slit ensemble simulator.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_CLASSIFY_TOL,
        help="classification tolerance around |lambda| = 1 (finite, positive)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="render the exact per-bin pattern as CSV")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.add_argument(
        "--workers", type=_workers, default=1, help="thread count for (context, run) tasks (>= 1)"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="decompose three count histograms")
    p.add_argument("counts_s", help="pooled-context counts CSV (bin,count)")
    p.add_argument("counts_s1", help="first branch counts CSV")
    p.add_argument("counts_s2", help="second branch counts CSV")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for path, message in exc.problems:
            print(f"error: {path}: {message}", file=sys.stderr)
        return EXIT_INPUT
    except ContextualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
