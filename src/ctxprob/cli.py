"""Command-line surface: scenario files, simulation reports, count analysis.

Three subcommands:

* ``pattern <scenario.json>`` renders the exact per-bin pattern as CSV.
* ``simulate <scenario.json> --out report.json`` runs the Monte Carlo
  experiment and writes a JSON report that round-trips byte-identically.
* ``analyze <S.csv> <S1.csv> <S2.csv>`` decomposes externally supplied
  count histograms.

Exit codes: 0 success, 2 input/parse error (a bad ``--out`` too, found before
any input is read), 3 runtime or statistical error (a failed write too), and 1
when stdout is closed early (a pipe's reader is gone), without a message.
Tabular output uses 15 significant digits; JSON reports use shortest
round-trip float rendering with sorted keys, so ``json.loads`` then
``json.dumps(sort_keys=True, indent=2)`` gives the same bytes. Both formats
render each distinct value of a float column once and reuse the texts of an
equal column; a report writes each block of a context's counts from its int64
row, and each label, kind and sign text is made once. Per-bin numbers have the
bytes of ``repr``, one orjson call per block (:func:`~ctxprob.twoslit.repr_texts`).
``analyze`` reads plain ``label,count`` files (LF or CRLF line ends) as columns,
any other with ``csv`` row by row, and reads back the labels with line breaks
that it writes quoted. If the environment variable ``CTXPROB_OUT_DIR`` is set,
relative ``--out`` paths are resolved under it. Without ``--out`` the output is
streamed to stdout, so a render that fails partway leaves a partial document
there; ``--out`` replaces a plain file only once it is complete.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import suppress
from functools import cached_property
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContextualError, ScenarioError
from .core import EnsembleCounts, is_real
from .interference import DEFAULT_CLASSIFY_TOL, KIND_LABELS, check_tolerance
from .twoslit import (
    CONTEXT_IDS,
    ExperimentReport,
    ExplicitPhase,
    FreeWavePhase,
    GridSpec,
    TwoSlitScenario,
    gaussian_envelope,
    interference_pattern,
    repr_texts,
    run_experiment,
    table_envelope,
    uniform_envelope,
    _check_gaussian,
    _estimate,
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


def _texts(columns: Sequence[np.ndarray], fmt, nan: str) -> list[tuple[str, ...]]:
    """A tuple of texts per 1-D float64 column: ``fmt`` of each value, ``nan`` for NaN.
    Each distinct bit pattern of a column is formatted once (counts / N repeat their
    values), ``repr`` by one :func:`repr_texts` call, and a column equal bit for bit to an earlier
    one (a symmetric envelope) reuses its texts. A tuple of str is one object the garbage
    collector stops tracking, so it is not traversed again while a caller builds rows."""
    bits, out = [c.view(np.int64) for c in columns], []
    for column, b in zip(columns, bits):
        same = next((t for a, t in zip(bits, out) if np.array_equal(a, b)), None)
        if same is None:
            distinct, index = np.unique(b, return_inverse=True)
            distinct = distinct.view(column.dtype)
            texts = np.array(repr_texts(distinct) if fmt is repr else [*map(fmt, distinct.tolist())], object)
            texts[np.isnan(distinct)] = nan
            same = tuple(texts[index].tolist())
        out.append(same)
    return out


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
    if kind is float and not is_real(value):
        errors.append((here, "integer too large for a float"))
        return default
    return float(value) if kind is float else value


def _per_bin(doc: dict, path: str, grid: GridSpec | None, errors: list, build):
    """``build`` of the per-bin ``values`` list at ``path``, one entry per bin of ``grid``."""
    values = _get(doc, path, "values", list, errors)
    if values is None:
        return None
    if grid is not None and len(values) != grid.bins:
        errors.append((f"{path}.values", f"{len(values)} values for {grid.bins} bins"))
        return None
    try:  # build checks each entry by the per-bin rule of core.read_only
        return build(values)
    except ValueError as exc:
        errors.append((f"{path}.values", str(exc)))
        return None


def _parse_envelope(doc: dict, path: str, grid: GridSpec | None, errors: list):
    kind = _get(doc, path, "kind", str, errors)
    if kind is None:
        return None
    if kind == "gaussian":
        mean = _get(doc, path, "mean", float, errors)
        sigma = _get(doc, path, "sigma", float, errors)
        if None in (mean, sigma):
            return None
        try:  # checked once: by gaussian_envelope, or alone before the grid is known
            return gaussian_envelope(grid, mean, sigma) if grid is not None else _check_gaussian(mean, sigma)
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
            try:
                grid = GridSpec(bins, x_min, x_max)
            except ScenarioError as exc:
                errors.extend(exc.problems)

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
    return TwoSlitScenario(grid, env1, env2, phase, n_emitted, runs, seed)


def load_scenario(path: str) -> TwoSlitScenario:
    def reject_constant(name: str):
        # Python's json reads NaN, Infinity and -Infinity; JSON has no such numbers.
        raise ScenarioError([(path, f"{name} is not a finite number")])

    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([(path, f"cannot read scenario file: {exc}")])
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond Python's digit limit
        raise ScenarioError([(path, f"invalid JSON: {exc}")])
    try:
        return parse_scenario(doc)
    except ScenarioError as exc:  # a problem without a field is the document's own: name its file
        raise ScenarioError([(field or path, message) for field, message in exc.problems]) from None


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

class PerBin:
    """A per-bin list (``brackets`` ``"[]"``) or object (``"{}"``) of ``rows`` entries, each ``parts``
    in turn, as :func:`_entries` renders it: a ``str`` part as it is, its line breaks indented where
    the node is rendered, and any other called with a block's slice to give the block's texts."""

    def __init__(self, brackets: str, rows: int, parts: Sequence):
        self.brackets, self.rows, self.parts = brackets, rows, parts


def _floats(values: np.ndarray):
    """The part of a 1-D float64 column: a block's ``repr`` texts, NaN as ``null``. A +-inf
    raises json's own ``ValueError`` here, before any text of the document is made."""
    infinite = values[np.isinf(values)]
    if len(infinite):  # json's own error, which names the value when indenting
        json.dumps(infinite[0].item(), indent=2, allow_nan=False)
    return lambda block: _texts([values[block]], repr, "null")[0]


def scenario_document(scenario: TwoSlitScenario) -> dict:
    """Canonical resolved echo of a scenario (envelopes and phases expanded)."""
    n = scenario.grid.bins
    if isinstance(scenario.phase, ExplicitPhase):
        phase: dict = {"kind": "explicit"}
    else:
        phase = {
            "kind": "freewave",
            "p1": scenario.phase.momentum1,
            "p2": scenario.phase.momentum2,
            "h": scenario.phase.scaling,
        }
    phase["theta"] = PerBin("[]", n, [_floats(scenario.phase_table())])
    envelopes = _texts([scenario.envelope1, scenario.envelope2], repr, "null")
    return {
        "grid": {
            "bins": n,
            "x_min": scenario.grid.x_min,
            "x_max": scenario.grid.x_max,
        },
        "envelope1": PerBin("[]", n, [envelopes[0].__getitem__]),
        "envelope2": PerBin("[]", n, [envelopes[1].__getitem__]),
        "phase": phase,
        "sampling": {
            "n_emitted": scenario.n_emitted,
            "runs": scenario.runs,
            "seed": scenario.seed,
        },
        "splitting": {"c1": scenario.coeffs.c1, "c2": scenario.coeffs.c2},
    }


class JsonCounts(PerBin, Mapping):
    """A context's counts ``{label: count}``, held as its own int64 row in JSON key order
    with the ``labels`` in that order and ``texts``, their JSON texts; a block's counts render
    by one :func:`repr_texts` call. A count set changes the rendered document, not the report."""

    def __init__(self, labels: list[str], texts: list[str], row: np.ndarray):
        super().__init__("{}", len(row), [texts.__getitem__, ": ", lambda block: repr_texts(row[block])])
        self.labels, self.texts, self.row = labels, texts, row

    @cached_property
    def _bins(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))

    def __getitem__(self, label: str) -> int:
        return int(self.row[self._bins[label]])

    def __setitem__(self, label: str, count: int) -> None:
        self.row[self._bins[label]] = count

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def report_document(report: ExperimentReport) -> dict:
    t, labels = report.table, report.labels
    keys = np.array(list(map(encode_basestring_ascii, labels)), object)
    names = np.array(labels, object)
    order = np.argsort(names, kind="stable")
    in_order = names[order].tolist(), keys[order].tolist()  # JSON key order
    kinds = np.array(list(map(encode_basestring_ascii, KIND_LABELS)), object)
    signs = np.array(["null", "1", "-1"], object)  # sign -1 reads the last text
    # position_labels: each label is the JSON text of its finite x
    x = labels.__getitem__ if report.bin_labels is None else "null" if report.x is None else _floats(report.x)
    fields = {
        "bin": lambda block: keys[block].tolist(),
        "x": x,
        "p_s": _floats(t.p_s),
        "p_1": _floats(t.p1),
        "p_2": _floats(t.p2),
        "classical": _floats(t.classical),
        "delta": _floats(t.delta),
        "lambda": _floats(t.lam),
        "kind": lambda block: kinds[t.kind[block]].tolist(),
        "sign": lambda block: signs[t.sign[block]].tolist(),
        "theta": _floats(t.theta),
        "stderr_lambda": _floats(t.stderr_lambda),
        "stderr_theta": _floats(t.stderr_theta),
        "z": _floats(t.z),
    }
    record = []  # a record's parts: each field's head, indented where the list is, and its texts
    for i, name in enumerate(sorted(fields)):
        record += [("," if i else "{") + "\n    " + encode_basestring_ascii(name) + ": ", fields[name]]
    return {
        "counts": {
            context: {
                "context": context,
                "total_emitted": emitted,
                "total_detected": int(row.sum()),
                "counts": JsonCounts(*in_order, row[order]),
            }
            for context, emitted, row in zip(CONTEXT_IDS, report.emitted, report.counts)
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
        "bins": PerBin("[]", len(labels), [*record, "\n  }"]),
    }


#: Entries of every per-bin list (records, a column's values, counts, CSV lines) per chunk of text.
BLOCK_ROWS = 4096


def _entries(pad: str, brackets: str, rows: int, parts: Sequence) -> Iterator[str]:
    """The text of a :class:`PerBin` node at ``pad``, :data:`BLOCK_ROWS` entries per chunk."""
    inner, step = pad + "  ", len(parts) + 1
    parts = [part.replace("\n", "\n" + pad) if type(part) is str else part for part in parts]
    for start in range(0, rows, BLOCK_ROWS):
        count = min(BLOCK_ROWS, rows - start)
        pieces = [",\n" + inner] * (step * count)  # each entry's separator, then its parts
        for i, part in enumerate(parts, 1):
            pieces[i::step] = [part] * count if type(part) is str else part(slice(start, start + count))
        pieces[0] = ("," if start else brackets[0]) + "\n" + inner
        yield "".join(pieces)
    yield "\n" + pad + brackets[1] if rows else brackets


def _render(value, pad: str) -> Iterator[str]:
    """The text of ``value``, indented at ``pad``, in chunks; each per-bin node by :func:`_entries`."""
    kind, inner = type(value), pad + "  "
    if kind is dict:  # small: key by key; encode_basestring_ascii raises on a non-str key
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + "\n" + inner + encode_basestring_ascii(key) + ": "
            yield from _render(value[key], inner)
        yield "\n" + pad + "}" if value else "{}"
    elif value is None or kind in (str, int, float, bool):
        yield json.dumps(value, indent=2, allow_nan=False)
    elif isinstance(value, PerBin):
        yield from _entries(pad, value.brackets, value.rows, value.parts)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render_json(doc: dict) -> str:
    """Canonical JSON rendering of a report: sorted keys, two-space indent, newline.

    ``doc`` is a dict with str keys whose values are such dicts, scalars (``None``, ``bool``,
    ``int``, ``float``, ``str``) or :class:`PerBin` nodes, :class:`JsonCounts` among them. The
    text equals ``json.dumps(sort_keys=True, indent=2, allow_nan=False) + "\\n"`` of the plain
    document, and a non-finite float raises the same ``ValueError``. Any other value (a list, a
    tuple, a subclass of dict or of a scalar type, a non-str key, an array) raises ``TypeError``.
    """
    return "".join(chain(_render(doc, ""), ["\n"]))


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
    return list(map(list, zip(*_texts(columns, fmt15, "nan"))))


def analyze_lines(report: ExperimentReport) -> list[str]:
    """Analysis table plus '#'-prefixed summary lines."""
    t = report.table
    # hyperbolic kinds carry their sign: ("", "+", "-")[sign % 3] for sign 0, 1, -1
    names = [kind + mark for kind in KIND_LABELS for mark in ("", "+", "-")]
    kinds = map(names.__getitem__, (3 * t.kind + t.sign % 3).tolist())
    labels, special = report.labels, re.compile(r'[,"\r\n]')
    if special.search("".join(labels)):  # one scan of all labels; quote as csv.QUOTE_MINIMAL does
        labels = ['"%s"' % s.replace('"', '""') if special.search(s) else s for s in labels]
    p_s, p1, p2, delta, lam, theta, stderr = _texts(
        (t.p_s, t.p1, t.p2, t.delta, t.lam, t.theta, t.stderr_lambda), fmt15, ""
    )
    lines = [",".join(ANALYZE_HEADER)]
    lines.extend(map(",".join, zip(labels, p_s, p1, p2, delta, lam, kinds, theta, stderr)))
    lines.append(f"# splitting_c1 = {fmt15(report.coeffs.c1)}")
    lines.append(f"# splitting_c2 = {fmt15(report.coeffs.c2)}")
    lines.append(f"# splitting_deviation = {fmt15(report.coeffs.deviation)}")
    lines.append(f"# violation_statistic = {fmt15(report.violation_statistic)}")
    return lines


def _plain_columns(text: str) -> tuple[list[str], np.ndarray] | None:
    """The labels and int64 counts of a plain ``bin,count`` text, else None. ``csv`` splits
    a plain text exactly at its line ends and commas, and accepts each row: no ``"``, NUL
    or lone ``\\r``, one comma per row, no field beyond ``csv.field_size_limit()``, no
    repeated label, 1 to 18 ASCII digits per count and a total that int64 holds."""
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    text = text.replace("\r\n", "\n").removesuffix("\n")  # csv ends a row at "\r\n" as at "\n"
    byte = np.frombuffer(text.encode(), np.uint8)
    ends = np.append(np.flatnonzero(byte == ord("\n")), len(byte))
    commas = np.flatnonzero(byte == ord(","))
    # Row i holds comma i and no other; a blank row holds none.
    if len(commas) != len(ends) or (commas > ends).any() or (commas[1:] < ends[:-1]).any():
        return None
    cells = text.replace("\n", ",").split(",")
    labels, values = cells[2::2], ",".join(cells[3::2])
    if [cells[0].strip(), cells[1].strip()] != ["bin", "count"] or len(set(labels)) != len(labels):
        return None
    if not (values.isascii() and values.replace(",", "").isdigit()):  # int() also takes "+5", "5_0", "٣"
        return None
    widths = np.stack((commas - np.append(0, ends[:-1] + 1), ends - commas - 1))  # in UTF-8 bytes
    if widths.max() > csv.field_size_limit() or widths[1, 1:].min() < 1 or widths[1, 1:].max() > 18:
        return None
    counts = np.fromstring(values, np.int64, sep=",")
    return (labels, counts) if int(counts.max()) * len(counts) < 2**63 else None


def _read_counts(path: str) -> tuple[list[str], np.ndarray]:
    """A ``bin,count`` file's labels in file order and its counts as int64.

    A plain file is read as columns, any other by ``csv`` row by row: the one
    source of the messages about rows and of their line numbers.

    Raises:
        ScenarioError: on missing file, bad header, duplicate bins,
            malformed counts, or a total of 2**63 or more.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([(path, f"cannot read counts file: {exc}")])
    columns = _plain_columns(text)
    if columns is not None:
        return columns
    problems: list[tuple[str, str]] = []
    counts: dict[str, int] = {}
    # Lines end at "\r", "\n" or "\r\n", as in a file opened with newline="": quoted breaks stay.
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = filter(None, reader)  # blank lines are skipped, yet counted in line_num
        header = next(rows, None)
        if header is None or [cell.strip() for cell in header] != ["bin", "count"]:
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
    return list(counts), np.fromiter(counts.values(), np.int64, len(counts))


def read_counts_csv(path: str, context_id: str) -> EnsembleCounts:
    """Read a ``bin,count`` histogram file; raises as :func:`_read_counts` does."""
    labels, counts = _read_counts(path)
    return EnsembleCounts(context_id, dict(zip(labels, counts.tolist())), int(counts.sum()))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_path(out: str | None) -> Path | None:
    """``--out`` (None for stdout), under ``CTXPROB_OUT_DIR`` if relative; a
    :class:`ScenarioError` if it names a directory or a file lies on its way."""
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        if path.is_dir() or out.endswith(os.sep):
            raise ScenarioError([("--out", f"{out!r} names a directory")])
        found = next(p for p in path.parents if p.exists())  # made at write time if missing
        if not found.is_dir():
            raise ScenarioError([("--out", f"{str(found)!r} is not a directory")])
    except OSError as exc:  # a name too long, a directory that cannot be searched
        raise ScenarioError([("--out", f"cannot check {exc.filename!r}: {exc.strerror}")]) from None
    return path


def _emit(chunks: Iterable[str], path: Path | None) -> None:
    """Write the chunks to stdout or ``path``, replacing a plain file only once complete.

    Raises:
        ContextualError: ``--out: ...`` or ``stdout: ...`` if a write fails.
        SystemExit: 1, quietly, if stdout is closed early (its pipe's reader is gone).
    """
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a failed write raises here, not at exit
            return
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
    except OSError as exc:
        if path is not None:
            raise ContextualError(f"--out: cannot write {str(path)!r}: {exc.strerror}") from None
        # As the SIGPIPE note does: the text still buffered goes to devnull at exit,
        # where writing it again would print a second error and exit with 120.
        with suppress(OSError, ValueError):  # a stream with no file descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        if isinstance(exc, BrokenPipeError):  # the reader is gone: end quietly
            raise SystemExit(1) from None  # the code of the SIGPIPE note in the signal module's docs
        raise ContextualError(f"stdout: {exc.strerror}") from None


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


def _branch_counts(path: str, labels: list[str]) -> np.ndarray:
    """The branch file's counts in the order of the pooled ``labels``; its own labels die on return."""
    other, values = _read_counts(path)
    if other != labels:  # a branch file may list the bins in another order
        position = dict(zip(other, range(len(other))))
        if missing := sorted(position.keys() ^ labels):
            raise ScenarioError(
                [(path, f"bin labels do not match the pooled file (first differences: {missing[:5]})")]
            )
        values = values[np.fromiter(map(position.__getitem__, labels), np.intp, len(labels))]
    return values


def cmd_analyze(args: argparse.Namespace) -> int:
    labels, counts = _read_counts(args.counts_s)
    counts = np.stack([counts, *(_branch_counts(path, labels) for path in (args.counts_s1, args.counts_s2))])
    report = _estimate(counts, tuple(counts.sum(axis=1).tolist()), args.tol, None, tuple(labels))
    _emit(_text_blocks(analyze_lines(report)), args.out)
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _workers(text: str) -> int:
    with suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


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
        "--workers", type=_workers, default=1,
        help="checked (>= 1) but changes neither the report nor its speed: each context is one draw",
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
        args.out = _out_path(args.out)  # checked before any input is read
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
