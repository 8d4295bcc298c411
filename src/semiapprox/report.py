"""Deterministic CSV/JSON report emission and strict parsing.

CSV columns are the ``ErrorRecord`` fields in order,
``experiment_id,n,t,empirical,bound,ratio,passed``, with a header row; CSV
floats have 17 significant digits (``nan``, ``inf`` and ``-inf`` as such).
JSON reports hold the record array plus a summary object and are written by
``json`` with Python's shortest round-trip float ``repr``, as the ``numrange``
and ``constants`` commands print; an integral float keeps a fractional part
(``2.0``) and parses back as a float.  Either spelling reads back as the same
double, so identical runs produce identical bytes.

Parsing is strict: every record field must have its declared type (``n`` an
integer, ``passed`` ``true``/``false``), and the stored ``ratio`` and
``passed`` must be the ones ``make_record`` derives from ``empirical`` and
``bound``, or ``InvalidInputError`` is raised.
"""

from __future__ import annotations

import json
import math
import typing

import numpy as np

from .errors import InvalidInputError
from .harness import ErrorRecord, make_record, summarize

_FIELD_TYPES = typing.get_type_hints(ErrorRecord)
CSV_HEADER = ",".join(_FIELD_TYPES)
# the cell separator and every line boundary of str.splitlines, which parse_report reads rows with
_CSV_REFUSED = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def emit_report(records: list[ErrorRecord], fmt: str, summary: dict | None = None) -> bytes:
    """Serialize records (and an optional precomputed summary) to bytes."""
    if not records:
        raise InvalidInputError("cannot emit a report with no records")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            if not _CSV_REFUSED.isdisjoint(r.experiment_id):
                raise InvalidInputError(
                    f"experiment_id {r.experiment_id!r} holds ',' or a line break, which CSV cannot carry"
                )
            floats = (format(x, ".17g") for x in (r.t, r.empirical, r.bound, r.ratio))
            lines.append(",".join((r.experiment_id, str(r.n), *floats, "true" if r.passed else "false")))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = {
            "records": [{name: getattr(r, name) for name in _FIELD_TYPES} for r in records],
            "summary": summary if summary is not None else summarize(records),
        }
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode()
    raise InvalidInputError(f"unknown report format {fmt!r}")


def _field(name: str, value, text: bool):
    """Record field ``name`` from a CSV cell (``text``) or a JSON value.

    The value must have the field's type: ``passed`` is ``true``/``false`` in
    CSV and a JSON boolean, ``n`` an integer.  A float field also takes a JSON
    integer, as reports written before integral floats kept ``.0`` have them.
    """
    kind = _FIELD_TYPES[name]
    try:
        if text and kind is bool:
            if value in ("true", "false"):
                return value == "true"
        elif text or type(value) is kind or (kind is float and type(value) is int):
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise InvalidInputError(f"record field {name!r} must be a {kind.__name__}, got {value!r}")


def _record(obj, text: bool) -> ErrorRecord:
    """The record rebuilt by ``make_record``; a stored ratio or verdict that differs is refused."""
    if not isinstance(obj, dict) or obj.keys() != _FIELD_TYPES.keys():
        raise InvalidInputError(f"a record must have exactly the fields {CSV_HEADER}, got {obj!r}")
    *cells, ratio, passed = (_field(name, obj[name], text) for name in _FIELD_TYPES)
    record = make_record(*cells)
    same_ratio = ratio == record.ratio or (math.isnan(ratio) and math.isnan(record.ratio))
    if passed != record.passed or not same_ratio:
        raise InvalidInputError(
            f"record {record.experiment_id!r} at n={record.n} stores ratio {ratio!r} and "
            f"passed {passed}, but its empirical and bound give {record.ratio!r} and {record.passed}"
        )
    return record


def parse_report(data: bytes, fmt: str) -> tuple[list[ErrorRecord], dict | None]:
    """Inverse of emit_report; returns (records, summary-or-None)."""
    text = data.decode()
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise InvalidInputError("missing or malformed CSV header")
        records = []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(_FIELD_TYPES):
                raise InvalidInputError(f"malformed CSV row: {ln!r}")
            records.append(_record(dict(zip(_FIELD_TYPES, cells)), text=True))
        return records, None
    if fmt == "json":
        payload = json.loads(text)
        if not isinstance(payload, dict) or not isinstance(payload.get("records"), list):
            raise InvalidInputError("a JSON report must be an object with a records array")
        records = [_record(obj, text=False) for obj in payload["records"]]
        summary = payload.get("summary")
        if summary is not None and not isinstance(summary, dict):
            raise InvalidInputError(f"a JSON report summary must be an object, got {summary!r}")
        return records, summary
    raise InvalidInputError(f"unknown report format {fmt!r}")


def merge_reports(chunks: list[tuple[list[ErrorRecord], dict | None]]) -> tuple[list[ErrorRecord], dict]:
    """Concatenate record lists and recompute the summary.

    ``certification_failures`` and ``majorant_failures`` are summed over the
    input summaries that carry them; a counter no input has stays absent.
    ``slack_only_passes`` is recounted from the merged records.
    """
    records: list[ErrorRecord] = []
    for recs, _ in chunks:
        records.extend(recs)
    extras = {"merged_from": len(chunks)}
    for key in ("certification_failures", "majorant_failures"):
        counts = [summary[key] for _, summary in chunks if summary and key in summary]
        for count in counts:
            if type(count) is not int or count < 0:
                raise InvalidInputError(f"summary {key!r} must be a count, got {count!r}")
        if counts:
            extras[key] = sum(counts)
    return records, summarize(records, extras)


def load_matrix_json(obj) -> np.ndarray:
    """Matrix wire format: {dim: int, re: [[...]], im: [[...]]}, row-major.

    ``dim`` must be a JSON integer >= 1 and ``re`` and ``im`` each ``dim`` rows
    of ``dim`` JSON numbers; a bool or a string is refused, not converted.
    """
    dim = obj.get("dim") if isinstance(obj, dict) else None
    if type(dim) is not int or dim < 1:
        raise InvalidInputError(f"matrix dim must be an integer >= 1, got {dim!r}")
    re, im = obj.get("re"), obj.get("im")
    for key, rows in (("re", re), ("im", im)):
        if not (type(rows) is list and len(rows) == dim and all(
            type(row) is list and len(row) == dim and all(type(x) in (int, float) for x in row)
            for row in rows
        )):
            raise InvalidInputError(f"matrix {key!r} must be {dim} rows of {dim} JSON numbers")
    try:
        return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    except OverflowError as exc:
        raise InvalidInputError(f"matrix entry out of float range: {exc}") from exc


def dump_matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
