import json
import math

import numpy as np
import pytest

from semiapprox import report
from semiapprox.errors import InvalidInputError
from semiapprox.harness import ExperimentConfig, make_record, run_experiment


@pytest.fixture(scope="module")
def sample_records():
    cfg = ExperimentConfig(kind="sqrt_n", dim=3, trials=2, nmax=16, vectors=2)
    return run_experiment(cfg).records


def test_csv_header_and_shape(sample_records):
    data = report.emit_report(sample_records, "csv")
    lines = data.decode().splitlines()
    assert lines[0] == "experiment_id,n,t,empirical,bound,ratio,passed"
    assert len(lines) == len(sample_records) + 1
    assert all(len(ln.split(",")) == 7 for ln in lines)
    assert lines[1].endswith(",true") or lines[1].endswith(",false")


def test_csv_floats_have_17_significant_digits():
    rec = make_record("x", 1, 1 / 3, math.pi, 7.0)
    line = report.emit_report([rec], "csv").decode().splitlines()[1]
    cells = line.split(",")
    assert cells[2] == format(1 / 3, ".17g")
    assert cells[3] == format(math.pi, ".17g")
    # 17 significant digits round-trip doubles exactly
    assert float(cells[3]) == math.pi


def test_csv_roundtrip(sample_records):
    data = report.emit_report(sample_records, "csv")
    parsed, summary = report.parse_report(data, "csv")
    assert parsed == sample_records
    assert summary is None


def test_json_roundtrip(sample_records):
    data = report.emit_report(sample_records, "json")
    parsed, summary = report.parse_report(data, "json")
    assert parsed == sample_records
    assert summary["count"] == len(sample_records)
    # must be plain parseable JSON
    payload = json.loads(data.decode())
    assert set(payload) == {"records", "summary"}


def test_json_handles_infinite_ratio():
    rec = make_record("x", 1, 0.0, 5e-11, 0.0)
    assert math.isinf(rec.ratio)
    data = report.emit_report([rec], "json")
    parsed, _ = report.parse_report(data, "json")
    assert math.isinf(parsed[0].ratio)


def test_json_integral_floats_parse_as_floats():
    rec = make_record("x", 4, 2.0, 0.0, 1.0)
    data = report.emit_report([rec], "json", summary={"ts": [0.5, 2.0], "count": 1})
    assert b'"t":2.0' in data and b'"ts":[0.5,2.0]' in data
    payload = json.loads(data)
    row = payload["records"][0]
    assert type(row["n"]) is int
    assert all(type(row[k]) is float for k in ("t", "empirical", "bound", "ratio"))
    assert type(payload["summary"]["ts"][1]) is float
    assert type(payload["summary"]["count"]) is int
    # CSV keeps the shortest form
    assert report.emit_report([rec], "csv").decode().splitlines()[1] == "x,4,2,0,1,0,true"


def test_empty_records_rejected():
    with pytest.raises(InvalidInputError):
        report.emit_report([], "csv")
    with pytest.raises(InvalidInputError):
        report.emit_report([], "json")


def test_unknown_format_rejected(sample_records):
    with pytest.raises(InvalidInputError):
        report.emit_report(sample_records, "xml")


def test_emission_is_byte_deterministic(sample_records):
    a = report.emit_report(sample_records, "csv")
    b = report.emit_report(sample_records, "csv")
    assert a == b
    a = report.emit_report(sample_records, "json")
    b = report.emit_report(sample_records, "json")
    assert a == b


def test_merge_reports(sample_records):
    half = len(sample_records) // 2
    merged, summary = report.merge_reports(
        [(sample_records[:half], None), (sample_records[half:], None)]
    )
    assert merged == sample_records
    assert summary["count"] == len(sample_records)
    assert summary["merged_from"] == 2
    finite = [r.ratio for r in sample_records if math.isfinite(r.ratio)]
    assert summary["max_ratio"] == max(finite)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = report.dump_matrix_json(m)
    assert set(obj) == {"dim", "re", "im"}
    back = report.load_matrix_json(json.loads(json.dumps(obj)))
    np.testing.assert_allclose(back, m)


def test_matrix_json_validation():
    with pytest.raises(InvalidInputError):
        report.load_matrix_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(InvalidInputError):
        report.load_matrix_json({"re": [[1.0]], "im": [[0.0]]})
