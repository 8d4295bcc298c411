import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _strict_json(data):
    # RFC 8259 has no Infinity or NaN, which json.loads takes by default, as JSON.parse and jq do not
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(data, parse_constant=refuse)


def test_json_handles_infinite_ratio():
    rec = make_record("x", 1, 0.0, 5e-11, 0.0)
    assert math.isinf(rec.ratio)
    data = report.emit_report([rec], "json")
    parsed, _ = report.parse_report(data, "json")
    assert math.isinf(parsed[0].ratio)
    assert _strict_json(data)["records"][0]["ratio"] == "inf"


def test_json_spells_non_finite_floats_as_the_csv_does():
    recs = [make_record("x", 1, 0.5, math.nan, 1.0), make_record("x", 2, 0.5, 1.0, -math.inf)]
    data = report.emit_report(recs, "json", summary={"max_ratio": math.inf, "fit": [math.nan, -math.inf, 2.0]})
    payload = _strict_json(data)
    assert [r["empirical"] for r in payload["records"]] == ["nan", 1.0]
    assert [r["bound"] for r in payload["records"]] == [1.0, "-inf"]
    assert payload["summary"] == {"max_ratio": "inf", "fit": ["nan", "-inf", 2.0]}
    parsed, _ = report.parse_report(data, "json")
    assert math.isnan(parsed[0].empirical) and parsed[1].bound == -math.inf
    assert report.emit_report(parsed, "csv") == report.emit_report(recs, "csv")
    bad = data.replace(b'"bound":"-inf"', b'"bound":"-Infinity"')
    with pytest.raises(InvalidInputError, match="'bound' must be a float"):
        report.parse_report(bad, "json")


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


def test_json_floats_are_shortest_round_trip():
    data = report.emit_report([make_record("x", 1, 0.1, 1 / 3, 7.0)], "json")
    assert b'"t":0.1,' in data and b'"empirical":0.3333333333333333,' in data


def test_json_rejects_unsupported_types():
    rec = make_record("x", 4, 2.0, 0.5, 1.0)
    for bad in (
        dataclasses.replace(rec, n=np.int64(4)),
        dataclasses.replace(rec, passed=np.True_),
        dataclasses.replace(rec, bound=1 + 0j),
    ):
        with pytest.raises(TypeError):
            report.emit_report([bad], "json")
    with pytest.raises(TypeError):
        report.emit_report([rec], "json", summary={"count": np.int64(1)})


def test_csv_parse_is_strict():
    good = report.emit_report([make_record("x", 4, 2.0, 0.5, 1.0)], "csv").decode()
    assert good.splitlines()[1] == "x,4,2,0.5,1,0.5,true"
    assert report.parse_report(good.encode(), "csv")[0][0].passed is True
    for row in ("x,abc,2,0.5,1,0.5,true", "x,4.0,2,0.5,1,0.5,true", "x,4,two,0.5,1,0.5,true",
                "x,4,2,0.5,1,0.5,True", "x,4,2,0.5,1,0.5,1", "x,4,2,0.5,1,0.5,"):
        with pytest.raises(InvalidInputError):
            report.parse_report(good.replace("x,4,2,0.5,1,0.5,true", row).encode(), "csv")


def test_json_parse_is_strict():
    payload = json.loads(report.emit_report([make_record("x", 4, 2.0, 0.5, 1.0)], "json"))
    row = payload["records"][0]
    # integral floats written as ints, as reports did before they kept ".0", still parse
    old = {**row, "t": 2, "bound": 1}
    (parsed,), _ = report.parse_report(json.dumps({"records": [old]}).encode(), "json")
    assert parsed == make_record("x", 4, 2.0, 0.5, 1.0) and type(parsed.t) is float
    bad_rows = [
        {**row, "passed": "True"}, {**row, "passed": 1}, {**row, "n": 4.0}, {**row, "n": "4"},
        {**row, "n": True}, {**row, "t": "2.0"}, {**row, "t": None}, {**row, "bound": 10**400},
        {**row, "experiment_id": 7}, {k: v for k, v in row.items() if k != "n"},
        {**row, "extra": 1}, [row],
    ]
    for bad in bad_rows:
        with pytest.raises(InvalidInputError):
            report.parse_report(json.dumps({"records": [bad]}).encode(), "json")
    for bad in ([row], {"records": row}, {"summary": {}}, {"records": [row], "summary": [1]}):
        with pytest.raises(InvalidInputError):
            report.parse_report(json.dumps(bad).encode(), "json")


# parsing rebuilds ratio and passed with make_record, so the records are drawn through it
_records = st.lists(
    st.builds(
        make_record,
        experiment_id=st.text("abcdefghijklmnopqrstuvwxyz0123456789_/,\n\x85", min_size=1),
        n=st.integers(min_value=1),
        t=st.floats(),
        empirical=st.floats(),
        bound=st.floats(),
    ),
    min_size=1,
    max_size=5,
)


@settings(deadline=None)
@given(_records)
def test_parse_inverts_emit(records):
    # CSV cannot carry a ',' or a line break in an id, so emission refuses one
    if any(set(",\n\x85") & set(r.experiment_id) for r in records):
        with pytest.raises(InvalidInputError):
            report.emit_report(records, "csv")
        formats = ("json",)
    else:
        formats = ("csv", "json")
    for fmt in formats:
        parsed, _ = report.parse_report(report.emit_report(records, fmt), fmt)
        # repr reads every NaN as equal and tells 0.0 from -0.0
        assert repr(parsed) == repr(records), fmt


def test_csv_emission_names_the_first_id_it_cannot_carry():
    # each distinct id is checked once, in record order
    records = [make_record(rid, 1, 0.0, 0.5, 1.0) for rid in ("a", "b\n1", "a", "c,1", "b\n1")]
    with pytest.raises(InvalidInputError, match=r"^experiment_id 'b\\n1' holds"):
        report.emit_report(records, "csv")
    assert report.emit_report(records, "json")


def test_parse_refuses_a_forged_verdict():
    # empirical 5 exceeds bound 1, so the stored ratio 0.1 and passed true are forged
    csv = f"{report.CSV_HEADER}\nx,4,1,5.0,1.0,0.1,true\n".encode()
    row = {"experiment_id": "x", "n": 4, "t": 1.0, "empirical": 5.0, "bound": 1.0}
    for data, fmt in (
        (csv, "csv"),
        (json.dumps({"records": [{**row, "ratio": 0.1, "passed": True}]}).encode(), "json"),
        (json.dumps({"records": [{**row, "ratio": 5.0, "passed": True}]}).encode(), "json"),
        (json.dumps({"records": [{**row, "ratio": 0.1, "passed": False}]}).encode(), "json"),
    ):
        with pytest.raises(InvalidInputError, match="stores ratio"):
            report.parse_report(data, fmt)
    # a NaN ratio matches the NaN that make_record derives
    nan_row = {**row, "empirical": math.nan, "ratio": math.nan, "passed": False}
    (parsed,), _ = report.parse_report(json.dumps({"records": [nan_row]}).encode(), "json")
    assert math.isnan(parsed.ratio) and parsed.passed is False


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


def test_merge_reports_sums_failure_counters(sample_records):
    chunks = [
        (sample_records, {"certification_failures": 2, "majorant_failures": 0}),
        (sample_records, {"certification_failures": 1}),
        (sample_records, None),
    ]
    _, summary = report.merge_reports(chunks)
    assert summary["certification_failures"] == 3
    assert summary["majorant_failures"] == 0
    # CSV reports carry no summary, so the merge writes no counter
    _, summary = report.merge_reports([(sample_records, None), (sample_records, None)])
    assert "certification_failures" not in summary and "majorant_failures" not in summary
    for bad in (True, -1, 1.0, "2", None):
        with pytest.raises(InvalidInputError):
            report.merge_reports([(sample_records, {"majorant_failures": bad})])


def test_merge_recounts_slack_only_passes():
    chunks = []
    for seed in (1, 2):
        cfg = ExperimentConfig(kind="trotter_product", dim=3, trials=2, nmax=8, seed=seed)
        result = run_experiment(cfg)
        data = report.emit_report(result.records, "json", summary=result.summary)
        chunks.append(report.parse_report(data, "json"))
    counts = [summary["slack_only_passes"] for _, summary in chunks]
    assert min(counts) > 0
    _, summary = report.merge_reports(chunks)
    assert summary["slack_only_passes"] == sum(counts)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = report.dump_matrix_json(m)
    assert set(obj) == {"dim", "re", "im"}
    back = report.load_matrix_json(json.loads(json.dumps(obj)))
    np.testing.assert_allclose(back, m)
    # JSON integers are numbers too
    m = report.load_matrix_json({"dim": 2, "re": [[1, 0.5], [0, 2]], "im": [[0, -1], [1, 0]]})
    np.testing.assert_array_equal(m, np.array([[1, 0.5 - 1j], [1j, 2]]))


def test_matrix_json_validation():
    # dim must be a JSON integer >= 1 and every entry a JSON number: bools and
    # strings are refused, not converted
    for obj in (
        {"dim": 2, "re": [[1.0]], "im": [[0.0]]},
        {"re": [[1.0]], "im": [[0.0]]},
        {"dim": 2.7, "re": [[0.5]], "im": [[0.0]]},
        {"dim": True, "re": [[0.5]], "im": [[0.0]]},
        {"dim": "1", "re": [["0.5"]], "im": [[False]]},
        {"dim": 0, "re": [], "im": []},
        {"dim": 1, "re": [["0.5"]], "im": [[0.0]]},
        {"dim": 1, "re": [[0.5]], "im": [[False]]},
        {"dim": 1, "re": [[None]], "im": [[0.0]]},
        {"dim": 1, "re": [0.5], "im": [[0.0]]},
        {"dim": 2, "re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]},
        {"dim": 1, "re": [[10**400]], "im": [[0]]},
        [[0.5]],
    ):
        with pytest.raises(InvalidInputError):
            report.load_matrix_json(obj)
