import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from semiapprox import cli, contour, harness, numrange, report
from semiapprox.tolerances import TOL_GEO

CLI = [sys.executable, "-m", "semiapprox"]
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, **env):
    """The console command in a fresh process, for the exit codes a shell sees; env adds variables."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


@pytest.fixture
def run_main(capsys):
    """cli.main in this process, with run_cli's returncode, stdout and stderr.

    argparse exits with SystemExit(2) on a usage error; its code counts as
    the return code, as it does for the process.
    """

    def run(*args):
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return types.SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


def test_verify_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "r.csv"
    args = ["verify", "sqrt_n", "--dim", "3", "--trials", "2", "--nmax", "16", "--seed", "5"]
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment_id,n,t,empirical,bound,ratio,passed"
    assert "slack" in proc.stderr
    # a fresh process writes the same bytes as cli.main in this one
    assert cli.main([*args, "--out", str(tmp_path / "in_process.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "in_process.csv").read_bytes()


def test_numrange_violation_exits_one(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([-0.5]))))
    proc = run_cli("numrange", "--input", str(matrix), "--alpha", "0.1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["passed"] is False


def test_bad_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("numrange", "--input", str(bad), "--alpha", "0.1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_verify_stdout_json(run_main, tmp_path):
    proc = run_main(
        "verify", "poisson_split", "--trials", "1", "--nmax", "8",
        "--t", "1.0,2.0", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["all_passed"] is True


def test_verify_reproducible_bytes(run_main, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "verify", "ritt", "--dim", "4", "--trials", "3", "--nmax", "64",
        "--alpha", str(math.pi / 8), "--seed", "99", "--format", "json",
    ]
    assert run_main(*args, "--out", str(out1)).returncode == 0
    assert run_main(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_fit_min_n(run_main, tmp_path):
    out = tmp_path / "rate.json"
    proc = run_main(
        "verify", "euler_rate", "--dim", "3", "--trials", "2", "--nmax", "1024",
        "--alpha", str(math.pi / 16), "--fit-min-n", "2", "--format", "json",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    fits = payload["summary"]["rate_fits"]
    assert fits and all(0.8 <= f["exponent_p"] <= 1.2 for f in fits.values())


def test_verify_defaults_are_the_config_defaults(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["verify", "sqrt_n", "--out", str(out)]) == 0
    result = harness.run_experiment(harness.ExperimentConfig("sqrt_n"))
    assert out.read_bytes() == report.emit_report(result.records, "csv", summary=result.summary)


def test_numrange_subcommand(run_main, tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([0.2, 0.8]))))
    proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.0", "--points", "32")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["min_semi_angle"] == pytest.approx(0.0, abs=2e-6)
    assert len(payload["boundary_points"]) == 32

    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([-0.5]))))
    proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["passed"] is False

    # not a contraction: the certificate fails and there is no semi-angle to report
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([2.0, 0.5]))))
    proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.1", "--points", "32")
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is False and payload["min_semi_angle"] is None

    # a dim or an entry that is not a JSON number is bad input, not converted
    for obj in (
        {"dim": 2.7, "re": [[0.5]], "im": [[0.0]]},
        {"dim": True, "re": [[0.5]], "im": [[0.0]]},
        {"dim": "1", "re": [["0.5"]], "im": [[False]]},
        {"dim": 1, "re": [[0.5]], "im": [[False]]},
    ):
        matrix.write_text(json.dumps(obj))
        proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: matrix ")


@pytest.mark.filterwarnings("error")
def test_overflow_errors_come_without_numpy_warnings(run_main, tmp_path):
    # finite entries whose Hermitian parts overflow: bad input, not a failed certificate
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]],
                                  "im": [[0, 0], [0, 0]]}))
    proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the Hermitian part of e^{i theta} C overflows\n"
    # t A whose Frobenius norm overflows is refused by the expm norm cap
    proc = run_main("verify", "euler", "--trials", "1", "--nmax", "4", "--t", "1e200")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: op_norm(M) > 1e+06; refusing to exponentiate\n"


def test_numrange_reports_worst_point(run_main, tmp_path):
    # W = {-0.5}: the one point is the worst, at its distance to the disc part of D(0.3)
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([-0.5]))))
    proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.3")
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is False
    worst = complex(payload["worst_point"]["re"], payload["worst_point"]["im"])
    assert worst == pytest.approx(-0.5, abs=1e-12)
    assert payload["max_violation"] == pytest.approx(0.5 - math.sin(0.3), abs=1e-12)


def test_numrange_verdict_is_the_sweep_not_the_certificate(run_main, tmp_path):
    # W = {z} within and beyond TOL_GEO of D(0.3): the command reads its sweep,
    # so it passes a point 0.75 TOL_GEO out, which numrange.quasi_sectorial refuses
    matrix = tmp_path / "m.json"
    for excess in (0.75, 1.5):
        c = -(math.sin(0.3) + excess * TOL_GEO) * np.ones((1, 1))
        matrix.write_text(json.dumps(report.dump_matrix_json(c)))
        proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.3")
        assert json.loads(proc.stdout)["passed"] is (excess < 1)
        assert proc.returncode == (0 if excess < 1 else 1)
        assert numrange.quasi_sectorial(c, 0.3) is False


def test_numrange_selfadjoint_segment(run_main, tmp_path):
    # W is the segment [0.2, 0.8] or the point 1, both inside D(0) = [0, 1]
    matrix = tmp_path / "m.json"
    for c in (np.diag([0.2, 0.8]), np.eye(3)):
        matrix.write_text(json.dumps(report.dump_matrix_json(c)))
        proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.0")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True and payload["max_violation"] <= 1e-9


def test_numrange_sweeps_once(monkeypatch, tmp_path):
    # the bisection reads the points of the verdict's sweep instead of sweeping again
    sweeps = []

    def recorded(c, k=256, _inner=numrange.numerical_range_boundary):
        sweeps.append(k)
        return _inner(c, k)

    monkeypatch.setattr(numrange, "numerical_range_boundary", recorded)
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([0.2, 0.8]))))
    argv = ["numrange", "--input", str(matrix), "--alpha", "0.0", "--points", "64"]
    assert cli.main(argv) == 0
    assert sweeps == [64]


def test_numrange_refuses_odd_or_too_many_points(run_main, monkeypatch, tmp_path):
    # refused before the sweep allocates: np.arange, np.exp and eigh are never reached
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep allocated before refusing its angle count")

    monkeypatch.setattr(np, "exp", refuse)
    monkeypatch.setattr(np, "arange", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([0.5]))))
    for points in ("33", str(2 * 65536), str(10**12)):
        proc = run_main("numrange", "--input", str(matrix), "--alpha", "0.1", "--points", points)
        assert proc.returncode == 2 and proc.stdout == "", points
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_numrange_checks_alpha_before_points(run_main, monkeypatch, tmp_path):
    # a bad --alpha is refused first: before a bad --points and before any eigenvalue problem
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue problem was solved before alpha was checked")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([0.5]))))
    for points in ("64", "33"):
        proc = run_main("numrange", "--input", str(matrix), "--alpha", "2.0", "--points", points)
        assert proc.returncode == 2 and proc.stdout == "", points
        assert proc.stderr == "error: alpha must lie in [0, pi/2), got 2.0\n", proc.stderr


def test_import_and_constants_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: no subcommand and no verify kind
    # loads a scipy module, in one process that runs them all
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(report.dump_matrix_json(np.diag([0.2, 0.8]))))
    code = f"""
import sys
from semiapprox import cli
from semiapprox.harness import EXPERIMENT_KINDS
tmp = {str(tmp_path)!r}
codes = [cli.main(['constants', '--alpha', '0.3'])]
for kind in EXPERIMENT_KINDS:
    codes.append(cli.main(['verify', kind, '--dim', '2', '--trials', '1', '--nmax', '4',
                           '--out', f'{{tmp}}/{{kind}}.csv']))
codes.append(cli.main(['numrange', '--input', {str(matrix)!r}, '--alpha', '0.0',
                       '--points', '16']))
codes.append(cli.main(['report', '--merge', f'{{tmp}}/ritt.csv', f'{{tmp}}/euler.csv',
                       '--out', f'{{tmp}}/merged.csv']))
print(codes)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    codes, modules = proc.stdout.splitlines()[-2:]
    assert codes == str([0] * (len(harness.EXPERIMENT_KINDS) + 3))
    assert (tmp_path / "merged.csv").exists()
    assert modules == "[]"


def test_constants_subcommand(run_main):
    proc = run_main("constants", "--alpha", "0.0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["k_alpha"] == pytest.approx(3.877007477771478, rel=1e-6)
    assert payload["l_alpha"] == pytest.approx(2 * payload["k_alpha"] + 2, rel=1e-12)
    assert payload["euler_upper_constant"] == pytest.approx(2 + 2 / math.sqrt(3), rel=1e-12)
    assert 0.0 < payload["argmin_alpha_prime"] < math.pi / 2


def test_report_merge(run_main, tmp_path):
    f1, f2, merged = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "m.csv"
    base = ["--dim", "3", "--trials", "1", "--nmax", "8"]
    assert run_main("verify", "sqrt_n", *base, "--seed", "1", "--out", str(f1)).returncode == 0
    assert run_main("verify", "telescopic", *base, "--seed", "2", "--out", str(f2)).returncode == 0
    proc = run_main("report", "--merge", str(f1), str(f2), "--out", str(merged))
    assert proc.returncode == 0, proc.stderr
    records, _ = report.parse_report(merged.read_bytes(), "csv")
    n1 = len(f1.read_text().splitlines()) - 1
    n2 = len(f2.read_text().splitlines()) - 1
    assert len(records) == n1 + n2


def test_report_merge_sums_certification_failures(tmp_path):
    f1, f2, merged = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    base = ["--dim", "3", "--trials", "2", "--nmax", "4", "--t", "1", "--format", "json"]
    assert cli.main(["verify", "euler", *base, "--seed", "1", "--out", str(f1)]) == 0
    assert cli.main(["verify", "euler", *base, "--seed", "2", "--out", str(f2)]) == 0
    assert cli.main(["report", "--merge", str(f1), str(f2), "--out", str(merged)]) == 0
    inputs = [json.loads(f.read_text())["summary"] for f in (f1, f2)]
    summary = json.loads(merged.read_text())["summary"]
    assert summary["certification_failures"] == sum(s["certification_failures"] for s in inputs)
    assert "majorant_failures" not in summary
    assert summary["merged_from"] == 2


def _one_record_report(fmt, **fields):
    rec = dataclasses.replace(harness.make_record("x/d000", 4, 0.5, 0.25, 1.0), **fields)
    return report.emit_report([rec], fmt)


def test_report_merge_rejects_malformed_input(run_main, tmp_path):
    good_csv, good_json = _one_record_report("csv").decode(), _one_record_report("json").decode()
    (tmp_path / "good.csv").write_text(good_csv)
    (tmp_path / "good.json").write_text(good_json)
    no_n = json.loads(good_json)
    del no_n["records"][0]["n"]
    # a failed record whose flag is a string: it must not merge as passed
    string_flag = json.loads(_one_record_report("json", empirical=2.0, ratio=2.0, passed=False))
    string_flag["records"][0]["passed"] = "False"
    cases = [
        ("good.csv", "bad_n.csv", good_csv.replace("x/d000,4,", "x/d000,abc,")),
        ("good.json", "no_n.json", json.dumps(no_n)),
        ("good.json", "string_flag.json", json.dumps(string_flag)),
        ("good.csv", "mixed_formats.json", good_json),
    ]
    for good, name, text in cases:
        bad, merged = tmp_path / name, tmp_path / f"merged_{name}"
        bad.write_text(text)
        proc = run_main("report", "--merge", str(tmp_path / good), str(bad), "--out", str(merged))
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, name
        assert not merged.exists(), name


def test_report_merge_keeps_failed_records_failed(tmp_path):
    failed = tmp_path / "failed.json"
    failed.write_bytes(_one_record_report("json", empirical=2.0, ratio=2.0, passed=False))
    merged = tmp_path / "merged.json"
    assert cli.main(["report", "--merge", str(failed), "--out", str(merged)]) == 1
    payload = json.loads(merged.read_text())
    assert payload["records"][0]["passed"] is False
    assert payload["summary"]["all_passed"] is False


# two records as JSON reports spelled floats before they were written with
# repr: 17 significant digits, so 0.1 reads 0.10000000000000001
_SEVENTEEN_DIGIT_REPORT = (
    '{"records":[{"experiment_id":"old/a","n":1,"t":0.10000000000000001,'
    '"empirical":0.33333333333333331,"bound":7.0,"ratio":0.047619047619047616,"passed":true},'
    '{"experiment_id":"old/a","n":2,"t":0.10000000000000001,"empirical":0.20000000000000001,'
    '"bound":3.0,"ratio":0.066666666666666666,"passed":true}],'
    '"summary":{"slack":{"relative":1e-08,"absolute":1e-10},"count":2,'
    '"max_ratio":0.066666666666666666,"all_passed":true}}\n'
)


def test_report_merge_reads_seventeen_digit_json(tmp_path):
    old_records = [harness.make_record("old/a", 1, 0.1, 1 / 3, 7.0),
                   harness.make_record("old/a", 2, 0.1, 0.2, 3.0)]
    assert report.parse_report(_SEVENTEEN_DIGIT_REPORT.encode(), "json")[0] == old_records
    new_record = harness.make_record("new/b", 4, 0.7, 0.3, 1.1)
    old, new, merged = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "merged.json"
    old.write_text(_SEVENTEEN_DIGIT_REPORT)
    new.write_bytes(report.emit_report([new_record], "json"))
    assert cli.main(["report", "--merge", str(old), str(new), "--out", str(merged)]) == 0
    data = merged.read_bytes()
    assert report.parse_report(data, "json")[0] == [*old_records, new_record]
    assert b'"t":0.1,"empirical":0.3333333333333333,' in data
    assert b'"t":0.7,"empirical":0.3,"bound":1.1,' in data
    assert b"0.10000000000000001" not in data


def test_report_merge_refuses_a_forged_verdict(run_main, tmp_path):
    # empirical 5 exceeds bound 1: a stored pass must not merge as one
    forged_csv = f"{report.CSV_HEADER}\nx,4,1,5.0,1.0,0.1,true\n"
    row = {"experiment_id": "x", "n": 4, "t": 1.0, "empirical": 5.0, "bound": 1.0,
           "ratio": 0.1, "passed": True}
    for name, text in (("forged.csv", forged_csv), ("forged.json", json.dumps({"records": [row]}))):
        forged, merged = tmp_path / name, tmp_path / f"merged_{name}"
        forged.write_text(text)
        proc = run_main("report", "--merge", str(forged), "--out", str(merged))
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stderr.startswith("error: record 'x' at n=4 stores ratio 0.1"), name
        assert not merged.exists(), name


def test_usage_errors_exit_two(run_main, tmp_path):
    assert run_main("verify", "not_a_kind").returncode == 2
    assert run_main("nonsense").returncode == 2
    assert run_main("numrange", "--input", str(tmp_path / "missing.json"), "--alpha", "0.1").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main("numrange", "--input", str(bad), "--alpha", "0.1").returncode == 2
    # arguments outside a formula's domain are usage errors, not violated bounds
    assert run_main("constants", "--alpha", "2").returncode == 2
    assert run_main("verify", "euler", "--t", "-1", "--trials", "1", "--nmax", "4").returncode == 2
    # an eps so small that eps**2 underflows (to 0 at 1e-170, to a subnormal
    # at 1e-160) leaves no finite tail bound n/eps^2, and one so large that
    # eps**2 overflows (1e200) is refused too
    for bad_t in ("nan", "inf", "1e-170", "1e-160", "1e200"):
        proc = run_main("verify", "poisson_split", "--t", bad_t, "--trials", "1", "--nmax", "4")
        assert proc.returncode == 2, bad_t
        assert proc.stderr.startswith("error:") and proc.stdout == "", bad_t
    # every kind rejects a negative t and an alpha outside [0, pi/2), even where unused
    for argv in (("selfadjoint", "--t", "-1"), ("sqrt_n", "--alpha", "-3")):
        proc = run_main("verify", *argv, "--trials", "1", "--nmax", "4")
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    # a t grid whose series would share a record id, not a report with doubled rows
    for argv in (("euler", "--dim", "3", "--t", "1,1"), ("euler", "--dim", "3", "--t", "1,1.0000001"),
                 ("poisson_split", "--t", "2,2")):
        proc = run_main("verify", *argv, "--trials", "1", "--nmax", "4", "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "distinct record ids" in proc.stderr
    assert not (tmp_path / "r.csv").exists()
    # an empty n-grid is a usage error, not a traceback
    proc = run_main("verify", "chernoff_product", "--nmax", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    # a t A beyond the expm norm cap MAX_EXPM_NORM is refused, never clipped,
    # also after a t that is not (tnk_equivalence reads the first t only)
    cases = [("tnk_equivalence", "2e6")]
    for kind in ("euler", "chernoff_product", "trotter_product", "dunford_segal"):
        cases += [(kind, "2e6"), (kind, "1,1e7")]
    for kind, ts in cases:
        proc = run_main("verify", kind, "--t", ts, "--trials", "2", "--nmax", "4")
        assert proc.returncode == 2 and proc.stdout == "", (kind, ts)
        assert proc.stderr == "error: op_norm(M) > 1e+06; refusing to exponentiate\n", (kind, ts)
    # a fit threshold that is not finite would drop every point without a word
    for bad_n in ("nan", "inf", "-inf"):
        proc = run_main("verify", "euler", f"--fit-min-n={bad_n}", "--trials", "1", "--nmax", "4")
        assert proc.returncode == 2 and proc.stdout == "", bad_n
        assert proc.stderr.startswith("error: fit_min_n must be finite"), bad_n
    # a 10^7 x 10^7 complex matrix is larger than the 128 TiB user address
    # space, so the allocation fails under any overcommit setting
    proc = run_main("verify", "sqrt_n", "--dim", "10000000", "--trials", "1", "--nmax", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


def test_seed_outside_64_bits_exits_two(run_main, tmp_path):
    # the draws take the seed mod 2^64: -1 wrote the CSV of 2^64 - 1
    for seed in ("-1", str(2**64)):
        proc = run_main("verify", "sqrt_n", "--seed", seed, "--trials", "1", "--nmax", "4")
        assert proc.returncode == 2 and proc.stdout == "", seed
        assert proc.stderr == f"error: seed must be an integer in [0, 2^64), got {seed}\n", seed
    out = tmp_path / "top.csv"
    argv = ("verify", "sqrt_n", "--seed", str(2**64 - 1), "--trials", "1", "--nmax", "4")
    assert run_main(*argv, "--out", str(out)).returncode == 0
    assert out.read_bytes().startswith(b"experiment_id,")


def test_parser_is_built_once_per_process(run_main, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        first = run_main("verify", "not_a_kind")
        assert run_main("constants", "--alpha", "0.1").returncode == 0
        again = run_main("verify", "not_a_kind")
        # flags left out of a later call stay absent: nothing carries over
        assert "dim" in vars(cli._parser().parse_args(["verify", "sqrt_n", "--dim", "3"]))
        assert "dim" not in vars(cli._parser().parse_args(["verify", "sqrt_n"]))
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert first.returncode == again.returncode == 2
    assert first.stderr == again.stderr and "invalid choice" in first.stderr


def test_t_zero_domain(tmp_path):
    # Phi(0) = 1 in every contraction family, so the Chernoff-pair kinds accept t = 0
    for kind in ("chernoff_product", "trotter_product", "euler", "euler_rate", "dunford_segal"):
        argv = ["verify", kind, "--t", "0", "--dim", "3", "--trials", "1", "--nmax", "4",
                "--out", str(tmp_path / f"{kind}.csv")]
        assert cli.main(argv) == 0, kind
    # the resolvent draws (1 + tA)^{-1} of these kinds need t > 0, also for a t
    # that no draw takes: the one draw of --t 1,0 takes t = 1
    for kind in ("ritt", "norm_chernoff", "contour_reconstruction"):
        for ts in ("0", "1,0"):
            argv = ["verify", kind, "--t", ts, "--dim", "3", "--trials", "1", "--nmax", "4",
                    "--out", str(tmp_path / f"{kind}.csv")]
            assert cli.main(argv) == 2, (kind, ts)


def test_unconverged_quadrature_exits_two(monkeypatch, tmp_path):
    # a zero tolerance never converges, so the node budget runs out
    monkeypatch.setattr(contour, "CONTOUR_QUAD_TOL", 0.0)
    monkeypatch.setattr(contour, "CONTOUR_NODE_CAP", 4096)
    argv = ["verify", "contour_reconstruction", "--dim", "2", "--trials", "1", "--nmax", "2",
            "--out", str(tmp_path / "r.csv")]
    assert cli.main(argv) == 2


def test_a_draw_no_trial_proves_refines(monkeypatch, tmp_path):
    # at alpha = 1.5 the quadrature proof fails on the trial contours, so
    # the draws fall back to the (32, 16) contour and refine it
    built, build = [], contour.build_contour
    monkeypatch.setattr(contour, "build_contour", lambda *a: built.append(a) or build(*a))
    out = tmp_path / "r.json"
    argv = ["verify", "contour_reconstruction", "--alpha", "1.5", "--dim", "4", "--trials", "2",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(json.loads(out.read_text())["records"]) == 20
    assert built and built[0][1:] == (64, 32)  # the first refinement of the (32, 16) contour


def test_contour_report_bytes_do_not_follow_the_blas_thread_count():
    # each resolvent stack adds one matrix product of all the functions'
    # weights: OpenBLAS runs a one-row product as a vector-matrix product,
    # whose last bits differ under one and two threads, as they did here
    # at d = 9 with one such product per function and 64-node block
    argv = ["verify", "contour_reconstruction", "--dim", "9", "--trials", "2", "--format", "json"]
    runs = [run_cli(*argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_console_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("verify", "numrange", "constants", "report"):
        assert sub in proc.stdout
