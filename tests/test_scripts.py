import base64
import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_family_survey_passes_both_scans_on_every_family():
    # the only script that drives both resolvent scans end to end
    out = subprocess.run([sys.executable, str(SCRIPTS / "family_survey.py")],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        assert row.split()[-2:] == ["pass", "pass"], row


def test_refinement_study_lower_bound_constants_decrease_in_n():
    # the docstring's claim: m(1) and the shared-rate intercept both
    # strictly decrease as cells are added
    out = subprocess.run([sys.executable, str(SCRIPTS / "refinement_study.py")],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    header, *rows = out.strip().splitlines()[1:]
    assert header.split()[-2:] == ["m(1)", "intercept@rate"]
    columns = [[float(row.split()[k]) for row in rows] for k in (-2, -1)]
    assert len(rows) == 5
    for values in columns:
        assert all(x > y for x, y in zip(values, values[1:])), values

def _base64(*values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


# Q = [-1.5, 0.0] and its last bit flipped, as each layout writes it
Q_F64LE = {"rows": 1, "cols": 2, "f64le": _base64(-1.5, 0.0)}
Q_FLIPPED = {"rows": 1, "cols": 2, "f64le": _base64(-1.5000000000000002, 0.0)}
Q_LAYOUTS = [{"rows": 1, "cols": 2, "data_real": [-1.5, 0.0]},
             {"rows": 1, "cols": 2, "data": [[-1.5, -0.0], [0, 0.0]]},
             {"rows": 1, "cols": 2, "c128le": _base64(-1.5, 0.0, 0.0, -0.0)}]


def _battery(root, margin=-0.5, total_s=0.1, csv="re_lambda\n-1.0\n", code=0, q=Q_F64LE,
             verdict="certified"):
    """A one-job battery as ``report_battery.py run`` lays it out."""
    (root / "job").mkdir(parents=True)
    (root / "exit_codes.json").write_text(json.dumps({"job": code}))
    report = {"command": "certify", "verdict": verdict,
              "config": {"tol": 1e-8, "out_dir": str(root / "job")},
              "candidate": {"margin": margin, "q": q}, "timings": {"total_s": total_s}}
    (root / "job" / "certify.json").write_text(json.dumps(report))
    (root / "job" / "scan.csv").write_text(csv)
    return root


@pytest.mark.parametrize("change, differs", [
    ({}, None),
    ({"total_s": 9.0}, None),  # timings and config.out_dir alone may differ
    ({"margin": -0.25}, "job/certify.json candidate.margin"),
    ({"csv": "re_lambda\n-2.0\n"}, "job/scan.csv"),
    ({"code": 2}, "exit_codes.json job"),
    *[({"q": q}, None) for q in Q_LAYOUTS],  # the same bits in another layout
    ({"q": Q_FLIPPED}, "job/certify.json candidate.q"),
    ({"q": {"rows": 1, "cols": 2, "data_real": [-1.5, -0.0]}}, "job/certify.json candidate.q"),
], ids=["equal", "timings-and-out-dir", "margin", "csv", "exit-code", "data_real", "data",
        "c128le", "flipped-bit", "negative-zero"])
def test_report_battery_compare(tmp_path, change, differs):
    a, b = _battery(tmp_path / "a"), _battery(tmp_path / "b", **change)
    result = subprocess.run([sys.executable, str(SCRIPTS / "report_battery.py"), "compare",
                             str(a), str(b)], capture_output=True, text=True, timeout=60)
    assert result.returncode == (0 if differs is None else 1)
    if differs is not None:
        # the file, then the dotted path of each field that differs
        assert result.stdout.split() == ["differs:", *differs.split()]


@pytest.mark.parametrize("change, code, lines", [
    ({}, 0, ["same verdicts: 3 files, 0 with moved numbers, 1 jobs, exit codes 1x0; "
             "recheck exit None"]),
    # numbers may move, each moved field listed once with its largest move
    ({"margin": -0.25, "csv": "re_lambda\n-2.0\n", "q": Q_FLIPPED}, 0, [
        "moved field         max rel diff  files",
        "candidate.margin       5.000e-01      1",
        "candidate.q.real       1.480e-16      1",
        "scan.csv.re_lambda     5.000e-01      1",
        "same verdicts: 3 files, 2 with moved numbers, 1 jobs, exit codes 1x0; recheck exit None",
    ]),
    ({"verdict": "refuted", "margin": -0.25}, 1, [
        "differs: job/certify.json", "  verdict",
        "moved field       max rel diff  files",
        "candidate.margin     5.000e-01      1",
    ]),
    ({"code": 2}, 1, ["differs: exit_codes.json", "  job"]),  # an exit code is no number
    ({"csv": "re_lambda\n-1.0\n-1.0\n"}, 1, ["differs: job/scan.csv", "  scan.csv.re_lambda"]),
], ids=["equal", "moved-numbers", "moved-verdict", "exit-code", "csv-rows"])
def test_report_battery_compare_numeric(tmp_path, change, code, lines):
    a, b = _battery(tmp_path / "a"), _battery(tmp_path / "b", **change)
    result = subprocess.run([sys.executable, str(SCRIPTS / "report_battery.py"), "compare",
                             "--numeric", str(a), str(b)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout.splitlines()) == (code, lines)
