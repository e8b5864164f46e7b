import json
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



def _battery(root, margin=-0.5, total_s=0.1, csv="re_lambda\n-1.0\n", code=0):
    """A one-job battery as ``report_battery.py run`` lays it out."""
    (root / "job").mkdir(parents=True)
    (root / "exit_codes.json").write_text(json.dumps({"job": code}))
    report = {"command": "certify", "config": {"tol": 1e-8, "out_dir": str(root / "job")},
              "candidate": {"margin": margin}, "timings": {"total_s": total_s}}
    (root / "job" / "certify.json").write_text(json.dumps(report))
    (root / "job" / "scan.csv").write_text(csv)
    return root


@pytest.mark.parametrize("change, differs", [
    ({}, None),
    ({"total_s": 9.0}, None),  # timings and config.out_dir alone may differ
    ({"margin": -0.25}, "job/certify.json"),
    ({"csv": "re_lambda\n-2.0\n"}, "job/scan.csv"),
    ({"code": 2}, "exit_codes.json"),
], ids=["equal", "timings-and-out-dir", "margin", "csv", "exit-code"])
def test_report_battery_compare(tmp_path, change, differs):
    a, b = _battery(tmp_path / "a"), _battery(tmp_path / "b", **change)
    result = subprocess.run([sys.executable, str(SCRIPTS / "report_battery.py"), "compare",
                             str(a), str(b)], capture_output=True, text=True, timeout=60)
    assert result.returncode == (0 if differs is None else 1)
    if differs is not None:
        assert result.stdout.split() == ["differs:", str(Path(differs))]
