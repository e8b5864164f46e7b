import subprocess
import sys
from pathlib import Path

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
