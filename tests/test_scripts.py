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
