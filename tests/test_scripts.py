"""The documented scripts run end to end: write the corpus, then check that
every file in it re-serialises byte-identically, both at once and record by
record through a StreamWriter."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_corpus_round_trips_through_the_scripts(tmp_path):
    subprocess.run([sys.executable, str(SCRIPTS / "make_corpus.py"), str(tmp_path)],
                   check=True, capture_output=True)
    n = len(list(tmp_path.glob("*.gdf")))
    assert n >= 20
    report = subprocess.run([sys.executable, str(SCRIPTS / "roundtrip_report.py"),
                             str(tmp_path)], capture_output=True, text=True)
    assert report.returncode == 0, report.stdout + report.stderr
    assert "DIFFERS" not in report.stdout
    assert f"{n}/{n} files byte-identical through to_bytes and StreamWriter" in report.stdout
