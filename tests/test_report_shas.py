"""Smoke test of the report-hash gate: ``bench/report_shas.py`` runs the
benchmark's requests on the package as it is and prints one sha256 per
report, writing nothing under ``perfbench/``."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_shas_hashes_the_rigging_requests_at_seed_1(tmp_path, monkeypatch):
    before = sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "report_shas.py"),
                           "--workload", "rigging", "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*")) == before
    rows = [re.fullmatch(r"(.+): exit (\d+) ([0-9a-f]{64})", line)
            for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [row[1] for row in rows] == ["rigging seed 1 #0 rig 256-d8",
                                        "rigging seed 1 #1 rig 16x16-d32",
                                        "rigging seed 1 #2 rig 4^4-d32",
                                        "warm-up selftest 4-d2"]
    assert all(row[2] == "0" for row in rows)
    # the first line hashes the report that request writes when run here
    import abelian_spectra.cli
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    request = workloads.Builder(1, tmp_path, abelian_spectra).build("rigging")[0]
    assert request.run() == 0
    assert rows[0][3] == hashlib.sha256(request.output.read_bytes()).hexdigest()


def test_report_shas_hashes_the_stderr_of_each_failing_request():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "report_shas.py"),
                           "--workload", "errors"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [re.fullmatch(r"errors #(\d+) (.+) \(exit (\d)\) stderr: exit (\d+) ([0-9a-f]{64})",
                         line) for line in proc.stdout.splitlines()[:-1]]
    assert all(rows), proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("warm-up selftest 4-d2: exit 0 ")
    assert [int(row[1]) for row in rows] == list(range(len(rows)))
    # each request exits with the code its label names, and every code 2..5 is covered
    assert all(row[3] == row[4] for row in rows)
    assert {int(row[3]) for row in rows} == {2, 3, 4, 5}
    by_label = {row[2]: row[5] for row in rows}
    expected = "error: unitary[0]: generator 0 not unitary (residual 1.732e+00)\n"
    assert by_label["non-unitary generator"] == hashlib.sha256(expected.encode()).hexdigest()
    expected = "error: forward transform is not finite: it overflowed on finite input\n"
    assert by_label["forward transform overflow"] == hashlib.sha256(expected.encode()).hexdigest()
