"""Set-up of one CLI process: importing the package and a first request
of every subcommand on a group of order 4.

The first request of a process pays for lazy initialisation, such as
the first calls into LAPACK.  A CLI user pays this on every invocation,
so the benchmark reports it as ``setup_s`` instead of hiding it in the
measured requests.  ``run.py`` times this set-up in its own
process and, for a median, in a few fresh interpreters that run this
file as a script:

    python3 perfbench/warmup.py SRC_DIR ARGV_FILE

which prints ``{"seconds": ..., "failures": ...}`` on stdout.

Only the standard library is imported here, so that the timer also
covers the import of numpy that the package pulls in.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _pairs(values) -> list[list[float]]:
    return [[float(complex(z).real), float(complex(z).imag)] for z in values]


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_inputs(directory: Path) -> list[list[str]]:
    """Write the order-4 warm-up inputs; return one argv per subcommand."""
    directory.mkdir(parents=True, exist_ok=True)
    group = {"orders": [4]}
    f = _write(directory / "f.json", {
        "group": group, "domain": "group",
        "values": _pairs([1, 0.5 - 1j, -2 + 0.25j, 1j])})
    dual = _write(directory / "dual.json", {
        "group": group, "domain": "dual", "values": _pairs([4, 0, 1j, -1])})
    # the point mass at the identity has the all-ones transform: positive
    # type of full rank
    phi = _write(directory / "phi.json", {
        "group": group, "domain": "group", "values": _pairs([1, 0, 0, 0])})
    # U = diag(1, i) carries the characters 0 and 1 of Z_4
    rep = _write(directory / "rep.json", {
        "group": group, "dim": 2, "generators": [_pairs([1, 0, 0, 1j])]})
    out = str(directory / "out.json")
    return [
        ["fourier", "--input", f, "--output", out],
        ["fourier", "--direction", "inverse", "--input", dual, "--output", out],
        ["gns", "--input", phi, "--output", out],
        ["decompose", "--input", rep, "--output", out],
        ["rig", "--input", rep, "--output", out],
        ["selftest", "--max-group-size", "4", "--max-dim", "2", "--output", out],
    ]


def timed_setup(argvs: list[list[str]]) -> tuple[float, int]:
    """Import the CLI and run each warm-up request; return (seconds, failures)."""
    start = time.perf_counter()
    from abelian_spectra.cli import main

    failures = 0
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        failures += code != 0
    return time.perf_counter() - start, failures


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    argvs = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    seconds, failures = timed_setup(argvs)
    print(json.dumps({"seconds": seconds, "failures": failures}))
