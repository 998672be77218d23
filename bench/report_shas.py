"""sha256 of every benchmark report, as a byte-identity gate, and of the
error message of a fixed set of failing requests.

    python3 bench/report_shas.py [--parent REV] [--workload NAME] [--seed N]

Run from the root of a checkout.  Builds every ``perfbench/workloads.Builder``
request of the four workloads at seeds 1, 2 and 3 (``--workload`` and
``--seed``, each repeatable, narrow that), plus the Z_4 warm-up ``selftest``
of ``perfbench/warmup.py``, and runs each once in a child interpreter that
imports the package from a tree's ``src/`` with one BLAS thread.  It prints
one line per request that writes a report (the library ``convolve`` writes
none): workload, seed, index, kind and case, then the exit code and the
sha256 of the report.  The pseudo-workload ``errors`` (run by default, or
alone with ``--workload errors``; it has no seed) is ``error_requests``:
inputs that must fail with each exit code 2 to 5, each line giving the exit
code and the sha256 of what the request wrote to stderr.  ``--parent REV``
also runs revision REV, extracted with ``git archive`` as ``bench/ladder.py``
does, and each line then gives both sides and "same" or "DIFFERS"; a failing
request whose stderr differs is followed by both texts.  The exit status is
1 when a report differs, a report request exits non-zero, or a failing
request exits with another code than its own; a changed error message alone
is shown, not failed, so that a wording change is reviewed.  Inputs and
reports are written to a temporary directory, never under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ladder import BLAS_THREADS, ROOT, THREAD_VARS, extract, git  # noqa: E402

WORKLOADS = ("transform", "quotient", "spectral", "rigging", "errors")
SEEDS = (1, 2, 3)


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.ravel(np.asarray(values, dtype=complex))]


def _function(path: Path, orders, values, domain="group") -> str:
    path.write_text(json.dumps({"group": {"orders": list(orders)}, "domain": domain,
                                "values": _pairs(values)}))
    return str(path)


def _representation(path: Path, orders, generators) -> str:
    path.write_text(json.dumps({"group": {"orders": list(orders)}, "dim": len(generators[0]),
                                "generators": [_pairs(U) for U in generators]}))
    return str(path)


def error_requests(work: Path) -> list[tuple[str, int, list[str]]]:
    """(label, exit code, argv) of each failing request, its inputs written
    as plain JSON under ``work``, so both trees read the same bytes."""
    from workloads import planted_representation
    shift = np.roll(np.eye(4), 1, axis=0)  # the regular representation of Z_4
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    planted, _ = planted_representation(np.random.default_rng(3), (256,), 8, 1)
    f = _function(work / "overflow.json", (4,), [1e308] * 4)
    dual = _function(work / "overflow-dual.json", (4,), [1e308] * 4, "dual")
    regular = _representation(work / "regular.json", (4,), [shift])
    planted_rep = _representation(work / "planted.json", (256,), planted)
    return [
        ("missing input file", 2, ["fourier", "--input", str(work / "missing.json")]),
        ("non-unitary generator", 3,
         ["decompose", "--input", _representation(work / "shear.json", (2,), [[[1, 0], [1, 1]]])]),
        ("non-commuting generators", 3,
         ["decompose", "--input", _representation(work / "xz.json", (2, 2), [x, z])]),
        ("generator of the wrong order", 3,
         ["rig", "--input", _representation(work / "order.json", (3,), [z])]),
        ("forward transform overflow", 4, ["fourier", "--input", f]),
        ("inverse transform overflow", 4, ["fourier", "--input", dual, "--direction", "inverse"]),
        ("transform of phi overflow", 4, ["gns", "--input", f]),
        ("construction check overflow", 4,
         ["gns", "--input", _function(work / "mass.json", (256,), 3e307 * np.eye(256)[0])]),
        ("phi of the cyclic amplitude overflow", 4,
         ["rig", "--input", regular, "--xi", _function(work / "xi.json", (4,), [1e200] * 4, "dual")]),
        ("spectrum of the cyclic amplitude overflow", 4,
         ["rig", "--input", _representation(work / "trivial.json", (4,), [np.eye(1)]),
          "--xi", _function(work / "xi1.json", (4,), [1e154, 0, 0, 0], "dual")]),
        ("identity check overflow", 4,
         ["rig", "--input", planted_rep,
          "--xi", _function(work / "xi256.json", (256,), [4.642e152] * 256, "dual")]),
        ("identity check over --tol 0", 4, ["rig", "--input", regular, "--tol", "0"]),
        ("function not of positive type", 5,
         ["gns", "--input", _function(work / "negative.json", (2,), [1.0, 2.0])]),
        ("amplitude not cyclic", 5,
         ["rig", "--input", regular, "--xi", _function(work / "xi0.json", (4,), [1, 1, 0, 1],
                                                       "dual")]),
    ]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def measure(workloads_run: list[str], seeds: list[int]) -> list[list]:
    """[label, exit code, sha256, stderr or None, expected exit code] of each
    request, with the package on ``sys.path``: the sha256 is of the report, or
    of the stderr of a failing request."""
    import abelian_spectra
    import abelian_spectra.cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    import warmup
    import workloads

    def run(label: str, output: Path, request) -> list:
        output.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = request()
        return [label, code, digest(output), None, 0]

    def fail(label: str, expected: int, argv: list[str]) -> list:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = abelian_spectra.cli.main(argv)
        text = err.getvalue().replace(str(work), "<work>")  # the same on both trees
        return [label, code, hashlib.sha256(text.encode()).hexdigest(), text, expected]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in workloads_run:
            if name == "errors":
                rows += [fail(f"errors #{index} {label} (exit {code}) stderr", code, argv)
                         for index, (label, code, argv) in enumerate(error_requests(work))]
                continue
            for seed in seeds:
                for index, request in enumerate(
                        workloads.Builder(seed, work, abelian_spectra).build(name)):
                    if request.output is not None:
                        label = f"{name} seed {seed} #{index} {request.kind} {request.case}"
                        rows.append(run(label, request.output, request.run))
        argv = next(argv for argv in warmup.write_inputs(work / "warmup")
                    if argv[0] == "selftest")
        rows.append(run("warm-up selftest 4-d2", Path(argv[argv.index("--output") + 1]),
                        lambda: abelian_spectra.cli.main(argv)))
    return rows


def measure_tree(tree: Path, args: argparse.Namespace) -> list[list]:
    """``measure`` in a child interpreter on ``tree``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    argv = [sys.executable, __file__, "--measure"]
    for name in args.workload:
        argv += ["--workload", name]
    for seed in args.seed:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV", help="also run this revision")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload, args.seed = args.workload or list(WORKLOADS), args.seed or list(SEEDS)
    if args.measure:
        print(json.dumps(measure(args.workload, args.seed)))
        return 0
    change = measure_tree(ROOT, args)
    failed = any(code != expected for _, code, _, _, expected in change)
    if not args.parent:
        for label, code, sha, _, _ in change:
            print(f"{label}: exit {code} {sha}")
        return int(failed)
    with tempfile.TemporaryDirectory() as tmp:
        sha = extract(args.parent, Path(tmp))
        parent = measure_tree(Path(tmp), args)
    print(f"parent {sha}, change {git('rev-parse', 'HEAD')}"
          f"{'+dirty' if git('status', '--porcelain', '--untracked-files=no', 'src') else ''}")
    for (label, code0, sha0, err0, expected), (_, code1, sha1, err1, _) in zip(parent, change):
        same = code0 == code1 and sha0 == sha1
        # a report must not change; a failing request must keep its exit code
        failed |= expected != code0 or expected != code1 or (err0 is None and not same)
        print(f"{label}: parent exit {code0} {sha0}, change exit {code1} {sha1}, "
              f"{'same' if same else 'DIFFERS'}")
        if err0 is not None and not same:
            print(f"    parent: {err0.rstrip()}\n    change: {err1.rstrip()}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
