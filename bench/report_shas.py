"""sha256 of every benchmark report, as a byte-identity gate.

    python3 bench/report_shas.py [--parent REV] [--workload NAME] [--seed N]

Run from the root of a checkout.  Builds every ``perfbench/workloads.Builder``
request of the four workloads at seeds 1, 2 and 3 (``--workload`` and
``--seed``, each repeatable, narrow that), plus the Z_4 warm-up ``selftest``
of ``perfbench/warmup.py``, and runs each once in a child interpreter that
imports the package from a tree's ``src/`` with one BLAS thread.  It prints
one line per request that writes a report (the library ``convolve`` writes
none): workload, seed, index, kind and case, then the exit code and the
sha256 of the report.  ``--parent REV`` also runs revision REV, extracted
with ``git archive`` as ``bench/ladder.py`` does, and each line then gives
both sides and "same" or "DIFFERS".  The exit status is 1 when a report
differs or a request exits non-zero.  Inputs and reports are written to a
temporary directory, never under ``perfbench/``.
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

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ladder import BLAS_THREADS, ROOT, THREAD_VARS, extract, git  # noqa: E402

WORKLOADS = ("transform", "quotient", "spectral", "rigging")
SEEDS = (1, 2, 3)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def measure(workloads_run: list[str], seeds: list[int]) -> list[list]:
    """[label, exit code, sha256] of each request, with the package on ``sys.path``."""
    import abelian_spectra
    import abelian_spectra.cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    import warmup
    import workloads

    def run(label: str, output: Path, request) -> list:
        output.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = request()
        return [label, code, digest(output)]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in workloads_run:
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
    failed = any(code != 0 for _, code, _ in change)
    if not args.parent:
        for label, code, sha in change:
            print(f"{label}: exit {code} {sha}")
        return int(failed)
    with tempfile.TemporaryDirectory() as tmp:
        sha = extract(args.parent, Path(tmp))
        parent = measure_tree(Path(tmp), args)
    print(f"parent {sha}, change {git('rev-parse', 'HEAD')}"
          f"{'+dirty' if git('status', '--porcelain', '--untracked-files=no', 'src') else ''}")
    for (label, code0, sha0), (_, code1, sha1) in zip(parent, change):
        same = code0 == code1 and sha0 == sha1
        failed |= not same or code0 != 0
        print(f"{label}: parent exit {code0} {sha0}, change exit {code1} {sha1}, "
              f"{'same' if same else 'DIFFERS'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
