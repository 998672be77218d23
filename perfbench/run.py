"""Benchmark of the abelian-spectra CLI: one closed-loop client, one request
at a time, in a fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  The run times its own set-up (``setup_s``), generates the
workload's inputs from the seed with planted ground truth, then repeats
passes over the workload's requests for at least ``--seconds`` seconds,
checking every output.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` spends half the time untraced and half
with every layer traced, and reports the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Run records go to ``.perfbench_out/``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import warmup

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("transform", "quotient", "spectral", "rigging")
# fresh interpreters whose set-up is timed besides this process's own
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120
# One BLAS thread: on two shared cores a second thread made pass times
# spread twice as wide, and the first large request of a process slower.
BLAS_THREADS = 1


@dataclass
class Outcome:
    kind: str
    case: str
    seconds: float
    error: str | None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_setup(argv_file: Path) -> tuple[float | None, int]:
    """Set-up time of a fresh interpreter, and its failed warm-up requests."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "warmup.py"), str(SRC), str(argv_file)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        print(f"set-up child failed with code {proc.returncode}: {proc.stderr[-500:]}")
        return None, 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["seconds"], result["failures"]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads(np) -> int | str:
    """Threads the bundled OpenBLAS reports, or the requested count."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"{BLAS_THREADS} (requested)"


def environment(np) -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def run_pass(requests, tracer=None, first_request=0) -> list[Outcome]:
    import checks  # imports numpy, which has to wait for the timed set-up

    outcomes = []
    for i, req in enumerate(requests):
        run = req.run
        if tracer is not None:
            tracer.request = first_request + i
            run = tracer.wrap(f"request.{req.kind}", run)
        error = None
        start = time.perf_counter()
        try:
            code = run()
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                req.check()
            except checks.CheckFailure as exc:
                error = f"check: {exc}"
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                error = f"check: malformed output ({type(exc).__name__}: {exc})"
        outcomes.append(Outcome(req.kind, req.case, seconds, error))
    return outcomes


def measure(requests, seconds: float, tracer=None) -> list[list[Outcome]]:
    """Whole passes over the requests until ``seconds`` have elapsed."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(requests, tracer, len(passes) * len(requests)))
    return passes


def request_medians(passes) -> list[tuple[str, float]]:
    """(kind, median latency over passes) for each request of the workload."""
    return [(column[0].kind, statistics.median(o.seconds for o in column))
            for column in zip(*passes)]


def wall(passes) -> float:
    """Summed median latency of the workload's requests."""
    return sum(t for _, t in request_medians(passes))


def per_kind(passes) -> dict[str, float]:
    """Summed median latency of the requests of each kind."""
    out: dict[str, float] = defaultdict(float)
    for kind, t in request_medians(passes):
        out[f"{kind}_s"] += t
    return dict(out)


def layer_metrics(tracer, n_passes: int) -> dict[str, float]:
    """Self time and calls per span name, and the counters, per traced pass."""
    out: dict[str, float] = defaultdict(float)
    for name, (own, calls) in tracer.self_times().items():
        if name.startswith("request."):
            continue
        if name.startswith("cli."):
            out["cli.self_s"] += own / n_passes
            continue
        out[f"{name}_s"] = own / n_passes
        out[f"{name}_calls"] = calls / n_passes
    for name, value in tracer.counters.items():
        out[name] = value / n_passes
    return out


def run(args, work: Path) -> int:
    argvs = warmup.write_inputs(work / "warmup")
    seconds, failures = warmup.timed_setup(argvs)
    setup = [seconds]
    attempted, failed = len(argvs), failures
    argv_file = work / "warmup" / "argv.json"
    argv_file.write_text(json.dumps(argvs), encoding="utf-8")
    for _ in range(SETUP_CHILDREN):
        seconds, failures = child_setup(argv_file)
        attempted += len(argvs)
        failed += failures
        if seconds is not None:
            setup.append(seconds)

    # Imported only now, so that the timed set-up above also covers the
    # import of numpy.
    import numpy as np

    import abelian_spectra.cli
    import tracer as tracing
    import workloads

    if SRC not in Path(abelian_spectra.__file__).resolve().parents:
        print(f"error: abelian_spectra imported from {abelian_spectra.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = environment(np)
    print("env " + json.dumps(env))

    requests = workloads.Builder(args.seed, work, abelian_spectra).build(args.workload)
    skipped = [r for r in requests if r.over_budget]
    requests = [r for r in requests if not r.over_budget]
    for r in skipped:
        print(f"skipped (budget): {r.kind} {r.case}, {r.dense_bytes / 2**30:.2f} GiB dense")
    if not requests:
        print("error: every request is over the dense-memory budget", file=sys.stderr)
        return 2

    metrics: dict[str, float] = {}
    if args.trace:
        untraced = measure(requests, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(requests, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        metrics.update(per_kind(untraced))
        metrics.update(layer_metrics(tracer, len(traced)))
        metrics["trace.overhead_s"] = wall(traced) - wall(untraced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        passes = measure(requests, args.seconds)
        metrics["wall_s"] = wall(passes)
        metrics.update(per_kind(passes))
    outcomes = [o for p in passes for o in p]
    attempted += len(outcomes)
    failed += sum(o.error is not None for o in outcomes)
    metrics["error_rate"] = failed / attempted
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"passes: {len(passes)}, requests per pass: {len(requests)}")
    for o in outcomes:
        if o.error is not None:
            print(f"FAILED {o.kind} {o.case}: {o.error}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setup,
        "skipped_budget": [f"{r.kind} {r.case}" for r in skipped],
        "requests": [[vars(o) for o in p] for p in passes], "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abelian_spectra" / "cli.py").is_file():
        print(f"error: no abelian_spectra package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # before numpy is first imported, here or in a set-up child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
