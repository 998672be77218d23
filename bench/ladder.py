"""Scaling ladder of single layers, timed in-process at one BLAS thread.

    python3 bench/ladder.py [--parent REV] [--output BENCH_0.json]

Run from the root of a checkout.  Times seven layers on a ladder of group
orders |G| in {256, 4096, 65536}:

- ``fileio.parse_complex_array`` on |G| ``[re, im]`` pairs, as ``json``
  decodes them;
- ``algebra._transform`` on a |G| x c array, c in {1, 16}, for the
  shapes (n,), (sqrt n, sqrt n) and (2,)^log2 n;
- ``rigging.build_decomposition`` on a planted quotient of rank r = 8
  (phi the inverse transform of |xi|^2 on 8 drawn characters), for the
  same three shapes;
- ``representations.spectral_measure`` on a planted representation of
  dimension d in {8, 64} (``perfbench/workloads.planted_representation``,
  d / m characters of multiplicity m = max(1, d // |G|)), for the same
  three shapes.  A case whose ``cli.peak_estimate`` for ``decompose`` is
  over the CLI's budget is recorded as "skipped (budget)" and not run;
- ``representations.cyclic_decomposition`` with ``diagonalize`` on every
  layer, on the measure of each ``spectral_measure`` case, and skipped
  where that case is;
- ``representations.spectral_measure`` off the ladder, at small d where
  the fixed cost of each call sets the time: (3,) d1, (4, 4) d4 and
  (2,)^8 d32 with multiplicity 4 (``SMALL_MEASURES``; these rows carry
  their ``multiplicity``);
- ``rigging.build_decomposition`` followed by ``rigging.intertwiner`` on
  its result, off the ladder, on one planted layer of rank r (the one
  cyclic component of a planted representation of dimension r, with
  random amplitudes on its support) for each of ``RIG_LAYERS``: (65536,)
  at r in {64, 202} and (2,)^16 at r = 64; these rows carry r as their
  ``dim``;
- ``cli.main``, one in-process ``gns`` request on a planted rank-r phi
  file on the shape (n,) and one on the full-rank point mass on (2,)^log2 n,
  and one ``decompose`` and one ``rig`` request on a planted
  representation of (n,) of dimension 8, two characters of multiplicity
  4 (each skipped like ``spectral_measure`` when its ``cli.peak_estimate``
  is over the budget), each writing its report into a temporary
  directory, whose size in bytes the case records as ``report_bytes``;
  and one in-process ``selftest`` request at each of ``SELFTEST_SIZES``
  (``--max-group-size``, ``--max-dim``), whose shape is written
  "<size>-d<dim>".

Each time is the median of 5 calls; one more call, under ``tracemalloc``,
gives the case's traced peak in bytes.  Each row records the git SHA, the
number of usable cores, the numpy and BLAS versions, and the log-log
slope of each series between adjacent rungs (1 is linear in |G|).  A row
is measured ROUNDS times, each in a fresh interpreter that imports the
package from the row's ``src/``, and reports each case's median over the
rounds (``rounds_s`` keeps the per-round times).  ``--parent REV`` adds a
first row for revision REV, extracted with ``git archive`` into a
temporary directory; the rounds then alternate parent and change, so
that drift of the machine does not read as a change.  This is a
measurement, not a test: timings on shared machines are too noisy to
gate on.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (256, 4096, 65536)
COLUMNS = (1, 16)
RIG_RANK = 8
RIG_DIM, RIG_MULTIPLICITY = 8, 4
DIMS = (8, 64)
SMALL_MEASURES = (((3,), 1, 1), ((4, 4), 4, 1), ((2,) * 8, 32, 4))  # (orders, d, multiplicity)
RIG_LAYERS = (((65536,), 64), ((65536,), 202), ((2,) * 16, 64))  # (orders, r)
SELFTEST_SIZES = ((4, 2), (64, 16))
REPEATS = 5
ROUNDS = 3
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shapes(n: int) -> dict[str, tuple[int, ...]]:
    k = int(math.log2(n))
    return {"n": (n,), "sqrt_n^2": (math.isqrt(n),) * 2, "2^k": (2,) * k}


def timed(call) -> dict:
    """The median of REPEATS timed calls, and the traced peak of one more."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"median_s": statistics.median(times), "peak_bytes": peak}


def measure() -> list[dict]:
    """Time every case with the package on ``sys.path``."""
    import numpy as np
    from abelian_spectra import (DualFunction, GroupFunction, build_decomposition, cli,
                                 cyclic_decomposition, delta, diagonalize, gns_construct,
                                 intertwiner, make_group, make_representation,
                                 phi_from_cyclic, spectral_measure)
    from abelian_spectra.algebra import _transform
    from abelian_spectra.fileio import (dump_json, function_to_payload, parse_complex_array,
                                        representation_to_payload)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import case_name, planted_representation

    rng = np.random.default_rng(0)
    cases = []
    for n in ORDERS:
        raw = rng.standard_normal((n, 2)).tolist()
        cases.append({"layer": "fileio.parse_complex_array", "shape": "pairs",
                      "size": n, "columns": None,
                      **timed(lambda: parse_complex_array(raw, "values"))})
        for name, orders in shapes(n).items():
            group = make_group(orders, size_cap=n)
            for c in COLUMNS:
                values = rng.standard_normal((n, c)) + 1j * rng.standard_normal((n, c))
                cases.append({"layer": "algebra._transform", "shape": name,
                              "size": n, "columns": c,
                              **timed(lambda: _transform(group, values))})
    rng = np.random.default_rng(1)
    for n in ORDERS:
        for name, orders in shapes(n).items():
            group = make_group(orders, size_cap=n)
            amps = np.zeros(n, dtype=complex)
            amps[rng.choice(n, size=RIG_RANK, replace=False)] = rng.uniform(0.5, 2.0, RIG_RANK)
            phi = GroupFunction(group, _transform(group, np.abs(amps) ** 2, inverse=True))
            space, xi = gns_construct(phi), DualFunction(group, amps)
            cases.append({"layer": "rigging.build_decomposition", "shape": name,
                          "size": n, "columns": None,
                          **timed(lambda: build_decomposition(space, xi))})
    # an older tree's diagonalize also takes the measure
    extra = len(inspect.signature(diagonalize).parameters) - 1

    def layers(pvm):
        return [diagonalize(comp, *[pvm][:extra]) for comp in cyclic_decomposition(pvm)]

    # older trees rebuild the intertwiner from (space, model, xi)
    reads_decomp = "decomp" in inspect.signature(intertwiner).parameters

    def rig_layer(space, model, xi):
        decomp = build_decomposition(space, xi)
        return intertwiner(decomp, model) if reads_decomp else intertwiner(space, model, xi)

    rng = np.random.default_rng(2)
    for n in ORDERS:
        for name, orders in shapes(n).items():
            group = make_group(orders, size_cap=n)
            for d in DIMS:
                measure_case, layers_case = (
                    {"layer": layer, "shape": name, "size": n, "columns": None, "dim": d}
                    for layer in ("representations.spectral_measure",
                                  "representations.cyclic_decomposition"))
                if cli.peak_estimate("decompose", orders, d) > cli.OPERATOR_STACK_BUDGET:
                    cases += [{**case, "median_s": None, "peak_bytes": None,
                               "status": "skipped (budget)"} for case in (measure_case, layers_case)]
                    continue
                generators, _ = planted_representation(rng, orders, d, max(1, d // n))
                rep = make_representation(group, generators)
                cases.append({**measure_case, **timed(lambda: spectral_measure(rep))})
                pvm = spectral_measure(rep)
                cases.append({**layers_case, **timed(lambda: layers(pvm))})
    for orders, d, mult in SMALL_MEASURES:
        generators, _ = planted_representation(rng, orders, d, mult)
        rep = make_representation(make_group(orders), generators)
        cases.append({"layer": "representations.spectral_measure",
                      "shape": case_name(orders), "size": math.prod(orders),
                      "columns": None, "dim": d, "multiplicity": mult,
                      **timed(lambda: spectral_measure(rep))})
    rng = np.random.default_rng(3)

    def request(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")

        def cli_case(command: str, shape: str, n: int, path: str, **extra) -> dict:
            argv = [command, "--input", path, "--output", out, "--max-group-size", str(n)]
            return request_case(argv, shape, n, **extra)

        def request_case(argv: list[str], shape: str, n: int, **extra) -> dict:
            return {"layer": "cli.main", "command": argv[0], "shape": shape, "size": n,
                    "columns": None, **extra, **timed(lambda: request(argv)),
                    "report_bytes": os.path.getsize(out)}

        for n in ORDERS:
            group = make_group((n,), size_cap=n)
            amps = np.zeros(n)
            amps[rng.choice(n, size=RIG_RANK, replace=False)] = rng.uniform(0.5, 2.0, RIG_RANK)
            phi = GroupFunction(group, _transform(group, amps ** 2, inverse=True))
            path = os.path.join(tmp, f"phi{n}.json")
            dump_json(function_to_payload(phi), path)
            cases.append(cli_case("gns", "n", n, path))
        for n in ORDERS:
            path = os.path.join(tmp, f"delta{n}.json")
            dump_json(function_to_payload(delta(make_group(shapes(n)["2^k"], size_cap=n))), path)
            cases.append(cli_case("gns", "2^k", n, path))
        for n in ORDERS:
            generators, _ = planted_representation(rng, (n,), RIG_DIM, RIG_MULTIPLICITY)
            rep = make_representation(make_group((n,), size_cap=n), generators)
            path = os.path.join(tmp, f"rep{n}.json")
            dump_json(representation_to_payload(rep), path)
            for command in ("decompose", "rig"):
                if cli.peak_estimate(command, (n,), RIG_DIM) > cli.OPERATOR_STACK_BUDGET:
                    cases.append({"layer": "cli.main", "command": command, "shape": "n",
                                  "size": n, "columns": None, "dim": RIG_DIM,
                                  "median_s": None, "peak_bytes": None,
                                  "status": "skipped (budget)"})
                else:
                    cases.append(cli_case(command, "n", n, path, dim=RIG_DIM))
        for n, d in SELFTEST_SIZES:
            cases.append(request_case(["selftest", "--max-group-size", str(n), "--max-dim",
                                       str(d), "--output", out], f"{n}-d{d}", n, dim=d))
    rng = np.random.default_rng(4)
    for orders, r in RIG_LAYERS:
        group = make_group(orders, size_cap=math.prod(orders))
        generators, _ = planted_representation(rng, orders, r, 1)
        (model,) = layers(spectral_measure(make_representation(group, generators)))
        vals = np.zeros(group.size, dtype=complex)
        vals[model.columns] = rng.uniform(0.5, 2.0, r) * np.exp(2j * np.pi * rng.random(r))
        xi = DualFunction(group, vals)
        space = gns_construct(phi_from_cyclic(model, xi))
        cases.append({"layer": "rigging.build_decomposition+intertwiner",
                      "shape": case_name(orders), "size": group.size, "columns": None,
                      "dim": r, **timed(lambda: rig_layer(space, model, xi))})
    return cases


def slopes(cases: list[dict]) -> list[dict]:
    """log(t2/t1) / log(n2/n1) between adjacent rungs of each series."""
    series: dict[tuple, list[dict]] = {}
    for case in cases:
        if case["median_s"] is not None:
            key = (case["layer"], case.get("command"), case["shape"], case["columns"],
                   case.get("dim"))
            series.setdefault(key, []).append(case)
    out = []
    for (layer, command, shape, columns, dim), rungs in series.items():
        rungs = sorted(rungs, key=lambda c: c["size"])
        for lo, hi in zip(rungs, rungs[1:]):
            out.append({"layer": layer, "command": command, "shape": shape,
                        "columns": columns, "dim": dim,
                        "from": lo["size"], "to": hi["size"],
                        "slope": round(math.log(hi["median_s"] / lo["median_s"])
                                       / math.log(hi["size"] / lo["size"]), 3)})
    return out


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, directory: Path) -> str:
    """Extract revision ``rev``'s ``src/`` into ``directory`` with ``git archive``;
    return its full SHA."""
    sha = git("rev-parse", rev)
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return sha


def measure_round(tree: Path) -> list[dict]:
    """Every case once, measured in a child interpreter on ``tree``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def combine(rounds: list[list[dict]]) -> list[dict]:
    """Each case with its median time and traced peak over the rounds."""
    cases = []
    for per_round in zip(*rounds):
        case = dict(per_round[0])
        if case["median_s"] is not None:
            times = [c["median_s"] for c in per_round]
            case.update(median_s=statistics.median(times), rounds_s=times,
                        peak_bytes=statistics.median(c["peak_bytes"] for c in per_round))
        cases.append(case)
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV",
                        help="also measure this revision, as the first row")
    parser.add_argument("--output", default="BENCH_0.json")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    trees = {}
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            trees["parent"] = (Path(tmp), extract(args.parent, Path(tmp)))
        dirty = bool(git("status", "--porcelain", "--untracked-files=no", "src"))
        trees["change"] = (ROOT, git("rev-parse", "HEAD") + ("+dirty" if dirty else ""))
        rounds: dict[str, list] = {label: [] for label in trees}
        for _ in range(ROUNDS):
            for label, (tree, sha) in trees.items():
                rounds[label].append(measure_round(tree))
    rows = []
    for label, (_, sha) in trees.items():
        cases = combine(rounds[label])
        rows.append({"label": label, "git_sha": sha, **environment(),
                     "cases": cases, "slopes": slopes(cases)})
    report = {"ladder": "bench/ladder.py", "orders": list(ORDERS), "columns": list(COLUMNS),
              "dims": list(DIMS), "rig_rank": RIG_RANK, "repeats": REPEATS,
              "rounds": ROUNDS, "statistic": "median over rounds of the median of repeats",
              "rows": rows}
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    for r in rows:
        print(r["label"], r["git_sha"])
        for case in r["cases"]:
            cost = (f"{case['median_s'] * 1e3:9.3f} ms {case['peak_bytes'] / 2**20:8.2f} MiB"
                    if case["median_s"] is not None else case["status"])
            if "report_bytes" in case:
                cost += f" {case['report_bytes']:>9} B report"
            layer = " ".join(filter(None, (case["layer"], case.get("command"))))
            print(f"  {layer:33} {case['shape']:9} n={case['size']:<6} "
                  f"c={case['columns']!s:4} d={case.get('dim')!s:4} {cost}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
