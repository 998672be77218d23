"""Smoke test of the scaling ladder: ``bench/ladder.py`` still runs every
layer against the package as it is, on two small rungs and one call each,
and its fixed small-d measures, rigged layers and self-test requests."""

import importlib.util
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_measures_every_layer_and_shape(monkeypatch):
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", list(sys.path))  # measure() adds perfbench/
    monkeypatch.setattr(ladder, "ORDERS", (16, 64))
    monkeypatch.setattr(ladder, "REPEATS", 1)
    cases = ladder.measure()
    layers = {"fileio.parse_complex_array", "algebra._transform",
              "rigging.build_decomposition", "representations.spectral_measure",
              "representations.cyclic_decomposition", "cli.main",
              "rigging.build_decomposition+intertwiner"}
    assert {case["layer"] for case in cases} == layers
    # the small-d measures carry their multiplicity and sit off the ladder
    small = [case for case in cases if "multiplicity" in case]
    assert sorted((case["layer"], case["shape"], case["size"], case["dim"], case["multiplicity"])
                  for case in small) == [
        ("representations.spectral_measure", "2^8", 256, 32, 4),
        ("representations.spectral_measure", "3", 3, 1, 1),
        ("representations.spectral_measure", "4x4", 16, 4, 1)]
    # the rigged layers sit off the ladder at their own sizes, r as their dim
    rigged = [case for case in cases if case["layer"] == "rigging.build_decomposition+intertwiner"]
    assert sorted((case["shape"], case["size"], case["dim"]) for case in rigged) == [
        ("2^16", 65536, 64), ("65536", 65536, 64), ("65536", 65536, 202)]
    rungs = [case for case in cases if "multiplicity" not in case and case not in rigged]
    for layer in layers - {"fileio.parse_complex_array", "cli.main",
                           "rigging.build_decomposition+intertwiner"}:
        for n in (16, 64):
            shapes = {case["shape"] for case in rungs
                      if case["layer"] == layer and case["size"] == n}
            assert shapes == set(ladder.shapes(n)), (layer, n)
    assert all(case["median_s"] > 0 and case["peak_bytes"] > 0 for case in cases)
    requests = [case for case in cases if case["layer"] == "cli.main"]
    assert sorted((case["command"], case["shape"], case["size"]) for case in requests) == \
        sorted([(command, shape, n) for n in (16, 64) for command, shape in
                (("gns", "n"), ("gns", "2^k"), ("decompose", "n"), ("rig", "n"))]
               + [("selftest", "4-d2", 4), ("selftest", "64-d16", 64)])
    assert all(case["report_bytes"] > 0 for case in requests)
    for layer in ("representations.spectral_measure", "representations.cyclic_decomposition"):
        assert {case["dim"] for case in rungs if case["layer"] == layer} == set(ladder.DIMS)


def test_rounds_combine_into_each_case_median():
    ladder = load_ladder()
    skipped = {"layer": "b", "median_s": None, "peak_bytes": None, "status": "skipped (budget)"}
    rounds = [[{"layer": "a", "median_s": t, "peak_bytes": p}, skipped]
              for t, p in ((3.0, 10), (1.0, 30), (2.0, 20))]
    timed, untimed = ladder.combine(rounds)
    assert timed == {"layer": "a", "median_s": 2.0, "rounds_s": [3.0, 1.0, 2.0], "peak_bytes": 20}
    assert untimed == skipped
