"""Self-test of the benchmark's output checks.

Runs every workload at tiny sizes through the real program, asserts that
the true outputs pass their checks, then perturbs each output slightly
and asserts that the same pass counts every request as failed.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import abelian_spectra.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def builder(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "TRANSFORM_SHAPES", [(8,), (2, 4)])
    monkeypatch.setattr(workloads, "QUOTIENT_CASES", [((8,), 8), ((4, 4), 3)])
    monkeypatch.setattr(workloads, "SPECTRAL_CASES", [((8,), 4, 1), ((2, 2, 2), 4, 2)])
    monkeypatch.setattr(workloads, "SELFTEST_SIZES", (8, 2))
    monkeypatch.setattr(workloads, "RIGGING_CASES",
                        [((8,), 4, 1, False), ((4, 4), 4, 2, True)])
    return workloads.Builder(7, tmp_path, abelian_spectra)


def _edit(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _scale_first(values: list) -> None:
    values[0][0] = values[0][0] * (1 + 1e-6) + 1e-6


# one small, plausible-looking corruption per request kind
PERTURB = {
    "fourier": lambda p: _scale_first(p["values"]),
    "inverse": lambda p: _scale_first(p["values"]),
    "gns": lambda p: p["results"]["gram_eigenvalues"].__setitem__(
        0, p["results"]["gram_eigenvalues"][0] * (1 + 1e-6)),
    "decompose": lambda p: p["results"]["support"].pop(),
    "rig": lambda p: p["results"]["components"][-1]["weights"].__setitem__(
        0, p["results"]["components"][-1]["weights"][0] * (1 + 1e-6)),
    "selftest": lambda p: p["properties"][-1].__setitem__("passed", False),
}


def _perturbed(req: workloads.Request, monkeypatch) -> workloads.Request:
    if req.kind == "convolve":
        real = abelian_spectra.algebra.convolve

        def run_perturbed() -> int:
            with monkeypatch.context() as m:
                m.setattr(abelian_spectra.algebra, "convolve", lambda f, h: type(f)(
                    f.group, real(f, h).values + 1e-6))
                return req.run()
    else:
        def run_perturbed() -> int:
            code = req.run()
            _edit(req.output, PERTURB[req.kind])
            return code
    return dataclasses.replace(req, run=run_perturbed)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_true_outputs_pass_and_perturbed_outputs_fail(builder, workload, monkeypatch):
    requests = builder.build(workload)
    assert all(o.error is None for o in run.run_pass(requests))

    outcomes = run.run_pass([_perturbed(r, monkeypatch) for r in requests])
    assert [o.error is not None for o in outcomes] == [True] * len(requests)
    assert all(o.error.startswith("check:") for o in outcomes)


def test_failed_report_and_exit_code_count_as_failures(builder):
    gns = builder.build("quotient")[0]

    def reports_failure() -> int:
        code = gns.run()
        _edit(gns.output, lambda p: p.__setitem__("passed", False))
        return code

    outcomes = run.run_pass([dataclasses.replace(gns, run=reports_failure),
                             dataclasses.replace(gns, run=lambda: 4)])
    assert "passed = False" in outcomes[0].error
    assert outcomes[1].error == "exit code 4"


def test_over_budget_request_is_flagged(builder):
    req = builder.build("transform")[0]
    assert not req.over_budget
    assert dataclasses.replace(req, dense_bytes=workloads.BUDGET_BYTES + 1).over_budget
