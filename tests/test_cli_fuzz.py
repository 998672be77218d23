"""Fuzzed command-line inputs: every case maps to a documented exit code.

Each case starts from a well-formed input file and command line and
applies at most one defect: a malformed field (wrong length, bool or
string entries, NaN or inf, bad orders, non-unitary generators) or an
out-of-range flag.  Function and amplitude values also come near 1e300.
Every case must end with exit code 0, 2, 3, 4 or 5, never with an
uncaught exception or a numpy warning.  Group orders stay <= 64 and
dimensions <= 8, so each case runs in milliseconds, far below every
memory budget.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelian_spectra import cli

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

orders = st.lists(st.integers(1, 4), min_size=1, max_size=3)
FLAG_VALUES = {
    "--seed": st.integers(-2, 3) | st.sampled_from([2**64, -(2**70), "x"]),
    "--tol": st.sampled_from(["0", "1e-30", "1e300", "-1", "nan", "inf", "tol"]),
    "--max-group-size": st.integers(-1, 70) | st.sampled_from([10**30, "many"]),
}
BAD_ORDERS = [[], [0], [-2], [True], ["4"], [2.5], [None], [65], "4", None]
BAD_ENTRIES = [[float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 1.0], [10**400, 0],
               [True, 0.0], ["1", 0.0], [1.0], [1.0, 2.0, 3.0], 1.0, None, "x", {}]
# at most one defect per case, so that each one reaches the check it targets
FUNCTION_DEFECTS = (
    [("orders", v) for v in BAD_ORDERS] + [("entry", v) for v in BAD_ENTRIES]
    + [("domain", v) for v in ("swap", "neither", None)]
    + [("values", v) for v in (None, "x", {}, [[0.0, 0.0]] * 65)]
    + [("short", None), ("long", None)]
    + [("missing", key) for key in ("group", "domain", "values")])
REPRESENTATION_DEFECTS = (
    [("orders", v) for v in BAD_ORDERS] + [("entry", v) for v in BAD_ENTRIES]
    + [("dim", v) for v in (0, -1, "+1", True, "2", 2.5, None)]
    + [("scale", v) for v in (2.0, 1e-3, -1.0, 1j)]  # non-unitary, or of the wrong order
    + [("generators", v) for v in ({}, "x", [[]], None)]
    + [("short", None), ("count", None)])


def defect(defects):
    """No defect or one of ``defects``; hypothesis favours the first entry."""
    return st.sampled_from([("none", None)] + defects)


@st.composite
def flags(draw, names=tuple(FLAG_VALUES)):
    """Each of the flags ``names`` absent, in range or out of range."""
    argv = []
    for name in names:
        if draw(st.booleans()):
            argv += [name, str(draw(FLAG_VALUES[name]))]
    return argv


def run(argv, files):
    """Run cli.main on argv with ``files`` (name -> payload) written to a
    temporary directory; ``{name}`` in argv expands to the file's path.
    Returns the exit code and the report printed to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in files.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            Path(tmp, name).write_text(text)
        argv = [a.format(**{n: str(Path(tmp, n)) for n in files}) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects an unparsable flag
                code = exc.code
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


@st.composite
def function_values(draw, size):
    """A point mass or a constant (both positive type), or random values, at
    unit scale or near 1e300: finite, but |xi|^2 or a transform may overflow."""
    kind = draw(st.sampled_from(["delta", "constant", "random"]))
    scale = draw(st.sampled_from([1.0, 1e300]))
    if kind == "delta":
        return pairs(scale * np.eye(1, size))
    if kind == "constant":
        return pairs(scale * np.ones(size))
    return [[scale * draw(st.floats(-2, 2)), scale * draw(st.floats(-2, 2))]
            for _ in range(size)]


@st.composite
def function_file(draw, n, domain):
    values = draw(function_values(math.prod(n)))
    payload = {"group": {"orders": n}, "domain": domain, "values": values}
    kind, value = draw(defect(FUNCTION_DEFECTS))
    if kind == "orders":
        payload["group"]["orders"] = value
    elif kind == "entry":
        values[draw(st.integers(0, len(values) - 1))] = value
    elif kind == "domain":
        payload["domain"] = {"group": "dual", "dual": "group"}[domain] if value == "swap" else value
    elif kind == "values":
        payload["values"] = value
    elif kind == "short":
        values.pop()
    elif kind == "long":
        values.append([0.0, 0.0])
    elif kind == "missing":
        del payload[value]
    return payload


@st.composite
def representation_file(draw, n):
    """A diagonal unitary representation of Z_n1 x ..., then at most one defect."""
    dim = draw(st.integers(1, 8))
    generators = []
    for order in n:
        exps = draw(st.lists(st.integers(0, order - 1), min_size=dim, max_size=dim))
        generators.append(pairs(np.diag(np.exp(2j * np.pi * np.array(exps) / order))))
    payload = {"group": {"orders": n}, "dim": dim, "generators": generators}
    kind, value = draw(defect(REPRESENTATION_DEFECTS))
    if kind == "orders":
        payload["group"]["orders"] = value
    elif kind == "entry":
        generators[0][draw(st.integers(0, dim * dim - 1))] = value
    elif kind == "dim":
        payload["dim"] = dim + 1 if value == "+1" else value
    elif kind == "scale":
        z = complex(*generators[0][0]) * value
        generators[0][0] = [z.real, z.imag]
    elif kind == "generators":
        payload["generators"] = value
    elif kind == "short":
        generators[0].pop()
    elif kind == "count":
        generators.append(generators[0])
    return payload


@FUZZ
@given(st.data())
def test_fourier_and_gns_on_fuzzed_function_files(data):
    command = data.draw(st.sampled_from(
        [["fourier"], ["fourier", "--direction", "inverse"], ["gns"]]))
    domain = "dual" if "inverse" in command else "group"
    payload = data.draw(function_file(data.draw(orders), domain) | st.just("{broken"))
    run([*command, "--input", "{f}", *data.draw(flags())], {"f": payload})


@FUZZ
@given(st.data())
def test_decompose_and_rig_on_fuzzed_representation_files(data):
    command = data.draw(st.sampled_from(["decompose", "rig"]))
    run([command, "--input", "{rep}", *data.draw(flags())],
        {"rep": data.draw(representation_file(data.draw(orders)))})


@FUZZ
@given(st.data())
def test_rig_on_fuzzed_amplitude_files(data):
    n = data.draw(orders)
    xi_orders = data.draw(st.just(n) | st.just(n) | orders)
    run(["rig", "--input", "{rep}", "--xi", "{xi}"],
        {"rep": data.draw(representation_file(n)),
         "xi": data.draw(function_file(xi_orders, "dual"))})


@settings(FUZZ, max_examples=20)
@given(group_size=st.integers(1, 4) | st.sampled_from([0, -1, 8192, 10**30, "many"]),
       dim=st.integers(1, 2) | st.sampled_from([0, -1, 100000, 10**12, "x"]),
       extra=flags(("--seed", "--tol")))
def test_selftest_on_fuzzed_flags(group_size, dim, extra):
    # in-range sizes stay tiny; out-of-range ones must be refused before any work
    run(["selftest", "--max-group-size", str(group_size), "--max-dim", str(dim), *extra], {})


def normal_exponents(values, size):
    """The k in [-100, 100] for which size * |10^k v|^2 is a normal float for
    every nonzero entry v of ``values``."""
    mods = np.abs([complex(re, im) for re, im in values])
    mods = mods[mods > 0]
    if not mods.size:
        return -100, 100
    info = np.finfo(float)
    lo = math.ceil((math.log10(info.tiny) - math.log10(size)) / 2 - math.log10(mods.min()))
    hi = math.floor((math.log10(info.max) - math.log10(size)) / 2 - math.log10(mods.max()))
    return max(lo + 1, -100), min(hi - 1, 100)


@FUZZ
@given(st.data())
def test_gns_and_rig_outcomes_are_invariant_under_scaling(data):
    # positive type, cyclicity and the quotient are invariant under phi -> c phi
    # and xi -> c xi (c > 0), so the exit code and the verdicts must be too
    n = data.draw(orders)
    size = math.prod(n)
    values = data.draw(function_values(size))
    lo, hi = normal_exponents(values, size)
    assume(lo <= 0 <= hi)
    k = data.draw(st.integers(lo, hi))
    command = data.draw(st.sampled_from(["gns", "rig"]))
    rep = data.draw(representation_file(n))

    def outcome(scale):
        payload = {"group": {"orders": n}, "domain": "group" if command == "gns" else "dual",
                   "values": [[scale * re, scale * im] for re, im in values]}
        if command == "gns":
            code, out = run(["gns", "--input", "{f}"], {"f": payload})
        else:
            code, out = run(["rig", "--input", "{rep}", "--xi", "{xi}"],
                            {"rep": rep, "xi": payload})
        report = json.loads(out) if out else {}
        verdict = report.get("results", {}).get("positivity", {}).get("verdict")
        return code, report.get("passed"), verdict

    assert outcome(10.0 ** k) == outcome(1.0)
