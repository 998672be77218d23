"""Seeded workloads with planted ground truth.

A workload is a list of requests.  A request is one CLI invocation, or
for ``convolve``, which has no subcommand, one library call; it carries
the dense bytes it would allocate and an independent check of its output
against the truth planted when its inputs were generated.  The program
sees only the generated files.

Why these workloads (each pass takes 2.5 to 7 s on 2 shared cores, so a
20 s run gets at least three passes to take medians over):

- ``transform``: forward and inverse CLI transforms and a library
  convolution on (2048,), (32, 64) and (2,)*11.  The three shapes have
  the same order and separate the cost of the order from the cost of
  the number of factors.  Bypasses representations, gns and rigging.
- ``quotient``: CLI ``gns`` on the inverse transform of a planted
  non-negative spectrum: (256,) at full rank (report emission heavy),
  (512,) at rank 32 (dense eigen-solvers heavy) and (4, 8, 8) at rank 32
  (three generators).
- ``spectral``: CLI ``decompose`` on U_j = V diag(<e_j|chi_b>) V^dagger
  with V a random unitary: (2048,) dim 8 (order heavy), (4, 8, 8) dim 64
  (dimension heavy) and (2,)*8 dim 32 with multiplicity 4 (several
  components), then one small ``selftest`` that touches every layer at
  tiny sizes.
- ``rigging``: CLI ``rig`` on planted representations (256,) dim 8,
  (16, 16) dim 32 multiplicity 4 with random positive ``--xi``
  amplitudes, and (4, 4, 4, 4) dim 32 multiplicity 4: many small
  quotient spaces and many small transforms.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Requests whose dense allocations exceed this are recorded as skipped
# instead of run, so that a longer ladder cannot exhaust the machine.
BUDGET_BYTES = 1 << 30
COMPLEX_BYTES = 16

TRANSFORM_SHAPES = [(2048,), (32, 64), (2,) * 11]
# (orders, planted rank)
QUOTIENT_CASES = [((256,), 256), ((512,), 32), ((4, 8, 8), 32)]
# (orders, dim, multiplicity)
SPECTRAL_CASES = [((2048,), 8, 1), ((4, 8, 8), 64, 1), ((2,) * 8, 32, 4)]
SELFTEST_SIZES = (64, 16)  # --max-group-size, --max-dim
# (orders, dim, multiplicity, with an --xi amplitude file)
RIGGING_CASES = [((256,), 8, 1, False), ((16, 16), 32, 4, True),
                 ((4, 4, 4, 4), 32, 4, False)]


@dataclass
class Request:
    kind: str
    case: str
    dense_bytes: int
    run: Callable[[], int]      # performs the request, returns its exit code
    check: Callable[[], None]   # raises checks.CheckFailure on a wrong output
    output: Path | None = None  # the report file, for a CLI request

    @property
    def over_budget(self) -> bool:
        return self.dense_bytes > BUDGET_BYTES


def case_name(orders) -> str:
    """Compact shape label, e.g. '2048', '32x64', '2^11'."""
    if len(orders) > 2 and len(set(orders)) == 1:
        return f"{orders[0]}^{len(orders)}"
    return "x".join(map(str, orders))


def pairing_bytes(size: int) -> int:
    """A |G| x |G| pairing table or Hermitian form."""
    return size * size * COMPLEX_BYTES


def operator_bytes(size: int, dim: int) -> int:
    """The |G| x d x d operator stack of a representation."""
    return size * dim * dim * COMPLEX_BYTES


def _pairs(values: np.ndarray) -> list:
    return np.column_stack([values.real, values.imag]).tolist()


def write_function(path: Path, orders, domain: str, values: np.ndarray) -> str:
    path.write_text(json.dumps({"group": {"orders": list(orders)}, "domain": domain,
                                "values": _pairs(values)}), encoding="utf-8")
    return str(path)


def write_representation(path: Path, orders, generators) -> str:
    path.write_text(json.dumps({
        "group": {"orders": list(orders)}, "dim": int(generators[0].shape[0]),
        "generators": [_pairs(U.ravel()) for U in generators]}), encoding="utf-8")
    return str(path)


def random_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, dim * dim).reshape(dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def planted_representation(rng: np.random.Generator, orders, dim: int, mult: int):
    """Generators V diag(<e_j|chi_b>) V^dagger and their planted support.

    dim / mult distinct characters each label mult basis vectors; the
    support is returned as sorted enumeration indices.
    """
    size = math.prod(orders)
    support = np.sort(rng.choice(size, size=dim // mult, replace=False))
    basis_chars = np.array(np.unravel_index(np.repeat(support, mult), orders)).T
    V = random_unitary(rng, dim)
    generators = [V @ np.diag(np.exp(2j * np.pi * basis_chars[:, j] / n)) @ V.conj().T
                  for j, n in enumerate(orders)]
    return generators, support


class Builder:
    """Makes the requests of one workload from a seed, writing inputs to ``work``."""

    def __init__(self, seed: int, work: Path, package):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.work = work
        # names are looked up on the modules at call time, so that a traced
        # run sees the rebound functions
        self.package = package

    def cli(self, kind: str, case: str, dense_bytes: int, argv: list[str],
            check: Callable[[], None]) -> Request:
        def run() -> int:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.package.cli.main(argv)
        return Request(kind, case, dense_bytes, run, check,
                       Path(argv[argv.index("--output") + 1]))

    def transform(self) -> list[Request]:
        requests = []
        for orders in TRANSFORM_SHAPES:
            name = case_name(orders)
            size = math.prod(orders)
            f = random_complex(self.rng, size)
            h = random_complex(self.rng, size)
            f_path = write_function(self.work / f"{name}-f.json", orders, "group", f)
            fwd = self.work / f"{name}-fourier.json"
            inv = self.work / f"{name}-inverse.json"
            requests.append(self.cli(
                "fourier", name, pairing_bytes(size),
                ["fourier", "--input", f_path, "--output", str(fwd)],
                lambda fwd=fwd, orders=orders, f=f: checks.forward(fwd, orders, f)))
            requests.append(self.cli(
                "inverse", name, pairing_bytes(size),
                ["fourier", "--direction", "inverse", "--input", str(fwd),
                 "--output", str(inv)],
                lambda inv=inv, fwd=fwd, orders=orders: checks.inverse(inv, fwd, orders)))
            requests.append(self._convolve(name, orders, f, h))
        return requests

    def _convolve(self, name: str, orders, f: np.ndarray, h: np.ndarray) -> Request:
        group = self.package.make_group(orders)
        fa = self.package.GroupFunction(group, f)
        ha = self.package.GroupFunction(group, h)
        out: list = []

        def run() -> int:
            out[:] = [self.package.algebra.convolve(fa, ha).values]
            return 0

        def check() -> None:
            checks.convolution(out.pop(), orders, f, h)

        return Request("convolve", name, pairing_bytes(math.prod(orders)), run, check)

    def quotient(self) -> list[Request]:
        requests = []
        for orders, rank in QUOTIENT_CASES:
            name = case_name(orders)
            size = math.prod(orders)
            spectrum = np.zeros(size)
            spectrum[self.rng.choice(size, size=rank, replace=False)] = (
                self.rng.uniform(0.5, 1.5, rank))
            phi = np.fft.ifftn(spectrum.reshape(orders)).ravel()
            path = write_function(self.work / f"{name}-phi.json", orders, "group", phi)
            out = self.work / f"{name}-gns.json"
            requests.append(self.cli(
                "gns", name, pairing_bytes(size),
                ["gns", "--input", path, "--output", str(out)],
                lambda out=out, spectrum=spectrum: checks.gns(out, spectrum)))
        return requests

    def spectral(self) -> list[Request]:
        requests = []
        for orders, dim, mult in SPECTRAL_CASES:
            name = f"{case_name(orders)}-d{dim}"
            size = math.prod(orders)
            generators, support = planted_representation(self.rng, orders, dim, mult)
            path = write_representation(self.work / f"{name}-rep.json", orders, generators)
            out = self.work / f"{name}-decompose.json"
            requests.append(self.cli(
                "decompose", name, pairing_bytes(size) + operator_bytes(size, dim),
                ["decompose", "--input", path, "--output", str(out)],
                lambda out=out, orders=orders, support=support, mult=mult:
                    checks.decompose(out, orders, support, mult)))
        size, dim = SELFTEST_SIZES
        out = self.work / "selftest.json"
        requests.append(self.cli(
            "selftest", f"{size}-d{dim}", pairing_bytes(size) + operator_bytes(size, dim),
            ["selftest", "--max-group-size", str(size), "--max-dim", str(dim),
             "--seed", str(self.seed), "--output", str(out)],
            lambda: checks.selftest(out)))
        return requests

    def rigging(self) -> list[Request]:
        requests = []
        for orders, dim, mult, with_xi in RIGGING_CASES:
            name = f"{case_name(orders)}-d{dim}"
            size = math.prod(orders)
            generators, support = planted_representation(self.rng, orders, dim, mult)
            path = write_representation(self.work / f"{name}-rep.json", orders, generators)
            out = self.work / f"{name}-rig.json"
            argv = ["rig", "--input", path, "--output", str(out)]
            weights = np.ones(len(support))
            if with_xi:
                xi = self.rng.uniform(0.5, 2.0, size)
                argv += ["--xi", write_function(self.work / f"{name}-xi.json", orders,
                                                "dual", xi.astype(complex))]
                weights = xi[support]
            requests.append(self.cli(
                "rig", name, pairing_bytes(size) + operator_bytes(size, dim), argv,
                lambda out=out, orders=orders, support=support, mult=mult,
                weights=weights: checks.rig(out, orders, support, mult, weights)))
        return requests

    def build(self, workload: str) -> list[Request]:
        return getattr(self, workload)()
