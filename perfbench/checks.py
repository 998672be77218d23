"""Independent checks of the program's outputs against planted truth.

Nothing here calls the package under test: transforms are compared with
``numpy.fft``, and spectral outputs with the characters planted when the
inputs were generated.  Every check raises ``CheckFailure`` naming what
was wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# relative tolerance of a transform or spectrum against its reference,
# scaled by the reference's largest magnitude
RTOL = 1e-9


class CheckFailure(Exception):
    """An output disagrees with the planted truth or the reference."""


def coords(indices, orders) -> list[list[int]]:
    """Coordinate tuples of enumeration indices (last coordinate fastest)."""
    return np.array(np.unravel_index(np.asarray(indices, dtype=np.int64),
                                     orders)).T.tolist()


def complex_values(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape:
        raise CheckFailure(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= RTOL * scale:
        raise CheckFailure(f"{what}: max error {err:.3e} exceeds {RTOL * scale:.3e}")


def _load(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"cannot read output {path}: {exc}") from exc


def load_function(path: Path, orders, domain: str) -> np.ndarray:
    payload = _load(path)
    if payload.get("group", {}).get("orders") != list(orders):
        raise CheckFailure(f"{path.name}: group {payload.get('group')}, "
                           f"expected orders {list(orders)}")
    if payload.get("domain") != domain:
        raise CheckFailure(f"{path.name}: domain {payload.get('domain')!r}, "
                           f"expected {domain!r}")
    return complex_values(payload["values"])


def _report(path: Path, command: str) -> dict:
    report = _load(path)
    if report.get("command") != command:
        raise CheckFailure(f"{path.name}: command {report.get('command')!r}, "
                           f"expected {command!r}")
    if report.get("passed") is not True:
        raise CheckFailure(f"{path.name}: report says passed = {report.get('passed')!r}")
    return report


def forward(path: Path, orders, f: np.ndarray) -> None:
    """Forward transform equals fftn of the input on the factor grid."""
    want = np.fft.fftn(f.reshape(orders)).ravel()
    close(load_function(path, orders, "dual"), want, "forward transform")


def inverse(path: Path, source: Path, orders) -> None:
    """Inverse transform equals ifftn of the dual file it was given."""
    F = load_function(source, orders, "dual")
    want = np.fft.ifftn(F.reshape(orders)).ravel()
    close(load_function(path, orders, "group"), want, "inverse transform")


def convolution(values: np.ndarray, orders, f: np.ndarray, h: np.ndarray) -> None:
    """Convolution equals ifftn(fftn f * fftn h)."""
    want = np.fft.ifftn(np.fft.fftn(f.reshape(orders))
                        * np.fft.fftn(h.reshape(orders))).ravel()
    close(np.asarray(values), want, "convolution")


def gns(path: Path, spectrum: np.ndarray) -> None:
    """Rank is the planted support size, positivity holds, and the form's
    eigenvalues are the planted spectrum."""
    results = _report(path, "gns")["results"]
    rank = int(np.count_nonzero(spectrum))
    if results["rank"] != rank:
        raise CheckFailure(f"gns rank {results['rank']}, planted support {rank}")
    if results["positivity"]["verdict"] is not True:
        raise CheckFailure("gns positivity verdict is not true")
    close(np.asarray(results["gram_eigenvalues"], dtype=complex),
          np.sort(spectrum)[::-1].astype(complex), "form eigenvalues")


def decompose(path: Path, orders, support: np.ndarray, mult: int) -> None:
    """Support and multiplicities are the planted ones; one cyclic
    component per multiplicity layer."""
    results = _report(path, "decompose")["results"]
    if results["support"] != coords(support, orders):
        raise CheckFailure("decompose support differs from the planted characters")
    want = np.zeros(int(np.prod(orders)), dtype=int)
    want[support] = mult
    if results["multiplicities"] != want.tolist():
        raise CheckFailure("decompose multiplicities differ from the plant")
    if len(results["components"]) != mult:
        raise CheckFailure(f"decompose gave {len(results['components'])} "
                           f"components, planted multiplicity {mult}")


def rig(path: Path, orders, support: np.ndarray, mult: int,
        weights: np.ndarray) -> None:
    """One component per multiplicity layer, each on the planted support
    with the planted amplitudes as weights."""
    components = _report(path, "rig")["results"]["components"]
    if len(components) != mult:
        raise CheckFailure(f"rig gave {len(components)} components, "
                           f"planted multiplicity {mult}")
    want_support = coords(support, orders)
    for i, comp in enumerate(components):
        if comp["support"] != want_support:
            raise CheckFailure(f"rig component {i} support differs from the plant")
        close(np.asarray(comp["weights"], dtype=complex),
              np.asarray(weights, dtype=complex), f"rig component {i} weights")


SELFTEST_PROPERTIES = 30


def selftest(path: Path) -> None:
    """All 30 properties are reported, and all pass."""
    properties = _report(path, "selftest")["properties"]
    if len(properties) != SELFTEST_PROPERTIES:
        raise CheckFailure(f"selftest reported {len(properties)} properties, "
                           f"expected {SELFTEST_PROPERTIES}")
    failed = [p["name"] for p in properties if p["passed"] is not True]
    if failed:
        raise CheckFailure(f"selftest properties failed: {', '.join(failed)}")
