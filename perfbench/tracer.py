"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each layer without
editing the package: a module-level function is rebound in every
``abelian_spectra`` module that holds it (so ``cli.spectral_measure``,
``gns.hermitian_form`` and ``rigging.fourier`` all route through the
wrapper), methods are patched on their classes, and the subcommand
handlers are patched in the CLI's dispatch table.  Each call records a
span (name, start, end, parent, request) in memory; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

COMPLEX_BYTES = 16


def _pairing_bytes(args, kwargs, out) -> float:
    group, start, stop = args[:3]
    return (stop - start) * group.size * COMPLEX_BYTES


def _result_bytes(args, kwargs, out) -> float:
    return out.size * COMPLEX_BYTES


# (module, attribute, span name, {counter name: function of (args, kwargs, result)})
FUNCTIONS = [
    ("algebra", "fourier", "algebra.fourier", {}),
    ("algebra", "inverse_fourier", "algebra.inverse_fourier", {}),
    ("algebra", "convolve", "algebra.convolve", {}),
    ("algebra", "hermitian_form", "algebra.hermitian_form",
     {"algebra.form_bytes": _result_bytes}),
    ("algebra", "is_positive_type", "algebra.is_positive_type", {}),
    ("representations", "make_representation", "representations.make_representation", {}),
    ("representations", "spectral_measure", "representations.spectral_measure",
     {"representations.support_size": lambda a, k, out: len(out.support)}),
    ("representations", "reconstruction_residual",
     "representations.reconstruction_residual", {}),
    ("representations", "cyclic_decomposition", "representations.cyclic_decomposition", {}),
    ("representations", "diagonalize", "representations.diagonalize", {}),
    ("representations", "diagonalization_residual",
     "representations.diagonalization_residual", {}),
    ("representations", "dirac_kets", "representations.dirac_kets", {}),
    ("gns", "gns_construct", "gns.gns_construct", {"gns.rank": lambda a, k, out: out.rank}),
    ("gns", "reconstruct_phi", "gns.reconstruct_phi", {}),
    ("rigging", "phi_from_cyclic", "rigging.phi_from_cyclic", {}),
    ("rigging", "build_decomposition", "rigging.build_decomposition", {}),
    ("rigging", "reconstruct_operator", "rigging.reconstruct_operator", {}),
    ("rigging", "eigen_residual", "rigging.eigen_residual", {}),
    ("rigging", "intertwiner", "rigging.intertwiner", {}),
    ("fileio", "load_json", "fileio.load_json", {}),
    ("fileio", "dump_json", "fileio.dump_json",
     {"fileio.report_bytes": lambda a, k, out: len(out)}),
    ("fileio", "function_from_payload", "fileio.parse", {}),
    ("fileio", "representation_from_payload", "fileio.parse", {}),
    ("fileio", "function_to_payload", "fileio.payload", {}),
    ("fileio", "complex_matrix_payload", "fileio.payload", {}),
    ("fileio", "complex_vector_payload", "fileio.payload", {}),
    ("selftest", "run_selftest", "selftest.run_selftest", {}),
]

# (module, class, method, span name, counters)
METHODS = [
    ("groups", "Group", "pairing_block", "groups.pairing_block",
     {"groups.pairing_bytes": _pairing_bytes}),
    ("groups", "Group", "difference_indices", "groups.difference_indices", {}),
    ("groups", "Group", "translate_indices", "groups.translate_indices", {}),
    ("gns", "GNSSpace", "operator", "gns.operator", {}),
    ("gns", "GNSSpace", "generator_images", "gns.generator_images", {}),
    ("gns", "GNSSpace", "representation", "gns.representation", {}),
]

# cached properties: (module, class, attribute, span name, counters)
PROPERTIES = [
    ("representations", "UnitaryRep", "operators", "representations.operators",
     {"representations.operator_bytes": _result_bytes}),
]

MODULES = ("algebra", "cli", "fileio", "gns", "groups", "representations",
           "rigging", "selftest")


class Tracer:
    """In-memory span recorder with wrappers installed into the package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters: dict | None = None):
        counters = counters or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.requests.append(self.request)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            for counter, measure in counters.items():
                self.counters[counter] += measure(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "abelian_spectra") -> None:
        modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        for module, attr, name, counters in FUNCTIONS:
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original, counters)
            for holder in modules.values():
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._set(holder, key, traced)
        for module, cls, attr, name, counters in METHODS:
            owner = getattr(modules[module], cls)
            self._set(owner, attr, self.wrap(name, owner.__dict__[attr], counters))
        for module, cls, attr, name, counters in PROPERTIES:
            owner = getattr(modules[module], cls)
            prop = cached_property(self.wrap(name, owner.__dict__[attr].func, counters))
            prop.__set_name__(owner, attr)
            self._set(owner, attr, prop)
        table = modules["cli"]._COMMANDS
        for command, handler in list(table.items()):
            self._undo.append((table, command, handler))
            table[command] = self.wrap(f"cli.{command}", handler)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of calls)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, t in zip(self.names, own.tolist()):
            totals[name][0] += t
            totals[name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "request"), row))) + "\n")
