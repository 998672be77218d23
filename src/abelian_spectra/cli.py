"""Command-line front end.

Subcommands load JSON files, run one analysis each, and emit a
machine-readable report.  With ``--output`` the report goes to the file
and the human summary to stdout; without it the report goes to stdout
and the summary to stderr, so piping the JSON stays clean.

Exit codes: 0 success, 2 input error, 3 validation error, 4 numerical or
property breach, 5 mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Sequence

import numpy as np

from ._version import __version__
from .algebra import DualFunction, GroupFunction, fourier, inverse_fourier
from .errors import (
    FileFormatError,
    GroupMismatchError,
    InconsistencyError,
    InvalidGroupError,
    NotCyclicError,
    NotSelfAdjointError,
    NumericalDegeneracyError,
    PositiveTypeError,
    RepresentationValidationError,
    ShapeMismatchError,
    SupportError,
    describe,
    stage,
)
from .fileio import (
    dump_json,
    function_from_payload,
    function_to_payload,
    group_to_payload,
    load_json,
    representation_from_payload,
)
from .gns import gns_construct, reconstruct_phi
from .groups import DEFAULT_SIZE_CAP
from .representations import (
    cyclic_decomposition,
    diagonalize,
    dirac_kets,
    relation_certificate,
    spectral_measure,
)
from .rigging import (build_decomposition, cyclic_moduli, identity_chunk, intertwiner,
                      quotient_from_cyclic)
from .selftest import SelftestConfig, run_selftest

DEFAULT_TOL = 1e-9
# The memory budget: fourier holds a few k x |G| arrays; decompose, gns, rig
# and selftest exit 2 first when their estimated peak is over it, and every
# command refuses an input file over 3/128 of it (6 MiB) before parsing it.
OPERATOR_STACK_BUDGET = 256 * 2**20
# (STACKS, PER_ENTRY, PER_ELEMENT, PER_PAIR), tracemalloc peaks rounded up (for
# gns, at dim 0, its larger ru_maxrss growth).  A "stack" is 16 dim^2 (min(dim,
# |G|) + 10 k) bytes for decompose and rig, k the number of factors: the binary
# powers and the certificate's chunks, and the k dim^2 parsed generator entries
# at about 155 bytes each; nothing is n_j-sized.  It is 16 N max(N, dim^2) for
# selftest.  Then bytes per dim x dim entry (range bases, kets, isometries), per
# group element (the multiplicity list; phi, quotient and coordinate table) and
# per element and pair of rig's identity-check chunk, plus PEAK_BASE; see tests/test_budget.py.
PEAK_MODEL = {"decompose": (1, 256, 128, 0), "rig": (1, 256, 384, 128), "selftest": (6, 256, 0, 0),
              "gns": (0, 0, 1280, 0)}
PEAK_BASE = 2**20
TOL_ENV_VAR = "ABELIAN_SPECTRA_TOL"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_PRECONDITION = 5

# (errors, exit code), each error printed on one line
_EXIT_CODES = (
    ((FileFormatError, InvalidGroupError, ShapeMismatchError, GroupMismatchError, OSError),
     EXIT_INPUT),
    ((RepresentationValidationError,), EXIT_VALIDATION),
    ((NumericalDegeneracyError, InconsistencyError), EXIT_NUMERICAL),
    ((PositiveTypeError, NotCyclicError, NotSelfAdjointError, SupportError), EXIT_PRECONDITION),
)


@functools.cache  # built on the first main() call and reused: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelian-spectra",
        description="Harmonic analysis on finite abelian groups: transforms, "
                    "spectral measures, quotient representations, and "
                    "generalized-eigenvector decompositions.")
    parser.add_argument("--version", action="version",
                        version=f"abelian-spectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            sp.add_argument("--input", required=True, metavar="PATH",
                            help="input JSON file")
        sp.add_argument("--output", metavar="PATH",
                        help="write the JSON payload to this file")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed of rig's inner-product identity checks and of "
                             "selftest; gns and decompose only echo it (default 0)")
        sp.add_argument("--tol", type=float, default=None,
                        help=f"pass/fail residual threshold (default {DEFAULT_TOL:g}; "
                             f"env {TOL_ENV_VAR} overrides)")
        sp.add_argument("--max-group-size", type=int, default=None,
                        help=f"largest admitted group order (default {DEFAULT_SIZE_CAP}, "
                             "16 for selftest); decompose, gns, rig and selftest "
                             "are also refused when their estimated peak memory is "
                             f"over the budget of {OPERATOR_STACK_BUDGET // 2**20} MiB")

    sp = sub.add_parser("fourier", help="transform a function file")
    common(sp)
    sp.add_argument("--direction", choices=["forward", "inverse"],
                    default="forward")

    common(sub.add_parser(
        "decompose", help="spectral measure and cyclic decomposition "
                          "of a representation file"))
    common(sub.add_parser(
        "gns", help="quotient space of a positive-type function file"))

    sp = sub.add_parser(
        "rig", help="generalized-eigenvector decomposition of a "
                    "representation file, component by component")
    common(sp)
    sp.add_argument("--xi", metavar="PATH",
                    help="dual-domain cyclic amplitude file "
                         "(default: all ones on each component support)")

    sp = sub.add_parser("selftest", help="run the seeded property suite")
    common(sp, with_input=False)
    sp.add_argument("--max-dim", type=int, default=8,
                    help="largest representation dimension (default 8)")
    return parser


def _resolve_tol(args: argparse.Namespace) -> float:
    if args.tol is not None:
        source, raw = "--tol", args.tol
    else:
        raw = os.environ.get(TOL_ENV_VAR)
        if raw is None:
            return DEFAULT_TOL
        source = f"environment variable {TOL_ENV_VAR}"
    try:
        tol = float(raw)
    except ValueError:
        raise FileFormatError(f"{source}={raw!r} is not a number")
    if not 0.0 <= tol < np.inf:
        raise FileFormatError(f"{source}={raw!r} must be a finite number >= 0")
    return tol


def _size_cap(args: argparse.Namespace, default: int = DEFAULT_SIZE_CAP) -> int:
    cap = args.max_group_size if args.max_group_size is not None else default
    if cap < 1:
        raise FileFormatError("--max-group-size must be positive")
    return cap


def _check_seed(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise FileFormatError("--seed must be >= 0")


def peak_estimate(command: str, orders: Sequence[int], dim: int) -> int:
    """PEAK_MODEL's bytes for ``command`` on the group with factor orders
    ``orders`` and dimension ``dim`` (for selftest, the largest it draws)."""
    stacks, per_entry, per_element, per_pair = PEAK_MODEL[command]
    size = math.prod(orders)
    stack = (16 * size * max(size, dim ** 2) if command == "selftest"
             else 16 * dim ** 2 * (min(dim, size) + 10 * len(orders)))
    return (int(stacks * stack) + per_entry * dim ** 2 + PEAK_BASE
            + (per_element + per_pair * identity_chunk(size)) * size)


def _check_budget(command: str, orders: Sequence[int], dim: int) -> None:
    estimate = peak_estimate(command, orders, dim)
    if estimate > OPERATOR_STACK_BUDGET:
        raise InvalidGroupError(
            f"{command} on |G| = {math.prod(orders)}{f', dim {dim}' if dim else ''} would "
            f"take about {estimate} bytes at its peak, over the memory budget of "
            f"{OPERATOR_STACK_BUDGET} bytes")


def _load(path: str):
    """The JSON in ``path``, refused over 3/128 of the budget: decoding peaks
    at up to about 17 traced bytes per file byte (short pairs like [0,0]),
    so under half the budget, and a 65536-pair file indented by 2 passes."""
    return load_json(path, max_bytes=3 * OPERATOR_STACK_BUDGET // 128)


def _report_skeleton(command: str, args: argparse.Namespace, tol: float,
                     inputs: dict, results: dict, residuals: dict,
                     passed: bool) -> dict:
    return {
        "tool": "abelian-spectra",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "tol": tol,
        "inputs": inputs,
        "results": results,
        "residuals": {k: float(v) for k, v in residuals.items()},
        "passed": bool(passed),
    }


def _verdict_lines(residuals: dict, tol: float) -> list[str]:
    """The summary's verdict, naming each residual above ``tol`` when it failed."""
    failed = {key: value for key, value in residuals.items() if not value <= tol}
    return [f"passed: {not failed}"] + (["failed: " + describe(failed)] if failed else [])


def cmd_fourier(args: argparse.Namespace, tol: float):
    f = function_from_payload(_load(args.input), size_cap=_size_cap(args))
    transform, domain, name = {"forward": (fourier, GroupFunction, "group"),
                               "inverse": (inverse_fourier, DualFunction, "dual")}[args.direction]
    if not isinstance(f, domain):
        raise FileFormatError(f"{args.direction} transform needs field 'domain' == '{name}'")
    out = stage(f"{args.direction} transform", lambda: transform(f))
    lines = [f"fourier {args.direction}: orders {list(f.group.orders)}, {f.group.size} values"]
    return function_to_payload(out), lines, EXIT_OK


def cmd_decompose(args: argparse.Namespace, tol: float):
    rep = representation_from_payload(_load(args.input),
                                      size_cap=_size_cap(args))
    _check_budget("decompose", rep.group.orders, rep.dim)
    group = rep.group
    pvm = spectral_measure(rep)
    components = [diagonalize(comp) for comp in cyclic_decomposition(pvm)]
    # layer i's isometry is its support's kets of index i, its cyclic vector their sum
    comp_payloads = [{"support": group.coords_at(comp.columns).tolist(), "layer": i}
                     for i, comp in enumerate(components, start=1)]

    kets = dirac_kets(pvm)
    mults = np.zeros(group.size, dtype=int)
    mults[pvm.indices] = pvm.multiplicities
    residuals = {f"pvm_{k}": v for k, v in sorted(pvm.residuals.items())}
    residuals.update(relation_certificate(pvm, components))
    passed = all(v <= tol for v in residuals.values())

    results = {
        "support": group.coords_at(pvm.indices).tolist(),
        "multiplicities": mults.tolist(),
        "components": comp_payloads,
        "kets": [
            {
                "character": list(ket.character.coords),
                "index": ket.index,
                "vector": ket.vector,
            }
            for ket in kets.kets
        ],
    }
    report = _report_skeleton(
        "decompose", args, tol,
        inputs={"group": group_to_payload(group), "dim": rep.dim},
        results=results, residuals=residuals, passed=passed)
    lines = [
        f"support: {len(pvm.indices)} characters, dim {rep.dim}",
        f"components: {len(components)}",
        f"max residual: {max(residuals.values()):.3e}",
        *_verdict_lines(residuals, tol),
    ]
    return report, lines, EXIT_OK if passed else EXIT_NUMERICAL


def cmd_gns(args: argparse.Namespace, tol: float):
    f = function_from_payload(_load(args.input), size_cap=_size_cap(args))
    if not isinstance(f, GroupFunction):
        raise FileFormatError("quotient construction needs field 'domain' == 'group'")
    _check_budget("gns", f.group.orders, 0)
    space = gns_construct(f)
    # relative to max |phi|, whose size the FFT round-off scales with (phi = 0
    # reconstructs exactly)
    gap, size = np.abs(reconstruct_phi(space).values - f.values).max(), np.abs(f.values).max()
    recon = float(gap / size if size > 0 else gap)
    residuals = {"reconstruction": recon}
    passed = recon <= tol

    results = {
        "rank": space.rank,
        "gram_eigenvalues": space.eigenvalues.tolist(),
        # each generator's diagonal <e_j|psi_s> and eta_s follow from these
        "support": f.group.coords_at(space.support).tolist(),
        "positivity": space.positivity.as_dict(),
    }
    report = _report_skeleton(
        "gns", args, tol,
        inputs={"group": group_to_payload(f.group), "domain": "group"},
        results=results, residuals=residuals, passed=passed)
    lines = [
        f"rank: {space.rank} (group size {f.group.size})",
        f"reconstruction residual: {recon:.3e}",
        *_verdict_lines(residuals, tol),
    ]
    return report, lines, EXIT_OK if passed else EXIT_NUMERICAL


def cmd_rig(args: argparse.Namespace, tol: float):
    size_cap = _size_cap(args)
    rep = representation_from_payload(_load(args.input), size_cap=size_cap)
    _check_budget("rig", rep.group.orders, rep.dim)
    group = rep.group
    xi_global = None
    if args.xi:
        xi_global = function_from_payload(_load(args.xi), size_cap=size_cap)
        if not isinstance(xi_global, DualFunction):
            raise FileFormatError("cyclic amplitude needs field 'domain' == 'dual'")
        if xi_global.group != group:
            raise GroupMismatchError(
                "cyclic amplitude and representation live on different groups")

    pvm = spectral_measure(rep)
    components = [diagonalize(comp) for comp in cyclic_decomposition(pvm)]
    comp_payloads, decomp = [], None
    for index, comp in enumerate(components):
        # A layer's rigging depends only on its support and xi there, and layer i
        # holds the characters of multiplicity >= i: a repeated support repeats.
        if decomp is None or not np.array_equal(comp.columns, decomp.columns):
            vals = np.zeros(group.size, dtype=complex)
            vals[comp.columns] = xi_global.values[comp.columns] if xi_global is not None else 1.0
            # checked as given; 2^-e xi, exact, has moduli in [1/2, 1) and the same rigging
            e = int(np.frexp(cyclic_moduli(comp, DualFunction(group, vals)).max())[1])
            xi = DualFunction(group, np.ldexp(vals.view(float), -e).view(complex))
            decomp = build_decomposition(quotient_from_cyclic(comp, xi), xi, tol=tol,
                                         rng=np.random.default_rng([args.seed, index]))
            itw = intertwiner(decomp, comp)
            payload = {"support": group.coords_at(decomp.columns).tolist(),
                       "weights": np.ldexp(decomp.weights, e).tolist(),
                       "residuals": {"identity": decomp.identity_residual,
                                     "reconstruction": decomp.reconstruction_residual,
                                     "eigen_equation": decomp.eigen_equation_residual,
                                     "intertwiner_unitarity": itw.unitarity_residual,
                                     "intertwiner": itw.intertwining_residual}}
        comp_payloads.append(payload)
    worst = {key: max(entry["residuals"][key] for entry in comp_payloads)
             for key in payload["residuals"]}

    passed = all(v <= tol for v in worst.values())
    results = {"components": comp_payloads}
    report = _report_skeleton(
        "rig", args, tol,
        inputs={"group": group_to_payload(group), "dim": rep.dim,
                "xi": "file" if args.xi else "ones"},
        results=results, residuals=worst, passed=passed)
    lines = [f"components: {len(components)}"]
    lines += [f"component {i}: {len(payload['support'])} eigenvectors, "
              f"max residual {max(payload['residuals'].values()):.3e}"
              for i, payload in enumerate(comp_payloads)]
    lines += _verdict_lines(worst, tol)
    return report, lines, EXIT_OK if passed else EXIT_NUMERICAL


def cmd_selftest(args: argparse.Namespace, tol: float):
    cfg = SelftestConfig(
        max_group_size=_size_cap(args, default=16),
        max_dim=args.max_dim,
        seed=args.seed,
        tol=tol,
    )
    if cfg.max_dim < 1:
        raise FileFormatError("--max-dim must be positive")
    _check_budget("selftest", (cfg.max_group_size,), cfg.max_dim)
    results, report = run_selftest(cfg)
    lines = [res.line() for res in results]
    npass = sum(res.passed for res in results)
    lines.append(f"{npass}/{len(results)} properties passed")
    return report, lines, EXIT_OK if report["passed"] else EXIT_NUMERICAL


_COMMANDS = {
    "fourier": cmd_fourier,
    "decompose": cmd_decompose,
    "gns": cmd_gns,
    "rig": cmd_rig,
    "selftest": cmd_selftest,
}


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.output:
        dump_json(payload, args.output)
        stream = sys.stdout
    else:
        sys.stdout.write(dump_json(payload))
        stream = sys.stderr
    for line in lines:
        print(line, file=stream)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _resolve_tol(args)
        _check_seed(args)
        payload, lines, code = _COMMANDS[args.command](args, tol)
        _emit(args, payload, lines)
    except tuple(error for errors, _ in _EXIT_CODES for error in errors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for errors, code in _EXIT_CODES if isinstance(exc, errors))
    return code


if __name__ == "__main__":
    sys.exit(main())
