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
import math
import os
import sys

import numpy as np

from ._version import __version__
from .algebra import DualFunction, GroupFunction, checked_finite, fourier, inverse_fourier
from .errors import (
    DegenerateComponentError,
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
)
from .fileio import (
    complex_matrix_payload,
    complex_vector_payload,
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
    check_diagonal_generators,
    cyclic_decomposition,
    diagonalization_residual,
    diagonalize,
    dirac_kets,
    invariance_residual,
    reconstruction_residual,
    spectral_measure,
)
from .rigging import build_decomposition, intertwiner, phi_from_cyclic
from .selftest import SelftestConfig, run_selftest

DEFAULT_TOL = 1e-9
# The memory budget: bytes of the largest array a command may allocate (gns's
# |G| x rank characters, the |G| x dim x dim operator stack, the self-test's
# oracles), each estimated before it is allocated.
OPERATOR_STACK_BUDGET = 256 * 2**20
TOL_ENV_VAR = "ABELIAN_SPECTRA_TOL"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_PRECONDITION = 5

_INPUT_ERRORS = (FileFormatError, InvalidGroupError, ShapeMismatchError,
                 GroupMismatchError, OSError)
_NUMERICAL_ERRORS = (NumericalDegeneracyError, DegenerateComponentError,
                     InconsistencyError)
_PRECONDITION_ERRORS = (PositiveTypeError, NotCyclicError, NotSelfAdjointError,
                        SupportError)


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
                        help="seed for all randomized checks (default 0)")
        sp.add_argument("--tol", type=float, default=None,
                        help=f"pass/fail residual threshold (default {DEFAULT_TOL:g}; "
                             f"env {TOL_ENV_VAR} overrides)")
        sp.add_argument("--max-group-size", type=int, default=None,
                        help=f"largest admitted group order (default {DEFAULT_SIZE_CAP}, "
                             "16 for selftest; gns and rig never admit a group "
                             "over sqrt(budget / 16) = 4096)")

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


def _quotient_size_cap(args: argparse.Namespace) -> int:
    """Size cap of gns and rig: gns's |G| x rank table takes 16 |G|^2 bytes at
    full rank.  rig keeps the cap while its stack check counts one operator
    stack and its all-G relation checks hold about three."""
    return min(_size_cap(args), math.isqrt(OPERATOR_STACK_BUDGET // 16))


def _check_budget(what: str, estimate: int) -> None:
    if estimate > OPERATOR_STACK_BUDGET:
        raise InvalidGroupError(
            f"{what} would take {estimate} bytes, over the memory "
            f"budget of {OPERATOR_STACK_BUDGET} bytes")


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


def cmd_fourier(args: argparse.Namespace, tol: float):
    f = function_from_payload(load_json(args.input), size_cap=_size_cap(args))
    if args.direction == "forward":
        if not isinstance(f, GroupFunction):
            raise FileFormatError(
                "forward transform needs field 'domain' == 'group'")
        transform = fourier
    else:
        if not isinstance(f, DualFunction):
            raise FileFormatError(
                "inverse transform needs field 'domain' == 'dual'")
        transform = inverse_fourier
    out = checked_finite(f"{args.direction} transform", lambda: transform(f))
    lines = [f"fourier {args.direction}: orders {list(f.group.orders)}, "
             f"{f.group.size} values"]
    return function_to_payload(out), lines, EXIT_OK


def cmd_decompose(args: argparse.Namespace, tol: float):
    rep = representation_from_payload(load_json(args.input),
                                      size_cap=_size_cap(args))
    _check_budget("operator stack (16 |G| dim^2)", 16 * rep.group.size * rep.dim ** 2)
    group = rep.group
    pvm = spectral_measure(rep)
    recon = reconstruction_residual(pvm)

    components = cyclic_decomposition(pvm)
    diag_res = 0.0
    invariance = 0.0
    comp_payloads = []
    for comp in components:
        model = diagonalize(comp, pvm)
        diag_res = max(diag_res, diagonalization_residual(model, rep))
        invariance = max(invariance, invariance_residual(comp, rep))
        comp_payloads.append({
            "support": [list(chi.coords) for chi in comp.support],
            "cyclic_vector": complex_vector_payload(comp.cyclic_vector),
            "projection_norms": [float(x) for x in comp.projection_norms],
            "diagonal_model": {
                "isometry": complex_matrix_payload(model.isometry),
                "generator_diagonals": complex_matrix_payload(
                    model.table[group.generator_indices]),
            },
        })

    kets = dirac_kets(pvm)
    mults = np.zeros(group.size, dtype=int)
    mults[list(map(group.character_index, pvm.multiplicities))] = list(pvm.multiplicities.values())
    residuals = {f"pvm_{k}": v for k, v in sorted(pvm.residuals.items())}
    residuals.update({
        "reconstruction": recon,
        "diagonalization": diag_res,
        "component_invariance": invariance,
    })
    passed = all(v <= tol for v in residuals.values())

    results = {
        "support": [list(chi.coords) for chi in pvm.support],
        "multiplicities": mults.tolist(),
        "components": comp_payloads,
        "kets": [
            {
                "character": list(ket.character.coords),
                "index": ket.index,
                "vector": complex_vector_payload(ket.vector),
            }
            for ket in kets.kets
        ],
    }
    report = _report_skeleton(
        "decompose", args, tol,
        inputs={"group": group_to_payload(group), "dim": rep.dim},
        results=results, residuals=residuals, passed=passed)
    lines = [
        f"support: {len(pvm.support)} characters, dim {rep.dim}",
        f"components: {len(components)}",
        f"max residual: {max(residuals.values()):.3e}",
        f"passed: {passed}",
    ]
    return report, lines, EXIT_OK if passed else EXIT_NUMERICAL


def cmd_gns(args: argparse.Namespace, tol: float):
    f = function_from_payload(load_json(args.input), size_cap=_quotient_size_cap(args))
    if not isinstance(f, GroupFunction):
        raise FileFormatError("quotient construction needs field 'domain' == 'group'")
    space = gns_construct(f)
    diagonals = space.generator_images()
    check_diagonal_generators(f.group, diagonals)  # raises on unitarity/order breach
    # relative to max |phi|, whose size the FFT round-off scales with
    recon = float(np.abs(reconstruct_phi(space).values - f.values).max()
                  / max(1.0, np.abs(f.values).max()))
    residuals = {"reconstruction": recon}
    passed = recon <= tol

    results = {
        "rank": space.rank,
        "gram_eigenvalues": [float(x) for x in space.eigenvalues],
        "generator_diagonals": complex_matrix_payload(diagonals),
        "eta": complex_vector_payload(space.eta),
        "positivity": space.positivity.as_dict(),
    }
    report = _report_skeleton(
        "gns", args, tol,
        inputs={"group": group_to_payload(f.group), "domain": "group"},
        results=results, residuals=residuals, passed=passed)
    lines = [
        f"rank: {space.rank} (group size {f.group.size})",
        f"reconstruction residual: {recon:.3e}",
        f"passed: {passed}",
    ]
    return report, lines, EXIT_OK if passed else EXIT_NUMERICAL


def cmd_rig(args: argparse.Namespace, tol: float):
    size_cap = _quotient_size_cap(args)
    rep = representation_from_payload(load_json(args.input), size_cap=size_cap)
    _check_budget("operator stack (16 |G| dim^2)", 16 * rep.group.size * rep.dim ** 2)
    group = rep.group
    xi_global = None
    if args.xi:
        xi_global = function_from_payload(load_json(args.xi), size_cap=size_cap)
        if not isinstance(xi_global, DualFunction):
            raise FileFormatError(
                "cyclic amplitude needs field 'domain' == 'dual'")
        if xi_global.group != group:
            raise GroupMismatchError(
                "cyclic amplitude and representation live on different groups")

    pvm = spectral_measure(rep)
    components = cyclic_decomposition(pvm)
    comp_payloads = []
    worst = dict.fromkeys(("identity", "reconstruction", "eigen_equation",
                           "intertwiner_unitarity", "intertwiner"), 0.0)
    for index, comp in enumerate(components):
        model = diagonalize(comp, pvm)
        cols = [group.character_index(chi) for chi in model.support]
        vals = np.zeros(group.size, dtype=complex)
        vals[cols] = xi_global.values[cols] if xi_global is not None else 1.0
        xi = DualFunction(group, vals)
        space = gns_construct(phi_from_cyclic(model, xi))
        decomp = build_decomposition(
            space, xi, tol=tol,
            rng=np.random.default_rng([args.seed, index]))
        itw = intertwiner(space, model, xi)

        residuals = {
            "identity": decomp.identity_residual,
            "reconstruction": decomp.reconstruction_residual,
            "eigen_equation": decomp.eigen_equation_residual,
            "intertwiner_unitarity": itw.unitarity_residual,
            "intertwiner": itw.intertwining_residual,
        }
        for key, value in residuals.items():
            worst[key] = max(worst[key], value)
        comp_payloads.append({
            "support": [list(chi.coords) for chi in decomp.support],
            "weights": [vec.weight for vec in decomp.eigenvectors],
            "generator_diagonals": complex_matrix_payload(model.table[group.generator_indices]),
            "residuals": residuals,
        })

    passed = all(v <= tol for v in worst.values())
    results = {"components": comp_payloads}
    report = _report_skeleton(
        "rig", args, tol,
        inputs={"group": group_to_payload(group), "dim": rep.dim,
                "xi": "file" if args.xi else "ones"},
        results=results, residuals=worst, passed=passed)
    lines = [f"components: {len(components)}"]
    for i, payload in enumerate(comp_payloads):
        lines.append(
            f"component {i}: {len(payload['support'])} eigenvectors, "
            f"max residual {max(payload['residuals'].values()):.3e}")
    lines.append(f"passed: {passed}")
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
    _check_budget("self-test oracles (16 N max(N, dim^2))",
                  16 * cfg.max_group_size * max(cfg.max_group_size, cfg.max_dim ** 2))
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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RepresentationValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
