"""Seeded property suite covering the library's invariants end to end.

Every property draws its instances from a single seed, computes a worst
residual, and reports one line.  The suite doubles as the numerical
regression gate: the production routes are cross-checked against the
independent dense and all-G references of ``oracle``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .algebra import (
    DualFunction,
    GroupFunction,
    convolve,
    delta,
    fourier,
    inverse_fourier,
    involution,
    is_positive_type,
)
from .errors import AbelianSpectraError
from .fileio import (
    dump_json,
    function_from_payload,
    function_to_payload,
    representation_from_payload,
    representation_to_payload,
)
from .gns import gns_algebra_action, gns_construct, reconstruct_phi
from .groups import Element, Group
from .oracle import (
    diagonalization_residual,
    hermitian_form,
    invariance_residual,
    joint_eigenprojections,
    operator_at,
    reconstruction_residual,
)
from .representations import (
    ProjectionValuedMeasure,
    UnitaryRep,
    apply_algebra,
    cyclic_decomposition,
    diagonalize,
    dirac_kets,
    functional_calculus,
    make_representation,
    spectral_measure,
)
from .rigging import build_decomposition, intertwiner, quotient_from_cyclic

ORACLE_TOL = 1e-7

# residual recorded when a property dies with an exception; finite so the
# report stays strict JSON
ERROR_RESIDUAL = 1e300


@dataclass(frozen=True)
class SelftestConfig:
    max_group_size: int = 16
    max_dim: int = 8
    seed: int = 0
    tol: float = 1e-9


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    cases: int
    detail: str | None = None

    def line(self) -> str:
        tag = " ok " if self.passed else "FAIL"
        text = (f"[{tag}] {self.name}: max residual {self.max_residual:.3e} "
                f"(tol {self.tolerance:.1e}, {self.cases} cases)")
        if self.detail and not self.passed:
            text += f" — {self.detail}"
        return text


# ---------------------------------------------------------------------------
# random instances


def random_orders(rng: np.random.Generator, max_size: int) -> tuple[int, ...]:
    if max_size <= 1:
        return (1,)
    count = int(rng.integers(1, 4))
    orders: list[int] = []
    size = 1
    for _ in range(count):
        cap = max_size // size
        if cap < 2:
            break
        n = int(rng.integers(2, cap + 1))
        orders.append(n)
        size *= n
    if not orders:
        orders = [int(rng.integers(2, max_size + 1))]
    return tuple(orders)


def random_group(rng: np.random.Generator, max_size: int, *,
                 haar_weight: float = 1.0) -> Group:
    return Group(random_orders(rng, max_size), haar_weight=haar_weight)


def random_function(rng: np.random.Generator, group: Group) -> GroupFunction:
    vals = rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
    return GroupFunction(group, vals)


def random_positive_type(rng: np.random.Generator, group: Group, *,
                         clean: bool = False) -> GroupFunction:
    """Positive-type function via inverse transform of a non-negative dual.

    With ``clean`` the dual values are exact zeros or lie in [0.5, 2], so
    the Fourier support (and hence the quotient rank) is unambiguous.
    """
    if clean:
        mask = rng.random(group.size) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, group.size))] = True
        vals = np.where(mask, rng.uniform(0.5, 2.0, group.size), 0.0)
    else:
        vals = rng.uniform(0.0, 1.0, group.size) ** 2
    return inverse_fourier(DualFunction(group, vals.astype(complex)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rep_from_slots(rng: np.random.Generator, group: Group,
                    slots: np.ndarray) -> UnitaryRep:
    V = random_unitary(rng, len(slots))
    diagonals = group.pairing_at(group.generator_indices, slots)
    return make_representation(group, [V @ np.diag(d) @ V.conj().T for d in diagonals])


def random_representation(rng: np.random.Generator, group: Group,
                          max_dim: int) -> UnitaryRep:
    dim = int(rng.integers(1, max_dim + 1))
    slots = rng.integers(0, group.size, size=dim)
    return _rep_from_slots(rng, group, slots)


def random_multiplicity_free_representation(rng: np.random.Generator, group: Group,
                                            max_dim: int) -> UnitaryRep:
    dim = int(rng.integers(1, min(max_dim, group.size) + 1))
    slots = rng.choice(group.size, size=dim, replace=False)
    return _rep_from_slots(rng, group, slots)


# ---------------------------------------------------------------------------
# the runner

PROPERTIES: tuple = ()


def _payload(obj):
    """JSON form of a replay value: functions and representations as their files."""
    if isinstance(obj, UnitaryRep):
        return representation_to_payload(obj)
    return function_to_payload(obj)


def _property(name: str, tol: float | None = None):
    """Register a property body under ``name`` in PROPERTIES.

    The body is a generator over its cases, yielding ``(residual, replay)``
    per case; the replay is a dict of the instance, serialised into ``detail``
    only when the property fails.  The worst residual is kept (strict ``>``,
    so the first worst case wins), a NaN or infinite residual counts as
    ERROR_RESIDUAL, an AbelianSpectraError ends the property at
    ERROR_RESIDUAL, and ``tol=None`` means ``cfg.tol``.
    """
    def register(body):
        def run(rng: np.random.Generator, cfg: SelftestConfig) -> PropertyResult:
            bound = float(cfg.tol if tol is None else tol)
            worst, replay, cases = 0.0, None, 0
            try:
                for residual, case in body(rng, cfg):
                    cases += 1
                    residual = float(residual) if np.isfinite(residual) else ERROR_RESIDUAL
                    if residual > worst:
                        worst, replay = residual, case
            except AbelianSpectraError as exc:
                cases += 1
                worst, replay = ERROR_RESIDUAL, {"error": str(exc)}
            passed = worst <= bound
            detail = None if passed else json.dumps(replay, separators=(",", ":"),
                                                    default=_payload)
            return PropertyResult(name=name, passed=passed, max_residual=worst,
                                  tolerance=bound, cases=cases, detail=detail)

        global PROPERTIES
        PROPERTIES += ((name, run),)
        return body
    return register


# ---------------------------------------------------------------------------
# properties: groups


@_property("pairing-homomorphism")
def _prop_pairing_homomorphism(rng, cfg):
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        for _ in range(10):
            g = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
            h = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
            chi = group.characters_at([int(rng.integers(0, group.size))])[0]
            prod = group.pairing(group.op(g, h), chi)
            split = group.pairing(g, chi) * group.pairing(h, chi)
            r = max(abs(prod - split), abs(abs(prod) - 1.0))
            yield r, dict(orders=list(group.orders), g=list(g.coords),
                          h=list(h.coords), chi=list(chi.coords))


@_property("character-orthogonality")
def _prop_character_orthogonality(rng, cfg):
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        table = group.pairing_table()
        gram = table.conj().T @ table / group.size
        eye = np.eye(group.size)
        r = max(np.abs(gram - eye).max(),
                np.abs(table @ table.conj().T / group.size - eye).max())
        yield r, dict(orders=list(group.orders))


@_property("element-order")
def _prop_element_order(rng, cfg):
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        for _ in range(5):
            g = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
            n = group.element_order(g)
            acc = group.identity
            for _ in range(n):
                acc = group.op(acc, g)
            r = 0.0 if acc == group.identity else 1.0
            chi = group.characters_at([int(rng.integers(0, group.size))])[0]
            r = max(r, abs(group.pairing(g, chi) ** n - 1.0))
            yield r, dict(orders=list(group.orders), g=list(g.coords))


# ---------------------------------------------------------------------------
# properties: transforms and convolution


def _groups_for_transforms(rng, cfg):
    for i in range(12):
        weight = 1.0 if i % 3 else 0.5
        yield random_group(rng, cfg.max_group_size, haar_weight=weight)


@_property("transform-roundtrip", 1e-12)
def _prop_transform_roundtrip(rng, cfg):
    for group in _groups_for_transforms(rng, cfg):
        f = random_function(rng, group)
        back = inverse_fourier(fourier(f))
        r = np.abs(back.values - f.values).max()
        F = DualFunction(group, rng.standard_normal(group.size)
                         + 1j * rng.standard_normal(group.size))
        again = fourier(inverse_fourier(F))
        r = max(r, np.abs(again.values - F.values).max())
        yield r, dict(function=f)


@_property("plancherel", 1e-12)
def _prop_plancherel(rng, cfg):
    for group in _groups_for_transforms(rng, cfg):
        f = random_function(rng, group)
        w = group.haar_weight
        lhs = w * float(np.sum(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(fourier(f).values) ** 2)) / (w * group.size)
        yield abs(lhs - rhs) / max(lhs, 1e-30), dict(function=f)


@_property("convolution-theorem", 1e-10)
def _prop_convolution_theorem(rng, cfg):
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        f = random_function(rng, group)
        h = random_function(rng, group)
        lhs = fourier(convolve(f, h)).values
        rhs = fourier(f).values * fourier(h).values
        yield np.abs(lhs - rhs).max(), dict(f=f, h=h)


@_property("convolution-algebra")
def _prop_convolution_algebra(rng, cfg):
    for i in range(8):
        weight = 1.0 if i % 2 else 2.0
        group = random_group(rng, cfg.max_group_size, haar_weight=weight)
        f = random_function(rng, group)
        h = random_function(rng, group)
        k = random_function(rng, group)
        ident = convolve(delta(group), f)
        r = np.abs(ident.values - weight * f.values).max()
        r = max(r, np.abs(convolve(f, h).values - convolve(h, f).values).max())
        assoc_l = convolve(convolve(f, h), k).values
        assoc_r = convolve(f, convolve(h, k)).values
        r = max(r, np.abs(assoc_l - assoc_r).max())
        yield r, dict(f=f)


@_property("involution-transform")
def _prop_involution_transform(rng, cfg):
    for _ in range(8):
        group = random_group(rng, cfg.max_group_size)
        f = random_function(rng, group)
        h = random_function(rng, group)
        r = np.abs(fourier(involution(f)).values
                   - np.conj(fourier(f).values)).max()
        lhs = involution(convolve(f, h)).values
        rhs = convolve(involution(h), involution(f)).values
        r = max(r, np.abs(lhs - rhs).max())
        yield r, dict(f=f)


# ---------------------------------------------------------------------------
# properties: positivity


@_property("positivity-route-agreement", 0.0)
def _prop_positivity_routes(rng, cfg):
    for i in range(20):
        group = random_group(rng, min(cfg.max_group_size, 16))
        if i % 2 == 0:
            phi = random_positive_type(rng, group, clean=bool(i % 4))
            expected = True
        else:
            phi = random_function(rng, group)
            expected = None  # either verdict, as long as the routes agree
        report = is_positive_type(phi)
        r = 0.0
        if expected is True and not report.verdict:
            r = 1.0
        yield r, dict(function=phi, report=report.as_dict())


@_property("gram-translation-invariance", 1e-12)
def _prop_gram_translation_invariance(rng, cfg):
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group)
        gram = hermitian_form(phi)
        g = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
        perm = group.translate_indices(g)
        r = np.abs(gram[np.ix_(perm, perm)] - gram).max()
        r = max(r, float(np.abs(gram - gram.conj().T).max()))
        yield r, dict(function=phi, g=list(g.coords))


# ---------------------------------------------------------------------------
# properties: spectral measures


def _pvm_instance(rng, cfg) -> tuple[UnitaryRep, ProjectionValuedMeasure]:
    group = random_group(rng, cfg.max_group_size)
    rep = random_representation(rng, group, cfg.max_dim)
    return rep, spectral_measure(rep)


@_property("projection-validity")
def _prop_projection_validity(rng, cfg):
    for _ in range(8):
        rep, pvm = _pvm_instance(rng, cfg)
        r = max(pvm.residuals.values())
        r = max(r, abs(int(pvm.multiplicities.sum()) - rep.dim))
        for chi in pvm.support:
            p = pvm.projection(chi)
            r = max(r, float(np.linalg.norm(p @ p - p)))
        yield r, dict(representation=rep)


@_property("projection-reconstruction")
def _prop_projection_reconstruction(rng, cfg):
    for _ in range(8):
        rep, pvm = _pvm_instance(rng, cfg)
        yield reconstruction_residual(pvm), dict(representation=rep)


@_property("projection-oracle-agreement", ORACLE_TOL)
def _prop_projection_oracle(rng, cfg):
    for _ in range(8):
        rep, pvm = _pvm_instance(rng, cfg)
        oracle = joint_eigenprojections(rep)
        zero = np.zeros((rep.dim, rep.dim), dtype=complex)
        r = 0.0
        for chi in set(pvm.support) | set(oracle):
            mine = pvm.projection(chi) if chi in pvm.support else zero
            theirs = oracle.get(chi, zero)
            r = max(r, float(np.linalg.norm(mine - theirs, 2)))
        yield r, dict(representation=rep)


@_property("projection-algebra-action")
def _prop_projection_algebra_action(rng, cfg):
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        group = rep.group
        f = random_function(rng, group)
        lhs = apply_algebra(pvm, f)
        # sum_g f(g) pi(g) against the generator-power stack
        rhs = group.haar_weight * np.tensordot(f.values, rep.operators, axes=1)
        yield float(np.linalg.norm(lhs - rhs)), dict(representation=rep, f=f)


@_property("component-invariance")
def _prop_component_invariance(rng, cfg):
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        comps = cyclic_decomposition(pvm)
        r = 0.0
        total = np.zeros((rep.dim, rep.dim), dtype=complex)
        for comp in comps:
            iso = comp.isometry
            r = max(r, float(np.linalg.norm(
                iso.conj().T @ iso - np.eye(iso.shape[1]))))
            total += iso @ iso.conj().T
            r = max(r, invariance_residual(comp, rep))
        for a in range(len(comps)):
            for b in range(a + 1, len(comps)):
                r = max(r, float(np.linalg.norm(
                    comps[a].isometry.conj().T @ comps[b].isometry)))
        r = max(r, float(np.linalg.norm(total - np.eye(rep.dim))))
        expected = int(pvm.multiplicities.max(initial=0))
        r = max(r, abs(len(comps) - expected))
        yield r, dict(representation=rep)


@_property("diagonalization")
def _prop_diagonalization(rng, cfg):
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        r = 0.0
        for comp in cyclic_decomposition(pvm):
            r = max(r, diagonalization_residual(diagonalize(comp), rep))
        yield r, dict(representation=rep)


@_property("ket-completeness")
def _prop_ket_completeness(rng, cfg):
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        kets = dirac_kets(pvm)
        r = 0.0
        for _ in range(5):
            phi_vec = (rng.standard_normal(rep.dim)
                       + 1j * rng.standard_normal(rep.dim))
            psi_vec = (rng.standard_normal(rep.dim)
                       + 1j * rng.standard_normal(rep.dim))
            subset = [chi for chi in pvm.support if rng.random() < 0.5]
            proj = sum((pvm.projection(chi) for chi in subset),
                       np.zeros((rep.dim, rep.dim), dtype=complex))
            lhs = complex(phi_vec.conj() @ proj @ psi_vec)
            rhs = kets.completeness_sum(phi_vec, psi_vec, subset)
            r = max(r, abs(lhs - rhs))
        yield r, dict(representation=rep)


@_property("functional-calculus-group-law", 1e-10)
def _prop_functional_calculus(rng, cfg):
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        labels = {chi: float(rng.uniform(-3, 3)) for chi in pvm.support}
        s, u = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

        def wave(time):
            return functional_calculus(
                pvm, labels, lambda x: np.exp(1j * time * x))

        r = float(np.linalg.norm(wave(s) @ wave(u) - wave(s + u)))
        ident = functional_calculus(pvm, labels, lambda x: 1.0)
        r = max(r, float(np.linalg.norm(ident - np.eye(rep.dim))))
        yield r, dict(representation=rep)


# ---------------------------------------------------------------------------
# properties: quotient construction


@_property("quotient-reconstruction")
def _prop_quotient_reconstruction(rng, cfg):
    for i in range(8):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=bool(i % 2))
        space = gns_construct(phi)
        r = np.abs(reconstruct_phi(space).values - phi.values).max()
        yield r, dict(function=phi)


@_property("quotient-representation")
def _prop_quotient_representation(rng, cfg):
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        rep = space.representation()
        r = 0.0
        eye = np.eye(space.rank)
        for _ in range(5):
            g = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
            h = Element(group.coords_at([int(rng.integers(0, group.size))])[0])
            og, oh = space.operator(g), space.operator(h)
            r = max(r, float(np.linalg.norm(og @ oh - space.operator(group.op(g, h)))))
            r = max(r, float(np.linalg.norm(og.conj().T @ og - eye)))
            r = max(r, float(np.linalg.norm(og - operator_at(rep, g))))
        yield r, dict(function=phi)


@_property("quotient-rank-support", 0.0)
def _prop_quotient_rank(rng, cfg):
    for _ in range(8):
        group = random_group(rng, cfg.max_group_size)
        mask = rng.random(group.size) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, group.size))] = True
        dual_vals = np.where(mask, rng.uniform(0.5, 2.0, group.size), 0.0)
        phi = inverse_fourier(DualFunction(group, dual_vals.astype(complex)))
        space = gns_construct(phi)
        yield abs(space.rank - int(mask.sum())), dict(function=phi)


@_property("quotient-cyclicity", 0.0)
def _prop_quotient_cyclicity(rng, cfg):
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        coords = np.stack([space.class_coordinates(delta(group, g))
                           for g in group.elements])
        sing = np.linalg.svd(coords, compute_uv=False)
        numeric_rank = int(np.sum(sing > 1e-9 * max(sing[0], 1e-30)))
        yield abs(numeric_rank - space.rank), dict(function=phi)


@_property("quotient-algebra-action")
def _prop_quotient_algebra_action(rng, cfg):
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        f = random_function(rng, group)
        action = gns_algebra_action(space, f)
        # sum_g f(g) pi(g) against the generator powers: the generators are
        # diagonal, so pi(g) = prod_j U_j^{g_j} is the product of their
        # diagonals raised to the coordinates of g, a |G| x rank table where
        # the dense stack would take |G| x rank^2 with rank up to |G|
        powers = np.prod(space.generator_images() ** group._coords[:, :, None], axis=1)
        summed = np.diag(group.haar_weight * (f.values @ powers))
        # relative to haar * sum_g |f(g)|, the bound on ||sum_g f(g) pi(g)||:
        # the powers' round-off, and so the absolute gap, grows with |G|
        scale = group.haar_weight * float(np.abs(f.values).sum())
        r = float(np.linalg.norm(action - summed))
        r = max(r, float(np.linalg.norm(
            action @ space.eta - space.class_coordinates(f))))
        yield r / scale, dict(function=phi, f=f)


# ---------------------------------------------------------------------------
# properties: generalized eigenvectors


def _rig_setup(rng, cfg):
    group = random_group(rng, cfg.max_group_size)
    rep = random_multiplicity_free_representation(rng, group, cfg.max_dim)
    (component,) = cyclic_decomposition(spectral_measure(rep))
    model = diagonalize(component)
    vals = np.zeros(group.size, dtype=complex)
    for col in model.columns:  # the radius is drawn before the phase
        vals[col] = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    xi = DualFunction(group, vals)
    space = quotient_from_cyclic(model, xi)
    decomp = build_decomposition(
        space, xi, rng=np.random.default_rng(int(rng.integers(0, 2 ** 32))))
    return rep, model, xi, space.phi, space, decomp


def _resolution_data(space, decomp):
    """Eigenvector coordinates C (row k for support character chi_k), the
    pairings P[g, k] = <g|chi_k> over all of G, and the quotient's
    generator-power stack pi(g), |G| x rank x rank with rank <= max_dim."""
    group = space.group
    P = group.pairing_at(np.arange(group.size), decomp.columns)
    return decomp.coords, P, space.representation().operators


@_property("eigenvector-system")
def _prop_eigenvector_system(rng, cfg):
    for _ in range(6):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        r = decomp.identity_residual
        r = max(r, abs(len(decomp.support) - space.rank))
        r = max([r] + [abs(vec.weight - abs(xi(vec.character))) for vec in decomp.eigenvectors])
        yield r, dict(xi=xi, representation=rep)


@_property("operator-reconstruction")
def _prop_operator_reconstruction(rng, cfg):
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        group = space.group
        C, P, ops = _resolution_data(space, decomp)
        # sum_chi <g|chi> |F_chi><F_chi| for every g, against pi(g) and as
        # the inverse of its value at -g
        rebuilt = (C.T * P[:, None, :]) @ C.conj()
        neg = group.neg_indices()
        eye = np.eye(space.rank)
        r = float(np.linalg.norm(rebuilt[0] - eye))  # the identity is element 0
        r = max(r, np.linalg.norm(rebuilt - ops, axis=(1, 2)).max())
        r = max(r, np.linalg.norm(rebuilt @ rebuilt[neg] - eye, axis=(1, 2)).max())
        yield r, dict(xi=xi)


@_property("eigenvalue-equation")
def _prop_eigenvalue_equation(rng, cfg):
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        C, P, ops = _resolution_data(space, decomp)
        # pi(g)^dagger F_chi - conj(<g|chi>) F_chi for every g and chi
        gaps = ops.conj().swapaxes(1, 2) @ C.T - P.conj()[:, None, :] * C.T
        r = np.linalg.norm(gaps, axis=1).max()
        r = max(r, np.abs(np.abs(P) - 1.0).max())
        yield r, dict(xi=xi)


@_property("intertwiner")
def _prop_intertwiner(rng, cfg):
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        result = intertwiner(decomp, model)
        r = max(result.unitarity_residual, result.intertwining_residual)
        yield r, dict(xi=xi)


@_property("functional-coordinate-agreement", 1e-10)
def _prop_functional_coordinate_agreement(rng, cfg):
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        group = space.group
        r = 0.0
        for _ in range(4):
            f = random_function(rng, group)
            coords_f = space.class_coordinates(f)
            for vec in decomp.eigenvectors:
                r = max(r, abs(vec.act(f) - complex(np.vdot(coords_f, vec.coords))))
        yield r, dict(xi=xi)


@_property("eigenvector-orthonormality")
def _prop_eigenvector_orthonormality(rng, cfg):
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        gram = decomp.coords.conj() @ decomp.coords.T
        yield float(np.linalg.norm(gram - np.eye(len(decomp.columns)))), dict(xi=xi)


# ---------------------------------------------------------------------------
# properties: serialization


@_property("serialization-roundtrip", 0.0)
def _prop_serialization_roundtrip(rng, cfg):
    for _ in range(8):
        group = random_group(rng, cfg.max_group_size)
        f = random_function(rng, group)
        payload = json.loads(dump_json(function_to_payload(f)))
        back = function_from_payload(payload)
        r = 0.0 if (np.array_equal(back.values, f.values)
                    and back.group == f.group
                    and isinstance(back, GroupFunction)) else 1.0
        rep = random_representation(rng, group, min(cfg.max_dim, 4))
        rp = json.loads(dump_json(representation_to_payload(rep)))
        rep_back = representation_from_payload(rp)
        if not all(np.array_equal(a, b) for a, b in
                   zip(rep_back.generators, rep.generators)):
            r = 1.0
        yield r, dict(orders=list(group.orders))


def run_property(name: str, cfg: SelftestConfig,
                 index: int | None = None) -> PropertyResult:
    """Run a single named property with its own deterministic stream."""
    lookup = dict(PROPERTIES)
    if name not in lookup:
        raise KeyError(f"unknown property {name!r}")
    if index is None:
        index = [n for n, _ in PROPERTIES].index(name)
    return lookup[name](np.random.default_rng([cfg.seed, index]), cfg)


def run_selftest(cfg: SelftestConfig | None = None) -> tuple[list[PropertyResult], dict]:
    """Run every property; return the results and a deterministic report."""
    cfg = cfg or SelftestConfig()
    results = [run_property(name, cfg, index)
               for index, (name, _) in enumerate(PROPERTIES)]
    report = {
        "tool": "abelian-spectra",
        "version": __version__,
        "command": "selftest",
        "seed": cfg.seed,
        "tol": cfg.tol,
        "max_group_size": cfg.max_group_size,
        "max_dim": cfg.max_dim,
        "properties": [asdict(res) for res in results],
        "passed": all(res.passed for res in results),
    }
    return results, report
