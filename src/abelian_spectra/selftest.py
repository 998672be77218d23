"""Seeded property suite covering the library's invariants end to end.

Every property draws its instances from a single seed, computes a worst
residual, and reports one line.  The suite doubles as the numerical
regression gate: spectral projections are cross-checked against an
independent joint-eigendecomposition oracle that never touches the
character-averaging route used by the library.
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
    hermitian_form,
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
from .groups import Group, make_group
from .representations import (
    ProjectionValuedMeasure,
    UnitaryRep,
    apply_algebra,
    cyclic_decomposition,
    diagonalization_residual,
    diagonalize,
    dirac_kets,
    functional_calculus,
    invariance_residual,
    make_representation,
    reconstruction_residual,
    spectral_measure,
)
from .rigging import (
    build_decomposition,
    eigen_residual,
    intertwiner,
    phi_from_cyclic,
    reconstruct_operator,
)

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
    dim = len(slots)
    basis_change = random_unitary(rng, dim)
    images = []
    for j in range(len(group.orders)):
        gen_coords = [0] * len(group.orders)
        gen_coords[j] = 1 % group.orders[j]
        g = group.element(tuple(gen_coords))
        phases = np.array([group.pairing(g, group.characters[s]) for s in slots])
        images.append(basis_change @ np.diag(phases) @ basis_change.conj().T)
    return make_representation(group, images)


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
# independent oracle: joint eigendecomposition of the commuting generators


def _split_eigenspaces(basis: np.ndarray, herm: np.ndarray,
                       gap: float = 1e-6) -> list[np.ndarray]:
    """Refine an orthonormal basis into eigenspaces of a Hermitian block."""
    w, v = np.linalg.eigh(herm)
    pieces = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            pieces.append(basis @ v[:, start:i])
            start = i
    return pieces


def joint_eigenprojections(rep: UnitaryRep) -> dict:
    """Spectral projections obtained by recursive eigendecomposition.

    Splits the space by the Hermitian and anti-Hermitian parts of each
    generator in turn (they commute, so every refinement stays invariant),
    then labels each joint eigenspace by reading off the generator
    eigenvalue angles.  Entirely independent of the character-averaging
    construction, hence usable as an oracle for it.
    """
    group = rep.group
    subspaces = [np.eye(rep.dim, dtype=complex)]
    for gen in rep.generators:
        refined = []
        for basis in subspaces:
            block = basis.conj().T @ gen @ basis
            for piece in _split_eigenspaces(basis, (block + block.conj().T) / 2):
                sub = piece.conj().T @ gen @ piece
                refined.extend(
                    _split_eigenspaces(piece, (sub - sub.conj().T) / 2j))
        subspaces = refined

    projections: dict = {}
    for basis in subspaces:
        coords = []
        for j, gen in enumerate(rep.generators):
            n = group.orders[j]
            vec = basis[:, 0]
            lam = complex(vec.conj() @ gen @ vec)
            coords.append(int(round(n * np.angle(lam) / (2 * np.pi))) % n)
        chi = group.character(tuple(coords))
        proj = basis @ basis.conj().T
        projections[chi] = projections.get(chi, 0) + proj
    return projections


# ---------------------------------------------------------------------------
# property helpers


def _fail_detail(**payloads) -> str:
    return json.dumps(payloads, separators=(",", ":"))


class _Tracker:
    """Accumulates the worst residual and the instance that produced it."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.detail: str | None = None
        self.cases = 0

    def add(self, residual: float, replay=None) -> None:
        self.cases += 1
        residual = float(residual)
        if residual > self.worst:
            self.worst = residual
            self.detail = replay

    def result(self, name: str, tol: float) -> PropertyResult:
        passed = self.worst <= tol
        return PropertyResult(
            name=name, passed=passed, max_residual=self.worst,
            tolerance=float(tol), cases=self.cases,
            detail=self.detail if not passed else None)


# ---------------------------------------------------------------------------
# properties: groups


def _prop_pairing_homomorphism(rng, cfg):
    t = _Tracker()
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        for _ in range(10):
            g = group.elements[int(rng.integers(0, group.size))]
            h = group.elements[int(rng.integers(0, group.size))]
            chi = group.characters[int(rng.integers(0, group.size))]
            prod = group.pairing(group.op(g, h), chi)
            split = group.pairing(g, chi) * group.pairing(h, chi)
            r = max(abs(prod - split), abs(abs(prod) - 1.0))
            t.add(r, _fail_detail(orders=list(group.orders), g=list(g.coords),
                                  h=list(h.coords), chi=list(chi.coords)))
    return t.result("pairing-homomorphism", cfg.tol)


def _prop_character_orthogonality(rng, cfg):
    t = _Tracker()
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        table = group.pairing_table()
        gram = table.conj().T @ table / group.size
        eye = np.eye(group.size)
        r = max(np.abs(gram - eye).max(),
                np.abs(table @ table.conj().T / group.size - eye).max())
        t.add(r, _fail_detail(orders=list(group.orders)))
    return t.result("character-orthogonality", cfg.tol)


def _prop_element_order(rng, cfg):
    t = _Tracker()
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        for _ in range(5):
            g = group.elements[int(rng.integers(0, group.size))]
            n = group.element_order(g)
            acc = group.identity
            for _ in range(n):
                acc = group.op(acc, g)
            r = 0.0 if acc == group.identity else 1.0
            chi = group.characters[int(rng.integers(0, group.size))]
            r = max(r, abs(group.pairing(g, chi) ** n - 1.0))
            t.add(r, _fail_detail(orders=list(group.orders), g=list(g.coords)))
    return t.result("element-order", cfg.tol)


# ---------------------------------------------------------------------------
# properties: transforms and convolution


def _groups_for_transforms(rng, cfg):
    for i in range(12):
        weight = 1.0 if i % 3 else 0.5
        yield random_group(rng, cfg.max_group_size, haar_weight=weight)


def _prop_transform_roundtrip(rng, cfg):
    t = _Tracker()
    for group in _groups_for_transforms(rng, cfg):
        f = random_function(rng, group)
        back = inverse_fourier(fourier(f))
        r = np.abs(back.values - f.values).max()
        F = DualFunction(group, rng.standard_normal(group.size)
                         + 1j * rng.standard_normal(group.size))
        again = fourier(inverse_fourier(F))
        r = max(r, np.abs(again.values - F.values).max())
        t.add(r, _fail_detail(function=function_to_payload(f)))
    return t.result("transform-roundtrip", 1e-12)


def _prop_plancherel(rng, cfg):
    t = _Tracker()
    for group in _groups_for_transforms(rng, cfg):
        f = random_function(rng, group)
        w = group.haar_weight
        lhs = w * float(np.sum(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(fourier(f).values) ** 2)) / (w * group.size)
        t.add(abs(lhs - rhs) / max(lhs, 1e-30),
              _fail_detail(function=function_to_payload(f)))
    return t.result("plancherel", 1e-12)


def _prop_convolution_theorem(rng, cfg):
    t = _Tracker()
    for _ in range(10):
        group = random_group(rng, cfg.max_group_size)
        f = random_function(rng, group)
        h = random_function(rng, group)
        lhs = fourier(convolve(f, h)).values
        rhs = fourier(f).values * fourier(h).values
        t.add(np.abs(lhs - rhs).max(),
              _fail_detail(f=function_to_payload(f), h=function_to_payload(h)))
    return t.result("convolution-theorem", 1e-10)


def _prop_convolution_algebra(rng, cfg):
    t = _Tracker()
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
        t.add(r, _fail_detail(f=function_to_payload(f)))
    return t.result("convolution-algebra", cfg.tol)


def _prop_involution_transform(rng, cfg):
    t = _Tracker()
    for _ in range(8):
        group = random_group(rng, cfg.max_group_size)
        f = random_function(rng, group)
        h = random_function(rng, group)
        r = np.abs(fourier(involution(f)).values
                   - np.conj(fourier(f).values)).max()
        lhs = involution(convolve(f, h)).values
        rhs = convolve(involution(h), involution(f)).values
        r = max(r, np.abs(lhs - rhs).max())
        t.add(r, _fail_detail(f=function_to_payload(f)))
    return t.result("involution-transform", cfg.tol)


# ---------------------------------------------------------------------------
# properties: positivity


def _prop_positivity_routes(rng, cfg):
    t = _Tracker()
    for i in range(20):
        group = random_group(rng, min(cfg.max_group_size, 16))
        if i % 2 == 0:
            phi = random_positive_type(rng, group, clean=bool(i % 4))
            expected = True
        else:
            phi = random_function(rng, group)
            expected = None  # either verdict, as long as the routes agree
        try:
            report = is_positive_type(phi)
        except AbelianSpectraError as exc:
            t.add(ERROR_RESIDUAL, _fail_detail(error=str(exc),
                                       function=function_to_payload(phi)))
            continue
        r = 0.0
        if expected is True and not report.verdict:
            r = 1.0
        t.add(r, _fail_detail(function=function_to_payload(phi),
                              report=report.as_dict()))
    return t.result("positivity-route-agreement", 0.0)


def _prop_gram_translation_invariance(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group)
        gram = hermitian_form(phi)
        g = group.elements[int(rng.integers(0, group.size))]
        perm = group.translate_indices(g)
        r = np.abs(gram[np.ix_(perm, perm)] - gram).max()
        r = max(r, float(np.abs(gram - gram.conj().T).max()))
        t.add(r, _fail_detail(function=function_to_payload(phi), g=list(g.coords)))
    return t.result("gram-translation-invariance", 1e-12)


# ---------------------------------------------------------------------------
# properties: spectral measures


def _pvm_instance(rng, cfg) -> tuple[UnitaryRep, ProjectionValuedMeasure]:
    group = random_group(rng, cfg.max_group_size)
    rep = random_representation(rng, group, cfg.max_dim)
    return rep, spectral_measure(rep)


def _prop_projection_validity(rng, cfg):
    t = _Tracker()
    for _ in range(8):
        try:
            rep, pvm = _pvm_instance(rng, cfg)
        except AbelianSpectraError as exc:
            t.add(ERROR_RESIDUAL, _fail_detail(error=str(exc)))
            continue
        r = max(pvm.residuals.values())
        r = max(r, abs(sum(pvm.multiplicities.values()) - rep.dim))
        for chi in pvm.support:
            p = pvm.projection(chi)
            r = max(r, float(np.linalg.norm(p @ p - p)))
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("projection-validity", cfg.tol)


def _prop_projection_reconstruction(rng, cfg):
    t = _Tracker()
    for _ in range(8):
        rep, pvm = _pvm_instance(rng, cfg)
        t.add(reconstruction_residual(pvm),
              _fail_detail(representation=representation_to_payload(rep)))
    return t.result("projection-reconstruction", cfg.tol)


def _prop_projection_oracle(rng, cfg):
    t = _Tracker()
    for _ in range(8):
        rep, pvm = _pvm_instance(rng, cfg)
        oracle = joint_eigenprojections(rep)
        zero = np.zeros((rep.dim, rep.dim), dtype=complex)
        r = 0.0
        for chi in set(pvm.support) | set(oracle):
            mine = pvm.projection(chi) if chi in pvm.support else zero
            theirs = oracle.get(chi, zero)
            r = max(r, float(np.linalg.norm(mine - theirs, 2)))
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("projection-oracle-agreement", ORACLE_TOL)


def _prop_projection_algebra_action(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        group = rep.group
        f = random_function(rng, group)
        lhs = apply_algebra(pvm, f)
        rhs = np.zeros((rep.dim, rep.dim), dtype=complex)
        for i, g in enumerate(group.elements):
            rhs += group.haar_weight * f.values[i] * rep.operators[i]
        t.add(float(np.linalg.norm(lhs - rhs)),
              _fail_detail(representation=representation_to_payload(rep),
                           f=function_to_payload(f)))
    return t.result("projection-algebra-action", cfg.tol)


def _prop_component_invariance(rng, cfg):
    t = _Tracker()
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
        expected = max(pvm.multiplicities.values()) if pvm.support else 0
        r = max(r, abs(len(comps) - expected))
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("component-invariance", cfg.tol)


def _prop_diagonalization(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        rep, pvm = _pvm_instance(rng, cfg)
        r = 0.0
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp, pvm)
            r = max(r, diagonalization_residual(model, rep))
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("diagonalization", cfg.tol)


def _prop_ket_completeness(rng, cfg):
    t = _Tracker()
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
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("ket-completeness", cfg.tol)


def _prop_functional_calculus(rng, cfg):
    t = _Tracker()
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
        t.add(r, _fail_detail(representation=representation_to_payload(rep)))
    return t.result("functional-calculus-group-law", 1e-10)


# ---------------------------------------------------------------------------
# properties: quotient construction


def _prop_quotient_reconstruction(rng, cfg):
    t = _Tracker()
    for i in range(8):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=bool(i % 2))
        space = gns_construct(phi)
        r = np.abs(reconstruct_phi(space).values - phi.values).max()
        t.add(r, _fail_detail(function=function_to_payload(phi)))
    return t.result("quotient-reconstruction", cfg.tol)


def _prop_quotient_representation(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        rep = space.representation()
        r = 0.0
        eye = np.eye(space.rank)
        for _ in range(5):
            g = group.elements[int(rng.integers(0, group.size))]
            h = group.elements[int(rng.integers(0, group.size))]
            og, oh = space.operator(g), space.operator(h)
            r = max(r, float(np.linalg.norm(og @ oh - space.operator(group.op(g, h)))))
            r = max(r, float(np.linalg.norm(og.conj().T @ og - eye)))
            r = max(r, float(np.linalg.norm(og - rep.apply(g))))
        t.add(r, _fail_detail(function=function_to_payload(phi)))
    return t.result("quotient-representation", cfg.tol)


def _prop_quotient_rank(rng, cfg):
    t = _Tracker()
    for _ in range(8):
        group = random_group(rng, cfg.max_group_size)
        mask = rng.random(group.size) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, group.size))] = True
        dual_vals = np.where(mask, rng.uniform(0.5, 2.0, group.size), 0.0)
        phi = inverse_fourier(DualFunction(group, dual_vals.astype(complex)))
        space = gns_construct(phi)
        t.add(abs(space.rank - int(mask.sum())),
              _fail_detail(function=function_to_payload(phi)))
    return t.result("quotient-rank-support", 0.0)


def _prop_quotient_cyclicity(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        coords = np.stack([space.class_coordinates(delta(group, g))
                           for g in group.elements])
        sing = np.linalg.svd(coords, compute_uv=False)
        numeric_rank = int(np.sum(sing > 1e-9 * max(sing[0], 1e-30)))
        t.add(abs(numeric_rank - space.rank),
              _fail_detail(function=function_to_payload(phi)))
    return t.result("quotient-cyclicity", 0.0)


def _prop_quotient_algebra_action(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        group = random_group(rng, cfg.max_group_size)
        phi = random_positive_type(rng, group, clean=True)
        space = gns_construct(phi)
        f = random_function(rng, group)
        action = gns_algebra_action(space, f)
        summed = np.zeros((space.rank, space.rank), dtype=complex)
        for i, g in enumerate(group.elements):
            summed += group.haar_weight * f.values[i] * space.operator(g)
        r = float(np.linalg.norm(action - summed))
        r = max(r, float(np.linalg.norm(
            action @ space.eta - space.class_coordinates(f))))
        t.add(r, _fail_detail(function=function_to_payload(phi),
                              f=function_to_payload(f)))
    return t.result("quotient-algebra-action", cfg.tol)


# ---------------------------------------------------------------------------
# properties: generalized eigenvectors


def _rig_setup(rng, cfg):
    group = random_group(rng, cfg.max_group_size)
    rep = random_multiplicity_free_representation(rng, group, cfg.max_dim)
    pvm = spectral_measure(rep)
    (component,) = cyclic_decomposition(pvm)
    model = diagonalize(component, pvm)
    vals = np.zeros(group.size, dtype=complex)
    for chi in model.support:
        radius = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        vals[group.character_index(chi)] = radius * np.exp(1j * phase)
    xi = DualFunction(group, vals)
    phi = phi_from_cyclic(model, xi)
    space = gns_construct(phi)
    decomp = build_decomposition(
        space, xi, rng=np.random.default_rng(int(rng.integers(0, 2 ** 32))))
    return rep, model, xi, phi, space, decomp


def _prop_eigenvector_system(rng, cfg):
    t = _Tracker()
    for _ in range(6):
        try:
            rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        except AbelianSpectraError as exc:
            t.add(ERROR_RESIDUAL, _fail_detail(error=str(exc)))
            continue
        r = decomp.identity_residual
        r = max(r, abs(len(decomp.support) - space.rank))
        for vec in decomp.eigenvectors:
            idx = space.group.character_index(vec.character)
            r = max(r, abs(vec.weight - abs(xi.values[idx])))
        t.add(r, _fail_detail(xi=function_to_payload(xi),
                              representation=representation_to_payload(rep)))
    return t.result("eigenvector-system", cfg.tol)


def _prop_operator_reconstruction(rng, cfg):
    t = _Tracker()
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        group = space.group
        r = float(np.linalg.norm(
            reconstruct_operator(decomp, space, group.identity)
            - np.eye(space.rank)))
        for g in group.elements:
            rebuilt = reconstruct_operator(decomp, space, g)
            r = max(r, float(np.linalg.norm(rebuilt - space.operator(g))))
            undone = reconstruct_operator(decomp, space, group.neg(g))
            r = max(r, float(np.linalg.norm(
                rebuilt @ undone - np.eye(space.rank))))
        t.add(r, _fail_detail(xi=function_to_payload(xi)))
    return t.result("operator-reconstruction", cfg.tol)


def _prop_eigenvalue_equation(rng, cfg):
    t = _Tracker()
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        group = space.group
        r = 0.0
        for g in group.elements:
            for chi in decomp.support:
                r = max(r, eigen_residual(decomp, space, g, chi))
                r = max(r, abs(abs(group.pairing(g, chi)) - 1.0))
        t.add(r, _fail_detail(xi=function_to_payload(xi)))
    return t.result("eigenvalue-equation", cfg.tol)


def _prop_intertwiner(rng, cfg):
    t = _Tracker()
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        result = intertwiner(space, model, xi)
        r = max(result.unitarity_residual, result.intertwining_residual)
        t.add(r, _fail_detail(xi=function_to_payload(xi)))
    return t.result("intertwiner", cfg.tol)


def _prop_functional_coordinate_agreement(rng, cfg):
    t = _Tracker()
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        group = space.group
        r = 0.0
        for _ in range(4):
            f = random_function(rng, group)
            coords_f = space.class_coordinates(f)
            for vec in decomp.eigenvectors:
                via_transform = vec.act(f)
                via_coords = complex(np.vdot(coords_f, vec.coords))
                r = max(r, abs(via_transform - via_coords))
        t.add(r, _fail_detail(xi=function_to_payload(xi)))
    return t.result("functional-coordinate-agreement", 1e-10)


def _prop_eigenvector_orthonormality(rng, cfg):
    t = _Tracker()
    for _ in range(5):
        rep, model, xi, phi, space, decomp = _rig_setup(rng, cfg)
        basis = np.stack([vec.coords for vec in decomp.eigenvectors], axis=1)
        gram = basis.conj().T @ basis
        t.add(float(np.linalg.norm(gram - np.eye(len(decomp.support)))),
              _fail_detail(xi=function_to_payload(xi)))
    return t.result("eigenvector-orthonormality", cfg.tol)


# ---------------------------------------------------------------------------
# properties: serialization


def _prop_serialization_roundtrip(rng, cfg):
    t = _Tracker()
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
        t.add(r, _fail_detail(orders=list(group.orders)))
    return t.result("serialization-roundtrip", 0.0)


PROPERTIES = (
    ("pairing-homomorphism", _prop_pairing_homomorphism),
    ("character-orthogonality", _prop_character_orthogonality),
    ("element-order", _prop_element_order),
    ("transform-roundtrip", _prop_transform_roundtrip),
    ("plancherel", _prop_plancherel),
    ("convolution-theorem", _prop_convolution_theorem),
    ("convolution-algebra", _prop_convolution_algebra),
    ("involution-transform", _prop_involution_transform),
    ("positivity-route-agreement", _prop_positivity_routes),
    ("gram-translation-invariance", _prop_gram_translation_invariance),
    ("projection-validity", _prop_projection_validity),
    ("projection-reconstruction", _prop_projection_reconstruction),
    ("projection-oracle-agreement", _prop_projection_oracle),
    ("projection-algebra-action", _prop_projection_algebra_action),
    ("component-invariance", _prop_component_invariance),
    ("diagonalization", _prop_diagonalization),
    ("ket-completeness", _prop_ket_completeness),
    ("functional-calculus-group-law", _prop_functional_calculus),
    ("quotient-reconstruction", _prop_quotient_reconstruction),
    ("quotient-representation", _prop_quotient_representation),
    ("quotient-rank-support", _prop_quotient_rank),
    ("quotient-cyclicity", _prop_quotient_cyclicity),
    ("quotient-algebra-action", _prop_quotient_algebra_action),
    ("eigenvector-system", _prop_eigenvector_system),
    ("operator-reconstruction", _prop_operator_reconstruction),
    ("eigenvalue-equation", _prop_eigenvalue_equation),
    ("intertwiner", _prop_intertwiner),
    ("functional-coordinate-agreement", _prop_functional_coordinate_agreement),
    ("eigenvector-orthonormality", _prop_eigenvector_orthonormality),
    ("serialization-roundtrip", _prop_serialization_roundtrip),
)


def run_property(name: str, cfg: SelftestConfig,
                 index: int | None = None) -> PropertyResult:
    """Run a single named property with its own deterministic stream."""
    lookup = dict(PROPERTIES)
    if name not in lookup:
        raise KeyError(f"unknown property {name!r}")
    if index is None:
        index = [n for n, _ in PROPERTIES].index(name)
    rng = np.random.default_rng([cfg.seed, index])
    try:
        return lookup[name](rng, cfg)
    except AbelianSpectraError as exc:
        return PropertyResult(name=name, passed=False, max_residual=ERROR_RESIDUAL,
                              tolerance=0.0, cases=0, detail=str(exc))


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
