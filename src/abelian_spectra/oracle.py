"""Dense and all-G reference routes, against which the production routes are checked.

No ``fourier``, ``gns``, ``decompose`` or ``rig`` request calls them; the self-test, the
acceptance criteria and the tests do.  A leaf: it reads its arguments through their
attributes and imports nothing from the package, so it stays independent of what it checks.
"""

from __future__ import annotations

import numpy as np


def hermitian_form(phi) -> np.ndarray:
    """Matrix M of the sesquilinear form attached to phi.

    M[g', g] = phi(g - g'), arranged so that <h|f>_phi = sum conj(h) M f
    and so that the quotient construction returns phi itself as the
    diagonal matrix coefficient of its cyclic vector.  Dense: O(|G|^2).
    """
    group = phi.group
    # difference_indices gives index(g_i - g_j); the form needs g_j - g_i, i.e. phi(-.)
    flipped = (group.haar_weight ** 2) * phi.values[group.neg_indices()]
    return flipped[group.difference_indices()]


def generator_powers(U: np.ndarray, n: int) -> np.ndarray:
    """U^0, ..., U^{n-1} by doubling: the block [m, 2m) is the block [0, m)
    times U^m, ceil(log2 n) batched products instead of n - 1 chained ones."""
    d = U.shape[0]
    out = np.empty((n, d, d), dtype=complex)
    out[0] = np.eye(d)
    step, filled = U, 1  # step = U^filled
    while filled < n:
        m = min(filled, n - filled)
        np.matmul(out[:m], step, out=out[filled:filled + m])
        filled += m
        if filled < n:
            step = step @ step
    return out


def operator_stack(rep) -> np.ndarray:
    """All |G| operators of ``rep`` in element enumeration order (``UnitaryRep.operators``)."""
    d = rep.dim
    stack = np.eye(d, dtype=complex)[None]
    for U, n in zip(rep.generators, rep.group.orders):
        stack = (stack[:, None] @ generator_powers(U, n)[None]).reshape(-1, d, d)
    return stack


def operator_at(rep, g) -> np.ndarray:
    """pi(g) as the product of generator powers prod_j U_j^{g_j}."""
    rep.group._check_coords(g.coords, "element")
    out = np.eye(rep.dim, dtype=complex)
    for U, power in zip(rep.generators, g.coords):
        if power:
            out = out @ np.linalg.matrix_power(U, power)
    return out


def reconstruction_residual(pvm) -> float:
    """max_g || pi(g) - sum_chi <g|chi> P(chi) ||, over the operator stack: an
    oracle, which ``relation_certificate`` bounds from the binary powers."""
    group = pvm.group
    gap = pvm.combine(group.pairing_at(np.arange(group.size), pvm.indices))
    gap -= pvm.rep.operators
    return float(np.max(np.linalg.norm(gap, axis=(1, 2))))


def diagonalization_residual(model, rep) -> float:
    """max_g || V^dagger pi(g) V - diag(<g|chi>) ||, an oracle over the stack."""
    V = model.isometry
    D = V.conj().T @ rep.operators @ V
    diag = np.arange(V.shape[1])
    D[:, diag, diag] -= model.symbols(np.arange(model.group.size))
    return float(np.max(np.linalg.norm(D, axis=(1, 2))))


def invariance_residual(component, rep) -> float:
    """max_g || (I - V V^dagger) pi(g) V V^dagger ||, an oracle over the stack:
    zero when pi(G) leaves the component's range invariant."""
    proj = component.isometry @ component.isometry.conj().T
    leak = (np.eye(rep.dim) - proj) @ rep.operators @ proj
    return float(np.max(np.linalg.norm(leak, axis=(1, 2))))


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


def joint_eigenprojections(rep) -> dict:
    """Spectral projections obtained by recursive eigendecomposition.

    Splits the space by the Hermitian and anti-Hermitian parts of each
    generator in turn (they commute, so every refinement stays invariant),
    then labels each joint eigenspace by reading off the generator
    eigenvalue angles.  Entirely independent of ``spectral_measure``'s
    labelled refinement, hence usable as an oracle for it.
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
