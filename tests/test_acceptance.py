"""Acceptance gate: ten stress checks over the whole stack.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s``)
and then asserts, so the suite both reports and enforces the thresholds.
"""

import json
import time

import numpy as np

from abelian_spectra import (
    DualFunction,
    build_decomposition,
    cli,
    convolve,
    cyclic_decomposition,
    diagonalization_residual,
    diagonalize,
    dirac_kets,
    eigen_residual,
    fourier,
    functional_calculus,
    gns_construct,
    intertwiner,
    inverse_fourier,
    is_positive_type,
    make_group,
    phi_from_cyclic,
    reconstruct_operator,
    reconstruct_phi,
    reconstruction_residual,
    spectral_measure,
)
from abelian_spectra.oracle import joint_eigenprojections
from abelian_spectra.selftest import (
    SelftestConfig,
    random_multiplicity_free_representation,
    random_orders,
    random_positive_type,
    random_representation,
    run_selftest,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_1_fourier_engine():
    """Plancherel < 1e-12 relative, convolution theorem < 1e-10, under 10 s."""
    from abelian_spectra import GroupFunction
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_plancherel = 0.0
    worst_convolution = 0.0
    for orders in [(2,), (6,), (2, 4), (256,)]:
        G = make_group(orders)
        for _ in range(100):
            f = GroupFunction(G, rng.standard_normal(G.size)
                              + 1j * rng.standard_normal(G.size))
            h = GroupFunction(G, rng.standard_normal(G.size)
                              + 1j * rng.standard_normal(G.size))
            F = fourier(f)
            lhs = float(np.sum(np.abs(f.values) ** 2)) * G.haar_weight
            rhs = float(np.sum(np.abs(F.values) ** 2)) / (G.haar_weight * G.size)
            worst_plancherel = max(worst_plancherel, abs(lhs - rhs) / abs(lhs))
            conv_err = float(np.max(np.abs(
                fourier(convolve(f, h)).values - F.values * fourier(h).values)))
            worst_convolution = max(worst_convolution, conv_err)
    elapsed = time.perf_counter() - start
    ok = worst_plancherel < 1e-12 and worst_convolution < 1e-10 and elapsed < 10.0
    _report(1, "fourier engine", ok,
            f"plancherel {worst_plancherel:.2e}, convolution {worst_convolution:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_2_positivity_cross_check():
    """The PSD-form route and the transform route never disagree."""
    from abelian_spectra import Group, GroupFunction
    rng = np.random.default_rng(202)
    disagreements = 0
    false_negatives = 0
    checked = 0
    for _ in range(100):  # constructed positive-type
        G = Group(random_orders(rng, 32))
        phi = random_positive_type(rng, G, clean=bool(rng.integers(0, 2)))
        report = is_positive_type(phi)  # raises InconsistencyError on a route split
        checked += 1
        if not report.verdict:
            false_negatives += 1
    for _ in range(100):  # arbitrary functions
        G = Group(random_orders(rng, 32))
        f = GroupFunction(G, rng.standard_normal(G.size)
                          + 1j * rng.standard_normal(G.size))
        is_positive_type(f)
        checked += 1
    ok = disagreements == 0 and false_negatives == 0 and checked == 200
    _report(2, "positive-type route agreement", ok,
            f"{checked} functions, {false_negatives} false negatives")


def test_criterion_3_projection_valued_measure():
    """Reconstruction, measure axioms, unit-modulus spectra, oracle match."""
    from abelian_spectra import Group
    rng = np.random.default_rng(303)
    worst_recon = 0.0
    worst_axiom = 0.0
    worst_root = 0.0
    worst_oracle = 0.0
    for _ in range(50):
        G = Group(random_orders(rng, 16))
        rep = random_representation(rng, G, max_dim=8)
        pvm = spectral_measure(rep)
        worst_recon = max(worst_recon, reconstruction_residual(pvm))
        worst_axiom = max(worst_axiom, max(pvm.residuals.values()))
        for i, g in enumerate(G.elements):
            n = G.element_order(g)
            roots = np.exp(2j * np.pi * np.arange(n) / n)
            for lam in np.linalg.eigvals(rep.operators[i]):
                worst_root = max(worst_root, float(np.min(np.abs(roots - lam))))
        oracle = joint_eigenprojections(rep)
        assert set(oracle) == set(pvm.support)
        for chi, proj in oracle.items():
            gap = float(np.linalg.norm(pvm.projection(chi) - proj, 2))
            worst_oracle = max(worst_oracle, gap)
    ok = (worst_recon < 1e-9 and worst_axiom < 1e-9
          and worst_root < 1e-9 and worst_oracle < 1e-7)
    _report(3, "projection-valued measure", ok,
            f"reconstruction {worst_recon:.2e}, axioms {worst_axiom:.2e}, "
            f"roots {worst_root:.2e}, oracle {worst_oracle:.2e}")


def test_criterion_4_ket_completeness():
    """Ket expansion of <phi, P(E) psi> matches the projection directly."""
    from abelian_spectra import Group
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        G = Group(random_orders(rng, 16))
        rep = random_representation(rng, G, max_dim=8)
        pvm = spectral_measure(rep)
        system = dirac_kets(pvm)
        phi = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        psi = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        subset = [chi for chi in pvm.support if rng.random() < 0.5]
        direct = sum((pvm.projection(chi) for chi in subset),
                     np.zeros((rep.dim, rep.dim), dtype=complex))
        lhs = system.completeness_sum(phi, psi, subset)
        rhs = complex(np.vdot(phi, direct @ psi))
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-9
    _report(4, "ket completeness", ok, f"max gap {worst:.2e}")


def test_criterion_5_diagonalization():
    """V^dagger pi(g) V is diagonal with pairing entries on every component."""
    from abelian_spectra import Group
    rng = np.random.default_rng(505)
    worst_total = 0.0
    worst_offdiag = 0.0
    components = 0
    for _ in range(25):
        G = Group(random_orders(rng, 16))
        rep = random_representation(rng, G, max_dim=8)
        pvm = spectral_measure(rep)
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp)
            worst_total = max(worst_total, diagonalization_residual(model, rep))
            V = model.isometry
            for op in rep.operators:
                D = V.conj().T @ op @ V
                off = D - np.diag(np.diagonal(D))
                worst_offdiag = max(worst_offdiag, float(np.linalg.norm(off)))
            components += 1
    ok = worst_total < 1e-9 and worst_offdiag < 1e-9
    _report(5, "component diagonalization", ok,
            f"{components} components, residual {worst_total:.2e}, "
            f"off-diagonal {worst_offdiag:.2e}")


def test_criterion_6_quotient_construction():
    """Reconstruction, unitarity, homomorphism, and exact rank bookkeeping."""
    from abelian_spectra import Group
    rng = np.random.default_rng(606)
    worst_recon = 0.0
    worst_unitary = 0.0
    worst_hom = 0.0
    rank_mismatches = 0
    for _ in range(100):
        G = Group(random_orders(rng, 16))
        mask = rng.random(G.size) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, G.size))] = True
        spectrum = np.where(mask, rng.uniform(0.5, 2.0, G.size), 0.0)
        phi = inverse_fourier(DualFunction(G, spectrum.astype(complex)))
        space = gns_construct(phi)
        if space.rank != int(mask.sum()):
            rank_mismatches += 1
        worst_recon = max(worst_recon, float(np.max(np.abs(
            reconstruct_phi(space).values - phi.values))))
        eye = np.eye(space.rank)
        ops = {g: space.operator(g) for g in G.elements}
        for U in ops.values():
            worst_unitary = max(worst_unitary,
                                float(np.linalg.norm(U.conj().T @ U - eye)))
        for _ in range(3):
            a = G.elements[int(rng.integers(0, G.size))]
            b = G.elements[int(rng.integers(0, G.size))]
            worst_hom = max(worst_hom, float(np.linalg.norm(
                ops[a] @ ops[b] - ops[G.op(a, b)])))
    ok = (rank_mismatches == 0 and worst_recon < 1e-9
          and worst_unitary < 1e-9 and worst_hom < 1e-9)
    _report(6, "quotient construction", ok,
            f"reconstruction {worst_recon:.2e}, unitarity {worst_unitary:.2e}, "
            f"homomorphism {worst_hom:.2e}, {rank_mismatches} rank mismatches")


def test_criterion_7_eigenvector_systems():
    """Inner-product identity, operator reconstruction, eigen equations,
    and the intertwiner, across multiplicity-free pipelines."""
    from abelian_spectra import Group
    rng = np.random.default_rng(707)
    worst = {"identity": 0.0, "reconstruction": 0.0,
             "eigen": 0.0, "unitarity": 0.0, "intertwining": 0.0}
    for index in range(50):
        G = Group(random_orders(rng, 16))
        rep = random_multiplicity_free_representation(rng, G, max_dim=8)
        pvm = spectral_measure(rep)
        comps = cyclic_decomposition(pvm)
        assert len(comps) == 1
        model = diagonalize(comps[0])
        vals = np.zeros(G.size, dtype=complex)
        for chi in model.support:
            j = G.character_index(chi)
            vals[j] = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        xi = DualFunction(G, vals)
        space = gns_construct(phi_from_cyclic(model, xi))
        decomp = build_decomposition(space, xi,
                                     rng=np.random.default_rng([707, index]))
        worst["identity"] = max(worst["identity"], decomp.identity_residual)
        for g in G.elements:
            gap = float(np.linalg.norm(
                reconstruct_operator(decomp, space, g) - space.operator(g)))
            worst["reconstruction"] = max(worst["reconstruction"], gap)
            for chi in decomp.support:
                worst["eigen"] = max(worst["eigen"],
                                     eigen_residual(decomp, space, g, chi))
        result = intertwiner(decomp, model)
        worst["unitarity"] = max(worst["unitarity"], result.unitarity_residual)
        worst["intertwining"] = max(worst["intertwining"],
                                    result.intertwining_residual)
    ok = all(v < 1e-9 for v in worst.values())
    _report(7, "generalized eigenvector systems", ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_8_functional_calculus():
    """exp(it a) satisfies the one-parameter group law; constant 1 gives I."""
    from abelian_spectra import Group
    rng = np.random.default_rng(808)
    worst_law = 0.0
    worst_unit = 0.0
    for _ in range(50):
        G = Group(random_orders(rng, 16))
        rep = random_representation(rng, G, max_dim=8)
        pvm = spectral_measure(rep)
        labels = tuple(float(x) for x in rng.standard_normal(len(pvm.support)))
        t1, t2 = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
        U = lambda t: functional_calculus(pvm, labels, lambda a: np.exp(1j * t * a))
        worst_law = max(worst_law, float(np.linalg.norm(U(t1) @ U(t2) - U(t1 + t2))))
        unit = functional_calculus(pvm, labels, lambda a: 1.0)
        worst_unit = max(worst_unit, float(np.linalg.norm(unit - np.eye(rep.dim))))
    ok = worst_law < 1e-10 and worst_unit < 1e-12
    _report(8, "functional calculus", ok,
            f"group law {worst_law:.2e}, unit {worst_unit:.2e}")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    """The self-test report is byte-identical across same-seed runs."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli.main(["selftest", "--output", str(a)])
    code_b = cli.main(["selftest", "--output", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    with capsys.disabled():
        _report(9, "deterministic reports", ok,
                f"{len(a.read_bytes())} bytes, identical={identical}")


def test_criterion_10_selftest_runtime():
    """The full default self-test finishes within its time budget."""
    start = time.perf_counter()
    results, report = run_selftest(SelftestConfig())
    elapsed = time.perf_counter() - start
    ok = report["passed"] and all(r.passed for r in results) and elapsed < 60.0
    _report(10, "selftest runtime", ok,
            f"{sum(r.passed for r in results)}/{len(results)} properties, "
            f"{elapsed:.2f} s")
