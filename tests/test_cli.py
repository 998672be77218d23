"""Command-line interface: reports, exit codes, routing, determinism."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abelian_spectra import (
    DualFunction,
    GroupFunction,
    InconsistencyError,
    build_decomposition,
    cyclic_decomposition,
    diagonalize,
    delta,
    gns_construct,
    make_group,
    make_representation,
    phi_from_cyclic,
    regular_representation,
    spectral_measure,
)
from abelian_spectra import cli, gns, rigging
from abelian_spectra.fileio import (
    dump_json,
    function_to_payload,
    representation_to_payload,
)


def write_function(path, orders, values, domain="group"):
    group = make_group(orders)
    cls = DualFunction if domain == "dual" else GroupFunction
    dump_json(function_to_payload(cls(group, np.asarray(values, dtype=complex))), path)
    return path


def write_representation(path, rep):
    dump_json(representation_to_payload(rep), path)
    return path


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_report(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def as_complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_fourier_of_point_mass(tmp_path, capsys):
    src = write_function(tmp_path / "f.json", (4,), [1, 0, 0, 0])
    code, payload, err = stdout_report(capsys, ["fourier", "--input", str(src)])
    assert code == 0
    assert payload["domain"] == "dual"
    np.testing.assert_allclose(as_complex(payload["values"]), np.ones(4), atol=1e-15)
    assert "fourier forward" in err


def test_fourier_round_trip_through_files(tmp_path, capsys, rng):
    values = rng.normal(size=6) + 1j * rng.normal(size=6)
    src = write_function(tmp_path / "f.json", (6,), values)
    mid = tmp_path / "transformed.json"
    code, out, _ = run_cli(capsys, ["fourier", "--input", str(src), "--output", str(mid)])
    assert code == 0
    code, payload, _ = stdout_report(
        capsys, ["fourier", "--input", str(mid), "--direction", "inverse"])
    assert code == 0
    assert payload["domain"] == "group"
    assert np.max(np.abs(as_complex(payload["values"]) - values)) < 1e-12


def test_fourier_rejects_wrong_domain(tmp_path, capsys):
    src = write_function(tmp_path / "f.json", (2,), [1, 0], domain="dual")
    code, out, err = run_cli(capsys, ["fourier", "--input", str(src)])
    assert code == 2
    assert "domain" in err
    # and the symmetric case
    src = write_function(tmp_path / "g.json", (2,), [1, 0])
    code, _, err = run_cli(
        capsys, ["fourier", "--input", str(src), "--direction", "inverse"])
    assert code == 2


def test_fourier_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, ["fourier", "--input", str(bad)])
    assert code == 2
    assert "error:" in err

    missing = tmp_path / "absent.json"
    code, _, err = run_cli(capsys, ["fourier", "--input", str(missing)])
    assert code == 2

    short = tmp_path / "short.json"
    short.write_text(json.dumps({
        "group": {"orders": [4]}, "domain": "group", "values": [[1.0, 0.0]]}))
    code, _, err = run_cli(capsys, ["fourier", "--input", str(short)])
    assert code == 2
    assert "expected 4" in err


def test_output_routing(tmp_path, capsys):
    src = write_function(tmp_path / "f.json", (2,), [1, 0])
    dst = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, ["fourier", "--input", str(src), "--output", str(dst)])
    assert code == 0
    # report goes to the file, the summary to stdout, stderr stays quiet
    assert json.loads(dst.read_text())["domain"] == "dual"
    assert "fourier" in out
    assert err == ""


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_regular_z2(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((2,))))
    code, report, err = stdout_report(capsys, ["decompose", "--input", str(src)])
    assert code == 0
    assert report["passed"] is True
    assert report["results"]["support"] == [[0], [1]]
    assert report["results"]["multiplicities"] == [1, 1]
    assert len(report["results"]["components"]) == 1
    assert len(report["results"]["kets"]) == 2
    assert max(report["residuals"].values()) < 1e-9
    assert "passed: True" in err


def test_decompose_trivial_representation(tmp_path, capsys):
    from abelian_spectra import trivial_representation
    src = write_representation(tmp_path / "rep.json",
                               trivial_representation(make_group((4,)), dim=3))
    code, report, _ = stdout_report(capsys, ["decompose", "--input", str(src)])
    assert code == 0
    assert report["results"]["multiplicities"] == [3, 0, 0, 0]
    assert len(report["results"]["components"]) == 3
    for comp in report["results"]["components"]:
        assert comp["support"] == [[0]]


def test_decompose_rejects_non_unitary_generators(tmp_path, capsys):
    src = tmp_path / "rep.json"
    src.write_text(json.dumps({
        "group": {"orders": [2]},
        "dim": 2,
        "generators": [[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]],
    }))
    code, _, err = run_cli(capsys, ["decompose", "--input", str(src)])
    assert code == 3
    assert "generator 0 not unitary (residual 1.732e+00)" in err


def test_decompose_exit_4_when_tolerance_is_unreachable(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((6,))))
    code, report, err = stdout_report(
        capsys, ["decompose", "--input", str(src), "--tol", "1e-30"])
    assert code == 4
    assert report["passed"] is False
    assert "passed: False" in err


def test_decompose_respects_the_group_size_flag(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((6,))))
    code, _, err = run_cli(
        capsys, ["decompose", "--input", str(src), "--max-group-size", "4"])
    assert code == 2
    assert "size cap" in err


# ---------------------------------------------------------------------------
# gns
# ---------------------------------------------------------------------------

def test_gns_of_constant_function(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2,), [1, 1])
    code, report, err = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0
    assert report["results"]["rank"] == 1
    assert report["results"]["positivity"]["verdict"] is True
    assert report["residuals"]["reconstruction"] < 1e-12
    assert "rank: 1 (group size 2)" in err


def test_gns_of_point_mass(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (4,), [1, 0, 0, 0])
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0
    assert report["results"]["rank"] == 4
    np.testing.assert_allclose(report["results"]["gram_eigenvalues"], np.ones(4))
    assert report["residuals"]["reconstruction"] == 0.0


def test_gns_of_the_zero_function_has_rank_zero(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2, 3), [0] * 6)
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0
    results = report["results"]
    assert results["rank"] == 0
    assert results["gram_eigenvalues"] == [0.0] * 6
    assert results["support"] == []  # no support character, so empty diagonals
    assert report["passed"] is True


def test_gns_rejects_non_positive_functions(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2,), [1, 2])
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 5
    assert "min transform -1.000000e+00" in err


@pytest.mark.parametrize("scale", [1e-12, 1e-6])
def test_gns_rejects_a_small_function_that_is_not_of_positive_type(tmp_path, capsys, scale):
    # c * delta at the generator of Z_8 has transform c * exp(-2 pi i k / 8),
    # whose real parts are negative at every scale c > 0
    src = write_function(tmp_path / "phi.json", (8,), scale * np.eye(8)[1])
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 5
    assert "not of positive type" in err


def test_gns_summary_names_its_failed_residual(tmp_path, capsys):
    # a random positive-type function reconstructs to round-off, above --tol 0
    from abelian_spectra.selftest import random_positive_type
    phi = random_positive_type(np.random.default_rng(2), make_group((12,)))
    src = write_function(tmp_path / "phi.json", (12,), phi.values)
    code, report, err = stdout_report(capsys, ["gns", "--input", str(src), "--tol", "0"])
    assert code == 4
    recon = report["residuals"]["reconstruction"]
    assert recon > 0
    assert err.splitlines()[-2:] == ["passed: False", f"failed: reconstruction {recon:.3e}"]


def test_gns_requires_group_domain(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2,), [1, 0], domain="dual")
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 2
    assert "domain" in err


# ---------------------------------------------------------------------------
# rig
# ---------------------------------------------------------------------------

def test_rig_regular_z6(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((6,))))
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src)])
    assert code == 0
    assert report["passed"] is True
    comps = report["results"]["components"]
    assert len(comps) == 1
    assert comps[0]["weights"] == [1.0] * 6
    assert len(comps[0]["support"]) == 6
    # the diagonal of the generator, exp(2 pi i chi / 6), holds the sixth roots of unity
    assert comps[0]["support"] == [[c] for c in range(6)]
    assert max(report["residuals"].values()) < 1e-9
    assert "component 0: 6 eigenvectors" in err


def test_rig_with_amplitude_file(tmp_path, capsys):
    G = make_group((2,))
    src = write_representation(tmp_path / "rep.json", regular_representation(G))
    xi = write_function(tmp_path / "xi.json", (2,), [3, 4], domain="dual")
    code, report, _ = stdout_report(
        capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0
    assert report["inputs"]["xi"] == "file"
    assert report["results"]["components"][0]["weights"] == [3.0, 4.0]


def test_rig_reports_each_weight_as_the_modulus_of_its_amplitude(tmp_path, capsys):
    # on complex phases np.abs is an ulp off abs(complex) for about a third
    # of the values; the report carries abs(complex)
    G = make_group((256,))
    src = planted_rep_file(tmp_path, G.orders, 32)
    rng = np.random.default_rng(4)
    amps = rng.uniform(0.5, 2.0, G.size) * np.exp(2j * np.pi * rng.random(G.size))
    xi = write_function(tmp_path / "xi.json", G.orders, amps, domain="dual")
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0, err
    (comp,) = report["results"]["components"]
    picked = amps[[G.character_index(G.character(c)) for c in comp["support"]]]
    assert comp["weights"] == [abs(complex(x)) for x in picked]
    assert (np.abs(picked) != comp["weights"]).any()


def test_rig_identity_check_is_relative_to_the_form_norms(tmp_path, capsys):
    # |xi| = 30 on (64,) puts both sides of <f|h>_phi near 1e6, so their
    # absolute gap is about 1e-10; relative to the Cauchy-Schwarz bound it
    # is round-off and passes a 1e-12 tolerance
    chars = np.arange(4) * 16
    rep = make_representation(make_group((64,)), [np.diag(np.exp(2j * np.pi * chars / 64))])
    src = write_representation(tmp_path / "rep.json", rep)
    xi = write_function(tmp_path / "xi.json", (64,), [30.0] * 64, domain="dual")
    code, report, _ = stdout_report(
        capsys, ["rig", "--input", str(src), "--xi", str(xi), "--tol", "1e-12"])
    assert code == 0
    assert report["residuals"]["identity"] < 1e-14


def planted_rep_file(tmp_path, orders, dim, mult=1):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from workloads import planted_representation
    generators, _ = planted_representation(np.random.default_rng(3), orders, dim, mult)
    return write_representation(tmp_path / "rep.json",
                                make_representation(make_group(orders), generators))


@pytest.mark.parametrize("scale", [1e-13, 1e-6])
def test_rig_takes_a_small_flat_amplitude_as_cyclic(tmp_path, capsys, scale):
    # the weight floor is relative to max |xi|, so a flat xi never vanishes
    src = planted_rep_file(tmp_path, (16,), 4)
    xi = write_function(tmp_path / "xi.json", (16,), [scale] * 16, domain="dual")
    code, out, err = run_cli(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_rig_identity_check_on_a_small_amplitude_catches_a_corruption(tmp_path, capsys,
                                                                       monkeypatch):
    # with |xi| = 1e-13 both sides of <f|h>_phi are near 1e-24: an absolute
    # comparison would absorb a 1e-6 relative corruption of the functionals
    src = planted_rep_file(tmp_path, (16,), 4)
    xi = write_function(tmp_path / "xi.json", (16,), [1e-13] * 16, domain="dual")
    values = rigging._functional_values
    monkeypatch.setattr(rigging, "_functional_values",
                        lambda *args: values(*args) * (1 + 1e-6))
    code, _, err = run_cli(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 4
    assert "inner-product identity residual" in err


def test_rig_positivity_bound_is_relative_to_the_transform(tmp_path, capsys):
    # a flat |xi| = 100 scales the transform of each component's phi by 1e4,
    # and its round-off (a min transform near -2.5e-10) with it
    src = planted_rep_file(tmp_path, (64,), 8)
    xi = write_function(tmp_path / "xi.json", (64,), [100.0] * 64, domain="dual")
    code, out, err = run_cli(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_rig_amplitude_must_be_dual_and_on_the_same_group(tmp_path, capsys):
    G = make_group((2,))
    src = write_representation(tmp_path / "rep.json", regular_representation(G))
    bad_domain = write_function(tmp_path / "xi1.json", (2,), [1, 1], domain="group")
    code, _, err = run_cli(
        capsys, ["rig", "--input", str(src), "--xi", str(bad_domain)])
    assert code == 2
    assert "dual" in err

    wrong_group = write_function(tmp_path / "xi2.json", (3,), [1, 1, 1], domain="dual")
    code, _, err = run_cli(
        capsys, ["rig", "--input", str(src), "--xi", str(wrong_group)])
    assert code == 2
    assert "different groups" in err


def test_rig_handles_multiplicity(tmp_path, capsys):
    from abelian_spectra import trivial_representation
    src = write_representation(tmp_path / "rep.json",
                               trivial_representation(make_group((2,)), dim=2))
    code, report, _ = stdout_report(capsys, ["rig", "--input", str(src)])
    assert code == 0
    comps = report["results"]["components"]
    assert len(comps) == 2
    for comp in comps:
        assert comp["support"] == [[0]]
        assert comp["weights"] == [1.0]


def layered_rep_file(tmp_path, mults):
    """A representation of Z_8 with multiplicity mults[s] at character 2s + 1,
    conjugated by a random unitary: its layer i holds the characters of
    multiplicity >= i."""
    G = make_group((8,))
    chars = np.repeat(2 * np.arange(len(mults)) + 1, mults)
    rng = np.random.default_rng(6)
    V, _ = np.linalg.qr(rng.normal(size=(len(chars),) * 2)
                        + 1j * rng.normal(size=(len(chars),) * 2))
    diagonal = G.pairing_at(G.generator_indices, chars)[0]
    return write_representation(tmp_path / "rep.json",
                                make_representation(G, [V @ np.diag(diagonal) @ V.conj().T]))


def per_layer_entries(src, seed=0):
    """rig's component entries as built with every layer's own quotient,
    eigenvector system and intertwiner, from default_rng([seed, index])."""
    from abelian_spectra.fileio import load_json, representation_from_payload
    rep = representation_from_payload(load_json(src))
    G, pvm = rep.group, spectral_measure(rep)
    entries = []
    for index, comp in enumerate(cyclic_decomposition(pvm)):
        model = diagonalize(comp)
        vals = np.zeros(G.size, dtype=complex)
        vals[model.columns] = 1.0
        xi = DualFunction(G, vals)
        space = gns_construct(phi_from_cyclic(model, xi))
        decomp = build_decomposition(space, xi, tol=cli.DEFAULT_TOL,
                                     rng=np.random.default_rng([seed, index]))
        itw = rigging.intertwiner(decomp, model)
        entries.append({
            "support": G.coords_at(decomp.columns).tolist(),
            "weights": decomp.weights.tolist(),
            "residuals": {
                "identity": decomp.identity_residual,
                "reconstruction": decomp.reconstruction_residual,
                "eigen_equation": decomp.eigen_equation_residual,
                "intertwiner_unitarity": itw.unitarity_residual,
                "intertwiner": itw.intertwining_residual,
            },
        })
    return json.loads(dump_json(entries))


@pytest.mark.parametrize("layers", ["planted", "mixed"])
def test_rig_builds_each_distinct_layer_once(tmp_path, capsys, monkeypatch, layers):
    # four layers on one support build one rigging; three distinct supports
    # (multiplicities 1, 2, 3) build three; every layer is still diagonalized
    src = (planted_rep_file(tmp_path, (4, 4, 4, 4), 32, mult=4) if layers == "planted"
           else layered_rep_file(tmp_path, [1, 2, 3]))
    calls = {name: 0 for name in ("diagonalize", "quotient_from_cyclic", "gns_construct",
                                  "build_decomposition", "intertwiner")}
    for name in calls:
        def spy(*args, _name=name, _call=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    # each quotient is read off its model: no transform of phi, no construction-check draw
    calls["fourier"] = calls["draws"] = 0
    fourier, default_rng = gns.fourier, np.random.default_rng
    monkeypatch.setattr(gns, "fourier", lambda f: calls.update(fourier=calls["fourier"] + 1)
                        or fourier(f))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.update(
        draws=calls["draws"] + (args == (0,))) or default_rng(*args))
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src)])
    assert code == 0, err
    sizes = [len(comp["support"]) for comp in report["results"]["components"]]
    assert sizes == ([8] * 4 if layers == "planted" else [3, 2, 1])
    built = 1 if layers == "planted" else 3
    assert calls == {"diagonalize": len(sizes), "quotient_from_cyclic": built,
                     "gns_construct": 0, "build_decomposition": built, "intertwiner": built,
                     "fourier": 0, "draws": 0}


@pytest.mark.parametrize("layers", ["planted", "mixed"])
def test_rig_entries_match_a_rigging_built_per_layer(tmp_path, capsys, layers):
    # the first layer of each support reports what its own rigging gives, to
    # the last bit; a later layer on that support repeats that entry
    src = (planted_rep_file(tmp_path, (4, 4, 4, 4), 32, mult=4) if layers == "planted"
           else layered_rep_file(tmp_path, [1, 3, 3]))
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src), "--seed", "5"])
    assert code == 0, err
    entries, reference = report["results"]["components"], per_layer_entries(src, seed=5)
    assert len(entries) == len(reference) == (4 if layers == "planted" else 3)
    first = 0
    for index, (entry, own) in enumerate(zip(entries, reference)):
        if entry["support"] != entries[first]["support"]:
            first = index
        assert entry == (own if index == first else entries[first])
        assert {k: v for k, v in entry.items() if k != "residuals"} == \
            {k: v for k, v in own.items() if k != "residuals"}
    assert first == (0 if layers == "planted" else 1)
    assert report["residuals"]["identity"] <= max(
        own["residuals"]["identity"] for own in reference)


def test_rig_looks_up_no_character_one_at_a_time(tmp_path, capsys, monkeypatch):
    # every component's support travels as one index array
    from abelian_spectra import Group
    src = planted_rep_file(tmp_path, (4, 4, 4, 4), 32, mult=4)
    calls = []
    character_index = Group.character_index
    monkeypatch.setattr(Group, "character_index",
                        lambda self, chi: calls.append(chi) or character_index(self, chi))
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src)])
    assert code == 0, err
    assert [len(comp["support"]) for comp in report["results"]["components"]] == [8] * 4
    assert calls == []


@pytest.mark.parametrize("command, built", [("rig", 0), ("decompose", 1)])
def test_layers_build_no_characters(tmp_path, capsys, monkeypatch, command, built):
    # the layers travel as index arrays; decompose builds the support's
    # characters once, to label its kets
    from abelian_spectra import Group
    src = planted_rep_file(tmp_path, (16, 16), 32, mult=4)
    calls = []
    characters_at = Group.characters_at
    monkeypatch.setattr(Group, "characters_at",
                        lambda self, idx: calls.append(idx) or characters_at(self, idx))
    code, report, err = stdout_report(capsys, [command, "--input", str(src)])
    assert code == 0, err
    assert len(report["results"]["components"]) == 4
    assert len(calls) == built


def test_rig_exits_5_naming_the_character_where_xi_vanishes(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    xi = write_function(tmp_path / "xi.json", (4,), [1, 1, 0, 1], domain="dual")
    code, out, err = run_cli(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert (code, out) == (5, "")
    assert err == "error: cyclic amplitude vanishes at support character (2,) (|xi| = 0.000e+00)\n"


@pytest.mark.parametrize("small", [1e-3, 3.2e-5, 3.1e-5, 1e-5, 1e-6, 1e-9, 1e-11, 1e-13])
def test_rig_on_a_cyclic_amplitude_of_wide_range_never_calls_it_a_bug(tmp_path, capsys, small):
    # |xi| = [1, small] on Z_2: xi vanishes at a character exactly where the
    # quotient drops it (|xi|^2 <= RANK_TOL max |xi|^2), so the eigenvector
    # count equals the rank and no valid amplitude is reported as a bug (exit 4)
    src = write_representation(tmp_path / "rep.json",
                               make_representation(make_group((2,)), [np.diag([1.0, -1.0])]))
    xi = write_function(tmp_path / "xi.json", (2,), [1.0, small], domain="dual")
    code, _, err = run_cli(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == (0 if small ** 2 > 1e-9 else 5), err
    assert "Traceback" not in err


def test_rig_report_is_byte_deterministic(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((2, 4))))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["rig", "--input", str(src), "--output", str(a)]) == 0
    assert cli.main(["rig", "--input", str(src), "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["gns", "decompose"])
def test_gns_and_decompose_only_echo_the_seed(tmp_path, capsys, command):
    # gns's construction check draws from a fixed generator and decompose
    # draws nothing, so --seed changes only its own key
    spectrum = np.array([[0.5, 1.3], [0.0, 2.0], [0.0, 0.0], [0.7, 0.0]])
    src = (write_function(tmp_path / "phi.json", (4, 2), np.fft.ifftn(spectrum).ravel())
           if command == "gns" else planted_rep_file(tmp_path, (4, 2), 4, 2))
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}.json"
        assert cli.main([command, "--input", str(src), "--seed", seed, "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert [report.pop("seed") for report in reports] == [0, 7]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes_at_default_settings(capsys):
    code, report, err = stdout_report(capsys, ["selftest"])
    assert code == 0
    assert report["passed"] is True
    assert len(report["properties"]) == 30
    assert all(p["passed"] for p in report["properties"])
    assert "30/30 properties passed" in err
    assert err.count("[ ok ]") == 30


def test_selftest_survives_the_trivial_group(capsys):
    code, report, _ = stdout_report(capsys, ["selftest", "--max-group-size", "1"])
    assert code == 0
    assert report["passed"] is True


def test_selftest_report_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["selftest", "--output", str(a)]) == 0
    assert cli.main(["selftest", "--output", str(b)]) == 0
    out = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    # the two summary blocks printed to stdout are identical too
    half = len(out) // 2
    assert out[:half] == out[half:]


def test_selftest_seed_changes_the_samples(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["selftest", "--output", str(a)]) == 0
    assert cli.main(["selftest", "--seed", "3", "--output", str(b)]) == 0
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["seed"] == 0 and rb["seed"] == 3
    assert ra["passed"] and rb["passed"]
    residuals = lambda r: [p["max_residual"] for p in r["properties"]]
    assert residuals(ra) != residuals(rb)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selftest_passes_at_the_benchmark_configuration(capsys, seed):
    # the spectral workload's check requires all 30 properties at this size
    code, _, err = run_cli(capsys, ["selftest", "--max-group-size", "64", "--max-dim", "16",
                                    "--seed", str(seed)])
    assert code == 0, err
    assert "30/30 properties passed" in err


def test_selftest_validates_its_flags(capsys):
    code, _, err = run_cli(capsys, ["selftest", "--max-dim", "0"])
    assert code == 2
    code, _, err = run_cli(capsys, ["selftest", "--max-group-size", "0"])
    assert code == 2


# ---------------------------------------------------------------------------
# a planted defect is caught, not absorbed
# ---------------------------------------------------------------------------

def broken_functional_values(group, columns, weights, values):
    # drops the character inversion in the functionals' action
    from abelian_spectra.algebra import _transform
    F = group.haar_weight * _transform(group, values)
    return weights[:, None] * np.conj(F[columns])


def test_corrupted_functional_fails_the_identity_check(monkeypatch):
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0])
    # asymmetric amplitude: |xi| at chi and at -chi differ
    xi = DualFunction(G, np.array([1.0, 2.0, 1.0, 3.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    assert build_decomposition(space, xi).identity_residual < 1e-9

    monkeypatch.setattr(rigging, "_functional_values", broken_functional_values)
    with pytest.raises(InconsistencyError, match="identity residual"):
        build_decomposition(space, xi)


def test_corrupted_functional_turns_the_selftest_red(monkeypatch, capsys):
    monkeypatch.setattr(rigging, "_functional_values", broken_functional_values)
    code, report, err = stdout_report(capsys, ["selftest"])
    assert code == 4
    assert report["passed"] is False
    failed = {p["name"] for p in report["properties"] if not p["passed"]}
    assert "eigenvector-system" in failed
    assert "[FAIL]" in err


# ---------------------------------------------------------------------------
# tolerance resolution and process-level behavior
# ---------------------------------------------------------------------------

def test_tolerance_env_variable_is_honoured(tmp_path, capsys, monkeypatch):
    src = write_function(tmp_path / "phi.json", (2,), [1, 1])
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-2")
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0
    assert report["tol"] == 1e-2
    # an explicit flag wins over the environment
    code, report, _ = stdout_report(
        capsys, ["gns", "--input", str(src), "--tol", "1e-5"])
    assert report["tol"] == 1e-5


def test_unparsable_tolerance_env_is_an_input_error(tmp_path, capsys, monkeypatch):
    src = write_function(tmp_path / "phi.json", (2,), [1, 1])
    monkeypatch.setenv(cli.TOL_ENV_VAR, "lots")
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 2
    assert cli.TOL_ENV_VAR in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_non_finite_or_negative_tolerance_is_an_input_error(source, value):
    argv = [sys.executable, "-m", "abelian_spectra.cli", "selftest"]
    env = dict(os.environ)
    if source == "flag":
        argv.append(f"--tol={value}")
    else:
        env[cli.TOL_ENV_VAR] = value
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be a finite number >= 0" in proc.stderr


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2,), [1, 1])
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _, err = run_cli(
        capsys, ["gns", "--input", str(src), "--output", str(target)])
    assert code == 2


def test_missing_required_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fourier"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "abelian-spectra" in capsys.readouterr().out


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    phi = write_function(tmp_path / "phi.json", (2, 4), np.eye(1, 8)[0])
    rep = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, first, _ = run_cli(capsys, ["gns", "--input", str(phi)])
    assert code == 0
    assert run_cli(capsys, ["decompose", "--input", str(rep), "--seed", "3"])[0] == 0
    code, _, err = run_cli(capsys, ["gns", "--input", str(phi), "--seed", "-1"])
    assert code == 2 and "--seed must be >= 0" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: abelian-spectra") and "invalid choice: 'transform'" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"abelian-spectra {cli.__version__}\n"
    code, again, _ = run_cli(capsys, ["gns", "--input", str(phi)])
    assert code == 0 and again == first
    assert progs.count("abelian-spectra") == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["fourier", "gns", "decompose", "rig"])
def test_non_finite_input_is_an_input_error(tmp_path, command, bad):
    if command in ("fourier", "gns"):
        payload = function_to_payload(delta(make_group((4,))))
        payload["values"][1][0] = float(bad)
    else:
        payload = representation_to_payload(regular_representation(make_group((3,))))
        payload["generators"][0][1][1] = float(bad)
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "abelian_spectra.cli", command, "--input", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("command, stage", [
    (["fourier"], "forward transform is not finite"),
    (["gns"], "transform of phi is not finite"),
])
def test_an_overflowing_stage_exits_4_and_names_itself(tmp_path, capsys, command, stage):
    # finite inputs whose transform (4 x 1e308) overflows; pytest turns any
    # numpy RuntimeWarning into an error
    f = write_function(tmp_path / "f.json", (4,), [1e308] * 4)
    code, _, err = run_cli(capsys, [*command, "--input", str(f)])
    assert code == 4
    assert stage in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("rep, values", [
    ("regular", [1e200] * 4),  # sum |xi|^2 = 4e400 in phi of the cyclic amplitude
    ("trivial", [1e154, 0, 0, 0]),  # |G| |xi|^2 = 4e308 in its spectrum
], ids=["phi", "spectrum"])
def test_rig_takes_an_amplitude_whose_squares_overflow(tmp_path, capsys, rep, values):
    # rig scales each layer's xi by a power of two, which changes no rigging:
    # these exited 4 as overflows, and the weights come back exactly
    group = make_group((4,))
    reps = {"regular": regular_representation(group),
            "trivial": make_representation(group, [np.eye(1)])}
    src = write_representation(tmp_path / "rep.json", reps[rep])
    xi = write_function(tmp_path / "xi.json", (4,), values, domain="dual")
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0, err
    (comp,) = report["results"]["components"]
    assert comp["weights"] == [v for v in values if v]
    assert "Warning" not in err


@pytest.mark.parametrize("s", [1e-170, 1e-160, 1e-150, 1.0, 1e150, 1e200, 1e300])
def test_rig_takes_a_flat_amplitude_of_any_finite_scale(tmp_path, capsys, s):
    # |xi|^2 underflowed at s = 1e-170 and 1e-160 (exit 4, "the quotient rank
    # is 0" and an identity residual of 2.9e-4) and overflowed at 1e200 and 1e300
    src = write_representation(tmp_path / "rep.json",
                               make_representation(make_group((2,)), [np.diag([1.0, -1.0])]))
    xi = write_function(tmp_path / "xi.json", (2,), [s, s], domain="dual")
    code, report, err = stdout_report(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
    assert code == 0, err
    assert report["results"]["components"][0]["weights"] == [s, s]


@pytest.mark.parametrize("power", [-600, 600])
def test_rig_reports_the_same_for_xi_and_a_power_of_two_times_xi(tmp_path, capsys, power):
    # two layers on a planted (16,) d8 representation of multiplicity 2; only
    # the weights change, each by exactly 2^power
    src = planted_rep_file(tmp_path, (16,), 8, mult=2)
    rng = np.random.default_rng(11)
    amps = rng.uniform(0.5, 2.0, 16) * np.exp(2j * np.pi * rng.random(16))
    reports = []
    for name, values in [("xi", amps), ("scaled", np.ldexp(amps.view(float), power).view(complex))]:
        xi = write_function(tmp_path / f"{name}.json", (16,), values, domain="dual")
        code, report, err = stdout_report(capsys, ["rig", "--input", str(src), "--xi", str(xi)])
        assert code == 0, err
        reports.append(report)
    plain, scaled = reports
    assert len(plain["results"]["components"]) == 2
    for a, b in zip(plain["results"]["components"], scaled["results"]["components"]):
        assert np.ldexp(a.pop("weights"), power).tolist() == b.pop("weights")
    assert plain == scaled


def test_gns_overflow_in_the_construction_check_exits_4_and_names_it(tmp_path, capsys):
    # the transform of the point mass is 2e306 everywhere, finite, but the
    # form applied to the support characters sums 64 terms of 1.3e308
    src = write_function(tmp_path / "phi.json", (64,), 2e306 * np.eye(64)[0])
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 4
    assert "form applied to the support characters is not finite" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", ["gns", "rig"])
def test_overflow_near_float_max_in_the_construction_check_raises_no_warning(
        tmp_path, capsys, command):
    # gns: the support characters' scaling by weight * F and their transforms
    # overflow before the form is applied, on a (256,) point mass of 3e307;
    # rig: the form applied in the identity check overflowed (exit 4) on a flat
    # xi of 4.642e152 on a planted d8 representation, and now runs on 2^-e xi;
    # pytest turns any numpy RuntimeWarning into an error
    if command == "gns":
        argv = ["gns", "--input", str(write_function(tmp_path / "phi.json", (256,),
                                                     3e307 * np.eye(256)[0]))]
        code, _, err = run_cli(capsys, argv)
        assert code == 4
        assert err == ("error: form applied to the support characters is not finite: "
                       "it overflowed on finite input\n")
        return
    xi = write_function(tmp_path / "xi.json", (256,), [4.642e152] * 256, domain="dual")
    argv = ["rig", "--input", str(planted_rep_file(tmp_path, (256,), 8)), "--xi", str(xi)]
    code, report, err = stdout_report(capsys, argv)
    assert code == 0, err
    assert report["results"]["components"][0]["weights"] == [4.642e152] * 8


def test_gns_catches_a_wrong_transform_value_at_full_rank_65536(tmp_path, capsys, monkeypatch):
    # one of 65536 transform values off by 1e-6 relative: the random
    # combinations of the construction check see it, far above round-off
    src = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(make_group((65536,)))), src)
    exact = gns.fourier

    def skewed(f):
        values = exact(f).values.copy()
        values[40000] *= 1 + 1e-6
        return DualFunction(f.group, values)

    monkeypatch.setattr(gns, "fourier", skewed)
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 4
    assert "not eigenvectors of the form" in err


@pytest.mark.parametrize("orders", [(64,), (1024,)])
def test_gns_reconstruction_check_is_relative_to_phi(tmp_path, capsys, monkeypatch, rng, orders):
    # a spectrum near 1e8 puts max |phi| near 1e8 and the absolute round-off
    # of the reconstruction near 1e-8, a relative error of about 1e-16
    spectrum = rng.uniform(0.5, 2.0, size=orders[0]) * 1e8
    phi = np.fft.ifft(spectrum)
    src = write_function(tmp_path / "phi.json", orders, phi)
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0
    assert report["residuals"]["reconstruction"] < 1e-14
    # a 1e-6 relative corruption of the reconstruction still fails
    reconstruct = cli.reconstruct_phi
    monkeypatch.setattr(cli, "reconstruct_phi", lambda space: GroupFunction(
        space.group, reconstruct(space).values * (1 + 1e-6)))
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 4
    assert report["residuals"]["reconstruction"] > 1e-7


def test_module_entry_point_runs_as_a_process(tmp_path):
    src = write_function(tmp_path / "f.json", (2,), [1, 0])
    proc = subprocess.run(
        [sys.executable, "-m", "abelian_spectra.cli", "fourier",
         "--input", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["domain"] == "dual"
    assert "fourier" in proc.stderr


@pytest.mark.parametrize("command", ["fourier", "decompose", "gns", "rig", "selftest"])
def test_negative_seed_is_an_input_error(tmp_path, command):
    argv = [sys.executable, "-m", "abelian_spectra.cli", command, "--seed", "-1"]
    if command in ("fourier", "gns"):
        argv += ["--input", str(write_function(tmp_path / "f.json", (2,), [1, 1]))]
    elif command in ("decompose", "rig"):
        rep = regular_representation(make_group((2,)))
        argv += ["--input", str(write_representation(tmp_path / "rep.json", rep))]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--seed must be >= 0" in proc.stderr


def test_gns_admits_4097_and_the_flag_raises_and_lowers_its_limit(tmp_path, capsys):
    src = write_function(tmp_path / "f.json", (4097,), np.eye(1, 4097)[0])
    code, report, _ = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0 and report["results"]["rank"] == 4097
    code, _, err = run_cli(capsys, ["gns", "--input", str(src), "--max-group-size", "4096"])
    assert code == 2
    assert "size cap 4096" in err
    # the default limit is 65536; the flag raises it
    from abelian_spectra import Group
    big = tmp_path / "big.json"
    dump_json(function_to_payload(delta(Group((65537,)))), big)
    code, _, err = run_cli(capsys, ["gns", "--input", str(big)])
    assert code == 2
    assert "size cap 65536" in err
    # full rank: s^65537 is off by about 65537 eps in each of the 65537
    # entries, which the order check, taken entry by entry, still passes
    code, _, _ = run_cli(capsys, ["gns", "--input", str(big), "--max-group-size", "65537",
                                  "--output", str(tmp_path / "out.json")])
    assert code == 0


def test_gns_on_the_2_16_point_mass_stays_under_the_budget(tmp_path):
    src = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(make_group((2,) * 16))), src)
    code, peak = child_peak_rss(["gns", "--input", str(src),
                                 "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert peak < cli.OPERATOR_STACK_BUDGET
    assert json.loads((tmp_path / "out.json").read_text())["results"]["rank"] == 65536


def child_peak_rss(argv):
    """Exit code and peak RSS, in bytes, of the CLI on ``argv`` in a process
    forked from a fresh interpreter: a child's ru_maxrss starts from the RSS
    of the process it was forked from, which for this one is the test run's."""
    script = ("import resource, subprocess, sys; "
              "code = subprocess.call([sys.executable, '-m', 'abelian_spectra.cli', "
              "*sys.argv[1:]], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
              "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, check=True).stdout.split()
    return int(out[0]), int(out[1]) * 1024  # ru_maxrss is in KiB


def test_decompose_on_a_2_16_d16_input_stays_under_the_budget(tmp_path):
    # the measure and the relation checks work on the 16 generators; the
    # |G| x d x d operator stack they used to build was 256 MiB
    src = planted_rep_file(tmp_path, (2,) * 16, 16)
    out = tmp_path / "out.json"
    code, peak = child_peak_rss(["decompose", "--input", str(src), "--output", str(out)])
    assert code == 0
    assert peak < cli.OPERATOR_STACK_BUDGET // 2
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert sum(report["results"]["multiplicities"]) == 16


def test_rig_on_a_2_16_d16_input_stays_under_the_budget(tmp_path):
    # the coordinates are a permutation and the relations are certified on
    # the 16 binary powers; the |G| x r x r gap stacks it used to hold put
    # its estimate over the budget
    src = planted_rep_file(tmp_path, (2,) * 16, 16)
    out = tmp_path / "out.json"
    code, peak = child_peak_rss(["rig", "--input", str(src), "--output", str(out)])
    assert code == 0
    assert peak < cli.OPERATOR_STACK_BUDGET // 2
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert sum(len(comp["support"]) for comp in report["results"]["components"]) == 16


@pytest.mark.parametrize("flag", ["--input", "--xi"])
def test_an_input_file_over_the_bound_is_refused_before_parsing(tmp_path, capsys, monkeypatch,
                                                                flag):
    G = make_group((4,))
    files = {"--input": write_representation(tmp_path / "rep.json",
                                             make_representation(G, [np.diag([1j])])),
             "--xi": write_function(tmp_path / "xi.json", (4,), np.ones(4), domain="dual")}
    argv = ["rig", "--input", str(files["--input"]), "--xi", str(files["--xi"])]
    bound = 3 * 2 ** 21 // 128  # a budget of 2 MiB still admits rig on Z_4 at d = 1
    monkeypatch.setattr(cli, "OPERATOR_STACK_BUDGET", 2 ** 21)
    assert run_cli(capsys, argv)[0] == 0
    # not JSON: only a refusal before parsing names the size
    files[flag].write_text("[" * (bound + 1))
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert f"{files[flag]} is {bound + 1} bytes, over the input bound of {bound} bytes" in err
    assert "Traceback" not in err
    # at the bound the file is parsed, and its nesting depth refused
    files[flag].write_text("[" * bound)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "is not valid JSON" in err


def input_bound(monkeypatch):
    """The max_bytes that cli._load passes to load_json."""
    bounds = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_json", lambda path, max_bytes: bounds.append(max_bytes))
        cli._load("unread.json")
    return bounds[0]


def test_the_input_bound_keeps_decoding_within_half_the_budget(tmp_path, monkeypatch):
    # the shortest pairs, [0,0], cost the most traced bytes per file byte;
    # a file at the bound, decoded at this rate, peaks under half the budget
    src = tmp_path / "zeros.json"
    src.write_text(json.dumps({"group": {"orders": [2] * 16}, "domain": "group",
                               "values": [[0, 0]] * 2 ** 16}, separators=(",", ":")))
    tracemalloc.start()
    try:
        cli._load(str(src))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rate = peak / src.stat().st_size
    assert rate > 12  # the measured rate is about 17
    assert rate * input_bound(monkeypatch) <= cli.OPERATOR_STACK_BUDGET / 2


def test_the_input_bound_admits_a_65536_pair_file_indented_by_2(tmp_path, capsys, monkeypatch,
                                                                rng):
    G = make_group((65536,))
    f = GroupFunction(G, rng.standard_normal(G.size) + 1j * rng.standard_normal(G.size))
    src = tmp_path / "f.json"
    src.write_text(json.dumps(json.loads(dump_json(function_to_payload(f))), indent=2))
    assert cli.OPERATOR_STACK_BUDGET / 64 < src.stat().st_size <= input_bound(monkeypatch)
    code, _, err = run_cli(capsys, ["fourier", "--input", str(src),
                                    "--output", str(tmp_path / "F.json")])
    assert code == 0, err


def test_rig_admits_a_planted_8192_d2_input(tmp_path, capsys):
    G = make_group((8192,))
    diagonal = G.pairing_at([1], [5, 700])[0]
    src = write_representation(tmp_path / "rep.json", make_representation(G, [np.diag(diagonal)]))
    code, report, _ = stdout_report(capsys, ["rig", "--input", str(src)])
    assert code == 0
    assert [comp["support"] for comp in report["results"]["components"]] == [[[5], [700]]]


def test_decompose_and_rig_refuse_an_operator_stack_over_budget(tmp_path, capsys, monkeypatch):
    # the regular rep of Z_4: |G| = 4, dim 4
    src = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    calls = []
    measure = cli.spectral_measure
    monkeypatch.setattr(cli, "spectral_measure", lambda rep: calls.append(rep) or measure(rep))
    budget = cli.OPERATOR_STACK_BUDGET
    for command in ("decompose", "rig"):
        estimate = cli.peak_estimate(command, (4,), 4)
        monkeypatch.setattr(cli, "OPERATOR_STACK_BUDGET", estimate - 1)
        code, _, err = run_cli(capsys, [command, "--input", str(src)])
        assert code == 2
        assert f"{estimate} bytes" in err and f"budget of {estimate - 1} bytes" in err
        assert "Traceback" not in err
    assert calls == []

    monkeypatch.setattr(cli, "OPERATOR_STACK_BUDGET", budget)
    for command in ("decompose", "rig"):
        code, _, _ = run_cli(capsys, [command, "--input", str(src)])
        assert code == 0
    assert len(calls) == 2


def test_decompose_exits_4_when_the_measure_breaks_its_invariants(
        tmp_path, capsys, non_idempotent_measure):
    src = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    code, _, err = run_cli(capsys, ["decompose", "--input", str(src)])
    assert code == 4
    assert "completeness" in err
    assert "Traceback" not in err


def conjugated_rep(G, rng):
    """V diag(<e_j|chi>) V^dagger in dimension 3, one character twice."""
    picks = rng.choice(G.size, size=2, replace=False)[[0, 0, 1]]
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    diagonals = G.pairing_at(G.generator_indices, picks)
    return make_representation(G, [V @ np.diag(d) @ V.conj().T for d in diagonals])


def corrupt_measured_generators(monkeypatch, corrupt):
    """Let ``decompose`` measure a copy of each generator routed through
    ``corrupt``; the measure keeps the input representation, so the
    certificate still squares its binary powers from the input generators."""
    measure = cli.spectral_measure

    def corrupted(rep):
        seen = replace(rep, generators=tuple(corrupt(U.copy()) for U in rep.generators))
        return replace(measure(seen), rep=rep)

    monkeypatch.setattr(cli, "spectral_measure", corrupted)


def test_decompose_exits_4_when_one_generator_power_is_corrupted(tmp_path, capsys, monkeypatch,
                                                                 rng):
    # U_j + 1e-6 at (0, 1) is no longer normal: its eigenvectors are not
    # orthogonal, so the QR basis is not made of eigenvectors of its labels
    src = write_representation(tmp_path / "rep.json", conjugated_rep(make_group((4, 3)), rng))

    def bump(U):
        U[0, 1] += 1e-6
        return U

    corrupt_measured_generators(monkeypatch, bump)
    code, _, err = run_cli(capsys, ["decompose", "--input", str(src)])
    assert code == 4
    assert "projection-valued measure violates its invariants (restriction" in err
    assert "Traceback" not in err


def test_decompose_certificate_catches_a_consistently_rotated_power_stack(
        tmp_path, capsys, monkeypatch, rng):
    # W U W^dagger for a rotation W that is 1e-6 from the identity: the
    # measure of W U W^dagger is a valid one, so only the relations, checked
    # on binary powers squared from the input generators, can see the fault
    src = write_representation(tmp_path / "rep.json", conjugated_rep(make_group((4, 3)), rng))
    H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lam, Q = np.linalg.eigh(H + H.conj().T)
    W = (Q * np.exp(1e-6j * lam)) @ Q.conj().T
    corrupt_measured_generators(monkeypatch, lambda U: W @ U @ W.conj().T)
    code, report, err = stdout_report(capsys, ["decompose", "--input", str(src)])
    assert code == 4
    assert report["passed"] is False
    assert max(v for k, v in report["residuals"].items() if k.startswith("pvm_")) < 1e-9
    assert report["residuals"]["reconstruction"] > 1e-7
    assert "failed: reconstruction" in err


def test_decompose_exits_3_when_a_generator_breaks_its_order(tmp_path, capsys):
    # diag(1, -1) is unitary but has order 2, not dividing 3: refused before
    # the measure labels its eigenvalues by the cube roots of unity
    src = tmp_path / "rep.json"
    src.write_text(json.dumps({"group": {"orders": [3]}, "dim": 2,
                               "generators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}))
    code, _, err = run_cli(capsys, ["decompose", "--input", str(src)])
    assert code == 3
    assert "generator 0 does not have order dividing 3" in err
    assert "Traceback" not in err


def planted_65536(labels, rng):
    """V diag(omega^c) V^dagger on (65536,), the labels sorted, V Haar-random:
    the benchmark workloads' planted representation."""
    from abelian_spectra.selftest import random_unitary
    V = random_unitary(rng, len(labels))
    phases = np.exp(2j * np.pi * np.sort(labels) / 65536)
    return make_representation(make_group((65536,)), [V @ np.diag(phases) @ V.conj().T])


@pytest.mark.parametrize("dim", [6, 8, 9])
def test_decompose_passes_planted_65536_inputs(tmp_path, capsys, dim):
    # each must pass the default --tol of 1e-9: the certificate repeats the
    # measure's own error at each of 17 binary powers, so at (65536,) the
    # measure must be accurate to well below 1e-10
    failed = []
    for seed in range(1, 13):
        rng = np.random.default_rng(seed)
        src = write_representation(tmp_path / "rep.json",
                                   planted_65536(rng.choice(65536, dim, replace=False), rng))
        code, out, _ = run_cli(capsys, ["decompose", "--input", str(src),
                                        "--output", str(tmp_path / "out.json")])
        if code:
            failed.append((seed, code, out))
    assert failed == []


def test_decompose_passes_adjacent_labels_on_65536(tmp_path, capsys):
    # neighbours 2 pi / 65536 apart, on both sides of 0 and of n/2
    labels = [0, 1, 2, 65534, 65535, 32767, 32768, 32769]
    src = write_representation(tmp_path / "rep.json",
                               planted_65536(labels, np.random.default_rng(0)))
    code, report, err = stdout_report(capsys, ["decompose", "--input", str(src)])
    assert code == 0, err
    assert report["results"]["support"] == [[c] for c in sorted(labels)]


def generator_diagonals(support, orders):
    """The k x r diagonals <e_j|chi_s> = exp(2 pi i chi_{s,j} / n_j) of the
    generator images on support rows chi_s, in closed form."""
    chars = np.asarray(support, dtype=float).reshape(-1, len(orders))
    return np.exp(2j * np.pi * chars.T / np.array(orders, dtype=float)[:, None])


def test_gns_emits_generator_diagonals_not_dense_images(tmp_path, capsys):
    # the (2,)^8 point mass has full rank 256: eight dense 256 x 256 images
    # made a 5.3 MB report; its support rows fix the eight diagonals
    G = make_group((2,) * 8)
    src = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(G)), src)
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["gns", "--input", str(src), "--output", str(out)])
    assert code == 0
    assert out.stat().st_size < 10_000
    results = json.loads(out.read_text())["results"]
    assert set(results) == {"rank", "gram_eigenvalues", "support", "positivity"}
    diagonals = generator_diagonals(results["support"], G.orders)
    assert diagonals.shape == (8, 256)
    np.testing.assert_allclose(diagonals, gns_construct(delta(G)).generator_images(),
                               rtol=0, atol=1e-15)
    assert make_representation(G, [np.diag(row) for row in diagonals]).dim == 256


def test_gns_support_rows_are_the_characters_leading_the_eigenvalues(tmp_path, capsys):
    # phi planted as the inverse transform of distinct weights on six
    # characters: the support rows are those characters by descending
    # eigenvalue, and eta_s = sqrt(lambda_s / |G|) rebuilds phi from them
    G = make_group((4, 6))
    rng = np.random.default_rng(8)
    chars = rng.choice(G.size, size=6, replace=False)
    spectrum = np.zeros(G.size)
    spectrum[chars] = rng.uniform(0.5, 2.0, 6)
    phi = np.fft.ifftn(spectrum.reshape(G.orders)).ravel()
    src = write_function(tmp_path / "phi.json", G.orders, phi)
    code, report, err = stdout_report(capsys, ["gns", "--input", str(src)])
    assert code == 0, err
    results = report["results"]
    lam = np.array(results["gram_eigenvalues"])
    leading = chars[np.argsort(-spectrum[chars])]
    assert results["rank"] == 6
    assert results["support"] == G.coords_at(leading).tolist()
    np.testing.assert_allclose(lam[:6], spectrum[leading], rtol=1e-12)
    np.testing.assert_allclose(lam[6:], 0.0, atol=1e-12)
    eta = np.sqrt(lam[:6] / G.size)
    rebuilt = G.pairing_at(np.arange(G.size), leading) @ np.abs(eta) ** 2
    np.testing.assert_allclose(rebuilt, phi, rtol=0, atol=1e-14)


def test_decompose_and_rig_emit_generator_diagonals_not_tables(tmp_path, capsys, rng):
    # V diag(<e_j|chi_s>) V^dagger on (2,)^10 with d = 8: each component's
    # 1024 x r table is fixed by its support rows, which are all the reports
    # carry of it
    G = make_group((2,) * 10)
    support = np.sort(rng.choice(G.size, size=8, replace=False))
    V, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    diagonals = G.pairing_at(G.generator_indices, support)
    src = write_representation(tmp_path / "rep.json", make_representation(
        G, [V @ np.diag(d) @ V.conj().T for d in diagonals]))
    keys = {"decompose": {"support", "layer"}, "rig": {"support", "weights", "residuals"}}
    for command in ("decompose", "rig"):
        out = tmp_path / f"{command}.json"
        code, _, _ = run_cli(capsys, [command, "--input", str(src), "--output", str(out)])
        assert code == 0
        assert out.stat().st_size < 10_000
        for comp in json.loads(out.read_text())["results"]["components"]:
            assert set(comp) == keys[command]
            cols = [G.character_index(G.character(c)) for c in comp["support"]]
            rows = generator_diagonals(comp["support"], G.orders)
            assert rows.shape == (10, len(cols))
            np.testing.assert_allclose(rows, G.pairing_at(G.generator_indices, cols),
                                       rtol=0, atol=1e-15)
            # prod_j row_j^{g_j} is the table row of g, for every g
            table = np.prod(rows[None] ** G._coords[:, :, None], axis=1)
            np.testing.assert_allclose(table, G.pairing_at(np.arange(G.size), cols),
                                       rtol=0, atol=1e-12)


def test_each_decompose_layer_has_one_ket_of_its_index_per_support_character(tmp_path, capsys):
    # multiplicities 1, 2, 3 give layers of three, two and one characters;
    # layer i's isometry is its kets of index i, and its cyclic vector their sum
    src = layered_rep_file(tmp_path, [1, 2, 3])
    code, report, err = stdout_report(capsys, ["decompose", "--input", str(src)])
    assert code == 0, err
    results = report["results"]
    assert [comp["layer"] for comp in results["components"]] == [1, 2, 3]
    by_index = {}
    for ket in results["kets"]:
        by_index.setdefault(ket["index"], []).append(ket["character"])
    assert sorted(by_index) == [1, 2, 3]
    for comp in results["components"]:
        assert by_index[comp["layer"]] == comp["support"]
    assert [len(comp["support"]) for comp in results["components"]] == [3, 2, 1]


@pytest.mark.parametrize("command", ["fourier", "decompose", "gns", "rig", "selftest"])
def test_each_report_equals_the_cycle_checked_encoding(tmp_path, capsys, monkeypatch, command):
    # dump_json skips json's cycle check; every report is a tree, so the
    # checked encoding gives the same bytes
    from abelian_spectra import fileio
    rep = write_representation(tmp_path / "rep.json", regular_representation(make_group((2, 3))))
    phi = write_function(tmp_path / "phi.json", (2, 3), [1, 0, 0, 0, 0, 0])
    argv = {"fourier": ["--input", str(phi)], "decompose": ["--input", str(rep)],
            "gns": ["--input", str(phi)], "rig": ["--input", str(rep)], "selftest": []}
    payloads = []
    monkeypatch.setattr(cli, "dump_json", lambda payload, *rest: payloads.append(payload)
                        or dump_json(payload, *rest))
    code, out, err = run_cli(capsys, [command, *argv[command]])
    assert code == 0, err
    (payload,) = payloads
    checked = json.dumps(payload, separators=(",", ":"), allow_nan=False,
                         default=fileio._complex_array_pairs) + "\n"
    assert out == checked


@pytest.mark.parametrize("flags, estimate", [
    (["--max-group-size", "8192"], 6 * 16 * 8192 * 8192 + 256 * 8 ** 2 + 2 ** 20),
    (["--max-dim", "100000"], 6 * 16 * 16 * 100000 ** 2 + 256 * 100000 ** 2 + 2 ** 20),
])
def test_selftest_refuses_oracles_over_budget(capsys, monkeypatch, flags, estimate):
    calls = []
    monkeypatch.setattr(cli, "run_selftest", lambda cfg: calls.append(cfg))
    code, _, err = run_cli(capsys, ["selftest", *flags])
    assert code == 2
    assert f"{estimate} bytes" in err
    assert "Traceback" not in err
    assert calls == []
