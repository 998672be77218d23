"""Command-line interface: reports, exit codes, routing, determinism."""

import json
import subprocess
import sys

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
    phi_from_cyclic,
    regular_representation,
    spectral_measure,
)
from abelian_spectra import cli, rigging
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


def test_gns_rejects_non_positive_functions(tmp_path, capsys):
    src = write_function(tmp_path / "phi.json", (2,), [1, 2])
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 5
    assert "min transform -1.000000e+00" in err


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
    # the eigenvalue table row of the generator holds the sixth roots of unity
    row = as_complex(comps[0]["eigenvalue_table"][1])
    np.testing.assert_allclose(row, np.exp(2j * np.pi * np.arange(6) / 6), atol=1e-12)
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


def test_rig_report_is_byte_deterministic(tmp_path, capsys):
    src = write_representation(tmp_path / "rep.json",
                               regular_representation(make_group((2, 4))))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["rig", "--input", str(src), "--output", str(a)]) == 0
    assert cli.main(["rig", "--input", str(src), "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


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


def test_selftest_validates_its_flags(capsys):
    code, _, err = run_cli(capsys, ["selftest", "--max-dim", "0"])
    assert code == 2
    code, _, err = run_cli(capsys, ["selftest", "--max-group-size", "0"])
    assert code == 2


# ---------------------------------------------------------------------------
# a planted defect is caught, not absorbed
# ---------------------------------------------------------------------------

def broken_act(self, f):
    # drops the character inversion in the functional's action
    group = f.group
    from abelian_spectra import fourier
    j = group.character_index(self.character)
    return complex(self.weight * np.conj(fourier(f).values[j]))


def test_corrupted_functional_fails_the_identity_check(monkeypatch):
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    # asymmetric amplitude: |xi| at chi and at -chi differ
    xi = DualFunction(G, np.array([1.0, 2.0, 1.0, 3.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    assert build_decomposition(space, xi).identity_residual < 1e-9

    monkeypatch.setattr(rigging.GeneralizedEigenvector, "act", broken_act)
    with pytest.raises(InconsistencyError, match="identity residual"):
        build_decomposition(space, xi)


def test_corrupted_functional_turns_the_selftest_red(monkeypatch, capsys):
    monkeypatch.setattr(rigging.GeneralizedEigenvector, "act", broken_act)
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
