"""Command-line interface: reports, exit codes, routing, determinism."""

import json
import os
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
from abelian_spectra.gns import GNSSpace
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
    assert results["eta"] == []
    assert results["generator_diagonals"] == [[], []]  # two empty diagonals
    assert report["passed"] is True


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
    # the diagonal of the generator holds the sixth roots of unity
    row = as_complex(comps[0]["generator_diagonals"][0])
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


def test_rig_identity_check_is_relative_to_the_form_norms(tmp_path, capsys):
    # |xi| = 30 on (64,) puts both sides of <f|h>_phi near 1e6, so their
    # absolute gap is about 1e-10; relative to the Cauchy-Schwarz bound it
    # is round-off and passes a 1e-12 tolerance
    from abelian_spectra import make_representation
    chars = np.arange(4) * 16
    rep = make_representation(make_group((64,)), [np.diag(np.exp(2j * np.pi * chars / 64))])
    src = write_representation(tmp_path / "rep.json", rep)
    xi = write_function(tmp_path / "xi.json", (64,), [30.0] * 64, domain="dual")
    code, report, _ = stdout_report(
        capsys, ["rig", "--input", str(src), "--xi", str(xi), "--tol", "1e-12"])
    assert code == 0
    assert report["residuals"]["identity"] < 1e-14


def test_rig_positivity_bound_is_relative_to_the_transform(tmp_path, capsys):
    # a flat |xi| = 100 scales the transform of each component's phi by 1e4,
    # and its round-off (a min transform near -2.5e-10) with it
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from workloads import planted_representation
    from abelian_spectra import make_representation
    generators, _ = planted_representation(np.random.default_rng(3), (64,), 8, 1)
    src = write_representation(tmp_path / "rep.json",
                               make_representation(make_group((64,)), generators))
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

def broken_functional_values(eigenvectors, f):
    # drops the character inversion in the functionals' action
    group = f.group
    from abelian_spectra import fourier
    j = [group.character_index(vec.character) for vec in eigenvectors]
    return np.array([vec.weight for vec in eigenvectors]) * np.conj(fourier(f).values[j])


def test_corrupted_functional_fails_the_identity_check(monkeypatch):
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
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
    (["rig", "--xi", "{xi}"], "phi of the cyclic amplitude is not finite"),
])
def test_an_overflowing_stage_exits_4_and_names_itself(tmp_path, capsys, command, stage):
    # finite inputs whose transform (4 x 1e308) or sum |xi|^2 (1e400) overflows;
    # pytest turns any numpy RuntimeWarning into an error
    f = write_function(tmp_path / "f.json", (4,), [1e308] * 4)
    rep = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    xi = write_function(tmp_path / "xi.json", (4,), [1e200] * 4, domain="dual")
    argv = [a.format(xi=xi) for a in command]
    code, _, err = run_cli(capsys, [*argv, "--input", str(rep if "rig" in argv else f)])
    assert code == 4
    assert stage in err
    assert "Traceback" not in err and "Warning" not in err


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


def test_dense_form_commands_cap_the_group_at_4096(tmp_path, capsys):
    # only the header is parsed: the cap rejects the group before any allocation
    src = write_function(tmp_path / "f.json", (4097,), np.zeros(4097))
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 2
    assert "size cap 4096" in err
    code, _, err = run_cli(capsys, ["fourier", "--input", str(src)])
    assert code == 0


def test_decompose_and_rig_refuse_an_operator_stack_over_budget(tmp_path, capsys, monkeypatch):
    # the regular rep of Z_4 stacks 4 operators of 4 x 4: 16 * 4 * 16 = 1024 bytes
    src = write_representation(tmp_path / "rep.json", regular_representation(make_group((4,))))
    calls = []
    measure = cli.spectral_measure
    monkeypatch.setattr(cli, "spectral_measure", lambda rep: calls.append(rep) or measure(rep))
    budget = cli.OPERATOR_STACK_BUDGET
    monkeypatch.setattr(cli, "OPERATOR_STACK_BUDGET", 1000)
    for command in ("decompose", "rig"):
        code, _, err = run_cli(capsys, [command, "--input", str(src)])
        assert code == 2
        assert "1024 bytes" in err and "budget of 1000 bytes" in err
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
    assert "idempotency" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gns", "rig"])
def test_the_flag_cannot_raise_the_dense_form_cap(tmp_path, capsys, monkeypatch, command):
    if command == "gns":
        payload = {"group": {"orders": [4097]}, "domain": "group", "values": []}
    else:
        payload = {"group": {"orders": [4097]}, "dim": 1, "generators": [[[1.0, 0.0]]]}
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, [command, "--input", str(src), "--max-group-size", "8192"])
    assert code == 2
    assert "size cap 4096" in err
    # the cap follows the budget at call time: isqrt(2000 // 16) = 11
    monkeypatch.setattr(cli, "OPERATOR_STACK_BUDGET", 2000)
    code, _, err = run_cli(capsys, [command, "--input", str(src)])
    assert code == 2
    assert "size cap 11" in err
    # and the flag still lowers it
    code, _, err = run_cli(capsys, [command, "--input", str(src), "--max-group-size", "3"])
    assert code == 2
    assert "size cap 3" in err


def test_gns_emits_generator_diagonals_not_dense_images(tmp_path, capsys):
    # the (2,)^8 point mass has full rank 256: eight dense 256 x 256 images
    # made a 5.3 MB report, eight diagonals of 256 pairs stay under 100 kB
    from abelian_spectra import make_representation
    G = make_group((2,) * 8)
    src = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(G)), src)
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["gns", "--input", str(src), "--output", str(out)])
    assert code == 0
    assert out.stat().st_size < 100_000
    diagonals = json.loads(out.read_text())["results"]["generator_diagonals"]
    assert [len(row) for row in diagonals] == [256] * 8
    space = gns_construct(delta(G))
    gens = np.eye(8, dtype=np.int64) % 2
    rows = space.characters[[G.element_index(G.element(c)) for c in gens]]
    diagonals = np.array([as_complex(row) for row in diagonals])
    np.testing.assert_array_equal(diagonals, rows)
    assert make_representation(G, [np.diag(row) for row in diagonals]).dim == 256


def test_decompose_and_rig_emit_generator_diagonals_not_tables(tmp_path, capsys, rng):
    # V diag(<e_j|chi_s>) V^dagger on (2,)^10 with d = 8: each component's
    # 1024 x r table is fixed by its ten generator rows, which are all the
    # reports carry
    from abelian_spectra import make_representation
    G = make_group((2,) * 10)
    support = np.sort(rng.choice(G.size, size=8, replace=False))
    V, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    diagonals = G.pairing_rows(support)[:, G.generator_indices].T
    src = write_representation(tmp_path / "rep.json", make_representation(
        G, [V @ np.diag(d) @ V.conj().T for d in diagonals]))
    for command in ("decompose", "rig"):
        out = tmp_path / f"{command}.json"
        code, _, _ = run_cli(capsys, [command, "--input", str(src), "--output", str(out)])
        assert code == 0
        assert out.stat().st_size < 50_000
        text = out.read_text()
        assert '"table"' not in text and '"eigenvalue_table"' not in text
        for comp in json.loads(text)["results"]["components"]:
            cols = [G.character_index(G.character(c)) for c in comp["support"]]
            rows = comp.get("diagonal_model", comp)["generator_diagonals"]
            assert [len(row) for row in rows] == [len(cols)] * 10
            rows = np.array([as_complex(row) for row in rows])
            np.testing.assert_array_equal(rows, G.pairing_rows(cols)[:, G.generator_indices].T)
            # prod_j row_j^{g_j} is the table row of g, for every g
            table = np.prod(rows[None] ** G._coords[:, :, None], axis=1)
            np.testing.assert_allclose(table, G.pairing_rows(cols).T, rtol=0, atol=1e-12)


def test_gns_exits_3_when_a_generator_diagonal_breaks_a_relation(tmp_path, capsys, monkeypatch):
    src = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(make_group((2, 4)))), src)
    images = GNSSpace.generator_images

    def perturbed(self):
        out = images(self).copy()
        out[1, 3] *= 1 + 1e-6
        return out

    monkeypatch.setattr(GNSSpace, "generator_images", perturbed)
    code, _, err = run_cli(capsys, ["gns", "--input", str(src)])
    assert code == 3
    assert "generator 1 not unitary" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, estimate", [
    (["--max-group-size", "8192"], 16 * 8192 * 8192),
    (["--max-dim", "100000"], 16 * 16 * 100000 ** 2),
])
def test_selftest_refuses_oracles_over_budget(capsys, monkeypatch, flags, estimate):
    calls = []
    monkeypatch.setattr(cli, "run_selftest", lambda cfg: calls.append(cfg))
    code, _, err = run_cli(capsys, ["selftest", *flags])
    assert code == 2
    assert f"{estimate} bytes" in err
    assert "Traceback" not in err
    assert calls == []
