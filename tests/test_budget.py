"""Each admission estimate bounds the command's measured peak.

``cli.peak_estimate`` is what decompose, gns, rig and selftest are admitted
on.  These tests run each command in-process under tracemalloc on small
planted inputs and check the traced peak against the command's own estimate,
so a change that grows a peak must also grow its estimate; gns, whose
estimate is fitted to its RSS growth, is also measured in a fresh interpreter.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from abelian_spectra import DualFunction, cli, delta, make_group, make_representation
from abelian_spectra.fileio import dump_json, function_to_payload, representation_to_payload
from abelian_spectra.selftest import random_unitary


def traced_peak(argv):
    """Exit code and tracemalloc peak, in bytes, of one in-process run."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code = cli.main(argv)
        return code, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def planted_representation(orders, dim, mult, seed):
    """V diag(<e_j|chi_b>) V^dagger: dim / mult characters, each mult times."""
    rng = np.random.default_rng(seed)
    G = make_group(orders)
    support = rng.choice(G.size, size=dim // mult, replace=False)
    diagonals = G.pairing_at(G.generator_indices, np.repeat(support, mult))
    V = random_unitary(rng, dim)
    return make_representation(G, [V @ np.diag(d) @ V.conj().T for d in diagonals])


# (4096,) and (2,)^16 at d = 1 are dominated by the per-element term and (2,)
# at d = 128 with multiplicity 64 by the per-entry term; the rest by the
# stacks or the base.
CASES = [((256,), 1, 1), ((4, 4, 4), 1, 1), ((2,) * 8, 8, 1), ((16, 16), 8, 4),
         ((4, 4, 4), 32, 1), ((256,), 32, 4), ((2, 2), 32, 8), ((4096,), 1, 1),
         ((2,) * 16, 1, 1), ((2,), 128, 64)]
# the stack term counts nothing n_j-sized, so (2,)^16 at d = 16 and (65536,)
# at d = 64 are admitted, and the per-element term dominates all three
LARGE_CASES = [((2,) * 16, 16, 1), ((65536,), 4, 1), ((65536,), 64, 1)]


def traced_planted_run(tmp_path, command, orders, dim, mult, xi=False):
    """The traced peak of ``command`` on a planted representation, which must
    exit 0; with ``xi``, rig also reads a random amplitude on all of G."""
    rep = planted_representation(orders, dim, mult, seed=dim + mult)
    src = tmp_path / "rep.json"
    dump_json(representation_to_payload(rep), src)
    argv = [command, "--input", str(src), "--output", str(tmp_path / "out.json")]
    if xi:
        rng = np.random.default_rng(0)
        amps = rng.uniform(0.5, 2.0, rep.group.size) * np.exp(2j * np.pi * rng.random(rep.group.size))
        dump_json(function_to_payload(DualFunction(rep.group, amps)), tmp_path / "xi.json")
        argv += ["--xi", str(tmp_path / "xi.json")]
    code, peak = traced_peak(argv)
    assert code == 0
    return peak


@pytest.mark.parametrize("command", ["decompose", "rig"])
@pytest.mark.parametrize("orders, dim, mult", CASES)
def test_decompose_and_rig_peak_within_their_estimate(tmp_path, command, orders, dim, mult):
    peak = traced_planted_run(tmp_path, command, orders, dim, mult)
    assert peak <= cli.peak_estimate(command, orders, dim)


@pytest.mark.parametrize("orders, dim, mult", LARGE_CASES)
def test_decompose_peaks_within_its_estimate_on_65536_elements(tmp_path, orders, dim, mult):
    peak = traced_planted_run(tmp_path, "decompose", orders, dim, mult)
    assert peak <= cli.peak_estimate("decompose", orders, dim)


@pytest.mark.parametrize("orders, dim, mult", LARGE_CASES)
def test_rig_peaks_within_its_estimate_on_65536_elements(tmp_path, orders, dim, mult):
    peak = traced_planted_run(tmp_path, "rig", orders, dim, mult)
    assert peak <= cli.peak_estimate("rig", orders, dim)


@pytest.mark.parametrize("orders, dim", [((2,) * 16, 4), ((65536,), 8)])
def test_rig_with_an_amplitude_file_peaks_within_its_estimate(tmp_path, orders, dim):
    # the parsed amplitudes add to the per-element arrays
    peak = traced_planted_run(tmp_path, "rig", orders, dim, 1, xi=True)
    assert peak <= cli.peak_estimate("rig", orders, dim)


def test_decompose_on_64x64_d16_peaks_below_one_operator_stack(tmp_path):
    peak = traced_planted_run(tmp_path, "decompose", (64, 64), 16, 1)
    assert peak < 16 * 64 * 64 * 16 ** 2


def test_rig_on_64x64_d16_peaks_below_one_operator_stack(tmp_path):
    peak = traced_planted_run(tmp_path, "rig", (64, 64), 16, 1)
    assert peak < 16 * 64 * 64 * 16 ** 2


@pytest.mark.parametrize("dim", [1, 8, 32])
def test_selftest_peaks_within_its_estimate(tmp_path, dim):
    code, peak = traced_peak(["selftest", "--max-group-size", "16", "--max-dim", str(dim),
                              "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert peak <= cli.peak_estimate("selftest", (16,), dim)


def fresh_rss_growth(argv):
    """Exit code and ru_maxrss growth, in bytes, of one CLI run over the
    interpreter that imported the package, in a process started from a fresh
    interpreter: a child's ru_maxrss starts from the RSS of its parent."""
    inner = ("import resource, sys; from abelian_spectra import cli; "
             "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
             "code = cli.main(sys.argv[1:]); "
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)")
    outer = "import subprocess, sys; subprocess.run([sys.executable, '-c', *sys.argv[1:]])"
    out = subprocess.run([sys.executable, "-c", outer, inner, *argv], capture_output=True,
                         text=True, check=True).stdout.splitlines()[-1].split()
    return int(out[0]), int(out[1]) * 1024  # ru_maxrss is in KiB


def largest_admitted_size(command):
    """The largest |G| ``command`` admits at dim 0, from its all-per-element model."""
    stacks, per_entry, per_element, per_pair = cli.PEAK_MODEL[command]
    assert (stacks, per_entry, per_pair) == (0, 0, 0)
    return (cli.OPERATOR_STACK_BUDGET - cli.PEAK_BASE) // per_element


def point_mass_argv(tmp_path, orders):
    dump_json(function_to_payload(delta(make_group(orders, size_cap=2**20))), tmp_path / "phi.json")
    return ["gns", "--input", str(tmp_path / "phi.json"), "--output", str(tmp_path / "out.json"),
            "--max-group-size", str(2**20)]


def test_gns_on_the_largest_admitted_point_mass_stays_within_its_estimate(tmp_path):
    size = largest_admitted_size("gns")
    estimate = cli.peak_estimate("gns", (size,), 0)
    assert estimate <= cli.OPERATOR_STACK_BUDGET < cli.peak_estimate("gns", (size + 1,), 0)
    argv = point_mass_argv(tmp_path, (size,))
    code, peak = traced_peak(argv)
    assert code == 0 and peak <= estimate
    code, growth = fresh_rss_growth(argv)
    assert code == 0 and growth <= estimate


def test_gns_on_the_2_17_point_mass_grows_its_rss_within_its_estimate(tmp_path):
    # (2,)^k takes the most bytes per element; 2^17 is the largest such group admitted
    orders = (2,) * 17
    assert 2 * 2**17 > largest_admitted_size("gns") >= 2**17
    code, growth = fresh_rss_growth(point_mass_argv(tmp_path, orders))
    assert code == 0 and growth <= cli.peak_estimate("gns", orders, 0)


def test_gns_one_element_above_the_largest_admitted_exits_2(tmp_path, capsys):
    size = largest_admitted_size("gns") + 1
    assert cli.main(point_mass_argv(tmp_path, (size,))) == 2
    err = capsys.readouterr().err
    assert f"gns on |G| = {size}" in err and "over the memory budget" in err
    assert not (tmp_path / "out.json").exists()
