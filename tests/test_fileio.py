"""JSON payload schemas and parsing errors."""

import json
import tracemalloc

import numpy as np
import pytest

from abelian_spectra import (
    DualFunction,
    FileFormatError,
    GroupFunction,
    InvalidGroupError,
    RepresentationValidationError,
    make_group,
    regular_representation,
)
from abelian_spectra.fileio import (
    complex_matrix_payload,
    complex_vector_payload,
    dump_json,
    function_from_payload,
    function_to_payload,
    group_from_payload,
    group_to_payload,
    load_json,
    parse_complex_array,
    representation_from_payload,
    representation_to_payload,
)
from test_cli_fuzz import BAD_ENTRIES


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_complex_pair_and_vector():
    assert complex_vector_payload(np.array([1 - 2j])) == [[1.0, -2.0]]
    assert complex_vector_payload(np.array([1j, 2.0])) == [[0.0, 1.0], [2.0, 0.0]]
    assert complex_matrix_payload(np.eye(2)) == [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    # negative zero, subnormals, huge values, ints and complex64 encode
    # entry by entry as the pairs of Python complex numbers
    v = np.array([-0.0, complex(0.0, -0.0), 1e-320 - 5e300j, 0.1 + 0.3j])
    for arr in (v, np.arange(-3, 3), v[[0, 1, 3]].astype(np.complex64),
                v.reshape(2, 2)):
        want = [[z.real, z.imag] for z in map(complex, np.ravel(arr))]
        got = complex_vector_payload(arr)
        assert got == want
        assert [str(x) for pair in got for x in pair] == [str(x) for pair in want for x in pair]
    cube = np.arange(12).reshape(2, 3, 2) * (1 - 1j)
    assert complex_matrix_payload(cube) == [
        [[[z.real, z.imag] for z in map(complex, row)] for row in plane] for plane in cube]
    assert complex_matrix_payload(v.reshape(2, 2)) == [
        [[z.real, z.imag] for z in map(complex, row)] for row in v.reshape(2, 2)]


def test_parse_complex_array_round_trips_floats():
    v = np.array([0.1 + 0.3j, -7.25, 1e-17j])
    raw = json.loads(json.dumps(complex_vector_payload(v)))
    np.testing.assert_array_equal(parse_complex_array(raw, "values"), v)


@pytest.mark.parametrize("raw,message", [
    ("nope", "must be an array"),
    ([[1.0]], "entry 0 must be a \\[re, im\\] number pair"),
    ([[1.0, 2.0, 3.0]], "entry 0"),
    ([["1", 2.0]], "entry 0"),
    ([[True, 0.0]], "entry 0"),
    ([[1.0, 2.0], 5], "entry 1"),
])
def test_parse_complex_array_rejects_malformed_entries(raw, message):
    with pytest.raises(FileFormatError, match=message):
        parse_complex_array(raw, "values")


@pytest.mark.parametrize("raw,message", [
    ([[1.0, 0.0], [float("nan"), 0.0]], "entry 1 must be finite"),
    ([[0.0, float("inf")]], "entry 0 must be finite"),
    ([[0.0, 0.0], [-float("inf"), 1.0]], "entry 1 must be finite"),
    ([[10 ** 400, 0.0]], "entry 0 must be finite"),
])
def test_parse_complex_array_rejects_non_finite_entries(raw, message):
    with pytest.raises(FileFormatError, match=message):
        parse_complex_array(raw, "values")


def test_parse_complex_array_checks_length():
    with pytest.raises(FileFormatError, match="has 1 entries, expected 2"):
        parse_complex_array([[1.0, 0.0]], "values", expected=2)


def test_parse_complex_array_is_bit_identical_to_complex_per_entry(rng):
    floats = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    raw = floats.reshape(-1, 2).tolist() + [
        [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, -5e-324],
        [2 ** 53 + 1, -(2 ** 53 + 1)], [2 ** 1000, 0], [0, -(2 ** 1000)],
        [np.float64(0.1), np.float64(-0.0)], [3, -7], [1e308, -1.7976931348623157e308]]
    got = parse_complex_array(raw, "values")
    assert got.dtype == complex and got.shape == (len(raw),)
    want = np.array([complex(re, im) for re, im in raw], dtype=complex)
    assert got.tobytes() == want.tobytes()
    assert parse_complex_array([], "values").shape == (0,)


def _one_defect_message(entry):
    """The message tail the parser gives for ``entry`` as its only defect."""
    if isinstance(entry, list) and len(entry) == 2 and all(type(x) is float for x in entry):
        return f"must be finite, got {entry!r}"  # NaN or infinity
    if entry == [10 ** 400, 0]:
        return "must be finite"  # beyond the float range: no float to show
    return f"must be a [re, im] number pair, got {entry!r}"


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
def test_parse_complex_array_names_a_defect_deep_in_a_long_array(entry):
    raw = [[float(i), -0.5] for i in range(8192)]
    raw[4097] = entry
    with pytest.raises(FileFormatError) as info:
        parse_complex_array(raw, "values")
    assert str(info.value) == f"field 'values' entry 4097 {_one_defect_message(entry)}"


@pytest.mark.parametrize("first,second,message", [
    # an out-of-range integer is found in the same pass as a malformed entry
    ([10 ** 400, 0], [True, 0.0], "entry 3 must be finite"),
    ([True, 0.0], [10 ** 400, 0], "entry 3 must be a [re, im] number pair"),
    ([1.0], ["1", 0.0], "entry 3 must be a [re, im] number pair"),
    ([float("inf"), 0.0], [0.0, float("nan")], "entry 3 must be finite, got [inf, 0.0]"),
    # NaN and infinity are found after every entry is known to be a pair
    ([float("nan"), 0.0], [True, 0.0], "entry 7 must be a [re, im] number pair"),
])
def test_parse_complex_array_names_the_first_defect(first, second, message):
    raw = [[0.0, 0.0]] * 10
    raw[3], raw[7] = first, second
    with pytest.raises(FileFormatError) as info:
        parse_complex_array(raw, "values")
    assert str(info.value).startswith(f"field 'values' {message}")


def test_parse_complex_array_peak_memory_is_a_few_bytes_per_pair(rng):
    n = 65536
    raw = rng.standard_normal((n, 2)).tolist()
    tracemalloc.start()
    try:
        out = parse_complex_array(raw, "values")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert peak / n <= 24


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_group_payload_round_trip():
    G = make_group((2, 3, 4))
    assert group_to_payload(G) == {"orders": [2, 3, 4]}
    assert group_from_payload({"orders": [2, 3, 4]}) == G


@pytest.mark.parametrize("payload,message", [
    (17, "must be a JSON object"),
    ({}, "missing field 'orders'"),
    ({"orders": []}, "non-empty array"),
    ({"orders": "23"}, "non-empty array"),
    ({"orders": [2, "3"]}, "must be an integer"),
    ({"orders": [True]}, "must be an integer"),
])
def test_group_payload_rejects_malformed_input(payload, message):
    with pytest.raises(FileFormatError, match=message):
        group_from_payload(payload)


def test_group_payload_respects_the_size_cap():
    with pytest.raises(InvalidGroupError, match="size cap"):
        group_from_payload({"orders": [300]}, size_cap=256)


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def test_function_payload_round_trip_both_domains():
    G = make_group((2, 2))
    f = GroupFunction(G, np.array([1.0, 2j, -0.5, 0.25 + 1j]))
    payload = json.loads(json.dumps(function_to_payload(f)))
    back = function_from_payload(payload)
    assert isinstance(back, GroupFunction)
    assert back.group == G
    np.testing.assert_array_equal(back.values, f.values)

    F = DualFunction(G, f.values)
    payload = function_to_payload(F)
    assert payload["domain"] == "dual"
    assert isinstance(function_from_payload(payload), DualFunction)


@pytest.mark.parametrize("mutate,message", [
    (lambda p: p.pop("domain"), "missing field 'domain'"),
    (lambda p: p.update(domain="spectral"), "must be 'group' or 'dual'"),
    (lambda p: p.update(values=p["values"][:-1]), "has 3 entries, expected 4"),
    (lambda p: p.pop("group"), "missing field 'group'"),
    (lambda p: p.update(group=[2]), "must be a JSON object"),
])
def test_function_payload_rejects_malformed_input(mutate, message):
    G = make_group((4,))
    payload = function_to_payload(GroupFunction(G, np.arange(4, dtype=complex)))
    mutate(payload)
    with pytest.raises(FileFormatError, match=message):
        function_from_payload(payload)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_representation_payload_round_trip():
    G = make_group((2, 3))
    rep = regular_representation(G)
    payload = json.loads(json.dumps(representation_to_payload(rep)))
    back = representation_from_payload(payload)
    assert back.group == G
    assert back.dim == 6
    for U, V in zip(back.generators, rep.generators):
        np.testing.assert_array_equal(U, V)


def test_representation_payload_generators_are_row_major():
    G = make_group((2,))
    payload = {
        "group": {"orders": [2]},
        "dim": 2,
        "generators": [[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
    }
    rep = representation_from_payload(payload)
    np.testing.assert_array_equal(rep.generators[0], [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("mutate,message", [
    (lambda p: p.pop("dim"), "missing field 'dim'"),
    (lambda p: p.update(dim=2.0), "must be an integer"),
    (lambda p: p.update(dim=0), "must be positive"),
    (lambda p: p.update(generators=p["generators"] * 2), "must contain 1 matrices"),
    (lambda p: p.update(generators=[p["generators"][0][:-1]]),
     r"generators\[0\]' has 3 entries, expected 4"),
])
def test_representation_payload_rejects_malformed_input(mutate, message):
    G = make_group((2,))
    payload = representation_to_payload(regular_representation(G))
    mutate(payload)
    with pytest.raises(FileFormatError, match=message):
        representation_from_payload(payload)


def test_representation_payload_still_validates_the_algebra():
    payload = {
        "group": {"orders": [2]},
        "dim": 2,
        # a shear: parses fine, fails unitarity
        "generators": [[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]],
    }
    with pytest.raises(RepresentationValidationError):
        representation_from_payload(payload)


# ---------------------------------------------------------------------------
# files on disk
# ---------------------------------------------------------------------------

def test_dump_and_load_json(tmp_path):
    target = tmp_path / "payload.json"
    text = dump_json({"a": [1.5, -2.0]}, target)
    assert text.endswith("\n")
    assert target.read_text() == text
    assert load_json(target) == {"a": [1.5, -2.0]}


def test_dump_json_without_path_only_returns_text():
    assert json.loads(dump_json({"x": 1})) == {"x": 1}


def test_load_json_reports_missing_files(tmp_path):
    with pytest.raises(FileFormatError, match="cannot read"):
        load_json(tmp_path / "absent.json")


def test_load_json_reports_syntax_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_json(bad)


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" + b"1" * 5000 + b"]"],
                         ids=["bad-utf8", "over-long-integer"])
def test_load_json_reports_undecodable_content(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_json(bad)


def test_dump_json_encodes_complex_arrays_and_refuses_real_ones():
    m = np.array([[1 + 2j, 3j], [-1.5 + 0j, 0j]])
    assert json.loads(dump_json({"m": m, "rows": list(m)})) == {
        "m": complex_matrix_payload(m), "rows": [complex_vector_payload(r) for r in m]}
    with pytest.raises(TypeError, match="ndarray"):
        dump_json({"x": np.ones(2)})


def test_dump_json_rejects_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})
