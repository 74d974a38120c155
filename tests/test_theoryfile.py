"""Theory file format: exact parsing, rejection rules, round-trips."""

import copy
import json
from fractions import Fraction as F

import pytest

from wignerlab import catalog, theoryfile
from wignerlab.cli import main
from wignerlab.errors import ParseError
from wignerlab.geometry import AffineFunctional


def test_round_trip_is_byte_identical_for_all_catalog_entries():
    for name in catalog.CATALOG_NAMES:
        entry = catalog.load(name)
        reps = sorted(entry.representations)
        wigner = (reps[0], entry.representations[reps[0]]) if reps else None
        text = theoryfile.dumps(entry.theory, wigner)
        theory2, wigner2 = theoryfile.loads(text)
        assert theoryfile.dumps(theory2, wigner2) == text


def test_decimals_parse_exactly():
    theory, _ = theoryfile.loads(
        """
        {"state_space": {"type": "polytope", "vertices": [["0","0"],["1","0"],["0","1"]]},
         "observables": [
           {"name": "A", "outcomes": [0, 1],
            "effects": [{"linear": ["0.25", "0.5"], "constant": "0.1"},
                        {"linear": ["-1/4", "-1/2"], "constant": "9/10"}]},
           {"name": "B", "outcomes": [0],
            "effects": [{"linear": ["0", "0"], "constant": 1}]}
         ]}
        """
    )
    f = theory.obs_a.effects[0]
    assert f.linear == (F(1, 4), F(1, 2)) and f.constant == F(1, 10)


def test_bare_floats_rejected():
    with pytest.raises(ParseError, match="not exact"):
        theoryfile.loads(
            '{"state_space": {"type": "polytope", "vertices": [[0.25]]},'
            ' "observables": []}'
        )


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="malformed rational"):
        theoryfile.loads(
            '{"state_space": {"type": "polytope", "vertices": [["1/0"]]},'
            ' "observables": [{"name": "A", "outcomes": [0],'
            ' "effects": [{"linear": ["0"], "constant": "1"}]}]}'
        )


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as info:
        theoryfile.loads("{not json")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        theoryfile.loads(
            '{"state_space": {"type": "polytope", "vertices": [["x"]]},'
            ' "observables": []}'
        )
    assert "state_space.vertices[0][0]" in str(info.value)


def test_redundant_vertices_rejected_at_parse():
    with pytest.raises(ParseError, match="redundant"):
        theoryfile.loads(
            '{"state_space": {"type": "polytope",'
            ' "vertices": [["0"],["1"],["1/2"]]},'
            ' "observables": [{"name": "A", "outcomes": [0],'
            ' "effects": [{"linear": ["0"], "constant": "1"}]}]}'
        )


def test_wigner_block_shape_checked():
    entry = catalog.load("boxworld")
    data = theoryfile.theory_to_dict(
        entry.theory, ("W_0", entry.representations["W_0"])
    )
    data["wigner"]["grid"][0].pop()
    with pytest.raises(ParseError, match="grid row 0"):
        theoryfile.theory_from_dict(data)


def test_wigner_block_resolves_named_pair():
    entry = catalog.load("boxworld")
    rep = entry.representations["W_+"]
    text = theoryfile.dumps(entry.theory, ("W_+", rep))
    _, parsed = theoryfile.loads(text)
    assert parsed[0] == "W_+"
    assert parsed[1].obs_a.name == "C" and parsed[1].obs_b.name == "D"
    assert parsed[1].grid == rep.grid


RATIONAL_STRINGS = [
    "0", "-0", "7", "-12", "3/4", "-3/4", "00/05", "6/4", "1/0", "0/0", "1/-2",
    " 3/4 ", "3 / 4", "+3", "+3/4", "1_000", "1_0/3", "٣", "٣/4", "1e3",
    "0.25", "-.5", "1.", "", "-", "/", "3/", "/4", "abc", "3/4/5", "--3", "3\n",
    "1,2", "3/4,5", ",", "1/2,",
    "1" * 300, "-" + "9" * 300 + "/" + "7" * 301, "1" * 5000,
]


@pytest.mark.parametrize("text", RATIONAL_STRINGS)
def test_parse_rational_matches_fraction_on_this_interpreter(text):
    """The canonical-form fast path accepts and rejects what Fraction does."""
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None:
        with pytest.raises(ParseError, match="malformed rational"):
            theoryfile.parse_rational(text, "x")
        return
    got = theoryfile.parse_rational(text, "x")
    assert got == expected and type(got) is F


def test_parse_rational_json_values():
    assert theoryfile.parse_rational(5, "x") == 5
    assert theoryfile.parse_rational(-10 ** 300, "x") == -10 ** 300
    for bad in (True, False, 0.5, 2.0, None, ["1"]):
        with pytest.raises(ParseError):
            theoryfile.parse_rational(bad, "x")


def _outcome(read):
    try:
        return "read", read()
    except ParseError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("value", RATIONAL_STRINGS + [5, -10 ** 300, True, None, 0.5, ["1"]])
def test_vectors_and_functionals_read_as_element_by_element(value):
    """``parse_vector`` and ``parse_functional`` give what reading each
    element with ``parse_rational`` at its own path gives: the same
    ``Fraction``s, or the same error with the same path."""
    values = ["1/2", value, "-3"]
    want = _outcome(lambda: tuple(
        theoryfile.parse_rational(v, f"v[{i}]") for i, v in enumerate(values)))
    got = _outcome(lambda: theoryfile.parse_vector(values, "v"))
    assert got == want
    if got[0] == "read":
        assert all(type(x) is F for x in got[1])
    want = _outcome(lambda: AffineFunctional(tuple(
        theoryfile.parse_rational(v, f"f.linear[{i}]") for i, v in enumerate(values)),
        theoryfile.parse_rational(value, "f.constant")))
    got = _outcome(lambda: theoryfile.parse_functional(
        {"linear": values, "constant": value}, "f", 3))
    assert got == want
    if got[0] == "read":
        assert all(type(x) is F for x in (*got[1].linear, got[1].constant))


def test_vectors_refuse_what_is_not_a_list():
    for bad in ("1/2", {"0": "1"}, None, 3):
        assert _outcome(lambda: theoryfile.parse_vector(bad, "v")) == (
            "refused", "expected a list of rationals (at v)")
    assert _outcome(lambda: theoryfile.parse_functional({"linear": "12"}, "f", 2)) == (
        "refused", "expected a list of rationals (at f.linear)")


def test_rational_to_str_is_str_of_fraction():
    for x in (F(0), F(-3, 4), F(10 ** 40, 3), 7, -2, True, "0.25", "6/4", F(5)):
        assert theoryfile.rational_to_str(x) == str(F(x))
    assert theoryfile.rational_to_str("0.25") == "1/4"


# a valid theory file with a pair and a wigner block; each refusal below
# changes one part of it
VALID = {
    "state_space": {"type": "polytope", "vertices": [["0"], ["1"]]},
    "observables": [
        {"name": "A", "outcomes": [0, 1],
         "effects": [{"linear": ["1"], "constant": "0"}, {"linear": ["-1"], "constant": "1"}]},
        {"name": "B", "outcomes": [0, 1],
         "effects": [{"linear": ["-1"], "constant": "1"}, {"linear": ["1"], "constant": "0"}]},
    ],
    "pair": ["A", "B"],
    "wigner": {"name": "W", "observables": ["A", "B"], "grid": [
        [{"linear": ["0"], "constant": "0"}, {"linear": ["1"], "constant": "0"}],
        [{"linear": ["-1"], "constant": "1"}, {"linear": ["0"], "constant": "0"}]]},
}
DROP = object()


@pytest.mark.parametrize("where, value, message", [
    (("observables", 0, "effects", 1), "1 - x",
     "expected an object with linear/constant (at observables[0].effects[1])"),
    (("state_space", "type"), DROP, "state_space needs a 'type' field (at state_space)"),
    (("state_space", "vertices"), [],
     "polytope needs a nonempty vertex list (at state_space.vertices)"),
    (("state_space",), {"type": "ball", "center": ["0"], "radius": "0"},
     "radius must be positive (at state_space.radius)"),
    (("state_space", "type"), "simplex",
     "unknown state space type 'simplex' (at state_space.type)"),
    ((), [], "top level must be an object"),
    (("observables",), DROP, "need a nonempty observables list (at observables)"),
    (("observables",), [], "need a nonempty observables list (at observables)"),
    (("observables", 1), "B", "observable must be an object (at observables[1])"),
    (("observables", 1, "name"), 2, "observable needs a string name (at observables[1].name)"),
    (("observables", 1, "outcomes"), DROP,
     "observable needs outcomes (at observables[1].outcomes)"),
    (("observables", 1, "outcomes"), [0, 1, 2],
     "need exactly one effect per outcome (at observables[1].effects)"),
    (("pair",), ["A"], "pair must be two observable names (at pair)"),
    (("observables", 1, "name"), "A", "duplicate observable names"),
    (("wigner",), ["W"], "wigner must be an object (at wigner)"),
    (("wigner", "observables"), ["A", "C"], "unknown observable 'C' (at wigner.observables)"),
    (("wigner", "grid"), [[]], "grid needs 2 rows (at wigner.grid)"),
    (None, None, "[Errno 21] Is a directory: '{path}' (at {path})"),
], ids=["functional", "no type", "no vertices", "radius", "unknown type", "top level",
        "no observables", "empty observables", "observable", "name", "no outcomes",
        "effect count", "pair", "duplicate names", "wigner", "wigner observables",
        "grid rows", "unreadable"])
def test_the_reader_refuses_malformed_theory_files(tmp_path, capsys, where, value, message):
    """Each refusal of the theory-file reader is a usage error (exit 2)
    with its message and, where it has one, the path of the bad part."""
    path = tmp_path / "theory.json"
    if where is None:
        path.mkdir()  # a directory cannot be read as a file
    else:
        data = copy.deepcopy(VALID)
        if where:
            *outer, last = where
            parent = data
            for key in outer:
                parent = parent[key]
            if value is DROP:
                del parent[last]
            else:
                parent[last] = value
        else:
            data = value
        path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
