"""Theory file format: exact parsing, rejection rules, round-trips."""

from fractions import Fraction as F

import pytest

from wignerlab import catalog, theoryfile
from wignerlab.errors import ParseError


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
        with pytest.raises(ParseError, match=r"x\[1\]"):
            theoryfile.parse_ratios(["1", text], "x")
        return
    got = theoryfile.parse_rational(text, "x")
    assert got == expected and type(got) is F
    assert theoryfile.parse_ratio(text, "x") == (expected.numerator, expected.denominator)
    (num, den), = theoryfile.parse_ratios([text], "x")
    assert den > 0 and F(num, den) == expected


def test_parse_rational_json_values():
    assert theoryfile.parse_rational(5, "x") == 5
    assert theoryfile.parse_rational(-10 ** 300, "x") == -10 ** 300
    assert theoryfile.parse_ratios([2, "1/2", F(3, 9)], "x") == [(2, 1), (1, 2), (1, 3)]
    assert theoryfile.parse_ratios(["1", "-2/4", "0", "7/1"], "x") == [(1, 1), (-2, 4), (0, 1), (7, 1)]
    assert theoryfile.parse_ratios([], "x") == []
    for bad in (True, False, 0.5, 2.0, None, ["1"]):
        with pytest.raises(ParseError):
            theoryfile.parse_rational(bad, "x")
        with pytest.raises(ParseError):
            theoryfile.parse_ratios(["0", bad], "x")


def test_rational_to_str_is_str_of_fraction():
    for x in (F(0), F(-3, 4), F(10 ** 40, 3), 7, -2, True, "0.25", "6/4", F(5)):
        assert theoryfile.rational_to_str(x) == str(F(x))
    assert theoryfile.rational_to_str("0.25") == "1/4"
