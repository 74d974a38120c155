"""The catalog is the regression corpus: every entry replays green."""

import pytest

from catalog_facts import FACTS, replay
from wignerlab import catalog
from wignerlab.errors import WignerlabError
from wignerlab.theory import validate
from wignerlab.wigner import check_marginals


@pytest.mark.parametrize("name", catalog.CATALOG_NAMES)
def test_entry_replays_green(name):
    entry = catalog.load(name)
    failures = [
        f"{label} [{provenance}]"
        for label, ok, provenance in replay(entry)
        if not ok
    ]
    assert not failures, failures


def test_every_entry_has_its_facts():
    counts = {name: len(FACTS[name]) for name in catalog.CATALOG_NAMES}
    assert counts == {"cube": 10, "trit": 4, "boxworld": 28, "qubit_ball": 11,
                      "qubit_xz": 7, "rebit_diamond": 6, "deformed_12gon": 7}
    assert set(FACTS) == set(catalog.CATALOG_NAMES)


@pytest.mark.parametrize("name", catalog.CATALOG_NAMES)
def test_entry_revalidates_at_load(name):
    """``load`` builds an entry without checking it; this checks each."""
    entry = catalog.load(name)
    assert validate(entry.theory) == []
    for rep in entry.representations.values():
        assert check_marginals(rep).ok


def test_unknown_name():
    with pytest.raises(WignerlabError, match="unknown catalog entry"):
        catalog.load("nope")


def test_hypothesis_patterns_across_entries():
    """The three uniqueness hypotheses split exactly as documented."""
    from wignerlab.theory import (
        are_complementary,
        is_surjective,
        jointly_info_complete,
    )

    patterns = {}
    for name in ("boxworld", "qubit_ball", "qubit_xz", "rebit_diamond"):
        entry = catalog.load(name)
        t = entry.theory
        patterns[name] = (
            jointly_info_complete(t.obs_a, t.obs_b, t.state_space),
            are_complementary(t.obs_a, t.obs_b, t.state_space),
            is_surjective(t.obs_a, t.state_space)
            and is_surjective(t.obs_b, t.state_space),
        )
    assert patterns["boxworld"] == (True, False, True)
    assert patterns["qubit_ball"] == (False, True, True)
    assert patterns["qubit_xz"] == (True, True, True)
    assert patterns["rebit_diamond"] == (True, True, True)
