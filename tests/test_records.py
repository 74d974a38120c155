"""Record classes against the dataclasses they replaced.

Every frozen value class of the engine is built by
``wignerlab._record.record``; ``reference_kernels.dataclass_twin``
rebuilds each one as its ``@dataclass(frozen=True)``.  From the same
arguments, a record and its twin must agree on construction (positional,
keyword, defaults, and a ``TypeError`` for bad arguments), on ``==`` and
``!=``, ``hash`` and ``repr``, and both must refuse assignment and
deletion.
"""

import dataclasses
from fractions import Fraction as F

import pytest

import catalog_facts
import reference_kernels as ref
from wignerlab import catalog, exact, geometry, symmetry, theory, wigner

# the engine's modules, and the record of the catalog's facts
MODULES = (exact, geometry, theory, wigner, symmetry, catalog, catalog_facts)


def _installed(cls, method: str) -> bool:
    """Whether ``record`` installed ``method`` (the class did not define it)."""
    return getattr(cls.__dict__.get(method), "__module__", None) == "wignerlab._record"


RECORDS = sorted(
    (
        value for m in MODULES for value in vars(m).values()
        if isinstance(value, type) and value.__module__ == m.__name__
        and _installed(value, "__setattr__")
    ),
    key=lambda cls: cls.__name__,
)


def _catalog_instances() -> dict:
    """Two unequal instances of each record class reachable from the
    catalog entries (one where the catalog holds only one)."""
    found: dict = {}
    seen: set = set()

    def walk(x):
        if id(x) in seen:
            return
        seen.add(id(x))
        if type(x) in RECORDS:
            kept = found.setdefault(type(x), [])
            if len(kept) < 2 and all(x is not y and x != y for y in kept):
                kept.append(x)
            for name in type(x).__annotations__:
                walk(getattr(x, name))
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif isinstance(x, dict):
            for k, v in x.items():
                walk(k)
                walk(v)

    walk([catalog.load(name) for name in catalog.CATALOG_NAMES])
    return found


def _cases() -> dict:
    """Two argument tuples for each record class: field values of catalog
    instances, one string per field for a class without ``__post_init__``,
    and valid values for the rest."""
    cases = {
        exact.LinearProgram: [(2, [((1, 1), 1)], [((1, 0), 0)]), (1, [], [((1,), F(1, 3))])],
        geometry.ExtremalValue: [(F(1, 4), F(-1, 4), 3), (F(1, 2), F(1, 3), 2)],
        theory.Distribution: [((F(1, 2), F(1, 2)),), ((1, 0, 0),)],
        wigner.SignedGrid: [(((F(1, 2), 0), (0, F(1, 2))),), (((1, 0), (0, 0)),)],
    }
    for cls, objs in _catalog_instances().items():
        names = type(objs[0]).__annotations__
        cases[cls] = [tuple(getattr(obj, name) for name in names) for obj in objs * (3 - len(objs))][:2]
    for cls in RECORDS:
        if cls not in cases and not hasattr(cls, "__post_init__"):
            cases[cls] = [tuple(f"{name}-{k}" for name in cls.__annotations__) for k in (0, 1)]
    return cases


CASES = _cases()


def test_every_record_class_has_cases():
    assert len(RECORDS) == 38
    assert set(CASES) == set(RECORDS)
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in RECORDS)


def _raises(exc, fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except exc:
        return True
    return False


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = ref.dataclass_twin(cls)
    first, second = CASES[cls]
    rec, dc = cls(*first), twin(*first)
    assert repr(rec) == repr(dc)

    # a class's own __eq__ (ExtremalValue's) names the class, not its twin
    if _installed(cls, "__eq__"):
        for args in (first, second):
            other_rec, other_dc = cls(*args), twin(*args)
            assert (rec == other_rec) == (dc == other_dc)
            assert (rec != other_rec) == (dc != other_dc)
        assert rec != cls(*second) or first == second
        assert (rec == first) == (dc == first) and (rec != first) == (dc != first)
        assert rec != dc and not rec == dc
        if _raises(TypeError, hash, dc):
            assert _raises(TypeError, hash, rec)
        else:
            assert hash(rec) == hash(dc) == hash(cls(*first))

    for obj in (rec, dc):
        for name in [f.name for f in dataclasses.fields(twin)]:
            assert _raises(AttributeError, setattr, obj, name, None)
            assert _raises(AttributeError, delattr, obj, name)
    # (a frozen slots dataclass raises TypeError here on Python < 3.12)
    assert _raises(AttributeError, setattr, rec, "no_such_field", None)
    assert _raises(AttributeError, delattr, rec, "no_such_field")


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if _installed(cls, "__init__")],
    ids=lambda cls: cls.__name__,
)
def test_record_constructor_matches_its_dataclass_twin(cls):
    twin = ref.dataclass_twin(cls)
    fields = dataclasses.fields(twin)
    names = [f.name for f in fields]
    required = sum(f.default is dataclasses.MISSING for f in fields)
    first = CASES[cls][0]
    expected = repr(twin(*first))

    by_name = dict(zip(names, first))
    assert repr(cls(**by_name)) == repr(twin(**by_name)) == expected
    rest = dict(list(by_name.items())[1:])
    assert repr(cls(first[0], **rest)) == expected

    for given in range(required, len(names)):
        args = first[:given]
        assert repr(cls(*args)) == repr(twin(*args))
        assert (cls(*args) == cls(*first)) == (twin(*args) == twin(*first))
    short = first[:required]
    if required < len(names):
        last = {names[-1]: first[-1]}
        assert repr(cls(*short, **last)) == repr(twin(*short, **last))

    bad = [(first + ("extra",), {}), (first, {"no_such_field": 1}), (first, {names[0]: first[0]})]
    if required:
        bad.append((first[:required - 1], {}))
    for args, kwargs in bad:
        assert _raises(TypeError, twin, *args, **kwargs)
        assert _raises(TypeError, cls, *args, **kwargs)


def test_a_patched_post_init_is_what_construction_runs(monkeypatch):
    calls = []
    original = geometry.Polytope.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(geometry.Polytope, "__post_init__", counted)
    square = geometry.Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(calls) == 1 and calls[0] is square and square._facets is not None
    monkeypatch.undo()
    geometry.Polytope([(0, 0), (1, 0), (0, 1)])
    assert len(calls) == 1


def test_catalog_entries_get_fresh_empty_named_dicts():
    # the dataclass had field(default_factory=dict) for both
    cube, trit = catalog.load("cube"), catalog.load("trit")
    assert cube.named_channels == {} and cube.named_maps == {} and trit.named_maps == {}
    assert cube.named_maps is not trit.named_maps
    assert set(trit.named_channels) == {"rotation"}


def test_truthiness_is_the_verdict():
    """``if result:`` reads the verdict of every result record, true and false."""
    box, trit, gon = (catalog.load(name) for name in ("boxworld", "trit", "deformed_12gon"))
    w0, whalf, wplus = (box.representations[name] for name in ("W_0", "W_1/2", "W_+"))
    # B's outcomes swapped in every row: the column sums no longer give B
    swapped = wigner.WignerRep(w0.state_space, w0.obs_a, w0.obs_b,
                               tuple(row[::-1] for row in w0.grid))
    space = gon.theory.state_space
    results = [
        geometry.map_into(space, geometry.AffineMap.from_rows([[1, 0], [0, 1]], [0, 0]), space),
        geometry.map_into(space, geometry.AffineMap.from_rows([[1, 0], [0, -1]], [0, 0]), space),
        *(symmetry.is_symmetry(whalf, symmetry.lift(symmetry.PhasePointMap.transposition(
            (2, 2), (0, 1), q))) for q in ((1, 0), (0, 0))),
        wigner.check_marginals(w0), wigner.check_marginals(swapped),
        wigner.is_positive(wplus), wigner.is_positive(w0),
    ]
    verdicts = [r.ok for r in results]
    assert verdicts == [True, False] * 4
    assert [bool(r) for r in results] == verdicts
    choices = [wigner.faithful_choice_possible(t.obs_a, t.obs_b, t.state_space)
               for t in (box.theory, trit.theory)]
    assert [c.possible for c in choices] == [True, False]
    assert [bool(c) for c in choices] == [True, False]
