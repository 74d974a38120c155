"""Report documents and their re-verification.

Every analysis command emits a JSON report, format ``wignerlab-report/2``,
that embeds its theory, and whose verdict-bearing claims carry the data
needed to re-check them against that theory: LP witnesses and Farkas
certificates are replayed by plain multiplier arithmetic (never by
re-running the solver), rank claims by exact elimination, and a
covariance identity W_g(a,b)(F p) = W_ab(p) as the transport square of
g's phase table (``programs.transport_equations``, ``theory._solves``) at
the affine basis of K.  A claim passes only if its data proves its
``verdict``, and its witnesses are about the report's own theory: a
grid entry of its representation, an effect of its pair, a state of its
K, or K's own center and radius.

``CLAIM_KINDS`` is the claim format: a row per kind that lists the
fields after ``id, kind, statement, verdict`` and the rule that derives
the id from the claim's data, and ``READERS`` holds one typed reader per
field.  The builders (``lp_claim`` and the others) write the fields in
their row's order, and ``verify`` reads each claim once through the
table: a verdict, ``expect`` or ``negative`` is a JSON boolean, a count
or a permutation entry an int and never a bool, an ``outcome`` one of
its observable's, a ``pair`` the report's own pair, and a claim whose id
is not one its data gives fails.  No
claim carries an LP program: an LP claim names the arguments of its
program's constructor in ``programs`` (``observable`` and ``outcome``;
``perm_a`` and ``perm_b``; ``rep`` and ``table``), or none, and
``verify`` rebuilds the program from the embedded theory
(``_program``), multiplier counts included.

Generators decide covariance.  Covariance identities compose, so a
report that carries a covariance claim, or a ``covariant`` report with a
representation, needs a ``covariance_identity`` claim for each generator
of S_m x S_n (the adjacent transpositions of A's outcomes, then of
B's), and each missing one is a failing row under the id its claim
would have had.  A claim covers the generator its id names; its own row
fails unless its permutations name that generator too.

A report's ``result``, which every ``covariant`` report must have, names
what the report carries (``RESULTS``): ``unique`` and ``family`` a
representation, ``none`` a ``no_covariant`` claim, ``hypothesis_failure``
neither.  Only their presence is read, not whether they verify, so a
tampered claim fails alone; a result that names something else is a
failing ``result`` row.  ``unique`` and ``family`` are not told apart.  ``verify_report`` returns one
(claim id, ok) row per claim, per missing generator and per wrong
result, and is the engine behind ``verify``.

Not every LP answer comes from the simplex (surjectivity from vertex
values, a fixed channel that leaves the target from its violated facet,
unequal effect sums in closed form), but each passes the same guard as
a simplex answer, and ``verify`` cannot tell them apart.

``dump_report`` writes ``{``, then one line per top-level key, in the
report's order, then ``}``.  The ``claims`` list spans lines of its own:
``"claims": [``, one line per claim, and ``]``.  Each value is compact
JSON from ``json.dumps``.  ``load_report`` reads any JSON layout, an
``indent=2`` copy included.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Optional

from . import programs
from .errors import ParseError
from .exact import Infeasible, LinearProgram, Matrix, verify_certificate
from .geometry import (
    AffineFunctional, AffineMap, Ball, ExtremalValue, contains, dimension, extremal_range,
    map_into,
)
from .theory import _solves, are_complementary, effect_span_rank, validate
from .theoryfile import (
    parse_functional, parse_rational, parse_vector, rational_to_str, ser_functional, ser_vec,
    theory_from_dict,
)
from .wigner import (
    check_marginals,
    faithful_choice_possible,
    is_faithful,
    is_positive,
)

FORMAT = "wignerlab-report/2"
# a covariant result -> whether the report carries (a representation, a no_covariant claim)
RESULTS = {"unique": (True, False), "family": (True, False), "none": (False, True),
           "hypothesis_failure": (False, False)}


def ser_map(m: AffineMap) -> dict:
    return {"matrix": [ser_vec(r) for r in m.matrix.entries], "offset": ser_vec(m.offset)}


def ser_violation(v) -> dict:
    return {
        "observable": v.observable,
        "kind": v.kind,
        "message": v.message,
        "witness": ser_vec(v.witness) if v.witness else None,
    }


def ser_certificate(cert: Infeasible) -> dict:
    return {
        "eq_multipliers": ser_vec(cert.eq_multipliers),
        "ineq_multipliers": ser_vec(cert.ineq_multipliers),
        "gap": rational_to_str(cert.gap),
    }


def ser_extremal(v: ExtremalValue) -> dict:
    return {
        "rational": rational_to_str(v.rational_part),
        "radical": rational_to_str(v.radical_part),
        "radicand": rational_to_str(v.radicand),
    }


# Readers: a JSON value to a typed one, or a ParseError at ``at``.


def _exactly(kind: type, what: str) -> Callable:
    """The reader of a value of type ``kind`` and no other: a bool is no int."""
    def read(value, at: str, *_):
        if type(value) is not kind:
            raise ParseError(f"expected {what}", path=at)
        return value
    return read


_bool, _count = _exactly(bool, "a boolean"), _exactly(int, "an integer")


def _named(value, names, at: str, what: str) -> str:
    if not isinstance(value, str) or value not in names:
        raise ParseError(f"unknown {what} {value!r}", path=at)
    return value


def read_permutation(value, n: int, at: str) -> tuple:
    """A permutation of 0..n-1: a list of ints, none of them a bool."""
    if (not isinstance(value, list) or any(type(k) is not int for k in value)
            or sorted(value) != list(range(n))):
        raise ParseError(f"expected a permutation of 0..{n - 1}", path=at)
    return tuple(value)


def read_map(obj, dim: int, at: str = "") -> AffineMap:
    """The ``dim`` x ``dim`` affine map of a ``{matrix, offset}`` object,
    as ``ser_map`` writes it; its rows and offset are lists of rationals,
    read at ``{at}matrix`` and ``{at}offset``."""
    def entries(values, key):
        if not isinstance(values, list):
            raise ParseError("expected a list of rationals", path=at + key)
        return [parse_rational(x, at + key) for x in values]

    matrix = obj.get("matrix")
    rows = [entries(r, "matrix") for r in matrix] if isinstance(matrix, list) else []
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ParseError(f"expected {dim} rows of {dim} entries", path=f"{at}matrix")
    offset = entries(obj.get("offset", []), "offset")
    if len(offset) != dim:
        raise ParseError(f"offset length must equal matrix row count, {dim}", path=f"{at}offset")
    return AffineMap(Matrix.from_rows(rows), tuple(offset))


def _read_joint(value, at: str, theory, *_) -> list[AffineFunctional]:
    """The n_a x n_b grid of functionals, row by row."""
    n_a, n_b = theory.obs_a.n_outcomes, theory.obs_b.n_outcomes
    if not isinstance(value, list) or [len(r) if isinstance(r, list) else -1
                                       for r in value] != [n_b] * n_a:
        raise ParseError(f"expected {n_a} rows of {n_b} functionals", path=at)
    dim = theory.state_space.ambient_dim
    return [parse_functional(f, at, dim) for row in value for f in row]


def _read_pair(value, at: str, theory, *_) -> tuple:
    if value != [theory.obs_a.name, theory.obs_b.name]:
        raise ParseError("expected the report's observable pair", path=at)
    return theory.obs_a, theory.obs_b


def _read_outcome(value, at: str, theory, reps, got):
    """An outcome of the claim's observable, of the type its theory gives it."""
    if not any(type(value) is type(o) and value == o for o in got["observable"].outcomes):
        raise ParseError(f"unknown outcome {value!r}", path=at)
    return value


# One typed reader per field: (value, at, theory, representations by
# name, the claim's fields read so far) -> the field's value.
READERS: dict[str, Callable] = {
    "what": lambda v, at, *_: _named(v, RECOMPUTE, at, "recompute target"),
    "pair": _read_pair,
    "rep": lambda v, at, t, reps, _: reps[_named(v, reps, at, "representation")],
    "observable": lambda v, at, t, *_: t.observable(
        _named(v, (t.obs_a.name, t.obs_b.name), at, "observable of the pair")),
    "outcome": _read_outcome,
    "perm_a": lambda v, at, t, *_: read_permutation(v, t.obs_a.n_outcomes, at),
    "perm_b": lambda v, at, t, *_: read_permutation(v, t.obs_b.n_outcomes, at),
    "table": lambda v, at, t, reps, got: read_permutation(
        v, len(got["rep"].functionals()), at),
    "witness": lambda v, at, *_: parse_vector(v, at),
    "joint": _read_joint,
    "certificate": lambda v, at, *_: Infeasible(
        *(parse_vector(v[k], f"{at}.{k}") for k in ("eq_multipliers", "ineq_multipliers")),
        parse_rational(v["gap"], f"{at}.gap")),
    "rank": _count,
    "free_slots": _count,
    "required": _count,
    "functional": lambda v, at, t, *_: parse_functional(v, at, t.state_space.ambient_dim),
    "state": lambda v, at, *_: parse_vector(v, at),
    "value": lambda v, at, *_: parse_rational(v, at),
    "center": lambda v, at, *_: parse_vector(v, at),
    "radius": lambda v, at, *_: parse_rational(v, at),
    # the three parts of an ``ExtremalValue`` as written, not normalized
    "min": lambda v, at, *_: tuple(parse_rational(v[k], at)
                                   for k in ("rational", "radical", "radicand")),
    "negative": _bool,
    "expect": _bool,
    "channel": lambda v, at, t, *_: read_map(v, t.state_space.ambient_dim, at + "."),
}


def make_report(command: str, theory_dict: Optional[dict], claims: list[dict],
                notes: Optional[list[str]] = None, **extra) -> dict:
    report = {
        "format": FORMAT,
        "command": command,
        "theory": theory_dict,
        "claims": claims,
        "notes": notes or [],
    }
    report.update(extra)
    return report


def dump_report(report: dict) -> str:
    """The report as JSON, one line per top-level key and per claim.

    Each value is written by ``json.dumps`` without ``indent``, which
    runs CPython's C encoder; ``json.loads`` of the text is ``report``.
    """
    items = []
    for key, value in report.items():
        if key == "claims" and value:
            text = "[\n" + ",\n".join(json.dumps(claim) for claim in value) + "\n]"
        else:
            text = json.dumps(value)
        items.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def load_report(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    found = data.get("format") if isinstance(data, dict) else None
    if found != FORMAT:
        raise ParseError(f"not a {FORMAT} document (found {found!r})")
    claims = data.get("claims")
    if not isinstance(claims, list) or not all(isinstance(c, dict) for c in claims):
        raise ParseError("expected a list of claim objects", path="claims")
    if not isinstance(data.get("theory"), dict):
        raise ParseError("expected a theory object", path="theory")
    for i, claim in enumerate(claims):
        for key in ("id", "kind"):
            if not isinstance(claim.get(key), str):
                raise ParseError(f"expected a string {key}", path=f"claims[{i}].{key}")
    return data


def verify_report(report: dict) -> list[tuple[str, bool, str]]:
    """Re-check every claim of a report that ``load_report`` accepted;
    returns (claim id, ok, detail) rows."""
    theory, wigner = theory_from_dict(report["theory"])
    reps = dict([wigner]) if wigner is not None else {}
    rows = []
    for claim in report["claims"]:
        try:
            ok = _verify_claim(_read_claim(claim, theory, reps), theory, reps)
            rows.append((claim["id"], ok, "" if ok else "claim data does not re-verify"))
        except Exception as exc:  # noqa: BLE001 - report must not crash
            rows.append((claim["id"], False, f"verification error: {exc}"))
    # covariance under the generators is covariance under the group; a claim
    # covers the generator its id names, and its own row fails unless its
    # permutations name that generator too
    covered = {c["id"] for c in report["claims"] if c["kind"] == "covariance_identity"}
    if wigner is not None and (covered or report.get("command") == "covariant"):
        ids = (_covariance_id(a, b) for a, b in programs.generators(*wigner[1].shape))
        rows += [(cid, False, "no covariance claim for this generator")
                 for cid in ids if cid not in covered]
    if "result" in report or report.get("command") == "covariant":
        carried = (wigner is not None, any(c["id"] == "no_covariant" for c in report["claims"]))
        result = report.get("result")
        if not (isinstance(result, str) and RESULTS.get(result) == carried):
            rows.append(("result", False, "the result does not name what the report carries"))
    return rows


def _covariance_id(perm_a, perm_b) -> str:
    return f"covariance[(A:{tuple(perm_a)}, B:{tuple(perm_b)})]"


def surjective_id(observable: str, outcome) -> str:
    """The id of the claim that ``observable`` reaches ``outcome`` sharply."""
    return f"surjective[{observable}][{outcome}]"


def transport_id(n_b: int, table) -> str:
    """The id of the claim that no channel transports the phase table."""
    return f"no_transport[{programs.moved_points(n_b, table)}]"


def _lp_ids(d, theory) -> set:
    """The id of the program that an LP claim's arguments name, in
    ``_program``'s order; with no arguments, the id names the program."""
    if "observable" in d:
        return {surjective_id(d["observable"].name, d["outcome"])}
    if "perm_a" in d:
        return {"no_covariant"}
    if "table" in d:
        return {transport_id(d["rep"].shape[1], d["table"])}
    return {"compatibility", "no_covariant"}


def _effect_ids(d, theory) -> set:
    """The outcomes of the pair whose effect is the claim's functional."""
    return {surjective_id(obs.name, outcome) for obs in (theory.obs_a, theory.obs_b)
            for outcome, effect in zip(obs.outcomes, obs.effects) if effect == d["functional"]}


class ClaimKind(NamedTuple):
    fields: tuple  # after id, kind, statement and verdict, in written order
    ids: Callable  # (the fields as read, theory) -> the ids the data allows


LP_ARGS = ("observable", "outcome", "perm_a", "perm_b", "rep", "table")
CLAIM_KINDS = {
    "lp_feasible": ClaimKind(LP_ARGS + ("witness", "joint"), _lp_ids),
    "lp_infeasible": ClaimKind(LP_ARGS + ("certificate",), _lp_ids),
    "rank": ClaimKind(("rank",), lambda d, t: {"info_complete"}),
    "negative_entry": ClaimKind(("functional", "state", "value"),
                                lambda d, t: {"negativity_witness"}),
    "ball_entry_min": ClaimKind(("functional", "center", "radius", "min", "negative"),
                                lambda d, t: {"negativity_witness"}),
    "ball_max_one": ClaimKind(("functional", "center", "radius", "expect"), _effect_ids),
    "covariance_identity": ClaimKind(("rep", "perm_a", "perm_b", "channel"),
                                     lambda d, t: {_covariance_id(d["perm_a"], d["perm_b"])}),
    "recompute": ClaimKind(("what", "pair", "rep", "free_slots", "required"),
                           lambda d, t: {d["what"]}),
}


class _Fields(dict):
    """A claim's fields as read; a missing one is a parse error."""

    def __missing__(self, key):
        raise ParseError("missing field", path=key)


def _read_claim(claim: dict, theory, reps) -> _Fields:
    """The claim's fields through ``READERS``, in its kind's order; a
    ParseError when one does not read, or the id is not the one its data
    gives."""
    kind = claim["kind"]
    if kind not in CLAIM_KINDS:
        raise ParseError(f"unknown claim kind {kind!r}", path="kind")
    got = _Fields(id=claim["id"], kind=kind)
    for key in CLAIM_KINDS[kind].fields:
        if key in claim:
            got[key] = READERS[key](claim[key], key, theory, reps, got)
    got["verdict"] = _bool(claim.get("verdict"), "verdict")
    if got["id"] not in CLAIM_KINDS[kind].ids(got, theory):
        raise ParseError("the claim's data gives another id", path="id")
    return got


def _program(d, theory) -> LinearProgram:
    """The program an LP claim is about, rebuilt by ``programs`` from the
    report's theory and the arguments the claim names (``_lp_ids``)."""
    space = theory.state_space
    obs_a, obs_b = theory.obs_a, theory.obs_b
    if "observable" in d:
        return programs.surjectivity(d["observable"].effect(d["outcome"]), space)
    if "perm_a" in d:
        equations = programs.permutation_equations(obs_a, obs_b, d["perm_a"], d["perm_b"])
    elif "table" in d:
        equations = programs.transport_equations(d["rep"], d["table"])
    elif d["id"] == "compatibility":
        return programs.compatibility(obs_a, obs_b, space)
    else:  # the effect sums differ: the certificate lives on the marginals
        return programs.marginal_program(obs_a, obs_b)
    return programs.channel_program(space, space, programs.channel_system(space, space, equations))


# Claim builders: one per claim kind, from the engine's results, in the
# order of the ``_verify_claim`` branches that replay them.


def _claim(cid: str, kind: str, statement: str, verdict: bool, **data) -> dict:
    """The keys every claim starts with, then the kind's data that is not
    None, which each builder passes in the order of its kind's
    ``CLAIM_KINDS`` row."""
    return {"id": cid, "kind": kind, "statement": statement, "verdict": verdict,
            **{k: v for k, v in data.items() if v is not None}}


def lp_claim(cid: str, statement: str, result, joint=None, **args) -> dict:
    """``lp_infeasible`` with the Farkas certificate when ``result`` is an
    ``Infeasible``, else ``lp_feasible`` with ``result.witness`` and then
    the ``joint`` grid it holds, if given.  The ``args`` keys name the
    arguments of the program's constructor in ``programs``, beyond what
    the id and the report's theory say; ``verify`` rebuilds the program
    from them."""
    if isinstance(result, Infeasible):
        return _claim(cid, "lp_infeasible", statement, False, **args,
                      certificate=ser_certificate(result))
    return _claim(cid, "lp_feasible", statement, True, **args, witness=ser_vec(result.witness),
                  joint=joint)


def rank_claim(cid: str, statement: str, verdict: bool, matrix_rank: int) -> dict:
    """The rank of the effects of the report's pair at the affine basis of
    its K (``theory.effect_span_rank``), which ``verify`` rebuilds."""
    return _claim(cid, "rank", statement, verdict, rank=matrix_rank)


def negativity_claim(rep, witness) -> dict:
    """The ``NegativityWitness`` of a representation that is not positive:
    ``negative_entry`` at a polytope vertex, ``ball_entry_min`` on a ball."""
    a, b = witness.phase_point
    f = ser_functional(rep.grid[rep.obs_a.outcomes.index(a)][rep.obs_b.outcomes.index(b)])
    entry = f"entry {witness.phase_point}"
    if witness.state is not None:
        return _claim("negativity_witness", "negative_entry", f"{entry} is negative at a vertex",
                      True, functional=f, state=ser_vec(witness.state),
                      value=rational_to_str(witness.value))
    space = rep.state_space
    return _claim("negativity_witness", "ball_entry_min", f"{entry} dips negative on the ball",
                  True, functional=f, center=ser_vec(space.center),
                  radius=rational_to_str(space.radius), min=ser_extremal(witness.value),
                  negative=True)


def ball_max_one_claim(cid: str, statement: str, f: AffineFunctional, ball,
                       reaches: bool) -> dict:
    """Whether the maximum of ``f`` over ``ball`` is exactly 1."""
    return _claim(cid, "ball_max_one", statement, reaches, functional=ser_functional(f),
                  center=ser_vec(ball.center), radius=rational_to_str(ball.radius),
                  expect=reaches)


def covariance_claim(element, channel: AffineMap, rep_name: str) -> dict:
    """The grid of ``rep_name`` permutes with ``channel`` as ``element``
    permutes the outcomes; ``verify`` checks the transport equations of
    the element's phase table at the affine basis of K."""
    return _claim(_covariance_id(element.perm_a, element.perm_b), "covariance_identity",
                  "grid entries permute with the channel", True, rep=rep_name,
                  perm_a=list(element.perm_a), perm_b=list(element.perm_b),
                  channel=ser_map(channel))


def recompute_claim(what: str, statement: str, verdict, pair=None, rep=None, **extra) -> dict:
    """A claim with id ``what`` that ``verify`` decides by running the
    engine's ``what`` check again.  ``pair`` (two observable names) or
    ``rep`` (a representation name) says what it is about; the ``extra``
    keys follow the verdict."""
    claim = {"id": what, "kind": "recompute", "what": what}
    if pair is not None:
        claim["pair"] = list(pair)
    if rep is not None:
        claim["rep"] = rep
    claim.update(statement=statement, verdict=verdict, **extra)
    return claim


def _verify_claim(d: _Fields, theory, reps) -> bool:
    """Do the claim's fields, as ``_read_claim`` read them, prove what its
    ``verdict`` says?"""
    kind, verdict = d["kind"], d["verdict"]
    space = theory.state_space
    if kind in ("lp_feasible", "lp_infeasible"):
        lp = _program(d, theory)
        if kind == "lp_infeasible":
            return verdict is False and verify_certificate(lp, d["certificate"])
        witness = d["witness"]
        return (verdict is True and lp.check(witness)
                and ("joint" not in d or _is_joint(d["joint"], witness)))
    if kind == "rank":
        # the rank of the effects of the theory's pair at aff(K)'s basis
        span = effect_span_rank(theory.obs_a, theory.obs_b, space)
        return d["rank"] == span and verdict is (span == dimension(space) + 1)
    # a witness functional is a grid entry of the report's representation
    # (for ball_max_one, the effect its id names), on the report's own K
    if kind == "negative_entry":
        f, state = d["functional"], d["state"]
        return (verdict is True and _is_entry(f, reps) and contains(space, state)
                and f(state) == d["value"] < 0)
    if kind in ("ball_entry_min", "ball_max_one"):
        f = d["functional"]
        if not (isinstance(space, Ball) and d["center"] == space.center
                and d["radius"] == space.radius):
            return False
        low, high = extremal_range(space, f)
        if kind == "ball_max_one":
            reaches = high.compare(1) == 0
            return verdict is reaches and d["expect"] is reaches
        # the written minimum is the normal form of the actual, negative one
        return (verdict is True and d["negative"] is True and _is_entry(f, reps) and low < 0
                and (low.rational_part, low.radical_part, low.radicand) == d["min"])
    if kind == "covariance_identity":
        chan, perm_a, perm_b = d["channel"], d["perm_a"], d["perm_b"]
        if verdict is not True or not map_into(space, chan, space).ok:
            return False
        # W_g(a,b)(F p) = W_ab(p): the transport square of g's phase table
        table = [i * len(perm_b) + j for i in perm_a for j in perm_b]
        return _solves(programs.transport_equations(d["rep"], table), chan, space)
    what = d["what"]
    claimed = (verdict, d["free_slots"], d["required"]) if what == "faithful_choice" else verdict
    return RECOMPUTE[what](d, theory) == claimed


def _is_entry(f: AffineFunctional, reps) -> bool:
    return any(f in row for rep in reps.values() for row in rep.grid)


def _is_joint(joint: list[AffineFunctional], witness) -> bool:
    """Are the coefficients of the ``joint`` grid, block by block
    (``programs.grid_unknowns``), the witness?"""
    width = len(witness) // len(joint)
    return all(f.coefficients() == witness[i * width:(i + 1) * width]
               for i, f in enumerate(joint))


def _faithful_choice(d, theory) -> tuple:
    fc = faithful_choice_possible(*d["pair"], theory.state_space)
    return fc.possible, fc.free_slots, fc.required


# the value of each recompute target that the claim's verdict (and, for
# faithful_choice, its counts) must equal
RECOMPUTE: dict[str, Callable] = {
    "validate": lambda d, t: not validate(t),
    "complementary": lambda d, t: are_complementary(*d["pair"], t.state_space),
    "faithful": lambda d, t: is_faithful(d["rep"]),
    "positive": lambda d, t: is_positive(d["rep"]).ok,
    "marginals": lambda d, t: check_marginals(d["rep"]).ok,
    "faithful_choice": _faithful_choice,
}
