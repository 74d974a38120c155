"""Report documents and their re-verification.

Every analysis command emits a JSON report, format ``wignerlab-report/2``,
that embeds its theory, and whose verdict-bearing claims carry the data
needed to re-check them against that theory: LP witnesses and Farkas
certificates are replayed by plain multiplier arithmetic (never by
re-running the solver), rank claims by exact elimination, and a
covariance identity W_g(a,b)(F p) = W_ab(p) as the transport square of
g's phase table (``programs.transport_equations``, ``theory._solves``) at
the affine basis of the report's state space.  A claim passes only if
its data proves its ``verdict``: an ``lp_feasible`` claim says true and
an ``lp_infeasible`` one false, and a ``rank`` claim says whether the
rank of the effects of the report's observable pair at the affine basis
of K (``theory.effect_span_rank``) is dim(K) + 1.  Witnesses are about
the report's theory: a ``negative_entry`` functional is an entry of the
embedded grid at a state of K, with its negative value there, and
``ball_entry_min`` and ``ball_max_one`` carry K's own center and radius,
with a grid entry (and its negative minimum in normal form) or the
effect that the id names as their functional.

No claim carries an LP program.  An LP claim's id says which program of
``programs`` it is about, and the claim names the rest of the
constructor's arguments (``observable`` and ``outcome``; ``perm_a`` and
``perm_b``; ``rep`` and ``table``); ``verify`` rebuilds the program from
the embedded theory, requires the id to be the one the engine gives
those arguments, and checks the witness or certificate against the
rebuilt program, multiplier counts included (``_program``).

Generators decide covariance.  Covariance identities compose, so a
``covariant`` report that embeds a representation needs a
``covariance_identity`` claim for each generator of S_m x S_n (the
adjacent transpositions of A's outcomes, then of B's), and each missing
one is a failing row under the id its claim would have had.  Claims for
other elements are checked like the rest.  ``verify_report`` returns
one (claim id, ok) row per claim and per missing generator, and is the
engine behind the ``verify`` subcommand.

Each claim kind is written here, by a builder that takes the engine's
results (``lp_claim``, ``rank_claim``, ``negativity_claim``,
``ball_max_one_claim``, ``covariance_claim``, ``recompute_claim``), and
checked here, by its branch of ``_verify_claim``; ``cli`` writes no
claim itself.

Not every LP answer comes from the simplex.  Surjectivity witnesses and
certificates are built from the vertex values of each effect, and the
certificate of a channel that its equations fix but that leaves the
target (``no_covariant``, ``no_transport``) from the violated facet by
elimination, and that of effect sums that differ (``no_covariant``
without a generator) on the marginal identities in closed form; every
one passes the same guard as a simplex answer, and ``verify`` cannot
tell them apart.

``dump_report`` writes ``{``, then one line per top-level key, in the
report's order, then ``}``.  The ``claims`` list spans lines of its own:
``"claims": [``, one line per claim, and ``]``.  Each value is compact
JSON from ``json.dumps``.  ``load_report`` reads any JSON layout, an
``indent=2`` copy included.
"""

from __future__ import annotations

import json
from typing import Optional

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
    WignerRep,
    check_marginals,
    faithful_choice_possible,
    is_faithful,
    is_positive,
)

FORMAT = "wignerlab-report/2"


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


def _de_map(obj, path="") -> AffineMap:
    """The map ``ser_map`` wrote; its rows, its offset and their entries
    parse at ``{path}matrix`` and ``{path}offset``, and a missing offset
    reads as empty."""
    def entries(values, at):
        if not isinstance(values, list):
            raise ParseError("expected a list of rationals", path=f"{path}{at}")
        return [parse_rational(x, f"{path}{at}") for x in values]

    return AffineMap(Matrix.from_rows([entries(r, "matrix") for r in obj["matrix"]]),
                     tuple(entries(obj.get("offset", []), "offset")))


def _de_certificate(obj, path="certificate") -> Infeasible:
    return Infeasible(
        parse_vector(obj["eq_multipliers"], f"{path}.eq_multipliers"),
        parse_vector(obj["ineq_multipliers"], f"{path}.ineq_multipliers"),
        parse_rational(obj["gap"], f"{path}.gap"),
    )


def _de_extremal(obj, path="value") -> tuple:
    """The three parts of an ``ExtremalValue`` as written, not normalized."""
    return tuple(parse_rational(obj[k], path) for k in ("rational", "radical", "radicand"))


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
    wigner_reps: dict[str, WignerRep] = dict([wigner]) if wigner is not None else {}
    rows = []
    for claim in report["claims"]:
        cid = claim["id"]
        try:
            ok = _verify_claim(claim, theory, wigner_reps)
            rows.append((cid, ok, "" if ok else "claim data does not re-verify"))
        except Exception as exc:  # noqa: BLE001 - report must not crash
            rows.append((cid, False, f"verification error: {exc}"))
    if report.get("command") == "covariant" and wigner is not None:
        # covariance under the generators is covariance under the group
        name, rep = wigner
        claimed = [(c.get("perm_a"), c.get("perm_b")) for c in report["claims"]
                   if c["kind"] == "covariance_identity" and c.get("rep") == name]
        rows += [(_covariance_id(a, b), False, "no covariance claim for this generator")
                 for a, b in programs.generators(*rep.shape)
                 if (list(a), list(b)) not in claimed]
    return rows


def _covariance_id(perm_a, perm_b) -> str:
    return f"covariance[(A:{tuple(perm_a)}, B:{tuple(perm_b)})]"


def surjective_id(observable: str, outcome) -> str:
    """The id of the claim that ``observable`` reaches ``outcome`` sharply."""
    return f"surjective[{observable}][{outcome}]"


def transport_id(n_b: int, table) -> str:
    """The id of the claim that no channel transports the phase table."""
    return f"no_transport[{programs.moved_points(n_b, table)}]"


def _surjective_args(cid: str, theory) -> dict:
    """The observable of the pair and the outcome that ``cid`` names."""
    return next(({"observable": obs.name, "outcome": outcome}
                 for obs in (theory.obs_a, theory.obs_b) for outcome in obs.outcomes
                 if cid == surjective_id(obs.name, outcome)), {})


def _program(claim: dict, theory, wigner_reps) -> Optional[LinearProgram]:
    """The program an LP claim is about, rebuilt by ``programs`` from the
    report's theory and the arguments the claim names; None when they
    name no permutation or the id is not the one the engine gives them."""
    cid = claim["id"]
    space = theory.state_space
    obs_a, obs_b = theory.obs_a, theory.obs_b
    if cid == "compatibility":
        return programs.compatibility(obs_a, obs_b, space)
    if cid == "no_covariant" and "perm_a" not in claim:
        # the effect sums differ: the certificate lives on the marginals
        return programs.marginal_program(obs_a, obs_b)
    if cid == "no_covariant":
        perm_a, perm_b = claim["perm_a"], claim["perm_b"]
        if [sorted(perm_a), sorted(perm_b)] != [list(range(obs_a.n_outcomes)),
                                                 list(range(obs_b.n_outcomes))]:
            return None
        equations = programs.permutation_equations(obs_a, obs_b, perm_a, perm_b)
    elif cid.startswith("surjective["):
        name, outcome = claim["observable"], claim["outcome"]
        if cid != surjective_id(name, outcome):
            return None
        return programs.surjectivity(theory.observable(name).effect(outcome), space)
    elif cid.startswith("no_transport["):
        rep, table = wigner_reps[claim["rep"]], claim["table"]
        if sorted(table) != list(range(len(rep.functionals()))) or cid != transport_id(
                rep.shape[1], table):
            return None
        equations = programs.transport_equations(rep, table)
    else:
        raise ParseError(f"no program for claim {cid!r}")
    return programs.channel_program(space, space, programs.channel_system(space, space, equations))


# Claim builders: one per claim kind, from the engine's results, in the
# order of the ``_verify_claim`` branches that replay them.


def _claim(cid: str, kind: str, statement: str, verdict: bool, **data) -> dict:
    """The keys every claim starts with, then the kind's data."""
    return {"id": cid, "kind": kind, "statement": statement, "verdict": verdict, **data}


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
    claim = _claim(cid, "lp_feasible", statement, True, **args, witness=ser_vec(result.witness))
    if joint is not None:
        claim["joint"] = joint
    return claim


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


def _verify_claim(claim: dict, theory, wigner_reps) -> bool:
    """Does the claim's data prove what its ``verdict`` says?"""
    kind = claim["kind"]
    verdict = claim["verdict"]
    if kind in ("lp_feasible", "lp_infeasible"):
        lp = _program(claim, theory, wigner_reps)
        if lp is None:
            return False
        if kind == "lp_infeasible":
            return verdict is False and verify_certificate(lp, _de_certificate(claim["certificate"]))
        witness = parse_vector(claim["witness"], "witness")
        return (verdict is True and lp.check(witness)
                and ("joint" not in claim or _is_joint(claim["joint"], witness, theory)))
    if kind == "rank":
        # the rank of the effects of the theory's pair at aff(K)'s basis
        span = effect_span_rank(theory.obs_a, theory.obs_b, theory.state_space)
        full = span == dimension(theory.state_space) + 1
        return int(claim["rank"]) == span and verdict is full
    # a witness functional is a grid entry of the report's representation
    # (an effect of its pair for ball_max_one), on the report's own K
    if kind == "negative_entry":
        f = parse_functional(claim["functional"], "functional", theory.state_space.ambient_dim)
        state = parse_vector(claim["state"], "state")
        value = parse_rational(claim["value"], "value")
        return (verdict is True and _is_entry(f, wigner_reps)
                and contains(theory.state_space, state) and f(state) == value < 0)
    if kind in ("ball_entry_min", "ball_max_one"):
        f = parse_functional(claim["functional"], "functional", theory.state_space.ambient_dim)
        ball = theory.state_space
        if kind == "ball_max_one":
            # the effect of the outcome that the id names
            args = _surjective_args(claim["id"], theory)
            bound = bool(args) and f == theory.observable(args["observable"]).effect(
                args["outcome"])
        else:
            bound = _is_entry(f, wigner_reps)
        if not (bound and isinstance(ball, Ball)
                and parse_vector(claim["center"], "center") == ball.center
                and parse_rational(claim["radius"], "radius") == ball.radius):
            return False
        low, high = extremal_range(ball, f)
        if kind == "ball_max_one":
            reaches = high.compare(1) == 0
            return verdict is reaches and bool(claim["expect"]) == reaches
        # the written minimum is the normal form of the actual, negative one
        written = (low.rational_part, low.radical_part, low.radicand)
        return (verdict is True and claim.get("negative") is True and low < 0
                and written == _de_extremal(claim["min"]))
    if kind == "covariance_identity":
        rep = wigner_reps[claim["rep"]]
        space = theory.state_space
        chan = _de_map(claim["channel"], "channel.")
        inside = map_into(space, chan, space)
        perm_a, perm_b = claim["perm_a"], claim["perm_b"]
        if (verdict is not True or not inside.ok
                or [sorted(perm_a), sorted(perm_b)] != [list(range(n)) for n in rep.shape]):
            return False
        # W_g(a,b)(F p) = W_ab(p): the transport square of g's phase table
        table = [i * len(perm_b) + j for i in perm_a for j in perm_b]
        return _solves(programs.transport_equations(rep, table), chan, space)
    if kind == "recompute":
        return _verify_recompute(claim, theory, wigner_reps)
    raise ParseError(f"unknown claim kind {kind!r}")


def _is_entry(f: AffineFunctional, wigner_reps) -> bool:
    return any(f in row for rep in wigner_reps.values() for row in rep.grid)


def _is_joint(joint, witness, theory) -> bool:
    """Is ``joint`` the grid of functionals whose coefficients, block by
    block (``programs.grid_unknowns``), are the witness?"""
    n_a, n_b = theory.obs_a.n_outcomes, theory.obs_b.n_outcomes
    width = len(witness) // (n_a * n_b)
    if [len(row) for row in joint] != [n_b] * n_a:
        return False
    dim = theory.state_space.ambient_dim
    flat = [parse_functional(f, "joint", dim).coefficients() for row in joint for f in row]
    return all(f == witness[i * width:(i + 1) * width] for i, f in enumerate(flat))


def _verify_recompute(claim: dict, theory, wigner_reps) -> bool:
    what = claim["what"]
    expect = claim["verdict"]
    if what == "validate":
        return (not validate(theory)) == bool(expect)
    if what == "complementary":
        a, b = (theory.observable(n) for n in claim["pair"])
        return are_complementary(a, b, theory.state_space) == bool(expect)
    if what == "faithful":
        return is_faithful(wigner_reps[claim["rep"]]) == bool(expect)
    if what == "positive":
        return is_positive(wigner_reps[claim["rep"]]).ok == bool(expect)
    if what == "marginals":
        return check_marginals(wigner_reps[claim["rep"]]).ok == bool(expect)
    if what == "faithful_choice":
        a, b = (theory.observable(n) for n in claim["pair"])
        fc = faithful_choice_possible(a, b, theory.state_space)
        return (
            fc.possible == bool(expect)
            and fc.free_slots == int(claim["free_slots"])
            and fc.required == int(claim["required"])
        )
    raise ParseError(f"unknown recompute target {what!r}")
