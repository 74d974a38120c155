"""Report documents and their re-verification.

Every analysis command emits a JSON report whose verdict-bearing claims
carry the data needed to re-check them: LP witnesses and Farkas
certificates are replayed by plain multiplier arithmetic (never by
re-running the solver), rank and face claims by exact elimination, and
grid identities by direct evaluation.  ``verify_report`` returns one
(claim id, ok) row per claim and is the engine behind the ``verify``
subcommand.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ParseError
from .exact import Infeasible, LinearProgram, Matrix, rank, vec_dot, verify_certificate
from .geometry import AffineFunctional, AffineMap, ExtremalValue
from .theory import are_complementary, jointly_info_complete, validate
from .theoryfile import (
    parse_ratio,
    parse_ratios,
    parse_rational,
    rational_to_str,
    theory_from_dict,
)
from .wigner import (
    WignerRep,
    check_marginals,
    faithful_choice_possible,
    grid_rank,
    is_faithful,
    is_positive,
)

FORMAT = "wignerlab-report/1"


def ser_q(x) -> str:
    return rational_to_str(x)


def ser_vec(v) -> list:
    return [ser_q(x) for x in v]


def ser_functional(f: AffineFunctional) -> dict:
    return {"linear": ser_vec(f.linear), "constant": ser_q(f.constant)}


def ser_program(lp: LinearProgram) -> dict:
    return {
        "n_vars": lp.n_vars,
        "equalities": [[ser_vec(row), ser_q(rhs)] for row, rhs in lp.equalities],
        "inequalities": [[ser_vec(row), ser_q(rhs)] for row, rhs in lp.inequalities],
    }


def ser_certificate(cert: Infeasible) -> dict:
    return {
        "eq_multipliers": ser_vec(cert.eq_multipliers),
        "ineq_multipliers": ser_vec(cert.ineq_multipliers),
        "gap": ser_q(cert.gap),
    }


def ser_extremal(v) -> dict:
    if isinstance(v, ExtremalValue):
        return {
            "rational": ser_q(v.rational_part),
            "radical": ser_q(v.radical_part),
            "radicand": ser_q(v.radicand),
        }
    return {"rational": ser_q(v), "radical": "0", "radicand": "0"}


def _de_vec(values, path) -> tuple:
    return tuple(parse_rational(x, f"{path}[{i}]") for i, x in enumerate(values))


def _de_functional(obj, path) -> AffineFunctional:
    return AffineFunctional(
        _de_vec(obj["linear"], f"{path}.linear"),
        parse_rational(obj["constant"], f"{path}.constant"),
    )


def _de_program(obj, path="program") -> LinearProgram:
    def rows(key):
        return [
            (parse_ratios(row, f"{path}.{key}[{k}]"), parse_ratio(rhs, f"{path}.{key}[{k}]"))
            for k, (row, rhs) in enumerate(obj.get(key, []))
        ]

    return LinearProgram.from_ratios(
        int(obj["n_vars"]), rows("equalities"), rows("inequalities")
    )


def _de_certificate(obj, path="certificate") -> Infeasible:
    return Infeasible(
        _de_vec(obj["eq_multipliers"], path),
        _de_vec(obj["ineq_multipliers"], path),
        parse_rational(obj["gap"], path),
    )


def _de_extremal(obj, path="value"):
    return ExtremalValue(
        parse_rational(obj["rational"], path),
        parse_rational(obj["radical"], path),
        parse_rational(obj["radicand"], path),
    )


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
    return json.dumps(report, indent=2) + "\n"


def load_report(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} document")
    return data


def verify_report(report: dict) -> list[tuple[str, bool, str]]:
    """Re-check every claim; returns (claim id, ok, detail) rows."""
    theory = None
    wigner_reps: dict[str, WignerRep] = {}
    if report.get("theory"):
        theory, wigner = theory_from_dict(report["theory"])
        if wigner is not None:
            wigner_reps[wigner[0]] = wigner[1]
    for name, obj in (report.get("wigner_grids") or {}).items():
        data = dict(report["theory"])
        data["wigner"] = obj
        _, extra = theory_from_dict(data)
        if extra is not None:
            wigner_reps[extra[0]] = extra[1]
    rows = []
    for claim in report.get("claims", []):
        cid = claim.get("id", "?")
        try:
            ok = _verify_claim(claim, theory, wigner_reps)
            rows.append((cid, ok, "" if ok else "claim data does not re-verify"))
        except Exception as exc:  # noqa: BLE001 - report must not crash
            rows.append((cid, False, f"verification error: {exc}"))
    return rows


def _verify_claim(claim: dict, theory, wigner_reps) -> bool:
    kind = claim["kind"]
    if kind == "lp_infeasible":
        lp = _de_program(claim["program"])
        cert = _de_certificate(claim["certificate"])
        return verify_certificate(lp, cert)
    if kind == "lp_feasible":
        lp = _de_program(claim["program"])
        return lp.check(_de_vec(claim["witness"], "witness"))
    if kind == "rank":
        matrix = [_de_vec(row, "matrix") for row in claim["matrix"]]
        return rank(matrix) == int(claim["rank"])
    if kind == "grid_values":
        functionals = [
            _de_functional(f, "grid") for f in claim["functionals"]
        ]
        state = _de_vec(claim["state"], "state")
        expected = _de_vec(claim["expected"], "expected")
        return tuple(f(state) for f in functionals) == expected
    if kind == "coeff_identity":
        terms = [_de_functional(f, "terms") for f in claim["terms"]]
        target = _de_functional(claim["target"], "target")
        total = AffineFunctional.zero(target.dim)
        for t in terms:
            total = total + t
        return total == target
    if kind == "nonneg_on_vertices":
        functionals = [_de_functional(f, "functionals") for f in claim["functionals"]]
        vertices = [_de_vec(v, "vertices") for v in claim["vertices"]]
        return all(f(v) >= 0 for f in functionals for v in vertices)
    if kind == "negative_entry":
        f = _de_functional(claim["functional"], "functional")
        state = _de_vec(claim["state"], "state")
        return f(state) < 0
    if kind == "ball_entry_min":
        f = _de_functional(claim["functional"], "functional")
        center = _de_vec(claim["center"], "center")
        radius = parse_rational(claim["radius"], "radius")
        claimed = _de_extremal(claim["min"])
        norm_sq = vec_dot(f.linear, f.linear)
        actual = ExtremalValue(f(center), -radius, norm_sq)
        if actual != claimed:
            return False
        if "negative" in claim:
            return (actual < 0) == bool(claim["negative"])
        return True
    if kind == "ball_max_one":
        f = _de_functional(claim["functional"], "functional")
        center = _de_vec(claim["center"], "center")
        radius = parse_rational(claim["radius"], "radius")
        norm_sq = vec_dot(f.linear, f.linear)
        hi = ExtremalValue(f(center), radius, norm_sq)
        return (hi.compare(1) == 0) == bool(claim["expect"])
    if kind == "covariance_identity":
        rep = wigner_reps[claim["rep"]]
        chan = AffineMap(
            Matrix.from_rows([_de_vec(r, "channel") for r in claim["channel"]["matrix"]]),
            _de_vec(claim["channel"]["offset"], "channel"),
        )
        perm_a = tuple(claim["perm_a"])
        perm_b = tuple(claim["perm_b"])
        inv_a = [0] * len(perm_a)
        inv_b = [0] * len(perm_b)
        for i, t in enumerate(perm_a):
            inv_a[t] = i
        for i, t in enumerate(perm_b):
            inv_b[t] = i
        basis = [_de_vec(p, "basis") for p in claim["basis"]]
        for a in range(len(perm_a)):
            for b in range(len(perm_b)):
                for p in basis:
                    if rep.grid[a][b](chan(p)) != rep.grid[inv_a[a]][inv_b[b]](p):
                        return False
        return True
    if kind == "recompute":
        return _verify_recompute(claim, theory, wigner_reps)
    raise ParseError(f"unknown claim kind {kind!r}")


def _verify_recompute(claim: dict, theory, wigner_reps) -> bool:
    what = claim["what"]
    expect = claim["verdict"]
    if what == "validate":
        return (not validate(theory)) == bool(expect)
    if what == "info_complete":
        a, b = (theory.observable(n) for n in claim["pair"])
        return jointly_info_complete(a, b, theory.state_space) == bool(expect)
    if what == "complementary":
        a, b = (theory.observable(n) for n in claim["pair"])
        return are_complementary(a, b, theory.state_space) == bool(expect)
    if what == "faithful":
        return is_faithful(wigner_reps[claim["rep"]]) == bool(expect)
    if what == "grid_rank":
        return grid_rank(wigner_reps[claim["rep"]]) == int(expect)
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
