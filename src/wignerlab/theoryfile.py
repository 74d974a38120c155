"""Theory file format: exact-rational JSON.

Rationals travel as strings ("3/4", "-2", "0.25" meaning exact
twenty-five hundredths); bare JSON integers are accepted, bare JSON
floats are rejected so binary rounding can never leak in.  Exports are
canonical (fixed key order, fixed indentation), which makes
export -> parse -> export byte-identical.

The engine writes every rational as ``-?[0-9]+`` or ``-?[0-9]+/[0-9]+``;
``parse_rational`` reads these ASCII forms with two ``int`` calls and
hands every other string to ``Fraction``, so the language it accepts and
the errors it raises are ``Fraction``'s on the running interpreter.
``parse_ratios`` reads a list of them as integer pairs, for callers that
go straight to integer rows.
"""

from __future__ import annotations

import json
import operator
import re
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .errors import ParseError
from .exact import QQ
from .geometry import AffineFunctional, Ball, Polytope, StateSpace
from .theory import Observable, Theory
from .wigner import WignerRep


def rational_to_str(x: QQ) -> str:
    if type(x) is Fraction or type(x) is int:
        return str(x)
    return str(Fraction(x))


_split = operator.methodcaller("partition", "/")

# one or more rationals in the canonical forms, joined by commas
_CANONICAL_LIST = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def _canonical_ratios(values) -> Optional[list[tuple[int, int]]]:
    """(numerator, denominator) of each entry when every entry is a
    string in a canonical form, else None."""
    try:
        text = ",".join(values)
        if not _CANONICAL_LIST.fullmatch(text):
            return None
        if "/" not in text:
            return list(zip(map(int, values), repeat(1)))
        ratios = [(int(num), int(den or 1)) for num, _, den in map(_split, values)]
    except (TypeError, ValueError):  # a non-string entry, or past the digit limit
        return None
    return ratios if all(d for _, d in ratios) else None


def parse_rational(value, path: str) -> QQ:
    ratios = _canonical_ratios((value,))
    if ratios is not None:
        return Fraction(*ratios[0])
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", path=path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational {value!r}: {exc}", path=path) from None
        return q
    raise ParseError(f"expected a rational string, got {type(value).__name__}", path=path)


def parse_ratio(value, path: str) -> tuple[int, int]:
    """``parse_rational`` as (numerator, denominator) in lowest terms."""
    q = parse_rational(value, path)
    return q.numerator, q.denominator


def parse_ratios(values, path: str) -> list[tuple[int, int]]:
    """(numerator, denominator > 0) of each entry of a list, not always in
    lowest terms: in one pass when all entries are canonical, otherwise
    by ``parse_ratio`` entry by entry, naming the bad entry's path."""
    ratios = _canonical_ratios(values)
    if ratios is None:
        ratios = [parse_ratio(v, f"{path}[{i}]") for i, v in enumerate(values)]
    return ratios


def _reject_float(literal: str):
    raise ParseError(
        f"float literal {literal} is not exact; quote it as a string"
    )


def _parse_vector(values, path: str) -> tuple:
    if not isinstance(values, list):
        raise ParseError("expected a list of rationals", path=path)
    return tuple(parse_rational(v, f"{path}[{i}]") for i, v in enumerate(values))


def _parse_functional(obj, path: str, dim: Optional[int] = None) -> AffineFunctional:
    if not isinstance(obj, dict):
        raise ParseError("expected an object with linear/constant", path=path)
    linear = _parse_vector(obj.get("linear", []), f"{path}.linear")
    constant = parse_rational(obj.get("constant", 0), f"{path}.constant")
    if dim is not None and len(linear) != dim:
        raise ParseError(
            f"linear part has length {len(linear)}, expected {dim}", path=path
        )
    return AffineFunctional(linear, constant)


def _parse_state_space(obj, path: str) -> StateSpace:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("state_space needs a 'type' field", path=path)
    kind = obj["type"]
    if kind == "polytope":
        raw = obj.get("vertices")
        if not isinstance(raw, list) or not raw:
            raise ParseError("polytope needs a nonempty vertex list", path=f"{path}.vertices")
        vertices = [
            _parse_vector(v, f"{path}.vertices[{i}]") for i, v in enumerate(raw)
        ]
        try:
            return Polytope(tuple(vertices))
        except ValueError as exc:
            raise ParseError(str(exc), path=f"{path}.vertices") from None
    if kind == "ball":
        center = _parse_vector(obj.get("center"), f"{path}.center")
        radius = parse_rational(obj.get("radius"), f"{path}.radius")
        try:
            return Ball(center, radius)
        except ValueError as exc:
            raise ParseError(str(exc), path=f"{path}.radius") from None
    raise ParseError(f"unknown state space type {kind!r}", path=f"{path}.type")


def theory_from_dict(data: dict) -> tuple[Theory, Optional[tuple[str, WignerRep]]]:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    space = _parse_state_space(data.get("state_space"), "state_space")
    dim = space.ambient_dim
    raw_obs = data.get("observables")
    if not isinstance(raw_obs, list) or not raw_obs:
        raise ParseError("need a nonempty observables list", path="observables")
    observables = []
    for i, o in enumerate(raw_obs):
        path = f"observables[{i}]"
        if not isinstance(o, dict):
            raise ParseError("observable must be an object", path=path)
        name = o.get("name")
        if not isinstance(name, str):
            raise ParseError("observable needs a string name", path=f"{path}.name")
        outcomes = o.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise ParseError("observable needs outcomes", path=f"{path}.outcomes")
        effects = o.get("effects")
        if not isinstance(effects, list) or len(effects) != len(outcomes):
            raise ParseError(
                "need exactly one effect per outcome", path=f"{path}.effects"
            )
        parsed = tuple(
            _parse_functional(e, f"{path}.effects[{j}]", dim)
            for j, e in enumerate(effects)
        )
        try:
            observables.append(Observable(name, tuple(outcomes), parsed))
        except ValueError as exc:
            raise ParseError(str(exc), path=path) from None
    pair = data.get("pair")
    if pair is not None:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(not isinstance(n, str) for n in pair)
        ):
            raise ParseError("pair must be two observable names", path="pair")
        pair = tuple(pair)
    try:
        theory = Theory(space, tuple(observables), pair=pair)
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc)) from None
    wigner = None
    if "wigner" in data and data["wigner"] is not None:
        wigner = _parse_wigner(data["wigner"], theory)
    return theory, wigner


def _parse_wigner(obj, theory: Theory) -> tuple[str, WignerRep]:
    path = "wigner"
    if not isinstance(obj, dict):
        raise ParseError("wigner must be an object", path=path)
    name = obj.get("name", "W")
    names = obj.get("observables")
    if names is None:
        obs_a, obs_b = theory.obs_a, theory.obs_b
    else:
        try:
            obs_a, obs_b = (theory.observable(n) for n in names)
        except KeyError as exc:
            raise ParseError(f"unknown observable {exc}", path=f"{path}.observables")
    raw = obj.get("grid")
    if not isinstance(raw, list) or len(raw) != obs_a.n_outcomes:
        raise ParseError(
            f"grid needs {obs_a.n_outcomes} rows", path=f"{path}.grid"
        )
    grid = []
    for a, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != obs_b.n_outcomes:
            raise ParseError(
                f"grid row {a} needs {obs_b.n_outcomes} entries",
                path=f"{path}.grid[{a}]",
            )
        grid.append(
            tuple(
                _parse_functional(
                    cell, f"{path}.grid[{a}][{b}]", theory.state_space.ambient_dim
                )
                for b, cell in enumerate(row)
            )
        )
    try:
        rep = WignerRep(theory.state_space, obs_a, obs_b, tuple(grid))
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    return name, rep


def loads(text: str) -> tuple[Theory, Optional[tuple[str, WignerRep]]]:
    try:
        data = json.loads(text, parse_float=_reject_float)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    return theory_from_dict(data)


def load_path(path: str) -> tuple[Theory, Optional[tuple[str, WignerRep]]]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None
    return loads(text)


def _functional_to_dict(f: AffineFunctional) -> dict:
    return {
        "linear": [rational_to_str(x) for x in f.linear],
        "constant": rational_to_str(f.constant),
    }


def theory_to_dict(
    theory: Theory, wigner: Optional[tuple[str, WignerRep]] = None
) -> dict:
    space = theory.state_space
    if isinstance(space, Polytope):
        space_dict = {
            "type": "polytope",
            "vertices": [[rational_to_str(x) for x in v] for v in space.vertices],
        }
    else:
        space_dict = {
            "type": "ball",
            "center": [rational_to_str(x) for x in space.center],
            "radius": rational_to_str(space.radius),
        }
    data = {
        "state_space": space_dict,
        "observables": [
            {
                "name": o.name,
                "outcomes": list(o.outcomes),
                "effects": [_functional_to_dict(f) for f in o.effects],
            }
            for o in theory.observables
        ],
    }
    if theory.pair is not None:
        data["pair"] = list(theory.pair)
    if wigner is not None:
        name, rep = wigner
        data["wigner"] = {
            "name": name,
            "observables": [rep.obs_a.name, rep.obs_b.name],
            "grid": [[_functional_to_dict(f) for f in row] for row in rep.grid],
        }
    return data


def dumps(theory: Theory, wigner: Optional[tuple[str, WignerRep]] = None) -> str:
    return json.dumps(theory_to_dict(theory, wigner), indent=2) + "\n"
