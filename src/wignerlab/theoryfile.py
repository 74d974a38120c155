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
``ser_vec`` and ``ser_functional`` write vectors and functionals, and
``parse_vector`` and ``parse_functional`` read them back, for theory
files and reports alike: each canonical string is one ``Fraction``,
built once per process (``_canonical``) and handed to the functional
without coercing it again (``geometry._functional``); a list with any
other element is read again element by element, so an element's path
is built only there.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .exact import QQ
from .geometry import AffineFunctional, Ball, Polytope, StateSpace, _functional
from .theory import Observable, Theory
from .wigner import WignerRep


def rational_to_str(x: QQ) -> str:
    if type(x) is Fraction or type(x) is int:
        return str(x)
    return str(Fraction(x))


def ser_vec(v) -> list:
    return [rational_to_str(x) for x in v]


def ser_functional(f: AffineFunctional) -> dict:
    return {"linear": ser_vec(f.linear), "constant": rational_to_str(f.constant)}


# a rational in one of the canonical forms
_CANONICAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# Reports and theory files repeat a few hundred short rationals ("0",
# "1", "1/2", ...); each is built once per process, as Fractions are
# immutable, and the bound keeps the cache small.
@functools.lru_cache(maxsize=1024)
def _canonical(value) -> QQ:
    """The ``Fraction`` of a rational in a canonical form; ``ValueError``
    or ``ZeroDivisionError`` for any other value, ``TypeError`` for an
    unhashable one."""
    if not (isinstance(value, str) and _CANONICAL.fullmatch(value)):
        raise ValueError(value)
    num, _, den = value.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _rationals(values) -> tuple:
    """The ``Fraction``s of a list of canonical rationals, as ``_canonical``."""
    if not isinstance(values, list):
        raise ValueError(values)
    return tuple(map(_canonical, values))


def parse_rational(value, path: str) -> QQ:
    try:
        return _canonical(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass  # not canonical, past the digit limit or over 0: Fraction(value) decides
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


def _reject_float(literal: str):
    raise ParseError(
        f"float literal {literal} is not exact; quote it as a string"
    )


def parse_vector(values, path: str) -> tuple:
    try:
        return _rationals(values)
    except (TypeError, ValueError, ZeroDivisionError):
        pass  # an element that is not canonical is read, or refused, with its path
    if not isinstance(values, list):
        raise ParseError("expected a list of rationals", path=path)
    return tuple(parse_rational(v, f"{path}[{i}]") for i, v in enumerate(values))


def parse_functional(obj, path: str, dim: Optional[int] = None) -> AffineFunctional:
    if not isinstance(obj, dict):
        raise ParseError("expected an object with linear/constant", path=path)
    linear, constant = obj.get("linear", []), obj.get("constant", 0)
    try:
        linear, constant = _rationals(linear), _canonical(constant)
    except (TypeError, ValueError, ZeroDivisionError):
        linear = parse_vector(linear, f"{path}.linear")
        constant = parse_rational(constant, f"{path}.constant")
    if dim is not None and len(linear) != dim:
        raise ParseError(
            f"linear part has length {len(linear)}, expected {dim}", path=path
        )
    return _functional(linear, constant)


def _parse_state_space(obj, path: str) -> StateSpace:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("state_space needs a 'type' field", path=path)
    kind = obj["type"]
    if kind == "polytope":
        raw = obj.get("vertices")
        if not isinstance(raw, list) or not raw:
            raise ParseError("polytope needs a nonempty vertex list", path=f"{path}.vertices")
        vertices = [
            parse_vector(v, f"{path}.vertices[{i}]") for i, v in enumerate(raw)
        ]
        try:
            return Polytope(tuple(vertices))
        except ValueError as exc:
            raise ParseError(str(exc), path=f"{path}.vertices") from None
    if kind == "ball":
        center = parse_vector(obj.get("center"), f"{path}.center")
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
            parse_functional(e, f"{path}.effects[{j}]", dim)
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
                parse_functional(
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


def theory_to_dict(
    theory: Theory, wigner: Optional[tuple[str, WignerRep]] = None
) -> dict:
    space = theory.state_space
    if isinstance(space, Polytope):
        space_dict = {
            "type": "polytope",
            "vertices": [ser_vec(v) for v in space.vertices],
        }
    else:
        space_dict = {
            "type": "ball",
            "center": ser_vec(space.center),
            "radius": rational_to_str(space.radius),
        }
    data = {
        "state_space": space_dict,
        "observables": [
            {
                "name": o.name,
                "outcomes": list(o.outcomes),
                "effects": [ser_functional(f) for f in o.effects],
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
            "grid": [[ser_functional(f) for f in row] for row in rep.grid],
        }
    return data


def dumps(theory: Theory, wigner: Optional[tuple[str, WignerRep]] = None) -> str:
    return json.dumps(theory_to_dict(theory, wigner), indent=2) + "\n"
