"""Command-line surface.

Subcommands: example, validate, analyze, wigner, symmetries, covariant,
plot, verify.  Analysis reports are JSON documents on stdout whose
claims carry their witnesses and certificates, re-checkable offline
with ``wignerlab verify``.  Exit codes: 0 success, 1 analysis-negative
(violations, no covariant representation, failed verification), 2 usage
or parse errors.

Each subcommand imports the engine modules it uses when it runs, so a
process pays only for those: ``verify`` never loads ``symmetry``,
``catalog`` or ``plot``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .errors import ParseError, SizeGuardError, UnsupportedGeometryError, WignerlabError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeGuardError, UnsupportedGeometryError, WignerlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="exact analysis of Wigner representations of convex theories",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("example", help="export a built-in example theory")
    p.add_argument("name", nargs="?", help="entry name")
    p.add_argument("--list", action="store_true", help="list entry names")
    p.add_argument("--rep", help="include this named representation")
    p.add_argument("--out", help="write the theory file here (default stdout)")
    p.add_argument("--channels-out", help="write the entry's channels here")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("validate", help="check effect ranges and normalization")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="compatibility, info-completeness,"
                       " complementarity, surjectivity, faithful-choice")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("wigner", help="construct a representation from the family")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--free", help="semicolon-separated free-slot functionals,"
                       " e.g. '0' or '1/2 x0 + 1/2 x1'")
    group.add_argument("--faithful", action="store_true",
                       help="rank-maximizing faithful completion")
    group.add_argument("--degenerate", action="store_true",
                       help="anchored-cross construction (all free slots zero)")
    p.add_argument("--anchor", help="anchor indices 'a,b' (default: last outcomes)")
    p.add_argument("--out", help="write the theory file with the wigner block here")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("symmetries", help="lifted symmetries and transport")
    p.add_argument("file")
    p.add_argument("--no-transport", action="store_true",
                   help="skip transported-channel solving")
    p.add_argument("--channel-matrix",
                   help="JSON {matrix, offset}: ask for a transported symmetry"
                        " of this channel instead")
    p.set_defaults(func=_cmd_symmetries)

    p = sub.add_parser("covariant", help="solve for the covariant representation")
    p.add_argument("file")
    p.add_argument("--channels", help="JSON file with the permutation channels"
                   " (required for ball state spaces)")
    p.set_defaults(func=_cmd_covariant)

    p = sub.add_parser("plot", help="SVG figure of the image in phase space")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("verify", help="re-check a report's claims by exact arithmetic")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)
    return parser


def _load_theory(path: str):
    from .theoryfile import load_path

    return load_path(path)


def _emit(report_dict: dict) -> None:
    from .report import dump_report

    sys.stdout.write(dump_report(report_dict))


def _cmd_example(args) -> int:
    from . import catalog, theoryfile

    if args.list or args.name is None:
        for name in catalog.CATALOG_NAMES:
            print(name)
        return 0
    entry = catalog.load(args.name)
    theory = entry.theory
    wigner_block = None
    if args.rep is not None:
        if args.rep not in entry.representations:
            print(
                f"error: {args.name} has representations"
                f" {sorted(entry.representations)}", file=sys.stderr,
            )
            return 2
        rep = entry.representations[args.rep]
        from .theory import Theory

        theory = Theory(
            theory.state_space, theory.observables,
            pair=(rep.obs_a.name, rep.obs_b.name),
        )
        wigner_block = (args.rep, rep)
    text = theoryfile.dumps(theory, wigner_block)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.channels_out:
        if not entry.channels:
            print(f"error: {args.name} carries no channels", file=sys.stderr)
            return 2
        import json

        from .report import ser_map

        data = [
            {
                "perm_a": list(el.perm_a),
                "perm_b": list(el.perm_b),
                **ser_map(chan.map),
            }
            for el, chan in sorted(
                entry.channels.items(), key=lambda kv: (kv[0].perm_a, kv[0].perm_b)
            )
        ]
        with open(args.channels_out, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
    return 0


def _cmd_validate(args) -> int:
    from .report import make_report, ser_vec
    from .theory import validate
    from .theoryfile import theory_to_dict

    theory, _ = _load_theory(args.file)
    violations = validate(theory)
    claims = [
        {
            "id": "validate",
            "kind": "recompute",
            "what": "validate",
            "statement": "all effects stay in [0,1] and sum to the unit effect",
            "verdict": not violations,
        }
    ]
    details = [
        {
            "observable": v.observable,
            "kind": v.kind,
            "message": v.message,
            "witness": ser_vec(v.witness) if v.witness else None,
        }
        for v in violations
    ]
    _emit(
        make_report(
            "validate", theory_to_dict(theory), claims, violations=details
        )
    )
    return 0 if not violations else 1


def _cmd_analyze(args) -> int:
    from .exact import Infeasible
    from .geometry import affine_basis
    from .report import (
        make_report, ser_certificate, ser_functional, ser_program, ser_q, ser_vec,
    )
    from .theory import (
        Compatible, are_compatible, are_complementary, effect_span_rank,
        jointly_info_complete, surjectivity_details,
    )
    from .theoryfile import theory_to_dict
    from .wigner import faithful_choice_possible

    theory, _ = _load_theory(args.file)
    space = theory.state_space
    obs_a, obs_b = theory.obs_a, theory.obs_b
    claims = []
    notes = []
    try:
        compat = are_compatible(obs_a, obs_b, space)
        if isinstance(compat, Compatible):
            claims.append(
                {
                    "id": "compatibility",
                    "kind": "lp_feasible",
                    "statement": f"{obs_a.name} and {obs_b.name} are compatible",
                    "verdict": True,
                    "program": ser_program(compat.program),
                    "witness": ser_vec(compat.witness),
                    "joint": [[ser_functional(f) for f in row] for row in compat.joint],
                }
            )
        else:
            claims.append(
                {
                    "id": "compatibility",
                    "kind": "lp_infeasible",
                    "statement": f"{obs_a.name} and {obs_b.name} are incompatible",
                    "verdict": False,
                    "program": ser_program(compat.program),
                    "certificate": ser_certificate(compat.certificate),
                }
            )
    except UnsupportedGeometryError as exc:
        notes.append(f"compatibility: {exc}")
    basis = affine_basis(space)
    matrix = [[f(p) for p in basis] for f in obs_a.effects + obs_b.effects]
    claims.append(
        {
            "id": "info_complete",
            "kind": "rank",
            "statement": "effect span restricted to aff(K) vs dim(K) + 1",
            "verdict": jointly_info_complete(obs_a, obs_b, space),
            "matrix": [ser_vec(r) for r in matrix],
            "rank": effect_span_rank(obs_a, obs_b, space),
        }
    )
    try:
        claims.append(
            {
                "id": "complementary",
                "kind": "recompute",
                "what": "complementary",
                "pair": [obs_a.name, obs_b.name],
                "statement": "certain outcomes of one force uniformity of the other",
                "verdict": are_complementary(obs_a, obs_b, space),
            }
        )
    except UnsupportedGeometryError as exc:
        notes.append(f"complementarity: {exc}")
    for obs in (obs_a, obs_b):
        for outcome, lp, result in surjectivity_details(obs, space):
            cid = f"surjective[{obs.name}][{outcome}]"
            if lp is None:
                claims.append(
                    {
                        "id": cid,
                        "kind": "ball_max_one",
                        "statement": f"{obs.name} reaches outcome {outcome} sharply",
                        "verdict": bool(result),
                        "functional": ser_functional(obs.effect(outcome)),
                        "center": ser_vec(space.center),
                        "radius": ser_q(space.radius),
                        "expect": bool(result),
                    }
                )
            elif isinstance(result, Infeasible):
                claims.append(
                    {
                        "id": cid,
                        "kind": "lp_infeasible",
                        "statement": f"{obs.name} never reaches outcome {outcome} sharply",
                        "verdict": False,
                        "program": ser_program(lp),
                        "certificate": ser_certificate(result),
                    }
                )
            else:
                claims.append(
                    {
                        "id": cid,
                        "kind": "lp_feasible",
                        "statement": f"{obs.name} reaches outcome {outcome} sharply",
                        "verdict": True,
                        "program": ser_program(lp),
                        "witness": ser_vec(result.witness),
                    }
                )
    fc = faithful_choice_possible(obs_a, obs_b, space)
    claims.append(
        {
            "id": "faithful_choice",
            "kind": "recompute",
            "what": "faithful_choice",
            "pair": [obs_a.name, obs_b.name],
            "statement": "free slots cover the dimension gap",
            "verdict": fc.possible,
            "free_slots": fc.free_slots,
            "required": fc.required,
        }
    )
    _emit(make_report("analyze", theory_to_dict(theory), claims, notes))
    return 0


_TERM = re.compile(r"^([+-]?[0-9./]*)\s*\*?\s*(?:x([0-9]+))?$")


def _parse_free_expression(text: str, dim: int) -> AffineFunctional:
    """Tiny linear-expression parser: '1/2 x0 + 1/2 x1 - 1/4'."""
    from .exact import QQ
    from .geometry import AffineFunctional
    from .theoryfile import parse_rational

    text = text.strip()
    if not text:
        raise ParseError("empty functional expression")
    chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    linear = [QQ(0)] * dim
    constant = QQ(0)
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m or (not m.group(1) and m.group(2) is None):
            raise ParseError(f"cannot parse term {chunk!r}")
        coeff_text, var = m.group(1), m.group(2)
        if coeff_text in ("", "+", "-"):
            coeff_text += "1"
        coeff = parse_rational(coeff_text, "free")
        if var is None:
            constant += coeff
        else:
            i = int(var)
            if i >= dim:
                raise ParseError(f"coordinate x{i} exceeds ambient dimension {dim}")
            linear[i] += coeff
    return AffineFunctional(tuple(linear), constant)


def _cmd_wigner(args) -> int:
    from .report import make_report, ser_extremal, ser_functional, ser_q, ser_vec
    from .theoryfile import dumps, theory_to_dict
    from .wigner import (
        check_marginals, construct_family, degenerate_rep, faithful_choice_possible,
        faithful_member, free_slots, is_faithful, is_positive,
    )

    theory, _ = _load_theory(args.file)
    space = theory.state_space
    obs_a, obs_b = theory.obs_a, theory.obs_b
    anchor = None
    if args.anchor:
        try:
            a, b = (int(x) for x in args.anchor.split(","))
        except ValueError:
            raise ParseError("anchor must be 'a,b' with integer indices") from None
        if not (0 <= a < obs_a.n_outcomes and 0 <= b < obs_b.n_outcomes):
            raise ParseError(
                f"anchor {a},{b} is out of range for outcome counts"
                f" {obs_a.n_outcomes},{obs_b.n_outcomes}"
            )
        anchor = (a, b)
    notes = []
    if args.degenerate:
        rep = degenerate_rep(obs_a, obs_b, space, anchor=anchor)
        how = "degenerate"
    elif args.faithful:
        rep = faithful_member(obs_a, obs_b, space, anchor=anchor)
        how = "faithful"
        if rep is None:
            fc = faithful_choice_possible(obs_a, obs_b, space)
            _emit(
                make_report(
                    "wigner", theory_to_dict(theory), [],
                    [
                        "no faithful representation exists:"
                        f" {fc.free_slots} free slots < {fc.required} required"
                    ],
                )
            )
            return 1
    else:
        _, slots = free_slots(obs_a, obs_b, anchor)
        expressions = [e for e in args.free.split(";")]
        if len(expressions) > len(slots):
            raise ParseError(
                f"{len(expressions)} functionals for {len(slots)} free slots"
            )
        free = {
            slot: _parse_free_expression(expr, space.ambient_dim)
            for slot, expr in zip(slots, expressions)
        }
        rep = construct_family(obs_a, obs_b, space, free, anchor=anchor)
        how = "free"
    name = f"W_{how}"
    positive = is_positive(rep)
    claims = [
        {
            "id": "marginals",
            "kind": "recompute",
            "what": "marginals",
            "rep": name,
            "statement": "row and column sums reproduce the two observables",
            "verdict": check_marginals(rep).ok,
        },
        {
            "id": "faithful",
            "kind": "recompute",
            "what": "faithful",
            "rep": name,
            "statement": "the grid functionals span all affine functions on K",
            "verdict": is_faithful(rep),
        },
        {
            "id": "positive",
            "kind": "recompute",
            "what": "positive",
            "rep": name,
            "statement": "the image stays inside the probability simplex",
            "verdict": positive.ok,
        },
    ]
    if not positive.ok and positive.witness is not None:
        w = positive.witness
        if w.state is not None:
            a_idx = rep.obs_a.outcomes.index(w.phase_point[0])
            b_idx = rep.obs_b.outcomes.index(w.phase_point[1])
            claims.append(
                {
                    "id": "negativity_witness",
                    "kind": "negative_entry",
                    "statement": f"entry {w.phase_point} is negative at a vertex",
                    "verdict": True,
                    "functional": ser_functional(rep.grid[a_idx][b_idx]),
                    "state": ser_vec(w.state),
                    "value": ser_q(w.value),
                }
            )
        else:
            a_idx = rep.obs_a.outcomes.index(w.phase_point[0])
            b_idx = rep.obs_b.outcomes.index(w.phase_point[1])
            claims.append(
                {
                    "id": "negativity_witness",
                    "kind": "ball_entry_min",
                    "statement": f"entry {w.phase_point} dips negative on the ball",
                    "verdict": True,
                    "functional": ser_functional(rep.grid[a_idx][b_idx]),
                    "center": ser_vec(space.center),
                    "radius": ser_q(space.radius),
                    "min": ser_extremal(w.value),
                    "negative": True,
                }
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dumps(theory, (name, rep)))
    _emit(make_report("wigner", theory_to_dict(theory, (name, rep)), claims, notes))
    return 0


def _cmd_symmetries(args) -> int:
    from . import symmetry
    from .report import make_report, ser_certificate, ser_map, ser_program
    from .theory import Channel
    from .theoryfile import theory_to_dict

    theory, wigner_block = _load_theory(args.file)
    if wigner_block is None:
        print("error: the theory file carries no wigner block", file=sys.stderr)
        return 2
    name, rep = wigner_block
    if args.channel_matrix:
        return _symmetry_for_channel(args, theory, name, rep)
    found = symmetry.enumerate_lifted_symmetries(rep)
    claims = []
    entries = []
    notes = []
    transport_supported = True
    for phi in found:
        row = {"map": phi.describe(), "table": list(phi.table)}
        if not args.no_transport and transport_supported:
            try:
                result = symmetry.find_transported_channel(rep, symmetry.lift(phi))
            except UnsupportedGeometryError as exc:
                transport_supported = False
                notes.append(f"transport: {exc}")
                entries.append(row)
                continue
            if isinstance(result, Channel):
                row["transported"] = True
                row["channel"] = ser_map(result.map)
            else:
                row["transported"] = False
                claims.append(
                    {
                        "id": f"no_transport[{phi.describe()}]",
                        "kind": "lp_infeasible",
                        "statement": "no channel completes the square",
                        "verdict": False,
                        "program": ser_program(result.program),
                        "certificate": ser_certificate(result.certificate),
                    }
                )
        entries.append(row)
    _emit(
        make_report(
            "symmetries",
            theory_to_dict(theory, wigner_block),
            claims,
            notes,
            lifted_symmetries=entries,
            group_order=len(found),
        )
    )
    return 0


def _symmetry_for_channel(args, theory, name, rep) -> int:
    import json

    from . import symmetry
    from .report import _de_map, make_report, ser_map, ser_vec
    from .theoryfile import theory_to_dict

    try:
        chan = _de_map(json.loads(args.channel_matrix))
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ParseError(f"bad --channel-matrix: {exc}") from None
    result = symmetry.find_symmetry_for_channel(rep, chan)
    if isinstance(result, symmetry.TransportObstruction):
        payload = {}
        if result.pair is not None:
            payload["witness_pair"] = [ser_vec(p) for p in result.pair]
        _emit(
            make_report(
                "symmetries",
                theory_to_dict(theory, (name, rep)),
                [],
                ["no transported symmetry exists for the requested channel"],
                obstruction=payload,
            )
        )
        return 1
    _emit(
        make_report(
            "symmetries",
            theory_to_dict(theory, (name, rep)),
            [],
            [],
            transported_symmetry=ser_map(result),
        )
    )
    return 0


def _load_channels(path: str, theory):
    """The channels of a ``--channels`` file, one per outcome-permutation
    pair, each an affine map of the theory's ambient space."""
    import json

    from .report import _de_map
    from .symmetry import ProductGroupElement

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read channels file: {exc}", path=path) from None
    if not isinstance(data, list):
        raise ParseError("expected a list of channels", path=path)
    channels = {}
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            raise ParseError("expected an object", path=f"[{i}]")
        for key in ("perm_a", "perm_b", "matrix", "offset"):
            if not isinstance(row.get(key), list):
                raise ParseError("expected a list", path=f"[{i}].{key}")
        for key, obs in (("perm_a", theory.obs_a), ("perm_b", theory.obs_b)):
            n = obs.n_outcomes
            if any(type(k) is not int for k in row[key]) or sorted(row[key]) != list(range(n)):
                raise ParseError(f"expected a permutation of 0..{n - 1}", path=f"[{i}].{key}")
        dim = theory.state_space.ambient_dim
        if len(row["matrix"]) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in row["matrix"]
        ):
            raise ParseError(f"expected {dim} rows of {dim} entries", path=f"[{i}].matrix")
        if len(row["offset"]) != dim:
            raise ParseError(f"expected {dim} entries", path=f"[{i}].offset")
        element = ProductGroupElement(tuple(row["perm_a"]), tuple(row["perm_b"]))
        channels[element] = _de_map(row, f"[{i}].")
    return channels


def _cmd_covariant(args) -> int:
    from . import symmetry
    from .geometry import affine_basis
    from .report import (
        make_report, ser_certificate, ser_functional, ser_map, ser_program, ser_vec,
    )
    from .theoryfile import theory_to_dict

    theory, _ = _load_theory(args.file)
    space = theory.state_space
    channels = _load_channels(args.channels, theory) if args.channels else None
    result = symmetry.solve_covariant(theory.obs_a, theory.obs_b, space, channels)
    claims = []
    notes = [f"hypothesis {k}: {'holds' if v else 'FAILS'}"
             for k, v in result.hypotheses.items()]
    extra = {"hypotheses": result.hypotheses, "result": result.kind}
    if result.kind == "none":
        if result.obstruction is not None:
            ob = result.obstruction
            extra["offending_element"] = {
                "perm_a": list(ob.element.perm_a),
                "perm_b": list(ob.element.perm_b),
            }
            if ob.detail.witness_point is not None:
                extra["witness"] = {
                    "point": ser_vec(ob.detail.witness_point),
                    "image": ser_vec(ob.detail.witness_image),
                }
        claims.append(
            {
                "id": "no_covariant",
                "kind": "lp_infeasible",
                "statement": "the permutation-channel system is infeasible,"
                             " so no covariant representation exists",
                "verdict": False,
                "program": ser_program(result.program),
                "certificate": ser_certificate(result.certificate),
            }
        )
        _emit(make_report("covariant", theory_to_dict(theory), claims, notes, **extra))
        return 1
    if result.kind == "hypothesis_failure":
        notes.append("joint informational completeness fails and no channels"
                     " were supplied; the covariance system is not well-posed")
        _emit(make_report("covariant", theory_to_dict(theory), claims, notes, **extra))
        return 1
    name = "W_covariant"
    rep = result.rep
    basis = affine_basis(space)
    for gen, chan in (result.channels or {}).items():
        if gen.is_identity:
            continue
        claims.append(
            {
                "id": f"covariance[{gen.describe()}]",
                "kind": "covariance_identity",
                "statement": "grid entries permute with the channel",
                "verdict": True,
                "rep": name,
                "perm_a": list(gen.perm_a),
                "perm_b": list(gen.perm_b),
                "channel": ser_map(chan.map),
                "basis": [ser_vec(p) for p in basis],
            }
        )
    claims.append(
        {
            "id": "marginals",
            "kind": "recompute",
            "what": "marginals",
            "rep": name,
            "statement": "the covariant grid reproduces both observables",
            "verdict": True,
        }
    )
    if result.kind == "family":
        extra["family_dimension"] = len(result.family_directions)
        extra["family_directions"] = [
            [[ser_functional(f) for f in row] for row in d.grid]
            for d in result.family_directions
        ]
        notes.append("covariance leaves residual freedom; reporting a base point")
    _emit(
        make_report(
            "covariant", theory_to_dict(theory, (name, rep)), claims, notes, **extra
        )
    )
    return 0


def _cmd_plot(args) -> int:
    from . import plot

    theory, wigner_block = _load_theory(args.file)
    if wigner_block is None:
        print("error: the theory file carries no wigner block", file=sys.stderr)
        return 2
    try:
        svg = plot.render_svg(wigner_block[1])
    except plot.PlotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return 0


def _cmd_verify(args) -> int:
    from .report import load_report, verify_report

    try:
        with open(args.report, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(str(exc), path=args.report) from None
    doc = load_report(text)
    rows = verify_report(doc)
    failed = 0
    for cid, ok, detail in rows:
        if ok:
            print(f"ok    {cid}")
        else:
            failed += 1
            print(f"FAIL  {cid}: {detail}")
    print(f"{len(rows) - failed}/{len(rows)} claims verified")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
