"""Command-line surface.

Subcommands: example, validate, analyze, wigner, symmetries, covariant,
plot, verify.  Analysis reports are JSON documents on stdout whose
claims carry their witnesses and certificates, re-checkable offline
with ``wignerlab verify``; each command passes the engine's results to
the claim builders of ``report``.  Exit codes: 0 success, 1 analysis-negative
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

from .errors import PairError, ParseError, UnsupportedGeometryError, WignerlabError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ParseError, PairError) as exc:  # the input is at fault
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WignerlabError as exc:
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


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None


def _cmd_example(args) -> int:
    from . import catalog, theoryfile

    if args.list or args.name is None:
        for name in catalog.CATALOG_NAMES:
            print(name)
        return 0
    entry = catalog.load(args.name)
    # usage errors come before any output
    if args.rep is not None and args.rep not in entry.representations:
        raise ParseError(f"{args.name} has representations {sorted(entry.representations)}")
    if args.channels_out and not entry.channels:
        raise ParseError(f"{args.name} carries no channels")
    theory = entry.theory
    wigner_block = None
    if args.rep is not None:
        rep = entry.representations[args.rep]
        from .theory import Theory

        theory = Theory(
            theory.state_space, theory.observables,
            pair=(rep.obs_a.name, rep.obs_b.name),
        )
        wigner_block = (args.rep, rep)
    text = theoryfile.dumps(theory, wigner_block)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.channels_out:
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
        _write(args.channels_out, json.dumps(data, indent=2) + "\n")
    return 0


def _cmd_validate(args) -> int:
    from .report import make_report, recompute_claim, ser_violation
    from .theory import validate
    from .theoryfile import theory_to_dict

    theory, _ = _load_theory(args.file)
    violations = validate(theory)
    claim = recompute_claim(
        "validate", "all effects stay in [0,1] and sum to the unit effect", not violations
    )
    details = [ser_violation(v) for v in violations]
    _emit(make_report("validate", theory_to_dict(theory), [claim], violations=details))
    return 0 if not violations else 1


def _cmd_analyze(args) -> int:
    from .exact import Infeasible
    from .report import (
        ball_max_one_claim, lp_claim, make_report, rank_claim, recompute_claim, surjective_id,
    )
    from .theory import (
        Compatible, are_compatible, are_complementary, effect_span_rank, surjectivity_details,
    )
    from .theoryfile import ser_functional, theory_to_dict
    from .wigner import faithful_choice_possible

    theory, _ = _load_theory(args.file)
    space = theory.state_space
    obs_a, obs_b = theory.obs_a, theory.obs_b
    pair = (obs_a.name, obs_b.name)
    claims = []
    notes = []
    try:
        compat = are_compatible(obs_a, obs_b, space)
        names = f"{obs_a.name} and {obs_b.name}"
        if isinstance(compat, Compatible):
            joint = [[ser_functional(f) for f in row] for row in compat.joint]
            claims.append(lp_claim("compatibility", f"{names} are compatible", compat,
                                   joint=joint))
        else:
            claims.append(lp_claim("compatibility", f"{names} are incompatible",
                                   compat.certificate))
    except UnsupportedGeometryError as exc:
        notes.append(f"compatibility: {exc}")
    # one rank of the effects on aff(K) decides info_complete and faithful_choice
    span = effect_span_rank(obs_a, obs_b, space)
    fc = faithful_choice_possible(obs_a, obs_b, space, span)
    claims.append(rank_claim(
        "info_complete", "effect span restricted to aff(K) vs dim(K) + 1",
        span == fc.space_dim + 1, span,
    ))
    try:
        claims.append(recompute_claim(
            "complementary", "certain outcomes of one force uniformity of the other",
            are_complementary(obs_a, obs_b, space), pair=pair,
        ))
    except UnsupportedGeometryError as exc:
        notes.append(f"complementarity: {exc}")
    for obs in (obs_a, obs_b):
        for outcome, lp, result in surjectivity_details(obs, space):
            cid = surjective_id(obs.name, outcome)
            reaches = f"{obs.name} reaches outcome {outcome} sharply"
            if lp is None:
                claims.append(ball_max_one_claim(
                    cid, reaches, obs.effect(outcome), space, bool(result)))
            elif isinstance(result, Infeasible):
                claims.append(lp_claim(
                    cid, f"{obs.name} never reaches outcome {outcome} sharply", result,
                    observable=obs.name, outcome=outcome))
            else:
                claims.append(lp_claim(cid, reaches, result, observable=obs.name,
                                       outcome=outcome))
    claims.append(recompute_claim(
        "faithful_choice", "free slots cover the dimension gap", fc.possible,
        pair=pair, free_slots=fc.free_slots, required=fc.required,
    ))
    _emit(make_report("analyze", theory_to_dict(theory), claims, notes))
    return 0


# a sign, a coefficient, a coordinate: one of the last two may be missing
_TERM = re.compile(r"([+-]?)\s*([0-9./]*)\s*\*?\s*(?:x([0-9]+))?")


def _parse_free_expression(text: str, dim: int) -> AffineFunctional:
    """Tiny linear-expression parser: '1/2 x0 + 1/2 x1 - 1/4'."""
    from .exact import QQ
    from .geometry import AffineFunctional
    from .theoryfile import parse_rational

    text = text.strip()
    if not text:
        raise ParseError("empty functional expression")
    # each sign starts a term, so the terms cover the text exactly
    chunks = [chunk.strip() for chunk in re.split(r"(?=[+-])", text)]
    if not chunks[0]:
        del chunks[0]  # the text starts with a sign
    linear = [QQ(0)] * dim
    constant = QQ(0)
    for chunk in chunks:
        m = _TERM.fullmatch(chunk)
        if not m or not (m[2] or m[3]):
            raise ParseError(f"cannot parse term {chunk!r}")
        sign, coeff_text, var = m.groups()
        coeff = parse_rational(sign + (coeff_text or "1"), "free")
        if var is None:
            constant += coeff
        else:
            i = int(var)
            if i >= dim:
                raise ParseError(f"coordinate x{i} exceeds ambient dimension {dim}")
            linear[i] += coeff
    return AffineFunctional(tuple(linear), constant)


def _cmd_wigner(args) -> int:
    from .report import make_report, negativity_claim, recompute_claim
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
        recompute_claim("marginals", "row and column sums reproduce the two observables",
                        check_marginals(rep).ok, rep=name),
        recompute_claim("faithful", "the grid functionals span all affine functions on K",
                        is_faithful(rep), rep=name),
        recompute_claim("positive", "the image stays inside the probability simplex",
                        positive.ok, rep=name),
    ]
    if not positive.ok and positive.witness is not None:
        claims.append(negativity_claim(rep, positive.witness))
    if args.out:
        _write(args.out, dumps(theory, (name, rep)))
    _emit(make_report("wigner", theory_to_dict(theory, (name, rep)), claims, notes))
    return 0


def _cmd_symmetries(args) -> int:
    from . import symmetry
    from .report import lp_claim, make_report, ser_map, transport_id
    from .theory import Channel
    from .theoryfile import theory_to_dict

    theory, wigner_block = _load_theory(args.file)
    if wigner_block is None:
        raise ParseError("the theory file carries no wigner block")
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
                claims.append(lp_claim(transport_id(phi.shape[1], phi.table),
                                       "no channel completes the square", result.certificate,
                                       rep=name, table=list(phi.table)))
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
    from .geometry import map_into
    from .report import make_report, read_map, ser_map
    from .theoryfile import ser_vec, theory_to_dict

    try:
        data = json.loads(args.channel_matrix)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad --channel-matrix: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("expected an object with matrix and offset", path="--channel-matrix")
    space = theory.state_space
    chan = read_map(data, space.ambient_dim)
    inside = map_into(space, chan, space)
    if not inside.ok:
        point, image = (", ".join(map(str, v))
                        for v in (inside.witness_point, inside.witness_image))
        raise ParseError(f"the map leaves the state space: it sends ({point}) to ({image})",
                         path="--channel-matrix")
    result = symmetry.find_symmetry_for_channel(rep, chan)
    if isinstance(result, symmetry.TransportObstruction):
        key, points = (("witness_pair", result.pair) if result.pair is not None
                       else ("dependency", result.dependency))
        notes = ["no transported symmetry exists for the requested channel"]
        extra = {"obstruction": {key: [ser_vec(p) for p in points]}}
    else:
        notes, extra = [], {"transported_symmetry": ser_map(result)}
    _emit(make_report("symmetries", theory_to_dict(theory, (name, rep)), [], notes, **extra))
    return 1 if notes else 0


def _load_channels(path: str, theory):
    """The channels of a ``--channels`` file, one per outcome-permutation
    pair, each an affine map of the theory's ambient space."""
    import json

    from .report import read_map, read_permutation
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
        perm_a, perm_b = (read_permutation(row.get(k), obs.n_outcomes, f"[{i}].{k}")
                          for k, obs in (("perm_a", theory.obs_a), ("perm_b", theory.obs_b)))
        channels[ProductGroupElement(perm_a, perm_b)] = read_map(
            row, theory.state_space.ambient_dim, f"[{i}].")
    return channels


def _cmd_covariant(args) -> int:
    from . import symmetry
    from .report import covariance_claim, lp_claim, make_report, recompute_claim
    from .theoryfile import ser_functional, ser_vec, theory_to_dict

    theory, _ = _load_theory(args.file)
    space = theory.state_space
    channels = _load_channels(args.channels, theory) if args.channels else None
    result = symmetry.solve_covariant(theory.obs_a, theory.obs_b, space, channels)
    claims = []
    notes = [f"hypothesis {k}: {'holds' if v else 'FAILS'}"
             for k, v in result.hypotheses.items()]
    extra = {"hypotheses": result.hypotheses, "result": result.kind}
    if result.kind == "none":
        element = {}
        if result.obstruction is not None:
            ob = result.obstruction
            element = {"perm_a": list(ob.element.perm_a), "perm_b": list(ob.element.perm_b)}
            extra["offending_element"] = element
            if ob.detail.witness_point is not None:
                extra["witness"] = {
                    "point": ser_vec(ob.detail.witness_point),
                    "image": ser_vec(ob.detail.witness_image),
                }
        why = ("the permutation-channel system is infeasible" if result.obstruction
               else "the two observables' effects have different sums")
        claims.append(lp_claim(
            "no_covariant", f"{why}, so no covariant representation exists",
            result.certificate, **element,
        ))
    elif result.kind == "hypothesis_failure":
        notes.append("joint informational completeness fails and no channels"
                     " were supplied; the covariance system is not well-posed")
    if result.kind in ("none", "hypothesis_failure"):
        _emit(make_report("covariant", theory_to_dict(theory), claims, notes, **extra))
        return 1
    name = "W_covariant"
    rep = result.rep
    for gen, chan in result.channels.items():
        claims.append(covariance_claim(gen, chan.map, name))
    claims.append(recompute_claim(
        "marginals", "the covariant grid reproduces both observables", True, rep=name))
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

    _, wigner_block = _load_theory(args.file)
    if wigner_block is None:
        raise ParseError("the theory file carries no wigner block")
    _write(args.out, plot.render_svg(wigner_block[1]))
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
