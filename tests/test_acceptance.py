"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see the lines on success).  All equality assertions are
exact rational comparisons, tolerance zero.
"""

from contextlib import contextmanager
from fractions import Fraction as F
import json
import random


from helpers import random_free_block, random_theory
from reference_kernels import entrywise_positive_member
from wignerlab import catalog
from wignerlab.cli import main as cli_main
from wignerlab.exact import solve_affine, rank, verify_certificate
from wignerlab.geometry import AffineFunctional, ExtremalValue
from wignerlab.report import load_report
from wignerlab.symmetry import (
    PhasePointMap,
    ProductGroupElement,
    TransportObstruction,
    enumerate_lifted_symmetries,
    find_symmetry_for_channel,
    find_transported_channel,
    induced_action,
    is_g_symmetric,
    is_symmetry,
    lift,
    solve_covariant,
)
from wignerlab.theory import Channel, Compatible, Incompatible, are_compatible
from wignerlab.wigner import (
    NoPositiveMember,
    PositiveFound,
    check_marginals,
    construct_family,
    degenerate_rep,
    evaluate,
    faithful_member,
    grid_rank,
    is_faithful,
    is_positive,
    perturb,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def G(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_criterion_1_boxworld_exact_matrices():
    with criterion(1, "Boxworld W_0, W_1/2, W_+ matrices exact at all vertices"):
        entry = catalog.load("boxworld")
        expected = {
            ("W_0", (0, 0)): G([[0, 0], [0, 1]]),
            ("W_0", (0, 1)): G([[0, 0], [1, 0]]),
            ("W_0", (1, 0)): G([[0, 1], [0, 0]]),
            ("W_0", (1, 1)): G([[0, 1], [1, -1]]),
            ("W_1/2", (0, 0)): G([[0, 0], [0, 1]]),
            ("W_1/2", (0, 1)): G([["1/2", "-1/2"], ["1/2", "1/2"]]),
            ("W_1/2", (1, 0)): G([["1/2", "1/2"], ["-1/2", "1/2"]]),
            ("W_1/2", (1, 1)): G([[1, 0], [0, 0]]),
            ("W_+", (0, 0)): G([[0, 0], [0, 1]]),
            ("W_+", (0, 1)): G([[0, 0], ["1/2", "1/2"]]),
            ("W_+", (1, 0)): G([[0, "1/2"], [0, "1/2"]]),
            ("W_+", (1, 1)): G([[0, "1/2"], ["1/2", 0]]),
        }
        assert len(expected) == 12
        for (rep_name, state), grid in expected.items():
            got = evaluate(entry.representations[rep_name], state).entries
            assert got == grid, (rep_name, state, got)


def test_criterion_2_positivity_iff_compatibility(tmp_path):
    with criterion(2, "positivity <-> compatibility on Boxworld A,B and C,D"):
        entry = catalog.load("boxworld")
        t = entry.theory
        space = t.state_space
        a, b = t.observable("A"), t.observable("B")
        c, d = t.observable("C"), t.observable("D")
        compat_ab = are_compatible(a, b, space)
        search_ab = entrywise_positive_member(a, b, space)
        assert isinstance(compat_ab, Incompatible)
        assert isinstance(search_ab, NoPositiveMember)
        assert verify_certificate(compat_ab.program, compat_ab.certificate)
        assert verify_certificate(search_ab.program, search_ab.certificate)
        compat_cd = are_compatible(c, d, space)
        search_cd = entrywise_positive_member(c, d, space)
        assert isinstance(compat_cd, Compatible)
        assert isinstance(search_cd, PositiveFound)
        assert is_positive(entry.representations["W_+"]).ok
        # equivalence: each route agrees on both pairs
        assert isinstance(compat_ab, Incompatible) == isinstance(search_ab, NoPositiveMember)
        assert isinstance(compat_cd, Compatible) == isinstance(search_cd, PositiveFound)
        (tmp_path / "cert_ab.json").write_text(json.dumps(True))


def test_criterion_3_symmetry_tables():
    with criterion(3, "lifted-symmetry tables of W_0 and W_1/2, exact grids"):
        entry = catalog.load("boxworld")
        w0 = entry.representations["W_0"]
        wh = entry.representations["W_1/2"]
        shape = (2, 2)
        ident = PhasePointMap.identity(shape)
        swap_0110 = PhasePointMap.transposition(shape, (0, 1), (1, 0))
        swap_0011 = PhasePointMap.transposition(shape, (0, 0), (1, 1))
        swap_0001 = PhasePointMap.transposition(shape, (0, 0), (0, 1))
        assert set(enumerate_lifted_symmetries(w0)) == {ident, swap_0110}
        assert is_symmetry(wh, lift(swap_0110)).ok
        assert is_symmetry(wh, lift(swap_0011)).ok
        bad = is_symmetry(wh, lift(swap_0001))
        assert not bad.ok
        assert bad.image.entries == G([["-1/2", "1/2"], ["1/2", "1/2"]])


def test_criterion_4_qubit_ball():
    with criterion(4, "qubit ball: faithful, exact negativity, G4 symmetry"):
        entry = catalog.load("qubit_ball")
        rep = entry.representations["W"]
        # faithfulness through the rank test plus coordinate recovery
        assert grid_rank(rep) == 4 and is_faithful(rep)
        funcs = rep.functionals()
        combos = {
            (1, -1, 1, -1): AffineFunctional((1, 0, 0), 0),
            (1, -1, -1, 1): AffineFunctional((0, 1, 0), 0),
            (1, 1, -1, -1): AffineFunctional((0, 0, 1), 0),
        }
        for coeffs, target in combos.items():
            total = AffineFunctional.zero(3)
            for c, f in zip(coeffs, funcs):
                total = total + f.scale(c)
            assert total == target
        # negativity with the exact derived ball minimum (1 - sqrt 3)/4
        result = is_positive(rep)
        assert not result.ok
        assert result.witness.phase_point == (0, 0)
        assert result.witness.value == ExtremalValue(F(1, 4), F(-1, 4), 3)
        # G4 symmetry via the three transpositions with 00, and their
        # induced actions as exact signed permutations
        gens = [entry.named_maps[n] for n in ("phi01", "phi10", "phi11")]
        assert is_g_symmetric(rep, gens)
        expected_actions = {
            "phi01": ((0, -1, 0), (-1, 0, 0), (0, 0, 1)),
            "phi10": ((1, 0, 0), (0, 0, -1), (0, -1, 0)),
            "phi11": ((0, 0, -1), (0, 1, 0), (-1, 0, 0)),
        }
        for name, matrix in expected_actions.items():
            chan = induced_action(rep, entry.named_maps[name])
            assert chan.map.matrix.entries == G(matrix)
            assert chan.map.offset == (F(0), F(0), F(0))


def _boxworld_covariant_oracle():
    """Brute-force solve of the covariance equations over the q-family.

    Parametrize q = c0 + c1 fx + c2 fy.  The two outcome swaps act on the
    square by the horizontal and vertical flips (forced by their effect
    equations), and covariance of the family grid at every vertex gives
    a linear system for (c0, c1, c2).
    """
    verts = [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    hflip = lambda s: (1 - s[0], s[1])
    vflip = lambda s: (s[0], 1 - s[1])
    rows, rhs = [], []
    for s in verts:
        # swap_A: q(hflip(s)) + q(s) = fy(s); swap_B: q(vflip(s)) + q(s) = fx(s)
        for flip, target in ((hflip, s[1]), (vflip, s[0])):
            fs = flip(s)
            rows.append([F(2), fs[0] + s[0], fs[1] + s[1]])
            rhs.append(target)
    sol = solve_affine(rows, rhs)
    assert sol is not None and not sol.nullspace
    return sol.particular


def test_criterion_5_covariant_uniqueness():
    with criterion(5, "covariant solver: qubit_xz, rebit_diamond, boxworld,"
                      " deformed_12gon"):
        # qubit_xz reproduces the catalog grid exactly
        xz = catalog.load("qubit_xz")
        t = xz.theory
        result = solve_covariant(t.obs_a, t.obs_b, t.state_space, channels=xz.channels)
        assert result.kind == "unique"
        assert result.rep.grid == xz.representations["W"].grid
        assert not result.family_directions
        # rebit diamond: unique with nullspace dimension 0
        dia = catalog.load("rebit_diamond")
        t = dia.theory
        result = solve_covariant(t.obs_a, t.obs_b, t.state_space)
        assert result.kind == "unique" and not result.family_directions
        assert result.rep.grid == dia.representations["W"].grid
        # boxworld: engine against the independent family-solve oracle
        oracle = _boxworld_covariant_oracle()
        assert oracle == (F(-1, 4), F(1, 2), F(1, 2))  # frozen oracle output
        box = catalog.load("boxworld")
        t = box.theory
        result = solve_covariant(t.obs_a, t.obs_b, t.state_space)
        assert result.kind == "unique"
        c0, c1, c2 = oracle
        assert result.rep.grid[0][0] == AffineFunctional((c1, c2), c0)
        # deformed 12-gon: none, with a machine-verified Farkas certificate
        gon = catalog.load("deformed_12gon")
        t = gon.theory
        result = solve_covariant(t.obs_a, t.obs_b, t.state_space)
        assert result.kind == "none"
        assert verify_certificate(result.program, result.certificate)
        assert result.obstruction.element == ProductGroupElement((1, 0), (0, 1))
        assert result.obstruction.detail.witness_point == (F(3, 5), F(-4, 5))


def test_criterion_6_cube_and_trit():
    with criterion(6, "cube rank 4 vs 3; trit rotation transport obstruction"):
        cube = catalog.load("cube")
        assert grid_rank(cube.representations["W_z"]) == 4
        assert grid_rank(cube.representations["W_0"]) == 3
        assert is_faithful(cube.representations["W_z"])
        assert not is_faithful(cube.representations["W_0"])
        trit = catalog.load("trit")
        rep = trit.representations["W"]
        rotation = trit.named_channels["rotation"]
        result = find_symmetry_for_channel(rep, rotation)
        assert isinstance(result, TransportObstruction)
        # s_1 = (0,1) and s_2 = (0,0) share one image but are separated
        assert set(result.pair) == {(F(0), F(1)), (F(0), F(0))}


def test_criterion_7a_marginal_identities_family_and_perturb():
    with criterion(7, "property suite A: marginal identities, 200 cases"):
        rng = random.Random(101)
        for _ in range(200):
            theory = random_theory(rng, outcome_choices=(2, 2, 3))
            a, b, space = theory.obs_a, theory.obs_b, theory.state_space
            rep = construct_family(
                a, b, space, random_free_block(rng, space, a, b)
            )
            assert check_marginals(rep).ok
            if a.n_outcomes > 1 and b.n_outcomes > 1:
                t = F(rng.randint(-8, 8), rng.randint(1, 4))
                moved = perturb(rep, 0, a.n_outcomes - 1, 0, b.n_outcomes - 1, t)
                assert check_marginals(moved).ok
                assert (moved != rep) == (t != 0)


def test_criterion_7b_all_faithful_iff_info_complete():
    with criterion(7, "property suite B: all-faithful <-> info-complete, 200 cases"):
        from wignerlab.theory import jointly_info_complete

        rng = random.Random(103)
        for _ in range(200):
            theory = random_theory(rng, outcome_choices=(2, 2, 3))
            a, b, space = theory.obs_a, theory.obs_b, theory.state_space
            ic = jointly_info_complete(a, b, space)
            degenerate = degenerate_rep(a, b, space)
            if ic:
                assert is_faithful(degenerate)
                sample = construct_family(
                    a, b, space, random_free_block(rng, space, a, b)
                )
                assert is_faithful(sample)
            else:
                assert not is_faithful(degenerate)


def test_criterion_7c_faithful_implies_transported():
    with criterion(7, "property suite C: faithful => transported, 200 cases"):
        rng = random.Random(107)
        done = 0
        while done < 200:
            theory = random_theory(rng, max_points=4, outcome_choices=(2,))
            a, b, space = theory.obs_a, theory.obs_b, theory.state_space
            rep = construct_family(a, b, space, random_free_block(rng, space, a, b))
            if not is_faithful(rep):
                rep = faithful_member(a, b, space)
                if rep is None:
                    continue
            for phi in enumerate_lifted_symmetries(rep):
                assert isinstance(
                    find_transported_channel(rep, lift(phi)), Channel
                ), phi.describe()
            done += 1


def test_criterion_7d_induced_action_homomorphism():
    with criterion(7, "property suite D: induced-action homomorphism,"
                      " 200 composition pairs"):
        rng = random.Random(109)
        pairs_checked = 0
        while pairs_checked < 200:
            theory = random_theory(rng, max_points=4, outcome_choices=(2,))
            a, b, space = theory.obs_a, theory.obs_b, theory.state_space
            rep = faithful_member(a, b, space)
            if rep is None:
                continue
            syms = enumerate_lifted_symmetries(rep)
            actions = {phi: induced_action(rep, phi) for phi in syms}
            for phi in syms:
                for psi in syms:
                    composite = phi.compose(psi)
                    assert composite in actions
                    lhs = actions[phi].map
                    rhs = actions[psi].map
                    target = actions[composite].map
                    for v in space.vertices:
                        assert lhs(rhs(v)) == target(v)
                    pairs_checked += 1


def test_criterion_7e_free_parameter_count():
    with criterion(7, "property suite E: free-slot count = (|A|-1)(|B|-1),"
                      " 200 cases"):
        rng = random.Random(113)
        for _ in range(200):
            n_a = rng.randint(1, 4)
            n_b = rng.randint(1, 4)
            rows = []
            for i in range(n_a):
                row = [F(0)] * (n_a * n_b)
                for j in range(n_b):
                    row[i * n_b + j] = F(1)
                rows.append(row)
            for j in range(n_b):
                row = [F(0)] * (n_a * n_b)
                for i in range(n_a):
                    row[i * n_b + j] = F(1)
                rows.append(row)
            sol = solve_affine(rows, [F(0)] * (n_a + n_b))
            free = (n_a - 1) * (n_b - 1)
            assert len(sol.nullspace) == free
            # the checkerboard perturbation directions span that nullspace
            boards = []
            for a1 in range(n_a):
                for a2 in range(a1 + 1, n_a):
                    for b1 in range(n_b):
                        for b2 in range(b1 + 1, n_b):
                            board = [F(0)] * (n_a * n_b)
                            board[a1 * n_b + b1] = F(1)
                            board[a2 * n_b + b2] = F(1)
                            board[a1 * n_b + b2] = F(-1)
                            board[a2 * n_b + b1] = F(-1)
                            boards.append(board)
            assert rank(boards) == free if boards else free == 0


def test_criterion_8_certificates_reverify_through_cli(tmp_path, capsys):
    with criterion(8, "infeasibility certificates re-verify via `verify`"):
        # criterion 2's incompatibility certificate through analyze
        box = tmp_path / "box.json"
        assert cli_main(["example", "boxworld", "--out", str(box)]) == 0
        assert cli_main(["analyze", str(box)]) == 0
        analyze_out = capsys.readouterr().out
        report_path = tmp_path / "analyze.json"
        report_path.write_text(analyze_out)
        report = load_report(analyze_out)
        kinds = {c["id"]: c["kind"] for c in report["claims"]}
        assert kinds["compatibility"] == "lp_infeasible"
        assert cli_main(["verify", str(report_path)]) == 0
        capsys.readouterr()
        # criterion 5's nonexistence certificate through covariant
        gon = tmp_path / "gon.json"
        assert cli_main(["example", "deformed_12gon", "--out", str(gon)]) == 0
        capsys.readouterr()
        assert cli_main(["covariant", str(gon)]) == 1
        covariant_out = capsys.readouterr().out
        report_path2 = tmp_path / "covariant.json"
        report_path2.write_text(covariant_out)
        report2 = load_report(covariant_out)
        assert any(c["kind"] == "lp_infeasible" for c in report2["claims"])
        assert cli_main(["verify", str(report_path2)]) == 0
        capsys.readouterr()
        # tampered certificates must be caught
        doc = json.loads(covariant_out)
        for claim in doc["claims"]:
            if claim["kind"] == "lp_infeasible":
                claim["certificate"]["ineq_multipliers"][0] = "1000000"
        bad_path = tmp_path / "tampered.json"
        bad_path.write_text(json.dumps(doc))
        assert cli_main(["verify", str(bad_path)]) == 1
        capsys.readouterr()
