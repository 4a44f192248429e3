"""Boolean-level algorithms: DNF, isolation, FM satisfiability, folding."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linquant import Atom, Disjunct, GenParams, LinExpr, NEG_OO, OO, Rel, random_quantity
from linquant.logic import (
    absorb,
    atom_eval,
    bool_eval,
    bool_sat,
    conjoin,
    disjunct_sat,
    dnf_to_bool,
    fm_witness,
    fold_atom,
    isolate,
    negate_atom,
    to_dnf,
)
from linquant.oracle import random_valuation, sample_pool
from linquant.parser import parse_quantity
from linquant.printer import print_bool
from linquant.terms import FALSE, TRUE, And, Not, Or, Valuation, and_all

from conftest import (
    WIDE_OR_TEXT,
    atom,
    grid_sat,
    has_parallel_atoms,
    is_antichain,
    lin,
    quantifier_free,
    random_frac_disjunct,
    random_iso_disjunct,
    val,
)

X, Y, Z = lin(0, x=1), lin(0, y=1), lin(0, z=1)

# Unsatisfiable conjunctions: parallel rows at different scales and
# strictness (in both insertion orders), and fractional two-variable atoms.
UNSAT_CASES = [
    (atom(X, "<", 0), atom(X, ">", 1)),
    (atom(X, "<=", 1), atom(lin(0, x=2), ">", 2)),
    (atom(lin(0, x=3), "<", 3), atom(X, "<=", 1), atom(X, ">=", 1)),
    (atom(X, "<=", 1), atom(lin(0, x=3), "<", 3), atom(X, ">=", 1)),
    (
        atom(lin(0, x=Fraction(1, 3), y=Fraction(1, 2)), "<", Fraction(1, 6)),
        atom(X, ">=", 0),
        atom(Y, ">=", Fraction(1, 3)),
    ),
]

# Satisfiable conjunctions with the witness fm_witness returns for them
# (name-ordered elimination, midpoint / bound +- 1 / 0 picks).
WITNESS_CASES = [
    ((atom(X, ">", 0), atom(X, "<", 2)), {"x": 1}),
    ((atom(X, "<=", 1), atom(lin(0, x=2), ">=", 2)), {"x": 1}),
    # the strict 3x < 3 is kept over the parallel x <= 1: the interval is [0, 1)
    ((atom(lin(0, x=3), "<", 3), atom(X, "<=", 1), atom(X, ">=", 0)), {"x": Fraction(1, 2)}),
    (
        (
            atom(lin(0, x=Fraction(1, 3), y=Fraction(1, 2)), "<", Fraction(1, 6)),
            atom(X, ">=", lin(0, y=Fraction(-2, 3))),
            atom(Y, ">", -1),
        ),
        {"x": Fraction(7, 15), "y": Fraction(-1, 5)},
    ),
    (
        (
            atom(X, ">=", lin(0, y=1, z=1)),
            atom(lin(0, x=2), "<", lin(3, y=Fraction(1, 2), z=-1)),
            atom(Y, "<=", lin(1, z=Fraction(1, 2))),
            atom(Z, ">", -1),
            atom(Z, "<=", 2),
            atom(lin(0, y=1, z=Fraction(2, 3)), ">=", lin(Fraction(-1, 2), x=Fraction(1, 3))),
        ),
        {"x": Fraction(353, 384), "y": Fraction(5, 48), "z": Fraction(5, 12)},
    ),
]

# Seeded disjunct corpora: integer atoms isolated in x, and fractional
# atoms over one or two variables per side.
def _iso_corpus(rng, variables, max_atoms):
    return random_iso_disjunct(rng, variables, "x", max_atoms=max_atoms, bound=3)


def _frac_corpus(rng, variables, max_atoms):
    return random_frac_disjunct(rng, variables, max_atoms=max_atoms, bound=3)


class TestAtomEval:
    def test_finite_below_pos_inf(self):
        assert atom_eval(val(x=3), atom(lin(0, x=1), "<", OO))

    def test_failing_nonstrict(self):
        assert not atom_eval(val(y=1), atom(lin(0, y=2), ">=", 3))

    def test_strict_irreflexive_on_inf(self):
        assert not atom_eval(val(), Atom(NEG_OO, Rel.LT, NEG_OO))


class TestNegateAtom:
    def test_complement_lt(self):
        assert negate_atom(atom(lin(0, x=1), "<", 3)) == atom(lin(0, x=1), ">=", 3)

    def test_complement_ge_with_infinity(self):
        assert negate_atom(Atom(lin(0, y=1), Rel.GE, NEG_OO)) == Atom(lin(0, y=1), Rel.LT, NEG_OO)

    def test_involution(self):
        a = atom(lin(0, x=1), "<=", 0)
        assert negate_atom(negate_atom(a)) == a


class TestFoldAtom:
    def test_two_infinite_sides(self):
        assert fold_atom(Atom(NEG_OO, Rel.LE, OO)) is TRUE

    def test_constant_sides(self):
        assert fold_atom(atom(3, "<", 2)) is FALSE

    def test_variable_below_pos_inf(self):
        assert fold_atom(Atom(lin(0, y=1), Rel.LT, OO)) is TRUE

    def test_variable_at_least_pos_inf(self):
        assert fold_atom(Atom(lin(0, y=1), Rel.GE, OO)) is FALSE

    def test_constant_difference(self):
        assert fold_atom(atom(lin(1, x=1), "<", lin(2, x=1))) is TRUE

    def test_keeps_informative_atoms(self):
        a = atom(lin(0, x=1), "<", lin(0, y=1))
        assert fold_atom(a) == a

    @pytest.mark.parametrize("rel", list(Rel))
    @pytest.mark.parametrize(
        "lhs, rhs",
        [(a, b) for a in ("y", "oo", "-oo") for b in ("y", "oo", "-oo") if "oo" in a + b],
    )
    def test_infinite_side(self, lhs, rel, rhs):
        # -oo < y < oo for every value of y
        rank = {"-oo": -1, "y": 0, "oo": 1}
        side = {"-oo": NEG_OO, "y": Y, "oo": OO}
        cmp = (rank[lhs] > rank[rhs]) - (rank[lhs] < rank[rhs])
        assert fold_atom(Atom(side[lhs], rel, side[rhs])) is (TRUE if rel.holds(cmp) else FALSE)


class TestToDnf:
    def test_example_second_summand(self, ex1):
        # guard of the zero branch: y1 >= z and not(...), three disjuncts
        inner = ex1.body[0].guard
        negated = Not(inner)
        disjuncts = to_dnf(negated)
        assert len(disjuncts) == 3
        sigma_in = val(x=0, y1=5, z=1, y3=-10, y2=0)  # satisfies the original guard
        assert not any(all(atom_eval(sigma_in, a) for a in d) for d in disjuncts)

    def test_single_atom(self):
        a = atom(lin(0, x=1), "<", 0)
        assert to_dnf(a) == [Disjunct((a,))]

    def test_unsat_pruned(self):
        phi = And(atom(lin(0, x=1), "<", 0), atom(lin(0, x=1), ">", 1))
        assert to_dnf(phi) == []
        # already a disjunction of conjunctions: the unsatisfiable disjunct,
        # the constant atom, the repeated atom, the repeated disjunct and
        # the subsumed disjunct go
        a, b = atom(Y, ">", 0), atom(X, ">", 2)
        shaped = Or(
            Or(Or(phi, And(And(a, atom(1, ">", 0)), a)), And(b, a)),
            And(a, atom(1, ">", 0)),
        )
        assert to_dnf(shaped) == [Disjunct((a,))]

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_equivalence_random(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        variables = ["x", "y", "z"][: rng.randint(1, 3)]
        atoms = [
            Atom(
                LinExpr(rng.randint(-3, 3), {v: rng.randint(-2, 2) for v in variables}),
                rng.choice(list(Rel)),
                LinExpr.const(rng.randint(-3, 3)),
            )
            for _ in range(rng.randint(1, 6))
        ]
        nodes = list(atoms)
        while len(nodes) > 1:
            b = nodes.pop(rng.randrange(len(nodes)))
            a = nodes.pop(rng.randrange(len(nodes)))
            combo = rng.random()
            if combo < 0.2:
                a = Not(a)
            nodes.append(And(a, b) if combo < 0.6 else Or(a, b))
        phi = nodes[0]
        disjuncts = to_dnf(phi)
        assert to_dnf(dnf_to_bool(disjuncts)) == disjuncts
        for _ in range(50):
            sigma = Valuation({v: Fraction(rng.randint(-12, 12), 4) for v in variables})
            direct = bool_eval(sigma, phi)
            via_dnf = any(all(atom_eval(sigma, a) for a in d) for d in disjuncts)
            assert direct == via_dnf

    def test_wide_chain(self, default_recursion_limit):
        guard = parse_quantity(WIDE_OR_TEXT).body[0].guard
        assert to_dnf(guard) == [(a,) for a in guard.args]
        # the negated atoms y <= i share a direction: only the tightest stays
        assert to_dnf(Not(guard)) == [(negate_atom(guard.args[0]),)]

    def test_generator_corpus_digest(self):
        # every guard of a fixed generator corpus and its negation, printed
        # in DNF; the digest pins disjunct order and atom order
        params = GenParams(vars=3, summands=3, atoms_per_guard=6, quantifiers=0)
        lines = []
        for seed in range(1000):
            for term in random_quantity(params, seed).body:
                for phi in (term.guard, Not(term.guard)):
                    ds = to_dnf(phi)
                    assert absorb(ds) == ds  # no disjunct subsumes another
                    lines.append(print_bool(dnf_to_bool(ds)))
        assert len(lines) == 3954
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "6d88e366fc9a1d05"


class TestAbsorb:
    A, B, C = atom(X, ">", 0), atom(Y, ">", 0), atom(Z, ">", 0)

    def test_superset_dropped(self):
        a, b = self.A, self.B
        assert absorb([(a,), (a, b)]) == [(a,)]
        assert absorb([(a, b), (a,)]) == [(a,)]
        assert absorb([(b, a, self.C), (a, b)]) == [(a, b)]

    def test_input_order_kept(self):
        a, b, c = self.A, self.B, self.C
        # sets are visited shortest first, but the kept ones come out in input order
        assert absorb([(a, b), (c,), (b, c), (a,)]) == [(c,), (a,)]
        assert absorb([(a, b), (c,)]) == [(a, b), (c,)]

    def test_true_absorbs_everything(self):
        a, b = self.A, self.B
        assert absorb([(a,), (), (a, b), ()]) == [()]

    def test_equal_length_sets_kept(self):
        a, b, c = self.A, self.B, self.C
        ds = [(a, b), (b, c), (c, a)]
        assert absorb(ds) == ds
        # of equal sets the first stays, atom order included
        assert absorb([(b, a), (a, b), (c,)]) == [(b, a), (c,)]

    def test_idempotent(self):
        a, b, c = self.A, self.B, self.C
        ds = absorb([(a, b, c), (b, c), (a, c), (c, b), (b,)])
        assert ds == [(a, c), (b,)]
        assert absorb(ds) == ds

    @settings(deadline=None, max_examples=150)
    @given(q=quantifier_free(), seed=st.integers(0, 10**6))
    def test_minimal_and_equivalent(self, q, seed):
        # each guard, and one whose DNF holds subsumed disjuncts by construction
        guards = [t.guard for t in q.body]
        guards.append(Or(guards[0], and_all(guards)))
        rng = random.Random(seed)
        pool = sample_pool(q)
        points = [random_valuation(["x", "y"], rng, pool) for _ in range(20)]
        for g in guards:
            ds = absorb(to_dnf(g))
            assert is_antichain(ds)
            assert absorb(ds) == ds
            for sigma in points:
                assert bool_eval(sigma, g) == any(all(atom_eval(sigma, a) for a in d) for d in ds)


class TestConjoin:
    def test_parallel_at_least_as_tight_skipped(self):
        state = (atom(lin(-1, x=-3), ">", 0), atom(Y, "<", 1))
        # -3x - 1 >= 0 and x < 1 are implied by -3x - 1 > 0 (that is, x < -1/3)
        for implied in (atom(lin(-1, x=-3), ">=", 0), atom(X, "<", 1), atom(lin(0, x=2), "<=", 2)):
            assert conjoin(state, [implied]) == state
        # y <= 1 and 2y < 2 are at most as tight as y < 1
        assert conjoin(state, [atom(Y, "<=", 1), atom(lin(0, y=2), "<", 2)]) == state

    def test_tighter_replaces_in_place(self):
        state = (atom(X, "<=", 1), atom(Y, "<", 1))
        for tighter in (atom(X, "<", 1), atom(X, "<=", 0), atom(lin(0, x=2), "<", 0)):
            assert conjoin(state, [tighter]) == (tighter, state[1])
        # among the new atoms, and inside ``d`` itself, too
        loose, tight = atom(X, "<=", 2), atom(X, "<=", 1)
        assert conjoin((), [loose, atom(Y, ">", 0), tight]) == (tight, atom(Y, ">", 0))
        assert conjoin((loose, atom(Y, ">", 0), tight), []) == (tight, atom(Y, ">", 0))

    def test_equally_tight_keeps_first(self):
        a, b = atom(X, "<", 1), atom(lin(0, x=2), "<", 2)
        assert conjoin((a,), [b]) == (a,)
        assert conjoin((b,), [a]) == (b,)
        assert conjoin((a, atom(Y, ">", 0)), [a]) == (a, atom(Y, ">", 0))

    def test_opposite_and_other_directions_kept(self):
        state = (atom(X, "<=", 1),)
        others = (atom(X, ">", 0), atom(X, ">=", 2), atom(lin(0, x=1, y=1), "<", 1), atom(Y, "<=", 1))
        for kept in others:
            assert conjoin(state, [kept]) == (*state, kept)

    def test_folding_atoms_kept_once(self):
        false = atom(1, "<", 0)
        assert conjoin((false,), [false, atom(X, "<", 0)]) == (false, atom(X, "<", 0))

    def test_equivalent_to_plain_conjunction(self):
        rng = random.Random(2_024)
        variables = ["x", "y"]
        for _ in range(300):
            d = random_frac_disjunct(rng, variables, max_atoms=4, bound=3)
            atoms = random_frac_disjunct(rng, variables, max_atoms=3, bound=3)
            out = conjoin(d, atoms)
            assert set(out) <= set(d) | set(atoms)
            assert not has_parallel_atoms(out)
            for _ in range(10):
                sigma = val(**{v: Fraction(rng.randint(-12, 12), 4) for v in variables})
                holds = lambda c: all(atom_eval(sigma, a) for a in c)
                assert holds(out) == holds((*d, *atoms))


class TestIsolate:
    def test_negated_coefficient(self):
        a = atom(lin(0, x=-1), ">=", lin(0, y3=1))
        assert isolate(a, "x") == atom(lin(0, x=1), "<=", lin(0, y3=-1))

    def test_moves_constant(self):
        a = atom(lin(-2, x=1), "<", lin(0, y1=1))
        assert isolate(a, "x") == atom(lin(0, x=1), "<", lin(2, y1=1))

    def test_collects_both_sides(self):
        a = atom(lin(0, x=2, y=1), "<=", lin(4, x=1, y=-1))
        assert isolate(a, "x") == atom(lin(0, x=1), "<=", lin(4, y=-2))

    def test_cancelling_variable_comes_back_var_free(self):
        a = atom(lin(0, x=1, y=1), "<=", lin(0, x=1))
        result = isolate(a, "x")
        assert "x" not in result.lhs.fvars() | result.rhs.fvars()

    def test_cancelling_to_a_decidable_row_is_an_atom(self):
        for rhs, truth in ((lin(1, x=1), True), (lin(-1, x=1), False)):
            result = isolate(atom(lin(0, x=1), "<=", rhs), "x")
            assert isinstance(result, Atom) and not result.lhs.fvars() | result.rhs.fvars()
            assert atom_eval(val(), result) is truth

    def test_first_variable_returns_the_interned_atom(self):
        interned = fold_atom(atom(lin(0, x=2, y=1), "<", 4))  # x < -1/2*y + 2
        assert isolate(interned, "x") is interned
        assert isolate(atom(lin(0, x=-2, y=-1), ">", -4), "x") is interned

    def test_isolated_atom_keeps_its_row(self):
        interned = fold_atom(atom(lin(0, x=2, y=1), "<", 4))
        iso = isolate(interned, "y")
        assert iso == atom(lin(0, y=1), "<", lin(4, x=-2))
        assert iso.row == interned.row
        assert fold_atom(iso) is interned

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_soundness_random(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        a = Atom(
            LinExpr(rng.randint(-3, 3), {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}),
            rng.choice(list(Rel)),
            LinExpr(rng.randint(-3, 3), {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}),
        )
        iso = isolate(a, "x")
        for _ in range(20):
            sigma = val(x=Fraction(rng.randint(-20, 20), 4), y=Fraction(rng.randint(-20, 20), 4))
            assert atom_eval(sigma, a) == atom_eval(sigma, iso)


class TestDisjunctSat:
    def test_empty_interval(self):
        for atoms in UNSAT_CASES:
            assert not disjunct_sat(Disjunct(atoms)), atoms

    def test_free_upper_bound(self):
        d = Disjunct((atom(lin(0, x=1), ">=", 0), atom(lin(0, x=1), "<=", lin(0, y3=-1))))
        assert disjunct_sat(d)
        for atoms, _ in WITNESS_CASES:
            assert disjunct_sat(Disjunct(atoms)), atoms

    def test_empty_disjunct(self):
        assert disjunct_sat(Disjunct(()))

    def test_agreement_with_grid_oracle(self):
        for draw, seed in ((_iso_corpus, 20240), (_frac_corpus, 20241)):
            rng = random.Random(seed)
            for case in range(150):
                d = draw(rng, ["x", "y"], 4)
                verdict = disjunct_sat(d)
                point = grid_sat(d, {"x", "y"})
                if point is not None:
                    assert verdict, f"grid found {point} but FM says unsat: {d}"
                elif verdict:
                    witness = fm_witness(d)
                    assert witness is not None
                    assert all(atom_eval(witness, a) for a in d)


class TestBoolSat:
    def test_false(self):
        assert not bool_sat(FALSE)

    def test_feasibility_residue_of_example(self):
        phi = And(
            atom(lin(0, y2=1), "<", lin(2, y1=1)),
            atom(lin(0, y2=1), "<=", lin(0, y3=-1)),
        )
        assert bool_sat(phi)

    def test_disjunction(self):
        phi = Or(atom(lin(0, x=1), "<", 0), atom(lin(0, x=1), ">", 1))
        assert bool_sat(phi)


class TestFmWitness:
    def test_midpoint(self):
        for atoms, expected in WITNESS_CASES:
            assert fm_witness(Disjunct(atoms)) == Valuation(expected), atoms

    def test_unsat_returns_none(self):
        for atoms in UNSAT_CASES:
            assert fm_witness(Disjunct(atoms)) is None, atoms

    def test_empty_disjunct_defaults_to_zero(self):
        w = fm_witness(Disjunct(()), extra_vars=("a", "b"))
        assert w == Valuation({"a": 0, "b": 0})

    def test_witness_satisfies(self):
        for draw, seed in ((_iso_corpus, 77), (_frac_corpus, 78)):
            rng = random.Random(seed)
            produced = 0
            for _ in range(200):
                d = draw(rng, ["x", "y", "z"], 5)
                w = fm_witness(d)
                assert (w is None) == (not disjunct_sat(d))
                if w is not None:
                    produced += 1
                    assert all(atom_eval(w, a) for a in d)
            assert produced > 50  # each corpus is mostly satisfiable

    def test_one_sided_intervals(self):
        assert fm_witness(Disjunct((atom(lin(0, x=1), ">", 5),))) == Valuation({"x": 6})
        assert fm_witness(Disjunct((atom(lin(0, x=1), "<=", -2),))) == Valuation({"x": -3})
