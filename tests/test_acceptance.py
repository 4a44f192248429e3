"""Acceptance suite: one test per criterion, each at its stated scale.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failing criterion fails its test.  All comparisons are
exact rational equality.
"""

import random
import time
from fractions import Fraction

from linquant import (
    GenParams,
    Quant,
    Quantity,
    depth,
    eliminate,
    entails,
    equiv_sample,
    eval_quantity,
    ext_cmp,
    extract_bounds,
    feasibility,
    free_vars,
    greatest_lower_selector,
    is_partitioning,
    least_upper_selector,
    lin_eval,
    oracle_inf,
    oracle_sup,
    pointwise_max,
    pointwise_min,
    random_quantity,
    strongest_interpolant,
    weakest_interpolant,
    width,
)
from linquant.cli import main as cli_main
from linquant.logic import bool_eval
from linquant.parser import parse_body, parse_quantity
from linquant.terms import InfExpr, Valuation, fvars_body

from conftest import (
    CRAIG_F_TEXT,
    CRAIG_G_TEXT,
    EX1_TEXT,
    direct_bound_check,
    entailing_pair,
    random_iso_disjunct,
)


def _sigma(rng, variables, denominator=8, span=10):
    return Valuation(
        {v: Fraction(rng.randint(-span * denominator, span * denominator), denominator)
         for v in variables}
    )


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_running_example_end_to_end():
    q = parse_quantity(EX1_TEXT)
    started = time.time()
    plain = eliminate(q)
    simplified = eliminate(q, simplify=True)
    elapsed = time.time() - started
    # Independent composition of hand-derived per-disjunct eliminants,
    # combined by a plain pointwise maximum of evaluations (no engine code).
    reference = [
        parse_body("[y1 < z] * oo + [y1 >= z] * (-oo)"),
        parse_body(
            "[y2 < y1 + 2 && y2 <= -y3 && y1 + 2 <= -y3] * (2*y1 + z + 4)"
            " + [y2 < y1 + 2 && y2 <= -y3 && y1 + 2 > -y3] * (-2*y3 + z)"
            " + [!(y2 < y1 + 2 && y2 <= -y3)] * (-oo)"
        ),
        parse_body("[y1 >= z] * 0 + [y1 < z] * (-oo)"),
    ]
    rng = random.Random(1_001)
    variables = ["y1", "y2", "y3", "z"]
    for _ in range(1_000):
        sigma = _sigma(rng, variables)
        expected = oracle_sup(sigma, "x", q.body)
        assert ext_cmp(eval_quantity(sigma, plain.body), expected) == 0
        composed = max(eval_quantity(sigma, b) for b in reference)
        assert ext_cmp(eval_quantity(sigma, simplified.body), composed) == 0
    assert elapsed < 5.0, f"elimination took {elapsed:.2f}s"
    _report(1, f"running example agrees with the oracle at 1000 points ({elapsed:.2f}s)")


def test_criterion_02_feasibility_guard_fidelity():
    rng = random.Random(2_002)
    disagreements = 0
    for _ in range(500):
        d = random_iso_disjunct(rng, ["x", "y", "z"], "x", max_atoms=4, bound=3)
        phi = feasibility(d, "x")
        for _ in range(6):
            sigma = _sigma(rng, ["x", "y", "z"], denominator=4, span=4)
            nonempty, _, _ = direct_bound_check(d, "x", sigma)
            if bool_eval(sigma, phi) != nonempty:
                disagreements += 1
    assert disagreements == 0
    _report(2, "feasibility residue matches the direct interval check on 500 disjuncts")


def test_criterion_03_selector_uniqueness_and_value():
    rng = random.Random(3_003)
    disagreements = 0
    checked = 0
    for _ in range(500):
        d = random_iso_disjunct(rng, ["x", "y", "z"], "x", max_atoms=4, bound=3)
        phi = feasibility(d, "x")
        bounds = extract_bounds(d, "x")
        uppers, lowers = bounds.uppers(), bounds.lowers()
        for _ in range(6):
            sigma = _sigma(rng, ["x", "y", "z"], denominator=4, span=4)
            if not bool_eval(sigma, phi):
                continue
            checked += 1
            _, glb, lub = direct_bound_check(d, "x", sigma)
            chosen_up = [
                i for i in range(1, len(uppers) + 1)
                if bool_eval(sigma, least_upper_selector(bounds, i))
            ]
            chosen_lo = [
                i for i in range(1, len(lowers) + 1)
                if bool_eval(sigma, greatest_lower_selector(bounds, i))
            ]
            if len(chosen_up) != 1 or len(chosen_lo) != 1:
                disagreements += 1
                continue
            if ext_cmp(lin_eval(sigma, uppers[chosen_up[0] - 1]), lub) != 0:
                disagreements += 1
            if ext_cmp(lin_eval(sigma, lowers[chosen_lo[0] - 1]), glb) != 0:
                disagreements += 1
    assert disagreements == 0
    assert checked >= 500
    _report(3, f"bound selectors unique and extremal at {checked} feasible points")


def _single_quantifier_corpus():
    params = GenParams(
        vars=3, summands=3, atoms_per_guard=3, coeff_bound=3,
        infinity_prob=0.1, quantifiers=1,
    )
    return [random_quantity(params, 40_000 + k) for k in range(200)]


def test_criterion_04_single_quantifier_soundness():
    started = time.time()
    rng = random.Random(4_004)
    failures = 0
    for q in _single_quantifier_corpus():
        quant, var = q.prefix[0]
        result = eliminate(q)
        oracle = oracle_sup if quant is Quant.SUP else oracle_inf
        ok = (
            result.prefix == ()
            and var not in fvars_body(result.body)
            and is_partitioning(result.body)
        )
        variables = sorted(free_vars(q))
        for _ in range(100):
            sigma = _sigma(rng, variables, denominator=4)
            if ext_cmp(eval_quantity(sigma, result.body), oracle(sigma, var, q.body)) != 0:
                ok = False
                break
        if not ok:
            failures += 1
    elapsed = time.time() - started
    assert failures == 0
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"200 single-quantifier instances sound at 100 points each ({elapsed:.1f}s)")


def test_criterion_05_nested_quantifiers():
    rng = random.Random(5_005)
    params = GenParams(
        vars=3, summands=2, atoms_per_guard=2, coeff_bound=3,
        infinity_prob=0.1, quantifiers=2,
    )
    failures = 0
    for k in range(50):
        q = random_quantity(params, 50_000 + k)
        (outer_quant, outer_var), inner = q.prefix[0], q.prefix[1]
        full = eliminate(q)
        inner_only = eliminate(Quantity((inner,), q.body))
        oracle = oracle_sup if outer_quant is Quant.SUP else oracle_inf
        variables = sorted(free_vars(q))
        for _ in range(50):
            sigma = _sigma(rng, variables, denominator=4)
            expected = oracle(sigma, outer_var, inner_only.body)
            if ext_cmp(eval_quantity(sigma, full.body), expected) != 0:
                failures += 1
                break
    assert failures == 0
    _report(5, "50 two-quantifier instances match the outer oracle at 50 points each")


def test_criterion_06_size_bounds():
    violations = 0
    for q in _single_quantifier_corpus():
        n = width(q)
        m = depth(q)
        if not is_partitioning(q.body):
            # pre-processing substitution for non-partitioning inputs
            n, m = 2**n, n * m
        m = max(m, 1)
        out = eliminate(q)
        blow = n * 2**m
        width_bound = blow * (m + 2) ** blow
        depth_bound = blow * (Fraction(m + 2, 2) ** 2 + m + 1)
        if width(out) > width_bound or depth(out) > depth_bound:
            violations += 1
    assert violations == 0
    _report(6, "single-round outputs stay within the width/depth bounds")


def test_criterion_07_craig_interpolation():
    f = parse_quantity(CRAIG_F_TEXT)
    g = parse_quantity(CRAIG_G_TEXT)
    s = strongest_interpolant(f, g)
    w = weakest_interpolant(f, g)
    expected_s = parse_quantity("[x >= 0] * (2*x)")
    expected_w = parse_quantity("[x >= 0] * (3*x + 1)")
    assert equiv_sample(s, expected_s, 1_000, seed=7_007) is None
    assert equiv_sample(w, expected_w, 1_000, seed=7_008) is None
    for a, b in ((s, expected_s), (expected_s, s), (w, expected_w), (expected_w, w)):
        assert entails(a, b) is None
    for a, b in ((f, s), (s, w), (w, g)):
        assert entails(a, b) is None
    _report(7, "Craig pair yields the expected strongest/weakest interpolants")


def test_criterion_08_interpolant_sandwich():
    failures = 0
    for seed in range(100):
        f, g = entailing_pair(80_000 + seed)
        if entails(f, g) is not None:
            failures += 1
            continue
        s = strongest_interpolant(f, g)
        w = weakest_interpolant(f, g)
        shared = free_vars(f) & free_vars(g)
        if not (free_vars(s) <= shared and free_vars(w) <= shared):
            failures += 1
            continue
        if any(entails(a, b) is not None for a, b in ((f, s), (s, w), (w, g))):
            failures += 1
    assert failures == 0
    _report(8, "100 constructed entailing pairs satisfy the sandwich property")


def test_criterion_09_well_formedness_gate(tmp_path, capsys):
    bad = tmp_path / "bad.lq"
    bad.write_text("[x > 0] * oo + [x > -1] * (-oo)", encoding="utf-8")
    good = tmp_path / "good.lq"
    good.write_text("[x > 0] * oo + [x <= 0] * (-oo)", encoding="utf-8")
    assert cli_main(["check", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "0 and 1" in out
    assert cli_main(["check", str(good)]) == 0
    # eval on the rejected input exits at the gate, never evaluating
    assert cli_main(["eval", str(bad), "--sigma", "x=1"]) == 2
    capsys.readouterr()
    _report(9, "ill-formed overlap rejected with the offending pair; eval gated")


def test_criterion_10_pointwise_max_min():
    rng = random.Random(10_010)
    failures = 0
    for case in range(200):
        count = rng.choice((2, 3))
        bodies = [
            random_quantity(
                GenParams(vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.15,
                          quantifiers=0, partitioning=True),
                seed=100_000 + 7 * case + k,
            ).body
            for k in range(count)
        ]
        variables = sorted(set().union(*(fvars_body(b) for b in bodies)))
        for maximum, combine in ((True, pointwise_max), (False, pointwise_min)):
            out = combine(bodies)
            if not is_partitioning(out):
                failures += 1
                continue
            for _ in range(100):
                sigma = _sigma(rng, variables, denominator=4)
                values = [eval_quantity(sigma, b) for b in bodies]
                best = values[0]
                for v in values[1:]:
                    if (ext_cmp(v, best) > 0) == maximum and ext_cmp(v, best) != 0:
                        best = v
                if ext_cmp(eval_quantity(sigma, out), best) != 0:
                    failures += 1
                    break
    assert failures == 0
    _report(10, "200 pointwise max/min constructions partition and agree pointwise")
