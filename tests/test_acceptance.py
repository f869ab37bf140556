"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Every expected value here is either pinned arithmetic or recomputed by an
independent brute-force oracle inside the test.  Each test prints a
single pass line (visible with ``pytest -s`` or in failure reports).
"""

import random
from itertools import combinations_with_replacement

from apsieve import (
    PrimeContext,
    SpaceType,
    condition_report,
    enumerate_classes,
    eliminate_by_psi,
    main_lemma_sums,
    monomial_count,
    nu,
    rank_bound,
    theorem_1_1_test,
    verify_relation_42,
    verify_relation_43,
)
from apsieve.classifier import (
    PSI_CLAIMED,
    QUASI_REGULAR_TYPES,
    STEENROD_TARGETS,
    SURVIVORS,
    VerdictKind,
    check_type,
    classify_theorem_1_2,
    endgame_rules,
    wilkerson_filter_1,
    wilkerson_filter_2,
)
from apsieve.steenrod import PowerWord, adem_expand, normalize

from conftest import RANK2_TYPES, bigint_val, invoke
from reference import pair_min_val


def _report(line: str):
    print(line)


def test_criterion_01_legendre_identity():
    # both closed forms of the factorial valuation agree, n <= 1e5
    for p in (3, 5, 7, 11):
        for n in range(0, 100_001):
            total = 0
            q = p
            while q <= n:
                total += n // q
                q *= p
            s, m = 0, n
            while m:
                s += m % p
                m //= p
            assert total == (n - s) // (p - 1), (p, n)
    _report("criterion 1 (factorial valuation, two closed forms to 1e5): PASS")


def test_criterion_02_nu_oracle():
    for p in (3, 5):
        ctx = PrimeContext(p)
        for d in range(1, 2001):
            assert nu(ctx, d) == bigint_val(p, ctx.k0**d - 1), (p, d)
    _report("criterion 2 (nu equals big-integer valuation of k0^d - 1, d <= 2000): PASS")


def test_criterion_03_pair_min_val_oracle():
    rng = random.Random(20260810)
    ctx = PrimeContext(3)
    for _ in range(500):
        t1 = rng.randint(1, 100)
        t2 = rng.randint(1, 100)
        if t1 == t2:
            continue
        brute = min(bigint_val(3, k**t1 - k**t2) for k in range(2, 51))
        assert pair_min_val(ctx, t1, t2) == brute, (t1, t2)
    _report("criterion 3 (pair minimum equals brute-force gcd factor, 500 pairs): PASS")


def test_criterion_04_run_product_bound():
    violations = []
    for p in (3, 5):
        ctx = PrimeContext(p)
        for m in range(1, 31):
            if (p - 1) % m == 0:
                continue
            for t in range(1, 5):
                sums = main_lemma_sums(ctx, m, t)
                for i in range(t, t * p + 1):
                    if not sums[i - t] < m * t:
                        violations.append((p, m, t, i))
    assert not violations
    _report("criterion 4 (strict run-product bound on the full grid): PASS")


def test_criterion_05_adem_relations():
    got = {w.exponents: w.coefficient for w in adem_expand(3, 7, 3)}
    assert got == {(10,): 2, (9, 1): 1}
    got = {w.exponents: w.coefficient for w in adem_expand(3, 9, 3)}
    assert got == {(12,): 1, (11, 1): 1}
    got = {w.exponents: w.coefficient for w in normalize(PowerWord((1, 1), 1), 3)}
    assert got == {(2,): 2}
    for k in range(1, 51):
        assert verify_relation_42(k).coeff_second == 2
    for l in range(2, 51):
        assert verify_relation_43(l).coeff_trailing == 1
    _report("criterion 5 (pinned power relations and both verifier families): PASS")


def test_criterion_06_gcd_mechanism():
    ctx = PrimeContext(3)
    checked = 0
    for rank in (1, 2, 3):
        for halves in combinations_with_replacement(range(2, 41), rank):
            space = SpaceType(ctx, halves)
            if theorem_1_1_test(space).passed:
                continue
            checked += 1
            window = (halves[0], 3 * halves[0])
            module = enumerate_classes(space, window)
            report = condition_report(module)
            assert report.holds_everywhere, halves
            assert halves[0] in module.witnesses, halves
    assert checked > 0
    _report(f"criterion 6 (gcd-failing types certified on the bottom window, {checked} types): PASS")


def test_criterion_07_survivor_safety():
    ctx = PrimeContext(3)
    protected = list(RANK2_TYPES) + list(SURVIVORS)
    for halves in protected:
        space = SpaceType(ctx, halves)
        assert theorem_1_1_test(space).passed, halves
        assert wilkerson_filter_1(space).passed, halves
        assert wilkerson_filter_2(space).passed, halves
        assert endgame_rules(space) is None, halves
        assert eliminate_by_psi(space) is None, halves
        assert check_type(space).kind is not VerdictKind.ELIMINATED, halves
    result = classify_theorem_1_2(ctx)
    assert result.survivors == sorted(SURVIVORS)
    _report("criterion 7 (no stage eliminates a protected type): PASS")


def test_criterion_08_psi_certified_eliminations():
    ctx = PrimeContext(3)
    report = condition_report(enumerate_classes(SpaceType(ctx, (2, 21, 27)), (21, 81)))
    v = {c.degree: c.valuation_sum for c in report.per_class}
    assert report.holds_everywhere
    assert v[21] == 16 and v[27] == 17
    assert 27 in report.module.witnesses

    report2 = condition_report(enumerate_classes(SpaceType(ctx, (18, 24, 26)), (26, 78)))
    v2 = {c.degree: c.valuation_sum for c in report2.per_class}
    assert report2.holds_everywhere
    assert v2[26] == 23
    assert 26 in report2.module.witnesses

    for halves in ((2, 21, 27), (18, 24, 26)):
        cert = eliminate_by_psi(SpaceType(ctx, halves))
        assert cert is not None and cert.replay(), halves
    _report("criterion 8 (certified windows with the recomputed hand values): PASS")


def test_criterion_09_candidate_lists():
    from apsieve import proposition_lists
    from apsieve.classifier import PROP_CASE1, PROP_CASE2, PROP_CASE3, PROP_CASE4

    lists = proposition_lists(PrimeContext(3))
    assert lists[1] == sorted(PROP_CASE1)
    assert lists[2] == sorted(PROP_CASE2)
    assert lists[3] == sorted(PROP_CASE3)
    assert lists[4] == sorted(PROP_CASE4)
    assert tuple(len(lists[c]) for c in (1, 2, 3, 4)) == (9, 4, 12, 2)
    _report("criterion 9 (candidate lists 9/4/12/2, 27 types): PASS")


def test_criterion_10_final_partition():
    result = classify_theorem_1_2(PrimeContext(3))
    assert result.survivors == sorted(SURVIVORS)
    assert result.quasi_regular == sorted(QUASI_REGULAR_TYPES)
    assert result.steenrod_eliminated == sorted(STEENROD_TARGETS)
    assert sorted(result.psi_certified + result.psi_uncertified) == sorted(PSI_CLAIMED)
    assert result.psi_uncertified == [(2, 3, 9)]
    assert not result.discrepancies
    for halves in result.steenrod_eliminated:
        elim = endgame_rules(SpaceType(PrimeContext(3), halves))
        assert elim is not None and elim.trace
    _report(
        "criterion 10 (partition 6 survivors / 4 quasi-regular / 8 power rules / "
        "9 sieve-claimed, (2,3,9) uncertified): PASS"
    )


def test_criterion_11_finiteness():
    assert monomial_count(3, 3) == 19
    bound = rank_bound(3, 3)
    assert bound.min_half_degree == 115
    # independent brute re-scan
    last_failure = 0
    for m in range(1, 10_001):
        x = 4 * m
        k = 0
        while 3 ** (k + 1) <= x:
            k += 1
        if not 19 * (k + 1) < m:
            last_failure = m
    assert last_failure == 114
    from apsieve.classifier import PROP_CASE1, PROP_CASE2, PROP_CASE3, PROP_CASE4

    tops = [t[-1] for t in PROP_CASE1 + PROP_CASE2 + PROP_CASE3 + PROP_CASE4]
    assert max(tops) == 45 < 115
    _report("criterion 11 (19 monomials, bound 115, candidates top out at 45): PASS")


def test_criterion_12_determinism():
    first = invoke(["reproduce", "thm1.2"])
    second = invoke(["reproduce", "thm1.2"])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    _report("criterion 12 (byte-identical reproduction reports): PASS")
