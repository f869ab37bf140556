import copy
import pickle
from itertools import combinations

import pytest

from apsieve import (
    PrimeContext,
    SpaceType,
    case_split,
    check_type,
    classify_theorem_1_2,
    endgame_rules,
    hemmi_forced,
    lemma_4_3,
    proposition_lists,
    quasi_regular,
    top_operation_lemma,
    wilkerson_filter_1,
    wilkerson_filter_2,
)
from apsieve import classifier
from apsieve.classifier import (
    _ENDGAME_DISPATCH,
    PROP_CASE1,
    PROP_CASE2,
    PROP_CASE3,
    PROP_CASE4,
    PSI_CLAIMED,
    QUASI_REGULAR_TYPES,
    STEENROD_TARGETS,
    SURVIVORS,
    EndgameEncodingError,
    FilterResult,
    Verdict,
    VerdictKind,
)
from apsieve.padic import val
from apsieve.psimod import condition_report, enumerate_classes, theorem_1_1_test

from conftest import RANK2_TYPES


def test_wilkerson_filter_1(ctx3):
    assert wilkerson_filter_1(SpaceType(ctx3, (2, 4, 6))).passed
    assert not wilkerson_filter_1(SpaceType(ctx3, (2, 4, 12))).passed
    assert wilkerson_filter_1(SpaceType(ctx3, (2, 3))).passed  # vacuous


def test_wilkerson_filter_2(ctx3):
    assert wilkerson_filter_2(SpaceType(ctx3, (2, 4, 6))).passed
    assert not wilkerson_filter_2(SpaceType(ctx3, (2, 5, 6))).passed
    assert wilkerson_filter_2(SpaceType(ctx3, (3, 6))).passed  # vacuous


def test_failing_results_are_falsy(ctx3):
    assert not FilterResult(False, "", 1) and FilterResult(True, "", 1)
    assert not wilkerson_filter_1(SpaceType(ctx3, (2, 4, 12)))
    assert not theorem_1_1_test(SpaceType(ctx3, (3, 6, 9)))
    assert theorem_1_1_test(SpaceType(ctx3, (2, 4, 6)))


def test_verdict_defaults_are_empty_and_immutable(ctx3):
    verdict = Verdict(SpaceType(ctx3, (2, 4, 6)), VerdictKind.SURVIVES)
    assert (verdict.reason, verdict.certificate, verdict.trace, verdict.corroborating) == (
        None, None, (), ())
    with pytest.raises(AttributeError):
        verdict.trace.append("traced")
    with pytest.raises(AttributeError):
        verdict.kind = VerdictKind.ELIMINATED
    entry = verdict.as_dict()
    assert entry["trace"] == [] and entry["corroborating"] == []


def test_values_survive_copy_deepcopy_and_pickle():
    # a context is rebuilt from p alone, and every value holding one with it
    space = SpaceType(PrimeContext(5), (2, 50, 54))
    verdict = check_type(space)
    assert verdict.certificate is not None
    for value in (PrimeContext(3), space, verdict):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value


def test_case_split(ctx3):
    tag = case_split(SpaceType(ctx3, (2, 12, 18)))
    assert tag.case == 1 and tag.s == 3
    tag = case_split(SpaceType(ctx3, (2, 4, 6)))
    assert tag.case == 2 and tag.s == 1
    tag = case_split(SpaceType(ctx3, (2, 6, 8)))
    assert tag.case == 3 and tag.s == 1
    tag = case_split(SpaceType(ctx3, (2, 3, 4)))
    assert tag.case == 4 and tag.t == 1
    assert case_split(SpaceType(ctx3, (4, 6, 9))) is None


def test_every_w1_passing_triple_has_a_case(ctx3):
    # the argument in case_split's docstring, checked up to top 60
    passing = 0
    for halves in combinations(range(2, 61), 3):
        space = SpaceType(ctx3, halves)
        if wilkerson_filter_1(space).passed:
            passing += 1
            assert case_split(space) is not None, halves
    assert passing == 2432


def test_proposition_lists_agree_with_check_type(ctx3):
    # one stage chain: a gcd-passing triple is kept exactly when check_type
    # gets past W1, W2 and the case filter, and in the case its trace names
    kept = {halves: case for case, types in proposition_lists(ctx3).items() for halves in types}
    checked = 0
    for halves in combinations(range(2, 61), 3):
        space = SpaceType(ctx3, halves)
        if not theorem_1_1_test(space).passed:
            continue
        checked += 1
        verdict = check_type(space)
        arithmetic = (verdict.reason or "").startswith(("WilkersonFilter", "PropositionArithmetic"))
        assert (halves in kept) == (not arithmetic), (halves, verdict.reason)
        if halves in kept:
            assert f"case {kept[halves]} (" in verdict.trace[2], (halves, verdict.trace)
    assert checked == 21978 and len(kept) == 27


def test_what_the_case_filters_see_after_the_gcd_test_w1_and_w2(ctx3):
    # the facts the case filters rest on, for every strictly increasing triple
    # with top <= M0 = 115 that passes the gcd test, W1 and W2.  W1 puts r or n
    # at m - 2s, 1 <= s <= val(m) + 1, so walking that partner and a free third
    # degree below m finds every such triple
    triples = {
        tuple(sorted((m - 2 * s, other))) + (m,)
        for m in range(4, 116)
        for s in range(1, min(val(ctx3, m) + 1, (m - 2) // 2) + 1)
        for other in range(2, m)
        if other != m - 2 * s
    }
    cases = {1: 0, 2: 0, 3: 0, 4: 0}
    for halves in sorted(triples):
        space = SpaceType(ctx3, halves)
        if not (theorem_1_1_test(space).passed and wilkerson_filter_1(space).passed
                and wilkerson_filter_2(space).passed):
            continue
        r, n, m = halves
        case = case_split(space).case
        cases[case] += 1
        if case == 1:
            assert val(ctx3, n) < val(ctx3, m) and (r == 2 or m <= 3 * r), halves
        elif case == 2:
            if r == n - 2 and m < 2 * n - 2 and n % 3 == 2:
                assert hemmi_forced(space, 0, n).forced, halves
        elif case == 3:
            assert n == m - 2 and hemmi_forced(space, 0, m).forced, halves
            if m % 3 == 1:
                assert r == n - 2 and hemmi_forced(space, 0, n).forced, halves
            if n == r + 6 and m == r + 8 and r % 3 == 0 and r // 3 % 3 != 1:
                assert hemmi_forced(space, 1, r // 3 + 2).forced, halves
        else:
            assert m <= 3 * r, halves
    assert cases == {1: 24, 2: 39, 3: 554, 4: 2}


def test_lemma_4_3(ctx3):
    res = lemma_4_3(1, 2, 21, 27, ctx3)
    assert res.applicable and res.inequality_holds
    res = lemma_4_3(2, 2, 12, 18, ctx3)
    assert res.applicable and res.inequality_holds  # zero branch via sentinel
    res = lemma_4_3(2, 2, 30, 36, ctx3)
    assert res.applicable and res.inequality_holds
    res = lemma_4_3(1, 2, 48, 54, ctx3)
    assert res.applicable and not res.inequality_holds
    res = lemma_4_3(3, 25, 48, 54, ctx3)
    assert res.applicable and not res.inequality_holds
    assert not lemma_4_3(1, 3, 21, 27, ctx3).applicable


def test_hemmi_forced(ctx3):
    res = hemmi_forced(SpaceType(ctx3, (2, 6, 8)), 0, 8)
    assert res.applicable and res.forced
    assert (res.source_half, res.target_half) == (6, 8)
    res = hemmi_forced(SpaceType(ctx3, (6, 8, 12)), 1, 4)
    assert res.applicable and res.forced
    assert (res.source_half, res.target_half) == (6, 12)
    assert not hemmi_forced(SpaceType(ctx3, (2, 6, 8)), 0, 6).applicable


def test_top_operation_lemma(ctx3):
    res = top_operation_lemma(SpaceType(ctx3, (2, 12, 18)))
    assert res.forced == (12, 3) and not res.eliminated
    res = top_operation_lemma(SpaceType(ctx3, (7, 12, 18)))
    assert res.forced == (12, 3)
    res = top_operation_lemma(SpaceType(ctx3, (2, 3, 6)))
    assert res.eliminated
    with pytest.raises(ValueError):
        top_operation_lemma(SpaceType(ctx3, (2, 3)))


def test_quasi_regular(ctx3):
    assert quasi_regular(SpaceType(ctx3, (2, 3, 4)))
    assert quasi_regular(SpaceType(ctx3, (5, 6, 8)))
    assert not quasi_regular(SpaceType(ctx3, (2, 4, 6)))


def test_endgame_rules_eliminate_all_targets(ctx3):
    for halves in STEENROD_TARGETS:
        elim = endgame_rules(SpaceType(ctx3, halves))
        assert elim is not None, halves
        assert elim.trace
    assert endgame_rules(SpaceType(ctx3, (2, 4, 6))) is None


def test_endgame_rules_fire_where_their_premises_hold(ctx3):
    # every scripted rule run on every cap-60 candidate, not only its own
    # target: E6 and E7 are one argument, and E8's premise also holds for
    # (2,3,9) (ROADMAP item 5); any other run fails a guarded premise
    fires = {
        "E1": {(4, 6, 8)},
        "E2": {(3, 5, 9)},
        "E3": {(8, 12, 14)},
        "E4": {(10, 12, 18)},
        "E5": {(12, 18, 20)},
        "E6": {(2, 12, 18), (7, 12, 18)},
        "E7": {(2, 12, 18), (7, 12, 18)},
        "E8": {(2, 3, 6), (2, 3, 9)},
    }
    candidates = PROP_CASE1 + PROP_CASE2 + PROP_CASE3 + PROP_CASE4
    assert len(set(candidates)) == 27
    fired = {}
    for rule_id, rule in _ENDGAME_DISPATCH.values():
        for halves in candidates:
            try:
                elim = rule(SpaceType(ctx3, halves))
            except EndgameEncodingError:
                continue
            assert elim.rule_id == rule_id
            fired.setdefault(rule_id, set()).add(halves)
    assert fired == fires
    assert not set().union(*fired.values()) & set(SURVIVORS + QUASI_REGULAR_TYPES)


def test_endgame_identities_are_checked_against_normalize(ctx3, monkeypatch):
    # every rule that equates an Adem identity refuses an expansion other
    # than the one it states; E8 states none
    real = classifier.normalize

    def perturbed(word, p):
        first, *rest = real(word, p)
        return [first._replace(coefficient=p - first.coefficient), *rest]

    monkeypatch.setattr(classifier, "normalize", perturbed)
    for halves in STEENROD_TARGETS:
        rule_id, rule = _ENDGAME_DISPATCH[halves]
        if rule_id == "E8":
            assert rule(SpaceType(ctx3, halves)).rule_id == rule_id
            continue
        with pytest.raises(EndgameEncodingError, match="normalises to"):
            rule(SpaceType(ctx3, halves))


def test_endgame_traces_replay(ctx3):
    # replaying the rule re-derives the unsatisfiable system
    for halves in STEENROD_TARGETS:
        first = endgame_rules(SpaceType(ctx3, halves))
        second = endgame_rules(SpaceType(ctx3, halves))
        assert first.rule_id == second.rule_id
        assert first.trace == second.trace
        assert first.constraint_count == second.constraint_count


def test_proposition_lists_match(ctx3):
    lists = proposition_lists(ctx3)
    assert lists[1] == sorted(PROP_CASE1)
    assert lists[2] == sorted(PROP_CASE2)
    assert lists[3] == sorted(PROP_CASE3)
    assert lists[4] == sorted(PROP_CASE4)
    assert sum(len(v) for v in lists.values()) == 27


def test_filter_monotonicity(ctx3):
    # a larger cap never loses candidates below the smaller cap
    small = proposition_lists(ctx3, cap=50)
    large = proposition_lists(ctx3, cap=60)
    for case in (1, 2, 3, 4):
        assert set(small[case]) <= set(large[case])


def test_classification_partition(ctx3):
    result = classify_theorem_1_2(ctx3)
    assert result.survivors == sorted(SURVIVORS)
    assert result.quasi_regular == sorted(QUASI_REGULAR_TYPES)
    assert result.steenrod_eliminated == sorted(STEENROD_TARGETS)
    assert sorted(result.psi_certified + result.psi_uncertified) == sorted(PSI_CLAIMED)
    assert result.psi_uncertified == [(2, 3, 9)]
    assert not result.discrepancies
    total = (
        len(result.survivors)
        + len(result.quasi_regular)
        + len(result.steenrod_eliminated)
        + len(result.psi_certified)
        + len(result.psi_uncertified)
    )
    assert total == 27


def test_eliminated_verdicts_replay(ctx3):
    result = classify_theorem_1_2(ctx3)
    for halves, verdict in result.verdicts.items():
        if verdict.kind is not VerdictKind.ELIMINATED:
            continue
        cert = verdict.certificate
        assert cert is not None, halves
        if "window" in cert:
            window = tuple(cert["window"])
            report = condition_report(enumerate_classes(SpaceType(ctx3, halves), window))
            assert report.holds_everywhere, halves
        if "rule" in cert:
            elim = endgame_rules(SpaceType(ctx3, halves))
            assert elim is not None and elim.rule_id == cert["rule"]


def test_check_type_staged_verdicts(ctx3):
    v = check_type(SpaceType(ctx3, (4, 8, 12)))
    assert v.kind is VerdictKind.ELIMINATED
    assert v.reason == "GcdTest(m=4)"
    assert v.certificate["window"] == [4, 12]
    assert v.certificate["report"]["holds_everywhere"]

    v = check_type(SpaceType(ctx3, (2, 5, 6)))
    assert v.kind is VerdictKind.ELIMINATED
    assert v.reason == "WilkersonFilter(2)"

    v = check_type(SpaceType(ctx3, (2, 4, 6)))
    assert v.kind is VerdictKind.SURVIVES

    v = check_type(SpaceType(ctx3, (2, 21, 27)))
    assert v.kind is VerdictKind.ELIMINATED
    assert v.reason == "PsiCondition"
    assert v.certificate["window"] == [21, 81]

    v = check_type(SpaceType(ctx3, (4, 6, 8)))
    assert v.kind is VerdictKind.ELIMINATED
    assert v.reason == "SteenrodRule(E1)"

    v = check_type(SpaceType(ctx3, (2, 3, 4)))
    assert v.kind is VerdictKind.QUASI_REGULAR


def test_rank2_regression_subset(ctx3):
    # the four rank-2 types all pass every arithmetic filter and are never
    # eliminated by any stage
    for halves in RANK2_TYPES:
        space = SpaceType(ctx3, halves)
        assert wilkerson_filter_1(space).passed
        assert wilkerson_filter_2(space).passed
        verdict = check_type(space)
        assert verdict.kind is not VerdictKind.ELIMINATED


def test_exhaustive_policy_is_still_safe(ctx3):
    # the denser window family must not certify any protected type either
    from apsieve import eliminate_by_psi

    for halves in list(RANK2_TYPES) + list(SURVIVORS):
        assert eliminate_by_psi(SpaceType(ctx3, halves), policy="exhaustive") is None, halves
    # and it still certifies the certified ones
    for halves in [(4, 8, 12), (2, 21, 27), (18, 24, 26)]:
        cert = eliminate_by_psi(SpaceType(ctx3, halves), policy="exhaustive")
        assert cert is not None and cert.replay()


def test_batch_verdicts_equal_check_type(ctx3):
    # the partition takes every verdict from check_type, trace included
    result = classify_theorem_1_2(ctx3, cap=60)
    assert len(result.verdicts) == 27
    for halves, verdict in result.verdicts.items():
        entry = verdict.as_dict()
        assert entry == check_type(SpaceType(ctx3, halves)).as_dict(), halves
        assert entry["trace"], halves
    # the uncertified sieve claim keeps its honest verdict
    assert result.verdicts[(2, 3, 9)].kind is VerdictKind.SURVIVES
    assert result.verdicts[(2, 3, 9)].reason is None


def test_lemma_failures_are_psi_certified(ctx3):
    # cross-validation: case-1 triples whose inequality rule fails under its
    # hypotheses are certified by the window sieve
    from apsieve import eliminate_by_psi

    for halves in [(2, 48, 54), (25, 48, 54), (28, 48, 54)]:
        space = SpaceType(ctx3, halves)
        cert = eliminate_by_psi(space)
        assert cert is not None, halves
        assert cert.replay()
