import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from apsieve import (
    PrimeContext,
    SpaceType,
    condition_report,
    eliminate_by_psi,
    enumerate_classes,
    gcd_oracle,
    main_lemma_sums,
    theorem_1_1_test,
    wilkerson_filter_1,
    wilkerson_filter_2,
)
from apsieve import psimod
from apsieve.padic import NU_TABLE_LIMIT, _nu_int, nu
from apsieve.psimod import (
    DP_WORK_LIMIT,
    check_dp_work,
    class_sums,
    lemma_3_4_grid,
    low_degree_gcd,
    monomial_degree_multiplicities,
)

from reference import pair_min_int, walk_monomial_degrees


def test_space_type_validation(ctx3):
    for halves, message in [
        ((), "a type needs at least one half-degree"),
        ((1, 2), "half-degrees must be >= 2 (simply connected, rank-1 circle excluded)"),
        ((4, 2), "half-degrees must be sorted ascending"),
    ]:
        with pytest.raises(ValueError) as exc:
            SpaceType(ctx3, halves)
        assert str(exc.value) == message
    s = SpaceType(ctx3, (2, 4, 6))
    assert s.cohomology_degrees() == (3, 7, 11)


def test_space_type_is_an_immutable_value(ctx3):
    # equal types built apart are one key of the monomial cache
    first = SpaceType(ctx3, (2, 4, 6))
    second = SpaceType(PrimeContext(3), [2, 4, 6])
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != SpaceType(PrimeContext(5), (2, 4, 6))
    monomial_degree_multiplicities(first)
    before = monomial_degree_multiplicities.cache_info()
    monomial_degree_multiplicities(second)
    after = monomial_degree_multiplicities.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    with pytest.raises(AttributeError):
        first.halves = (2, 4, 8)
    cert = eliminate_by_psi(SpaceType(ctx3, (4, 8, 12)))
    with pytest.raises(AttributeError):
        cert.witness = 8


def test_space_type_repr_and_hash_are_those_of_its_fields(ctx3):
    # the hash keys the monomial cache, so it stays hash((ctx, halves))
    space = SpaceType(ctx3, (2, 4, 6))
    assert repr(space) == "SpaceType(ctx=PrimeContext(p=3, k0=2), halves=(2, 4, 6))"
    assert hash(space) == hash((ctx3, (2, 4, 6))) == hash(((3, 2), (2, 4, 6)))
    assert str(space) == "(2,4,6)" and (space.rank, space.p) == (3, 3)


def test_enumerate_classes_239(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (2, 3, 9)), (1, 27))
    assert len(module.degrees) == 17
    assert module.degrees == (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 18, 20, 21, 27)


def test_enumerate_classes_4812(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (4, 8, 12)), (4, 12))
    assert module.degrees == (4, 8, 12)
    assert module.witnesses == (4,)


def test_enumerate_classes_single_generator(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (2,)), (1, 6))
    assert module.degrees == (2, 4, 6)


def test_condition_report_4812(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (4, 8, 12)), (4, 12))
    report = condition_report(module)
    assert [c.valuation_sum for c in report.per_class] == [2, 2, 2]
    assert report.holds_everywhere


def test_condition_report_246_fails_at_bottom(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (2, 4, 6)), (2, 6))
    report = condition_report(module)
    by_degree = {c.degree: c for c in report.per_class}
    assert by_degree[2].valuation_sum == 2
    assert not by_degree[2].passes
    assert not report.holds_everywhere


def test_condition_report_hand_values(ctx3):
    report = condition_report(enumerate_classes(SpaceType(ctx3, (2, 21, 27)), (21, 81)))
    v = {c.degree: c.valuation_sum for c in report.per_class}
    assert report.holds_everywhere
    assert v[21] == 16
    assert v[27] == 17

    report2 = condition_report(enumerate_classes(SpaceType(ctx3, (18, 24, 26)), (26, 78)))
    v2 = {c.degree: c.valuation_sum for c in report2.per_class}
    assert report2.holds_everywhere
    assert v2[26] == 23


def test_condition_report_needs_two_classes(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (2,)), (2, 2))
    with pytest.raises(ValueError):
        condition_report(module)


def test_nu_bound_dominates(ctx3):
    for halves, window in [((2, 3, 9), (1, 27)), ((4, 8, 12), (4, 36)), ((2, 21, 27), (21, 81))]:
        report = condition_report(enumerate_classes(SpaceType(ctx3, halves), window))
        for c in report.per_class:
            assert c.valuation_sum <= c.nu_bound


def test_exactness_against_gcd_oracle():
    rng = random.Random(8)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(6):
            rank = rng.randint(1, 3)
            halves = tuple(sorted(rng.sample(range(2, 30), rank)))
            space = SpaceType(ctx, halves)
            module = enumerate_classes(space, (2, 100))
            if not (2 <= len(module.degrees) <= 12):
                continue
            report = condition_report(module)
            for idx, cond in enumerate(report.per_class):
                assert gcd_oracle(module, idx, 50) == cond.valuation_sum


def test_gcd_oracle_guards(ctx3):
    module = enumerate_classes(SpaceType(ctx3, (4, 8, 12)), (4, 12))
    with pytest.raises(ValueError):
        gcd_oracle(module, 0, 2)
    assert gcd_oracle(module, 0, 50).value == 2
    module2 = enumerate_classes(SpaceType(ctx3, (2, 4, 6)), (2, 6))
    assert gcd_oracle(module2, 0, 50).value == 2


def test_window_monotonicity(ctx3):
    # shrinking the window never increases any per-class valuation sum
    space = SpaceType(ctx3, (2, 21, 27))
    wide = condition_report(enumerate_classes(space, (21, 81)))
    narrow = condition_report(enumerate_classes(space, (23, 63)))
    wide_by_degree = {c.degree: c.valuation_sum for c in wide.per_class}
    for c in narrow.per_class:
        assert c.valuation_sum <= wide_by_degree[c.degree]


def test_main_lemma_sums_examples(ctx3):
    # entry i - t of the run [t, 3t]
    assert main_lemma_sums(ctx3, 4, 1)[1 - 1] == 2
    assert main_lemma_sums(ctx3, 1, 2)[2 - 2] == 2
    assert main_lemma_sums(ctx3, 5, 1)[3 - 1] == 1


def test_main_lemma_sums_is_exact_product_valuation(ctx3):
    # big-integer cross-check of the run-product valuation at the root base
    from conftest import bigint_val

    k0 = ctx3.k0
    for m, t, i in [(4, 1, 1), (5, 1, 3), (2, 2, 4), (7, 2, 5)]:
        prod = 1
        for j in range(t, 3 * t + 1):
            if j != i:
                prod *= k0 ** (m * i) - k0 ** (m * j)
        assert main_lemma_sums(ctx3, m, t)[i - t] == bigint_val(3, prod)


def test_main_lemma_sums_match_the_per_point_sums():
    # oracle: the sum over the run of nu(m * |i - j|), point by point
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for m in range(1, 31):
            if (p - 1) % m == 0:
                continue
            for t in range(1, 5):
                run = range(t, t * p + 1)
                expected = [sum(nu(ctx, m * abs(i - j)).value for j in run if j != i)
                            for i in run]
                assert main_lemma_sums(ctx, m, t) == expected, (p, m, t)


def test_lemma_3_4_grid_equals_the_per_run_sums(monkeypatch):
    # the grid reads the runs t = 1..4 of one (p, m) from one prefix, the
    # longest run's; each run must equal main_lemma_sums, which builds its own
    runs = {}

    def recording(ctx, m, t, prefix, _real=psimod._main_lemma_run):
        runs[ctx.p, m, t] = _real(ctx, m, t, prefix)
        return runs[ctx.p, m, t]

    monkeypatch.setattr(psimod, "_main_lemma_run", recording)
    assert lemma_3_4_grid() == (1860, [])
    monkeypatch.undo()
    assert list(runs) == [(p, m, t) for p in (3, 5) for m in range(1, 31) if (p - 1) % m
                          for t in range(1, 5)]
    for (p, m, t), sums in runs.items():
        assert sums == main_lemma_sums(PrimeContext(p), m, t), (p, m, t)


def test_main_lemma_sums_validation(ctx3):
    for m, t in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError, match="m and t must be positive"):
            main_lemma_sums(ctx3, m, t)


def test_gcd_test_examples(ctx3):
    assert not theorem_1_1_test(SpaceType(ctx3, (4, 8, 12))).passed
    assert theorem_1_1_test(SpaceType(ctx3, (4, 8, 12))).m == 4
    assert theorem_1_1_test(SpaceType(ctx3, (2, 3, 9))).passed
    assert theorem_1_1_test(SpaceType(ctx3, (6, 8, 10))).passed
    # only half-degrees <= p * m_1 enter; the raw sorted tuple is enough
    assert low_degree_gcd(3, (4, 8, 13)) == 4
    assert low_degree_gcd(3, (6, 8, 10)) == 2
    assert low_degree_gcd(5, (3,)) == 3


def test_eliminate_by_psi_pinned_windows(ctx3):
    cert = eliminate_by_psi(SpaceType(ctx3, (4, 8, 12)))
    assert cert is not None and cert.window == (4, 12) and cert.witness == 4
    # [4, 36] and [4, 24] fail before [4, 12] certifies
    assert cert.windows_tried == 3
    assert eliminate_by_psi(SpaceType(ctx3, (4, 8, 12)), "exhaustive").windows_tried == 7
    cert2 = eliminate_by_psi(SpaceType(ctx3, (2, 21, 27)))
    assert cert2 is not None and cert2.window == (21, 81)
    # two failing cuts for each of D_lo = 2, 4, 6; the bottom window [2, 6] is gated
    assert cert2.windows_tried == 7
    assert cert2.as_dict()["windows_tried"] == 7
    assert cert2.as_dict()["report"] == cert2.report.as_dict()
    assert eliminate_by_psi(SpaceType(ctx3, (2, 4, 6))) is None
    cert3 = eliminate_by_psi(SpaceType(ctx3, (18, 24, 26)))
    assert cert3 is not None and cert3.replay()
    # a recorded report that differs from the window's own does not replay
    forged = cert.report._replace(
        per_class=tuple(c._replace(valuation_sum=0) for c in cert.report.per_class))
    assert not cert._replace(report=forged).replay()
    assert not cert._replace(witness=8).replay()


def test_eliminate_by_psi_certificates_replay(ctx3):
    for halves in [(2, 30, 36), (2, 39, 45), (16, 30, 36), (19, 30, 36), (21, 27, 29), (30, 36, 38)]:
        cert = eliminate_by_psi(SpaceType(ctx3, halves))
        assert cert is not None, halves
        assert cert.replay(), halves
        d_lo, d_hi = cert.window
        assert d_lo <= cert.witness and 3 * cert.witness <= d_hi


def test_eliminate_by_psi_239_is_inconclusive(ctx3):
    # the standard window family does not certify (2,3,9): the best window
    # fails marginally (valuation sum 9 at class 9 on [9, 27])
    assert eliminate_by_psi(SpaceType(ctx3, (2, 3, 9))) is None
    report = condition_report(enumerate_classes(SpaceType(ctx3, (2, 3, 9)), (9, 27)))
    by_degree = {c.degree: c for c in report.per_class}
    assert by_degree[9].valuation_sum == 9
    assert not by_degree[9].passes


def _reference_report(module):
    """The condition report as ``ConditionReport.as_dict()``, every term
    through ``_nu_int`` / ``pair_min_int``: no nu table, no prefix sums."""
    ctx = module.space.ctx
    degrees = module.degrees
    classes = []
    for i, t_i in enumerate(degrees):
        v = b = 0
        for j, t_j in enumerate(degrees):
            if j == i:
                continue
            b += _nu_int(ctx, t_i - t_j)
            v += pair_min_int(ctx, t_i, t_j)
        classes.append({"degree": t_i, "valuation_sum": v, "nu_bound": b, "passes": v < t_i})
    return {
        "window": list(module.window),
        "witness": module.witnesses[0] if module.witnesses else None,
        "holds_everywhere": all(c["passes"] for c in classes),
        "classes": classes,
    }


def _reference_holds(module):
    """Whether every class passes, by ``pair_min_int`` per pair; stops at
    the first class whose partial sum reaches its degree."""
    ctx = module.space.ctx
    degrees = module.degrees
    for i, t_i in enumerate(degrees):
        v = 0
        for j, t_j in enumerate(degrees):
            if j != i:
                v += pair_min_int(ctx, t_i, t_j)
                if v >= t_i:
                    return False
    return True


def _reference_search(space, policy):
    """The window search with every window checked per pair and the first
    passing one reported by ``_reference_report``: same window order and
    filters as ``eliminate_by_psi``, no run sweep.  Returns the window, the
    witness, the report and the number of windows with at least two classes
    that passed the filters, the certifying one included."""
    full = _reference_multiplicities(space)
    degrees = _degrees(full)
    p = space.p
    tops = {p * m for m in space.halves}
    if policy == "exhaustive":
        tops.update(degrees)
    tops = sorted(tops, reverse=True)
    bottom_window = (degrees[0], p * space.halves[0])
    bottom_gated = theorem_1_1_test(space).passed
    tried = 0
    for d_lo in degrees:
        for d_hi in tops:
            if d_hi < d_lo:
                continue
            if not any(m >= d_lo and p * m <= d_hi for m in space.halves):
                continue
            if bottom_gated and (d_lo, d_hi) == bottom_window:
                continue
            module = enumerate_classes(space, (d_lo, d_hi))
            assert module.degrees == _reference_degrees(full, (d_lo, d_hi)), (space, d_lo, d_hi)
            if len(module.degrees) < 2:
                continue
            tried += 1
            if _reference_holds(module):
                return (d_lo, d_hi), module.witnesses[0], _reference_report(module), tried
    return None


def _certificate_fields(cert):
    if cert is None:
        return None
    return cert.window, cert.witness, cert.report.as_dict(), cert.windows_tried


def _passes_filters(space):
    return (
        theorem_1_1_test(space).passed
        and wilkerson_filter_1(space).passed
        and wilkerson_filter_2(space).passed
    )


def _assert_matches_reference(spaces):
    for space in spaces:
        for policy in ("standard", "exhaustive"):
            cert = eliminate_by_psi(space, policy)
            assert _certificate_fields(cert) == _reference_search(space, policy), (space.halves, policy)


def test_window_search_matches_reference_p3(ctx3):
    spaces = [SpaceType(ctx3, h) for h in combinations_with_replacement(range(2, 31), 2)]
    for halves in combinations_with_replacement(range(2, 31), 3):
        space = SpaceType(ctx3, halves)
        if halves[-1] <= 12 or _passes_filters(space):
            spaces.append(space)
    _assert_matches_reference(spaces)


def test_window_search_matches_reference_p5(ctx5):
    spaces = (SpaceType(ctx5, h) for h in combinations_with_replacement(range(2, 21), 3))
    _assert_matches_reference(s for s in spaces if _passes_filters(s))


def test_window_search_matches_reference_p7():
    # the grouping is mod 6 here; every 7th rank <= 2 type up to 40 keeps the
    # reference loop under a second
    ctx7 = PrimeContext(7)
    spaces = [SpaceType(ctx7, h) for rank in (1, 2)
              for h in combinations_with_replacement(range(2, 41), rank)]
    _assert_matches_reference(spaces[::7])


def _assert_bottom_reports_match_reference(spaces):
    for space in spaces:
        window = (space.halves[0], space.p * space.halves[0])
        module = enumerate_classes(space, window)
        assert module.degrees == _reference_degrees(_reference_multiplicities(space), window)
        assert condition_report(module).as_dict() == _reference_report(module), space.halves


def test_condition_report_matches_reference_p3(ctx3):
    _assert_bottom_reports_match_reference(
        SpaceType(ctx3, h)
        for rank in (1, 2, 3)
        for h in combinations_with_replacement(range(2, 31), rank)
    )


def test_condition_report_matches_reference_p5(ctx5):
    spaces = (SpaceType(ctx5, h) for h in combinations_with_replacement(range(2, 21), 3))
    _assert_bottom_reports_match_reference(s for s in spaces if _passes_filters(s))


def test_condition_report_matches_reference_p7():
    ctx7 = PrimeContext(7)
    _assert_bottom_reports_match_reference(
        SpaceType(ctx7, h)
        for rank in (1, 2)
        for h in combinations_with_replacement(range(2, 41), rank)
    )


def test_classes_in_distinct_residues_sum_to_zero():
    # degrees 2..5 lie in four residue classes mod p - 1 = 6, so nu and every
    # pair minimum vanish
    ctx7 = PrimeContext(7)
    module = enumerate_classes(SpaceType(ctx7, (2, 3)), (2, 5))
    assert module.degrees == (2, 3, 4, 5)
    report = condition_report(module)
    assert report.as_dict() == _reference_report(module)
    assert all(c.valuation_sum == c.nu_bound == 0 for c in report.per_class)
    assert report.holds_everywhere
    # the search's sweep sees the same zero run sums: every run passes, so
    # each low end reaches the last class
    assert list(psimod._run_reaches(ctx7, [2, 3, 4, 5])) == [4, 4, 4, 4]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    halves=st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=3).map(sorted),
    data=st.data(),
)
def test_failing_run_fails_when_grown(p, halves, data):
    # every pair_min is >= 0, so a failing run [a, b) of the full module's
    # classes still fails as [a, b + 1) and [a - 1, b); the search's sweep
    # rests on this.  From a drawn low end the passing runs are a prefix of
    # the ends, and towards a drawn end a prefix of the low ends
    space = SpaceType(PrimeContext(p), tuple(halves))
    degrees = monomial_degree_multiplicities(space)
    n = len(degrees)

    def holds(lo, hi):
        return _reference_holds(enumerate_classes(space, (degrees[lo], degrees[hi - 1])))

    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    grown_up = [holds(a, b) for b in range(a + 1, n + 1)]
    assert grown_up == sorted(grown_up, reverse=True)
    b = data.draw(st.integers(min_value=1, max_value=n))
    grown_down = [holds(lo, b) for lo in range(b - 1, -1, -1)]
    assert grown_down == sorted(grown_down, reverse=True)


def test_condition_report_matches_reference_below_the_level_count():
    # the windows [t_a, p * m_r] of algebras with m_1 = 2 keep classes below
    # the number of levels, where a pair's smaller degree caps its nu, so
    # valuation_sum falls below nu_bound; bottom windows never reach this
    capped = 0
    for p, rank, top in ((3, 3, 12), (5, 2, 16), (7, 2, 16)):
        ctx = PrimeContext(p)
        for rest in combinations_with_replacement(range(2, top + 1), rank - 1):
            space = SpaceType(ctx, (2, *rest))
            d_hi = p * space.halves[-1]
            for t_a in monomial_degree_multiplicities(space)[:-1]:
                module = enumerate_classes(space, (t_a, d_hi))
                report = condition_report(module)
                assert report.as_dict() == _reference_report(module), (space.halves, t_a)
                capped += sum(c.valuation_sum < c.nu_bound for c in report.per_class)
    assert capped > 0


def _reference_multiplicities(space):
    """Monomial degrees and multiplicities by summing half-degrees over
    index combinations, one generator sum per monomial."""
    gens = space.halves
    counts = {}
    for length in range(1, space.p + 1):
        for combo in combinations_with_replacement(range(len(gens)), length):
            d = sum(gens[i] for i in combo)
            counts[d] = counts.get(d, 0) + 1
    return tuple(sorted(counts.items()))


def _degrees(multiplicities):
    """The degrees of a reference's ``(degree, count)`` pairs."""
    return tuple(t for t, _ in multiplicities)


def _reference_degrees(multiplicities, window):
    """The degrees in ``window``, filtered from the full multiset."""
    d_lo, d_hi = window
    return tuple(t for t, _ in multiplicities if d_lo <= t <= d_hi)


def test_enumerate_classes_matches_reference_on_every_window():
    # every window [d_lo, d_hi] of 0..p*m_r + 1, so also the windows below,
    # between and above the classes, which hold none
    spaces = [
        SpaceType(PrimeContext(p), h)
        for p, h in ((3, (3, 3, 3)), (3, (2, 2, 4)), (3, (2, 3, 9)), (3, (4, 8, 12)),
                     (3, (2, 3, 5, 7)), (5, (3, 3, 3)), (5, (2, 5, 11)), (7, (4, 4)), (7, (2, 9)))
    ]
    empty = 0
    for space in spaces:
        full = _reference_multiplicities(space)
        top = space.p * space.halves[-1] + 1
        for d_lo in range(top + 1):
            for d_hi in range(d_lo, top + 1):
                degrees = enumerate_classes(space, (d_lo, d_hi)).degrees
                assert degrees == _reference_degrees(full, (d_lo, d_hi)), (space, d_lo, d_hi)
                empty += not degrees
    assert empty > 0
    assert enumerate_classes(SpaceType(PrimeContext(3), (4, 8, 12)), (13, 15)).degrees == ()
    with pytest.raises(ValueError):
        enumerate_classes(SpaceType(PrimeContext(3), (4, 8, 12)), (5, 4))


def test_condition_report_reads_only_the_degrees(ctx3):
    # (2,5,7) and (2,5,40) share the bottom window's classes 2, 4, 5, 6, so
    # one report's per-class sums serve both
    a = enumerate_classes(SpaceType(ctx3, (2, 5, 7)), (2, 6))
    b = enumerate_classes(SpaceType(ctx3, (2, 5, 40)), (2, 6))
    assert a.space != b.space
    assert a.degrees == b.degrees == (2, 4, 5, 6)
    assert condition_report(a).per_class == condition_report(b).per_class


@pytest.mark.parametrize("p, counts", [
    (3, (3584, 701, 247)),
    (5, (1615, 730, 218)),
    (7, (778, 549, 127)),
])
def test_bottom_window_reads_only_the_low_part(p, counts):
    # generators above p*m_1 reach no degree in [m_1, p*m_1], so every
    # gcd-failing type of rank <= 3 up to 40 and its low part (the
    # half-degrees <= p*m_1) have the same bottom-window classes, and m_1,
    # with m_1 and p*m_1 both in the window, is a witness of each; the low
    # parts' windows are those thm1.1-demo builds, each checked on the walk
    ctx = PrimeContext(p)
    low_degrees = {}
    types = 0
    for rank in (1, 2, 3):
        for halves in combinations_with_replacement(range(2, 41), rank):
            space = SpaceType(ctx, halves)
            if theorem_1_1_test(space).passed:
                continue
            types += 1
            window = (halves[0], p * halves[0])
            low = tuple(m for m in halves if m <= p * halves[0])
            if low not in low_degrees:
                low_space = SpaceType(ctx, low)
                low_module = enumerate_classes(low_space, window)
                walk = walk_monomial_degrees(low_space, *window)
                assert low_module.degrees == _degrees(walk), low
                assert halves[0] in low_module.witnesses, low
                low_degrees[low] = low_module.degrees
            module = enumerate_classes(space, window)
            assert module.degrees == low_degrees[low], halves
            assert halves[0] in module.witnesses, halves
    assert (types, len(low_degrees), len(set(low_degrees.values()))) == counts


def test_monomial_degree_multiplicities_match_reference():
    spaces = []
    for p, rank, top in ((3, 4, 12), (5, 3, 12), (7, 2, 20)):
        ctx = PrimeContext(p)
        spaces += [SpaceType(ctx, h) for h in combinations_with_replacement(range(2, top + 1), rank)]
        # repeated half-degrees are distinct generators of equal degree
        spaces += [SpaceType(ctx, (2, 2, 4)), SpaceType(ctx, (3, 3, 3))]
    for space in spaces:
        reference = _reference_multiplicities(space)
        assert monomial_degree_multiplicities(space) == _degrees(reference), space


def test_degrees_past_the_nu_table_limit(ctx3, ctx5):
    # spans beyond NU_TABLE_LIMIT read nu from a memo; same results
    for space in [SpaceType(ctx3, (2, 3, 100_000)), SpaceType(ctx3, (4, 8, 40_000, 80_004)),
                  SpaceType(ctx5, (3, 7, 30_001))]:
        assert space.p * space.halves[-1] - space.halves[0] > NU_TABLE_LIMIT
        for policy in ("standard", "exhaustive"):
            cert = eliminate_by_psi(space, policy)
            assert _certificate_fields(cert) == _reference_search(space, policy), (space.halves, policy)
        module = enumerate_classes(space, (2, space.p * space.halves[-1]))
        assert condition_report(module).as_dict() == _reference_report(module)


def test_condition_report_any_class_order(ctx5):
    # a module whose classes are not in ascending order gets the same sums
    rng = random.Random(5)
    for halves in [(2, 3, 4), (3, 7, 11), (4, 9, 16), (6, 10, 19)]:
        module = enumerate_classes(SpaceType(ctx5, halves), (2, 100))
        degrees = list(module.degrees)
        rng.shuffle(degrees)
        shuffled = module._replace(degrees=tuple(degrees))
        assert condition_report(shuffled).as_dict() == _reference_report(shuffled)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11]),
    # a few degrees below 7 put the lowest class under the level count (up
    # to 5 levels at p = 3 over a span of 400) where it is often corrected
    degrees=st.tuples(
        st.sets(st.integers(min_value=1, max_value=6), max_size=3),
        st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
    ).map(lambda parts: sorted(parts[0] | parts[1])),
)
@example(p=3, degrees=[2, 20, 56])  # nu(18) = 3 and nu(54) = 4 exceed 2
@example(p=11, degrees=[1, 111, 221])  # nu(110) = 2 exceeds 1
@example(p=5, degrees=[7])
def test_class_sums_are_the_pairwise_sums(p, degrees):
    # the kernel's level counts and corrections give the sums over pairs
    ctx = PrimeContext(p)

    def nu_int(d):
        return nu(ctx, d).value

    valuation_sums = [
        sum(min(nu_int(t - s), min(t, s)) for s in degrees if s != t) for t in degrees
    ]
    nu_bounds = [sum(nu_int(t - s) for s in degrees if s != t) for t in degrees]
    assert class_sums(ctx, degrees) == (valuation_sums, nu_bounds)


def test_window_search_internal_error_guard(ctx3, monkeypatch):
    # a certificate is only returned once its own condition report holds
    real = psimod.condition_report
    monkeypatch.setattr(
        psimod, "condition_report",
        lambda module: real(module)._replace(holds_everywhere=False),
    )
    with pytest.raises(RuntimeError, match="internal error"):
        eliminate_by_psi(SpaceType(ctx3, (4, 8, 12)))


def test_dp_work_limit(ctx3, ctx5, monkeypatch):
    # the bound is r * min(C(r + K, K) - 1, spread * K * (K + 1) / 2 + K)
    # over the generators <= d_hi, with K = min(p, d_hi // m_1)
    assert check_dp_work(SpaceType(ctx5, (2, 3, 4))) == 3 * min(55, 2 * 15 + 5) == 105
    # up to 8, only 2 and 3 take part and K = 4; with two 2s each row
    # holds one degree
    assert check_dp_work(SpaceType(ctx5, (2, 3, 40)), 8) == 2 * min(15 - 1, 1 * 10 + 4) == 28
    assert check_dp_work(SpaceType(ctx5, (2, 2, 40)), 8) == 2 * min(15 - 1, 0 * 10 + 4) == 8
    assert check_dp_work(SpaceType(ctx5, (3, 4)), 2) == 0
    # every input the 100,000-monomial budget admitted is admitted: p = 3
    # with 82 generators (98,769 monomials) and p = 79 at rank 3 (88,559),
    # each with a spread too wide for the spread term to help
    assert check_dp_work(SpaceType(ctx3, (2,) * 81 + (10**6,))) == 82 * 98_769 <= DP_WORK_LIMIT
    assert check_dp_work(SpaceType(PrimeContext(79), (2, 3, 10**6))) == 3 * 88_559
    # the budget refused p = 31 with 20 generators (~7.7e13 monomials), but
    # the spread of 2..21 keeps the count small
    space = SpaceType(PrimeContext(31), tuple(range(2, 22)))
    assert check_dp_work(space) == 20 * (19 * 31 * 32 // 2 + 31) == 189_100
    # the limit is inclusive and is checked before any row is built
    uncached = monomial_degree_multiplicities.__wrapped__
    space = SpaceType(ctx5, (2, 3, 4))
    monkeypatch.setattr(psimod, "DP_WORK_LIMIT", 105)
    assert uncached(space) == tuple(range(2, 21))
    monkeypatch.setattr(psimod, "DP_WORK_LIMIT", 104)
    with pytest.raises(ValueError, match="takes up to 105 steps, over the limit of 104"):
        uncached(space)
    # a window is checked on its own generators and word lengths: K = 5
    # from D_hi = 10 on, 4 below
    with pytest.raises(ValueError, match="takes up to 105 steps"):
        enumerate_classes(space, (2, 10))
    assert check_dp_work(space, 9) == 3 * min(35 - 1, 2 * 10 + 4) == 72
    assert enumerate_classes(space, (2, 9)).degrees == tuple(range(2, 10))


def test_general_count_stays_on_sets_for_wide_types():
    # admitted by check_dp_work (3 * 88,559 steps) and counted on sets in
    # well under a second; int rows as wide as the spread of 10**6 would
    # take minutes and hundreds of megabytes here
    space = SpaceType(PrimeContext(79), (2, 3, 10**6))
    assert len(monomial_degree_multiplicities(space)) == 9_480


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11]),
    halves=st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=4).map(sorted),
    ends=st.lists(st.integers(min_value=0, max_value=120), min_size=2, max_size=2).map(sorted),
)
@example(p=3, halves=[3, 3, 3], ends=[0, 100])  # repeated half-degrees
@example(p=5, halves=[2, 2, 7, 7], ends=[10, 60])
@example(p=5, halves=[7, 9], ends=[0, 13])  # D_hi = 5 < m_1
@example(p=7, halves=[4, 5], ends=[0, 120])  # D_hi = 42 > p * m_r = 35
@example(p=11, halves=[30, 30, 30, 30], ends=[100, 100])
@example(p=3, halves=[3, 4, 4], ends=[25, 75])  # [3, 9]: a second 4 adds no degree
def test_counted_degrees_match_the_walk(p, halves, ends):
    # the window's ends are percentages of p * m_r, so windows fall below
    # m_1, inside the algebra and past its top degree
    space = SpaceType(PrimeContext(p), tuple(halves))
    top = p * halves[-1]
    d_lo, d_hi = (top * e // 100 for e in ends)
    walk = walk_monomial_degrees(space, d_lo, d_hi)
    assert enumerate_classes(space, (d_lo, d_hi)).degrees == _degrees(walk)
    walk = walk_monomial_degrees(space, 1, top)
    assert monomial_degree_multiplicities.__wrapped__(space) == _degrees(walk)
