import json
import math

import pytest

from apsieve import SpaceType, condition_report, enumerate_classes, monomial_count, rank_bound
from apsieve.finiteness import _ilog

from conftest import invoke


def _brute_min_half_degree(p: int, r: int, horizon: int) -> int:
    """One more than the last m <= horizon where the inequality fails."""
    n = monomial_count(p, r)
    last_failure = 0
    for m in range(1, horizon + 1):
        k = 0
        while p ** (k + 1) <= 2 * (p - 1) * m:
            k += 1
        if not n * (k + 1) < m:
            last_failure = m
    return last_failure + 1


def test_monomial_count_examples():
    assert monomial_count(3, 1) == 3
    assert monomial_count(5, 1) == 5
    assert monomial_count(3, 2) == 9
    assert monomial_count(3, 3) == 19


def test_monomial_count_is_the_sum_over_word_lengths():
    # the closed form C(r+p, p) - 1 against sum_{l=1}^{p} C(r+l-1, l)
    for p in range(1, 40):
        for r in range(1, 12):
            assert monomial_count(p, r) == sum(math.comb(r + l - 1, l) for l in range(1, p + 1))
    # the primes on either side of 100,000 rank-3 monomials, and a prime
    # whose word lengths no loop could walk
    assert monomial_count(79, 3) == 88_559
    assert monomial_count(83, 3) == 102_339
    assert monomial_count(1_000_000_007, 3) == 166_666_671_166_666_707_000_000_119


def test_rank_bound_33():
    bound = rank_bound(3, 3)
    assert bound.monomials == 19
    assert bound.min_half_degree == 115
    assert not bound.inequality_holds(114)
    assert all(bound.inequality_holds(m) for m in range(115, 2000))


def test_rank_bound_monotone_in_rank():
    previous = 0
    for r in range(1, 6):
        bound = rank_bound(3, r)
        assert bound.min_half_degree >= previous
        previous = bound.min_half_degree


def test_per_class_estimate_above_bound(ctx3):
    # above the bound, the top-anchored window's valuation sums stay below
    # N * (log3(4 * m_r) + 1), the estimate behind the finiteness argument
    bound = rank_bound(3, 3)
    for halves in [(115, 116, 120), (130, 140, 150), (115, 200, 243)]:
        space = SpaceType(ctx3, halves)
        m_r = halves[-1]
        window = (m_r, 3 * m_r)
        report = condition_report(enumerate_classes(space, window))
        cap = bound.monomials * (_ilog(3, 4 * m_r) + 1)
        for c in report.per_class:
            assert c.valuation_sum <= cap


def test_all_candidates_below_bound(ctx3):
    from apsieve.classifier import PROP_CASE1, PROP_CASE2, PROP_CASE3, PROP_CASE4

    bound = rank_bound(3, 3)
    tops = [t[-1] for t in PROP_CASE1 + PROP_CASE2 + PROP_CASE3 + PROP_CASE4]
    assert max(tops) == 45
    assert max(tops) < bound.min_half_degree


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_bound_matches_brute_scan(p):
    # the scan runs to 4 * M0 + 100, past the next log level at every (p, r) here
    for r in range(1, 7):
        m0 = rank_bound(p, r).min_half_degree
        assert m0 == _brute_min_half_degree(p, r, 4 * m0 + 100), (p, r)


@pytest.mark.parametrize("p, r, m0", [
    (3, 3, 115), (3, 4, 239), (5, 3, 276),
    # thresholds past m = 10,000, pinned from a one-off brute scan to 2e6
    (3, 17, 11391), (3, 20, 19471), (3, 40, 160421), (5, 9, 16009), (7, 6, 12006),
])
def test_rank_bound_pinned(p, r, m0):
    bound = rank_bound(p, r)
    assert bound.min_half_degree == m0
    assert not bound.inequality_holds(m0 - 1)
    assert all(bound.inequality_holds(m) for m in range(m0, m0 + 2000))


@pytest.mark.parametrize("p", [1, 0, -3])
def test_rank_bound_refuses_p_below_2(p):
    # the level walk needs p**k to grow; p = 0 would never stop
    with pytest.raises(ValueError):
        rank_bound(p, 3)


def test_bound_command_at_rank_40():
    res = invoke(["bound", "--p", "3", "--rank", "40"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["summary"] == {"monomials": 12340, "min_half_degree": 160421}
