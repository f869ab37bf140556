import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from apsieve import (
    INFINITE,
    PrimeContext,
    Valuation,
    digit_sum,
    nu,
    primitive_root_mod_p2,
    val,
    val_factorial,
)
from apsieve import padic
from apsieve.padic import NU_TABLE_LIMIT, _nu_int, nu_table
from apsieve.psimod import _run_reaches

from conftest import bigint_val
from reference import multiplicative_order, pair_min_int, pair_min_val, val_power_diff


def test_valuation_sentinel_algebra():
    assert INFINITE.is_infinite
    assert INFINITE + 5 == INFINITE
    assert INFINITE + Valuation(2) == INFINITE
    assert Valuation(3) + Valuation(4) == Valuation(7)
    assert min(INFINITE, Valuation(9)) == Valuation(9)
    assert INFINITE > Valuation(10**9)
    assert Valuation(2) < 3
    assert Valuation(2) == 2
    with pytest.raises(ValueError):
        _ = INFINITE.value
    with pytest.raises(ValueError):
        Valuation(-1)


def test_valuations_hash_and_sort_as_numbers(ctx3):
    # a valuation equal to an int is interchangeable with it as a key
    assert 2 in {val(ctx3, 9)}
    assert {3: "x"}[nu(ctx3, 18)] == "x"
    assert hash(val(ctx3, 27)) == hash(3)
    assert sorted([INFINITE, val(ctx3, 9), 0]) == [0, 2, INFINITE]


def test_val_examples(ctx3):
    assert val(ctx3, 27) == 3
    assert val(ctx3, 7) == 0
    assert val(ctx3, 0).is_infinite
    assert val(ctx3, -54) == 3


def test_digit_sum_examples(ctx3):
    assert digit_sum(ctx3, 9) == 1
    assert digit_sum(ctx3, 2) == 2
    assert digit_sum(ctx3, 17) == 5  # 17 = 122 base 3
    with pytest.raises(ValueError):
        digit_sum(ctx3, -1)


def test_val_factorial_examples(ctx3, ctx5):
    assert val_factorial(ctx3, 2) == 0
    assert val_factorial(ctx3, 9) == 4
    assert val_factorial(ctx5, 25) == 6


def test_val_factorial_brute(ctx3):
    fact = 1
    for n in range(1, 40):
        fact *= n
        assert val_factorial(ctx3, n) == bigint_val(3, fact)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_val_factorial_matches_digit_sum_form(p):
    # Legendre: v_p(n!) = (n - s_p(n)) / (p - 1), with s_p the base-p digit sum
    ctx = PrimeContext(p)
    for n in range(2001):
        assert val_factorial(ctx, n) == (n - digit_sum(ctx, n)) // (p - 1), (p, n)


def test_nu_examples(ctx3):
    assert nu(ctx3, 3) == 0
    assert nu(ctx3, 2) == 1
    assert nu(ctx3, 18) == 3
    assert nu(ctx3, 0).is_infinite


@pytest.mark.parametrize("p", [3, 5])
def test_nu_against_bigint_oracle_small(p):
    ctx = PrimeContext(p)
    for d in range(1, 200):
        assert nu(ctx, d) == bigint_val(p, ctx.k0**d - 1)


def test_nu_subadditivity(ctx3, ctx5):
    # nu(d) <= val(d) + 1 always
    for ctx in (ctx3, ctx5):
        for d in range(1, 500):
            assert nu(ctx, d) <= val(ctx, d) + 1


def test_primitive_roots():
    assert primitive_root_mod_p2(3) == 2
    assert primitive_root_mod_p2(5) == 2
    assert primitive_root_mod_p2(7) == 3
    with pytest.raises(ValueError):
        primitive_root_mod_p2(9)


def test_prime_context_is_an_immutable_value():
    a, b = PrimeContext(3), PrimeContext(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PrimeContext(5)
    with pytest.raises(AttributeError):
        a.p = 5
    for p in (1, 2, 9):
        with pytest.raises(ValueError) as exc:
            PrimeContext(p)
        assert str(exc.value) == f"p must be an odd prime >= 3, got {p}"


def test_prime_context_repr_and_hash_are_those_of_its_fields():
    ctx = PrimeContext(5)
    assert repr(ctx) == "PrimeContext(p=5, k0=2)"
    assert hash(ctx) == hash((5, 2))


def test_primitive_root_of_a_large_prime():
    # (p - 1) / 2 = 500,000,003 is prime: only p - 1 is trial-divided, never p * (p - 1)
    assert PrimeContext(1_000_000_007).k0 == 5


def test_primitive_root_mod_p_that_fails_mod_p2():
    # 5 generates (Z/40487)^* but 5**(p-1) = 1 mod p**2, so the order test
    # must include the factor p of p * (p - 1)
    p = 40487
    assert multiplicative_order(5, p) == p - 1 and pow(5, p - 1, p * p) == 1
    assert primitive_root_mod_p2(p) == 10


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_primitive_root_has_full_order(p):
    ctx = PrimeContext(p)
    k0, p2 = ctx.k0, p * p
    order = p * (p - 1)
    seen = pow(k0, order, p2)
    assert seen == 1
    for q in (2, 3, 5, 7, 11, 13):
        if order % q == 0:
            assert pow(k0, order // q, p2) != 1


@pytest.mark.parametrize("p", [3, 5])
def test_power_congruence_criterion(p):
    # k0**n = 1 mod p**f exactly when p**(f-1) * (p-1) divides n
    ctx = PrimeContext(p)
    for f in range(1, 7):
        mod = p**f
        period = p ** (f - 1) * (p - 1)
        for n in range(1, 2001):
            assert (pow(ctx.k0, n, mod) == 1) == (n % period == 0)


def test_val_power_diff_examples(ctx3):
    assert val_power_diff(ctx3, 2, 9, 27) == 3
    assert val_power_diff(ctx3, 3, 2, 5) == 2
    assert val_power_diff(ctx3, 4, 1, 2) == 1
    assert val_power_diff(ctx3, 2, 7, 7).is_infinite


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([3, 5]),
    k=st.integers(min_value=2, max_value=50),
    a=st.integers(min_value=1, max_value=120),
    b=st.integers(min_value=1, max_value=120),
)
def test_val_power_diff_oracle(p, k, a, b):
    ctx = PrimeContext(p)
    got = val_power_diff(ctx, k, a, b)
    if a == b:
        assert got.is_infinite
    else:
        assert got == bigint_val(p, k**a - k**b)


def test_pair_min_val_examples(ctx3):
    assert pair_min_val(ctx3, 9, 27) == 3
    assert pair_min_val(ctx3, 2, 4) == 1
    assert pair_min_val(ctx3, 4, 7) == 0
    assert pair_min_val(ctx3, 5, 5).is_infinite


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([3, 5]),
    t1=st.integers(min_value=1, max_value=100),
    t2=st.integers(min_value=1, max_value=100),
)
def test_pair_min_val_oracle(p, t1, t2):
    if t1 == t2:
        return
    ctx = PrimeContext(p)
    brute = min(bigint_val(p, k**t1 - k**t2) for k in range(2, 51))
    assert pair_min_val(ctx, t1, t2) == brute


def _factorial_val_table(p: int, limit: int) -> list[int]:
    table = [0] * (limit + 1)
    for n in range(1, limit + 1):
        v, m = 0, n
        while m % p == 0:
            m //= p
            v += 1
        table[n] = table[n - 1] + v
    return table


def test_factorial_superadditivity(ctx3):
    # val((a+b)!) dominates val(a!) + val(b!), full range a, b <= 2000
    e = _factorial_val_table(3, 4000)
    for a in range(0, 2001):
        ea = e[a]
        for b in range(a, 2001):
            assert ea + e[b] <= e[a + b]


def test_factorial_product_bound(ctx3):
    # val((a*b)!) <= a + val(a!) whenever b <= p, a <= 2000
    e = _factorial_val_table(3, 6000)
    for a in range(0, 2001):
        for b in range(0, 4):
            assert e[a * b] <= a + e[a]
    for a in (0, 17, 250, 2000):
        assert e[a] == val_factorial(ctx3, a)


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(4, 3) == 1
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_nu_table_matches_nu_int(p):
    ctx = PrimeContext(p)
    table = nu_table(ctx, 2000)
    assert table[1:2001] == [_nu_int(ctx, d) for d in range(1, 2001)]


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_nu_table_grows_on_demand(p, monkeypatch):
    monkeypatch.setattr(padic, "_NU_TABLES", {})
    ctx = PrimeContext(p)
    small = nu_table(ctx, 10)
    before = list(small)
    large = nu_table(ctx, 2000)
    assert len(small) > 10 and len(large) > 2000
    assert small == before  # a table already handed out is never modified
    assert large[1:2001] == [_nu_int(ctx, d) for d in range(1, 2001)]
    assert nu_table(ctx, 50) is large
    assert large[0] is None


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_nu_table_past_the_limit_is_a_memo(p, monkeypatch):
    # memory follows the differences looked up, not their size
    monkeypatch.setattr(padic, "_NU_TABLES", {})
    ctx = PrimeContext(p)
    memo = nu_table(ctx, 10**12)
    assert not isinstance(memo, list)
    for d in [1, p - 1, (p - 1) * p**9, NU_TABLE_LIMIT + 1, 10**12, (p - 1) * 10**11, 10**12 - 1]:
        assert memo[d] == _nu_int(ctx, d)
    assert len(nu_table(ctx, NU_TABLE_LIMIT)) == NU_TABLE_LIMIT + 1
    with pytest.raises(IndexError):
        memo[0]


def test_nu_table_not_built_at_import():
    src = os.path.dirname(os.path.dirname(padic.__file__))
    code = "import apsieve.cli, apsieve.padic as m; assert not m._NU_TABLES"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    degrees=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=30, unique=True),
)
def test_run_reaches_from_table(p, degrees):
    # the sweep's run sums, read from the nu table, against per-pair sums:
    # reach(a) is the end of the longest run from a whose every class has
    # its pair-minimum sum over the run below its degree
    ctx = PrimeContext(p)
    degrees.sort()

    def holds(a, b):
        run = degrees[a:b]
        return all(sum(pair_min_int(ctx, t_i, t_j) for t_j in run if t_j != t_i) < t_i
                   for t_i in run)

    expected = []
    for a in range(len(degrees)):
        b = a + 1
        while b < len(degrees) and holds(a, b + 1):
            b += 1
        expected.append(b)
    assert list(_run_reaches(ctx, degrees)) == expected
