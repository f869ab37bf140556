import math

import pytest
from hypothesis import given, settings, strategies as st

from apsieve import (
    PowerWord,
    SpaceType,
    adem_expand,
    binom_mod_p,
    degree_realizable,
    format_expansion,
    normalize,
    verify_relation_42,
    verify_relation_43,
)
from apsieve.steenrod import Derivation, Expr, is_admissible, normalize_word_sum


def as_dict(words):
    return {w.exponents: w.coefficient for w in words}


def test_power_word_validation():
    assert PowerWord(exponents=(3, 1), coefficient=2) == PowerWord((3, 1), 2)
    for exponents in ((0,), (3, -1)):
        with pytest.raises(ValueError) as exc:
            PowerWord(exponents, 1)
        assert str(exc.value) == "exponents must be positive (identity factors are dropped)"


def test_binom_mod_p_examples():
    assert binom_mod_p(13, 3, 3) == 1
    assert binom_mod_p(17, 3, 3) == 2
    assert binom_mod_p(5, 0, 3) == 1
    assert binom_mod_p(3, 5, 3) == 0


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=400),
    b=st.integers(min_value=0, max_value=400),
    p=st.sampled_from([3, 5, 7]),
)
def test_binom_mod_p_oracle(a, b, p):
    assert binom_mod_p(a, b, p) == math.comb(a, b) % p


def test_adem_examples():
    assert as_dict(adem_expand(1, 1, 3)) == {(2,): 2}
    assert as_dict(adem_expand(3, 7, 3)) == {(10,): 2, (9, 1): 1}
    assert as_dict(adem_expand(3, 9, 3)) == {(12,): 1, (11, 1): 1}
    with pytest.raises(ValueError):
        adem_expand(9, 1, 3)


def test_adem_degree_preserved():
    for a in range(1, 30):
        for b in range(max(1, a // 3), 30):
            if a >= 3 * b:
                continue
            for w in adem_expand(a, b, 3):
                assert sum(w.exponents) == a + b
                assert is_admissible(w.exponents, 3)


def test_adem_single_pair_coefficient():
    # the length-one output of P^1 P^b has coefficient -C(2b-1, 1) = b+1 mod 3
    for b in range(1, 101):
        got = as_dict(adem_expand(1, b, 3))
        expected = (b + 1) % 3
        if expected:
            assert got == {(b + 1,): expected}
        else:
            assert got == {}


def test_normalize_examples():
    assert as_dict(normalize(PowerWord((1, 1), 1), 3)) == {(2,): 2}
    assert as_dict(normalize(PowerWord((1, 3), 1), 3)) == {(4,): 1}
    assert as_dict(normalize(PowerWord((9, 1), 1), 3)) == {(9, 1): 1}


def test_normalize_idempotent_and_linear():
    words = normalize(PowerWord((2, 3, 5), 1), 3)
    again = normalize_word_sum(words, 3)
    assert as_dict(words) == as_dict(again)
    doubled = normalize(PowerWord((2, 3, 5), 2), 3)
    assert as_dict(doubled) == {e: (2 * c) % 3 for e, c in as_dict(words).items()}
    for w in words:
        assert is_admissible(w.exponents, 3)
        assert sum(w.exponents) == 10


def test_format_expansion():
    assert format_expansion(normalize(PowerWord((3, 7), 1), 3), 3) == "- P^10 + P^9 P^1"
    assert format_expansion(normalize(PowerWord((3, 9), 1), 3), 3) == "P^12 + P^11 P^1"
    assert format_expansion([], 3) == "0"


def test_relation_42_family():
    for k in (1, 2, 17, 50):
        res = verify_relation_42(k)
        assert res.coeff_second == 2
        assert res.epsilon is None
    with pytest.raises(ValueError):
        verify_relation_42(0)


def test_relation_43_family():
    for l in (2, 3, 5, 50):
        res = verify_relation_43(l)
        assert res.coeff_trailing == 1
    assert verify_relation_43(2).eps1 == 2
    assert verify_relation_43(2).eps2 == 1
    assert verify_relation_43(2).eps3 == 2
    with pytest.raises(ValueError):
        verify_relation_43(1)


def test_expr_arithmetic():
    a = Expr.unknown(3, "a")
    b = Expr.unknown(3, "b")
    e = a * b + Expr.const(3, 2) * a
    assert e.evaluate({"a": 1, "b": 1}) == 0  # 1 + 2 = 0 mod 3
    assert e.evaluate({"a": 2, "b": 2}) == 2  # 4 + 4 = 8 = 2 mod 3
    assert (e - e).is_zero()


def test_cartan_top_power_and_vanishing(ctx3):
    space = SpaceType(ctx3, (2, 4, 6))
    deriv = Derivation(space)
    x2 = deriv.generator(2)
    top = deriv.apply_power(2, x2)
    assert set(top.coeffs) == {(2, 2, 2)}
    assert deriv.apply_power(3, x2).is_zero()
    assert deriv.apply_power(0, x2).coeffs == x2.coeffs


def test_cartan_product_rule(ctx3):
    space = SpaceType(ctx3, (4, 6, 8))
    deriv = Derivation(space)
    deriv.install_fact(6, 1, deriv.generator(8), "P^1(x6) = x8")
    product = deriv.generator(4) * deriv.generator(6)
    result = deriv.apply_power(1, product)
    assert set(result.coeffs) == {(4, 8), (6, 6)}
    # the x4*x8 part has the installed (constant) coefficient
    assert result.coefficient((4, 8)).is_constant()
    # the x6^2 part carries the fresh unknown for P^1(x4)
    assert result.coefficient((6, 6)).unknowns()


def test_cartan_respects_grading(ctx3):
    space = SpaceType(ctx3, (2, 4, 6))
    deriv = Derivation(space)
    for g in (2, 4, 6):
        for i in range(1, g + 1):
            out = deriv.apply_power(i, deriv.generator(g))
            if not out.is_zero():
                assert out.half_degree() == g + 2 * i


def test_truncation_kills_long_products(ctx3):
    space = SpaceType(ctx3, (2, 4, 6))
    deriv = Derivation(space)
    x2 = deriv.generator(2)
    cube = x2 * x2 * x2
    assert set(cube.coeffs) == {(2, 2, 2)}
    assert (cube * x2).is_zero()


def test_unknowns_are_memoized(ctx3):
    space = SpaceType(ctx3, (4, 6, 8))
    deriv = Derivation(space)
    first = deriv.power_on_generator(1, 4)
    second = deriv.power_on_generator(1, 4)
    assert first.coeffs.keys() == second.coeffs.keys()
    for mono in first.coeffs:
        assert first.coeffs[mono].terms == second.coeffs[mono].terms


def test_satisfiable_brute_force(ctx3):
    space = SpaceType(ctx3, (2, 4, 6))
    deriv = Derivation(space)
    c = deriv.fresh_nonzero("c")
    d = Expr.unknown(3, "d")
    deriv.constraints.append(c * d - Expr.const(3, 1))
    model = deriv.satisfiable()
    assert model is not None
    assert model["c"] * model["d"] % 3 == 1
    deriv.constraints.append(c * Expr.const(3, 2))  # 2c = 0 with c nonzero
    assert deriv.satisfiable() is None


def test_degree_realizable(ctx3):
    space = SpaceType(ctx3, (6, 8, 12))
    assert degree_realizable(space, 16)
    assert not degree_realizable(space, 9)
    single = SpaceType(ctx3, (5,))
    assert degree_realizable(single, 5)
    assert not degree_realizable(single, 7)
