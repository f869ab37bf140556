"""Per-pair and per-monomial references for the tests.

The library counts monomial degrees with a dynamic programme and reads
``nu`` from tables; these functions compute the same quantities one pair,
one base or one monomial at a time, with no shared code beyond the scalar
``_nu_int``/``_val_int``.  The Adem rewriting below goes through a
validated :class:`~apsieve.steenrod.PowerWord` per term, as returned by
``adem_expand``, where the library rewrites plain tuples.
"""

from bisect import bisect_right
from itertools import combinations_with_replacement

from apsieve.padic import INFINITE, PrimeContext, Valuation, _nu_int, _val_int, prime_factors
from apsieve.steenrod import PowerWord, adem_expand


def multiplicative_order(k: int, p: int) -> int:
    """Order of ``k`` in the multiplicative group modulo the prime ``p``."""
    k %= p
    if k == 0:
        raise ValueError("k must be coprime to p")
    t = p - 1
    for q in prime_factors(p - 1):
        while t % q == 0 and pow(k, t // q, p) == 1:
            t //= q
    return t


def _val_power_of_base_minus_one(ctx: PrimeContext, k: int, t: int) -> int:
    """Valuation of ``k**t - 1`` given it is positive, via modular exponentiation."""
    p = ctx.p
    f = 0
    q = p
    while pow(k, t, q) == 1:
        f += 1
        q *= p
    return f


def val_power_diff(ctx: PrimeContext, k: int, a: int, b: int) -> Valuation:
    """Exact valuation of ``k**a - k**b`` without big-integer arithmetic.

    For ``p | k`` the answer is ``min(a, b) * val(k)``.  Otherwise write
    ``d = |a - b|`` and let ``t`` be the order of ``k`` mod ``p``: the
    valuation is 0 unless ``t | d``, in which case lifting the exponent
    for odd ``p`` gives ``val(k**t - 1) + val(d)``.
    """
    if k < 2:
        raise ValueError("base k must be at least 2")
    if a < 1 or b < 1:
        raise ValueError("exponents must be positive")
    if a == b:
        return INFINITE
    p = ctx.p
    if k % p == 0:
        return Valuation(min(a, b) * _val_int(p, k))
    d = abs(a - b)
    t = multiplicative_order(k, p)
    if d % t != 0:
        return Valuation(0)
    return Valuation(_val_power_of_base_minus_one(ctx, k, t) + _val_int(p, d))


def pair_min_int(ctx: PrimeContext, t1: int, t2: int) -> int:
    # minimum over all bases k >= 2 of the valuation of k**t1 - k**t2;
    # the nu branch is realised by k = k0, the min(t1, t2) branch by k = p.
    return min(_nu_int(ctx, t1 - t2), min(t1, t2))


def pair_min_val(ctx: PrimeContext, t1: int, t2: int) -> Valuation:
    """Minimum over all bases ``k >= 2`` of the valuation of ``k**t1 - k**t2``.

    Equals ``min(nu(|t1 - t2|), min(t1, t2))``.  Equal exponents give the
    infinite sentinel (callers merge equal degrees beforehand).
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("exponents must be positive")
    if t1 == t2:
        return INFINITE
    return Valuation(pair_min_int(ctx, t1, t2))


def walk_monomial_degrees(space, d_lo: int, d_hi: int) -> tuple[tuple[int, int], ...]:
    """The monomial degrees in ``[d_lo, d_hi]`` of the height-(p+1) truncated
    algebra on the generators of ``space``, with the number of monomials
    realising each, by visiting every monomial.  Since the generators are
    sorted, a sum of ``length`` of them adds at least ``(length - 1) * m_1``
    to its largest one, so only the generators ``<= d_hi - (length - 1) * m_1``
    are combined."""
    halves = space.halves
    counts: dict[int, int] = {}
    for length in range(1, space.p + 1):
        cut = bisect_right(halves, d_hi - (length - 1) * halves[0])
        if not cut:
            break
        # combined by position, so repeated half-degrees stay distinct generators
        for d in map(sum, combinations_with_replacement(halves[:cut], length)):
            if d_lo <= d <= d_hi:
                counts[d] = counts.get(d, 0) + 1
    return tuple(sorted(counts.items()))


def _reduce_by_words(exponents: tuple[int, ...], coeff: int, p: int, acc: dict):
    for j in range(len(exponents) - 1):
        if exponents[j] < p * exponents[j + 1]:
            for term in adem_expand(exponents[j], exponents[j + 1], p):
                new = exponents[:j] + term.exponents + exponents[j + 2 :]
                _reduce_by_words(new, coeff * term.coefficient % p, p, acc)
            return
    acc[exponents] = (acc.get(exponents, 0) + coeff) % p


def normalize_by_words(word: PowerWord, p: int) -> list[PowerWord]:
    """The admissible expansion of ``word``, sorted descending, by rewriting
    its first inadmissible pair into the words of ``adem_expand`` until none
    is left."""
    acc: dict[tuple[int, ...], int] = {}
    _reduce_by_words(word.exponents, word.coefficient % p, p, acc)
    return [
        PowerWord(exponents=e, coefficient=c)
        for e, c in sorted(acc.items(), reverse=True)
        if c % p
    ]
