"""Effective finiteness bound for the candidate enumeration.

For rank r at the odd prime p, the windowed module anchored at the top
generator has at most ``N(p, r) = sum_{l=1}^{p} C(r+l-1, l)`` classes, and
each per-pair valuation is at most ``log_p(2*(p-1)*m) + 1``.  Once

    N(p, r) * (floor(log_p(2*(p-1)*m)) + 1) < m

every type with top half-degree m is eliminated by the sieve, so only
finitely many candidates exist.  ``rank_bound`` computes the exact
threshold by walking the log levels of the left side, on each of which it
is constant.
"""

from __future__ import annotations

from math import comb

from .padic import Record

__all__ = ["FinitenessBound", "monomial_count", "rank_bound"]


def monomial_count(p: int, r: int) -> int:
    """Number of non-constant monomials of word-length <= p in r variables:
    ``sum_{l=1}^{p} C(r+l-1, l) = C(r+p, p) - 1`` (hockey-stick identity), in
    closed form so that a large p costs no loop over the word lengths."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    return comb(r + p, p) - 1


def _ilog(p: int, x: int) -> int:
    k = 0
    q = p
    while q <= x:
        k += 1
        q *= p
    return k


class FinitenessBound(Record):
    """Monomial count N and the minimal top half-degree bound M0 above
    which the sieve inequality holds for every m."""

    __slots__ = ()
    _fields = ("p", "r", "monomials", "min_half_degree")

    def __new__(cls, p, r, monomials, min_half_degree):
        return tuple.__new__(cls, (p, r, monomials, min_half_degree))

    def inequality_holds(self, m: int) -> bool:
        return self.monomials * (_ilog(self.p, 2 * (self.p - 1) * m) + 1) < m


def rank_bound(p: int, r: int) -> FinitenessBound:
    """Minimal M0 such that ``N * (floor(log_p(2(p-1)m)) + 1) < m`` for all
    ``m >= M0``.

    On log level k, where ``floor(log_p(2(p-1)m)) = k``, m runs over
    ``[ceil(p**k / 2(p-1)), ceil(p**(k+1) / 2(p-1)) - 1]`` and the left side
    is the constant ``N * (k + 1)``, so the level's last failure is
    ``min(level end, N * (k + 1))``.  The walk stops at the first level whose
    start exceeds ``N * (k + 1)``: from there ``p**(k+1) / 2(p-1) > p * N *
    (k + 1) >= N * (k + 2)``, so no later level fails either.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    n = monomial_count(p, r)
    d = 2 * (p - 1)
    last_failure = 0
    k, q = 0, 1  # q = p**k
    while -(-q // d) <= n * (k + 1):  # the level starts at ceil(q / d)
        last_failure = min(-(-q * p // d) - 1, n * (k + 1))
        k, q = k + 1, q * p
    return FinitenessBound(p=p, r=r, monomials=n, min_half_degree=last_failure + 1)
