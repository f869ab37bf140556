"""Exact p-adic valuation arithmetic over a fixed odd prime.

Everything in this module is integer-exact.  The central objects are:

- ``Valuation``: an ``int`` subclass for a finite valuation, which adds
  only a non-negativity check, ``is_infinite`` and ``value``; and
  ``INFINITE``, the valuation of zero, a ``float("inf")`` that compares
  above every finite value, absorbs addition and prints as ``inf``.  No
  table or report holds it.
- ``PrimeContext``: an odd prime ``p`` together with the smallest
  primitive root ``k0`` modulo ``p**2`` (which is then a primitive root
  modulo every power of ``p``).
- ``val`` / ``digit_sum`` / ``val_factorial``: the valuation of ``n``,
  the base-``p`` digit sum, and the valuation of ``n!`` by Legendre's
  floor sum.
- ``nu``: the exact valuation of ``k0**n - 1`` (zero when ``p - 1`` does
  not divide ``n``), computed arithmetically rather than with big
  integers.
- ``nu_table``: ``nu(d)`` for every ``1 <= d <= limit`` as one shared
  per-prime list, built on first use and grown on demand (a memo past
  ``NU_TABLE_LIMIT``), so the sieve's inner loops read ``nu`` by indexing
  instead of calling a function.

The hot paths avoid big-integer arithmetic entirely; big integers appear
only in test oracles.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

__all__ = [
    "Valuation",
    "INFINITE",
    "PrimeContext",
    "is_prime",
    "prime_factors",
    "primitive_root_mod_p2",
    "val",
    "digit_sum",
    "val_factorial",
    "nu",
    "nu_table",
]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n >= 1`` in increasing order."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Valuation(int):
    """A finite p-adic valuation: a non-negative ``int``.

    Python's own integers do the ordering, hashing and arithmetic; a sum
    of valuations is a plain ``int``.  The valuation of zero is
    :data:`INFINITE`.
    """

    __slots__ = ()
    is_infinite = False

    def __new__(cls, value: int):
        if value < 0:
            raise ValueError("finite valuations are non-negative")
        return super().__new__(cls, value)

    @property
    def value(self) -> int:
        """The valuation as a plain ``int``."""
        return int(self)


class _Infinite(float):
    """The valuation of zero: ``float("inf")``, above every finite value."""

    __slots__ = ()
    is_infinite = True

    @property
    def value(self):
        raise ValueError("infinite valuation has no finite value")


INFINITE = _Infinite("inf")


@lru_cache(maxsize=None)
def primitive_root_mod_p2(p: int) -> int:
    """Smallest ``k >= 2`` whose multiplicative order modulo ``p**2`` is
    ``p * (p - 1)``.

    Such a ``k`` is automatically a primitive root modulo every power of
    ``p``.  Raises ``ValueError`` on non-prime input.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("an odd prime is required")
    p2 = p * p
    order = p * (p - 1)
    # the primes dividing p * (p - 1): p itself and those of p - 1, factored
    # alone so that a large prime p costs a trial division up to sqrt(p)
    factors = prime_factors(p - 1) + [p]
    k = 2
    while True:
        if k % p != 0 and all(pow(k, order // q, p2) != 1 for q in factors):
            return k
        k += 1


class PrimeContext(namedtuple("PrimeContext", "p k0")):
    """An odd prime with its cached primitive root modulo ``p**2``.

    Built from ``p`` alone; immutable, so one context serves every type
    checked at its prime.  Equal primes give equal, equally hashed contexts.
    """

    __slots__ = ()

    def __new__(cls, p: int):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        return super().__new__(cls, p, primitive_root_mod_p2(p))

    def __getnewargs__(self):
        # copy and pickle rebuild a context from p alone, as __new__ takes it
        return (self.p,)


def _val_int(p: int, n: int) -> int:
    """Largest f with p**f dividing n, for n != 0 (sign ignored)."""
    n = abs(n)
    f = 0
    while n % p == 0:
        n //= p
        f += 1
    return f


def val(ctx: PrimeContext, n: int) -> Valuation | float:
    """p-adic valuation of ``n``; :data:`INFINITE` for ``n == 0``."""
    return INFINITE if n == 0 else Valuation(_val_int(ctx.p, n))


def digit_sum(ctx: PrimeContext, n: int) -> int:
    """Sum of the base-``p`` digits of ``n >= 0``."""
    if n < 0:
        raise ValueError("digit_sum expects a non-negative integer")
    p, s = ctx.p, 0
    while n:
        s += n % p
        n //= p
    return s


def val_factorial(ctx: PrimeContext, n: int) -> int:
    """Valuation of ``n!`` by Legendre's floor sum ``sum_k floor(n / p^k)``."""
    if n < 0:
        raise ValueError("val_factorial expects a non-negative integer")
    p = ctx.p
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _nu_int(ctx: PrimeContext, n: int) -> int:
    # fast path for hot loops; n != 0
    n = abs(n)
    if n % (ctx.p - 1) != 0:
        return 0
    return _val_int(ctx.p, n) + 1


def nu(ctx: PrimeContext, n: int) -> Valuation | float:
    """Exact valuation of ``k0**n - 1``.

    Returns 0 when ``p - 1`` does not divide ``n``, ``val(n) + 1`` when it
    does, and :data:`INFINITE` for ``n == 0``.  Sign is ignored.
    """
    return INFINITE if n == 0 else Valuation(_nu_int(ctx, n))


NU_TABLE_LIMIT = 1 << 16
"""Largest ``d`` the shared nu list covers (512 KB of references).  The
p = 3 pipeline up to M0 = 115 needs ``d < 345``; a larger request gets a
:class:`_NuMemo`, whose memory follows the differences looked up, not
their size."""

# p -> the longest nu list built so far; each growth stores a new list, so a
# list already handed out is never modified.
_NU_TABLES: dict[int, list] = {}


class _NuMemo(dict):
    """``nu(d)`` computed on the first lookup of each ``d >= 1``."""

    def __init__(self, ctx: PrimeContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, d: int) -> int:
        if d < 1:
            raise IndexError(f"nu table index {d} is not a positive difference")
        value = self[d] = _nu_int(self.ctx, d)
        return value


def nu_table(ctx: PrimeContext, limit: int) -> list | _NuMemo:
    """``nu(d)`` as plain ints, indexed by ``d``, for every ``1 <= d <= limit``.

    Up to :data:`NU_TABLE_LIMIT` this is a list shared per prime, possibly
    longer than asked for; callers must not modify it.  Entry 0 is ``None``
    (``nu(0)`` is infinite), so a zero difference fails loudly instead of
    reading a finite value.  Nothing is built at import: the first request
    for ``p`` builds the list and a request beyond its end rebuilds it at
    least twice as long.  A larger ``limit`` gets a fresh :class:`_NuMemo`,
    indexed the same way.
    """
    if limit > NU_TABLE_LIMIT:
        return _NuMemo(ctx)
    p = ctx.p
    table = _NU_TABLES.get(p)
    if table is None or len(table) <= limit:
        size = min(max(limit + 1, 2 * len(table) if table else 64), NU_TABLE_LIMIT + 1)
        table = [0] * size
        # nu(d) = val(d) + 1 exactly on the multiples of p - 1: level f marks
        # the multiples of (p - 1) * p**(f - 1), each level a subset of the last
        step, f = p - 1, 1
        while step < size:
            table[step::step] = [f] * ((size - 1) // step)
            step *= p
            f += 1
        table[0] = None
        _NU_TABLES[p] = table
    return table
