"""Exact p-adic valuation arithmetic over a fixed odd prime.

Everything in this module is integer-exact.  The central objects are:

- ``Valuation``: a non-negative integer valuation with an explicit
  infinite sentinel for the valuation of zero.
- ``PrimeContext``: an odd prime ``p`` together with the smallest
  primitive root ``k0`` modulo ``p**2`` (which is then a primitive root
  modulo every power of ``p``).
- ``val`` / ``digit_sum`` / ``val_factorial``: the valuation of ``n``,
  the base-``p`` digit sum, and the valuation of ``n!`` computed by two
  independent closed forms that are checked against each other.
- ``nu``: the exact valuation of ``k0**n - 1`` (zero when ``p - 1`` does
  not divide ``n``), computed arithmetically rather than with big
  integers.
- ``val_power_diff`` / ``pair_min_val``: the exact valuation of
  ``k**a - k**b`` for a single base, and the minimum of that valuation
  over all bases ``k >= 2``, which is the per-factor building block of
  the divisibility sieve.
- ``nu_table``: ``nu(d)`` for every ``1 <= d <= limit`` as one shared
  per-prime list, built on first use and grown on demand (a memo past
  ``NU_TABLE_LIMIT``), so the sieve's inner loops read ``nu`` by indexing
  instead of calling a function.

The hot paths avoid big-integer arithmetic entirely (lifting-the-exponent
plus multiplicative-order computations); big integers appear only in test
oracles.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "Valuation",
    "INFINITE",
    "PrimeContext",
    "is_prime",
    "prime_factors",
    "primitive_root_mod_p2",
    "multiplicative_order",
    "val",
    "digit_sum",
    "val_factorial",
    "nu",
    "nu_table",
    "val_power_diff",
    "pair_min_val",
]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class Valuation:
    """A p-adic valuation: a non-negative integer or the infinite sentinel.

    The infinite value (valuation of zero) compares greater than every
    finite value, absorbs addition, and yields the other operand under
    ``min``.  Instances are immutable and hashable.
    """

    __slots__ = ("_v",)

    def __init__(self, value: int | None):
        if value is not None:
            if value < 0:
                raise ValueError("finite valuations are non-negative")
            value = int(value)
        object.__setattr__(self, "_v", value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Valuation is immutable")

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> int:
        """The finite value; raises on the infinite sentinel."""
        if self._v is None:
            raise ValueError("infinite valuation has no finite value")
        return self._v

    # -- ordering (total, with ints accepted on either side) ----------
    @staticmethod
    def _key(other) -> int | None:
        if isinstance(other, Valuation):
            return other._v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __eq__(self, other):
        k = Valuation._key(other)
        if k is NotImplemented:
            return NotImplemented
        return self._v == k

    def __lt__(self, other):
        k = Valuation._key(other)
        if k is NotImplemented:
            return NotImplemented
        if self._v is None:
            return False
        if k is None:
            return True
        return self._v < k

    def __le__(self, other):
        eq = self.__eq__(other)
        lt = self.__lt__(other)
        if eq is NotImplemented or lt is NotImplemented:
            return NotImplemented
        return eq or lt

    def __gt__(self, other):
        le = self.__le__(other)
        return NotImplemented if le is NotImplemented else not le

    def __ge__(self, other):
        lt = self.__lt__(other)
        return NotImplemented if lt is NotImplemented else not lt

    def __hash__(self):
        return hash(("Valuation", self._v))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        k = Valuation._key(other)
        if k is NotImplemented:
            return NotImplemented
        if self._v is None or k is None:
            return INFINITE
        return Valuation(self._v + k)

    __radd__ = __add__

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return "Valuation(inf)" if self._v is None else f"Valuation({self._v})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)


INFINITE = Valuation(None)


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


class PrimeContext:
    """An odd prime with its cached primitive root modulo ``p**2``.

    Immutable after construction, so one context serves every type checked
    at its prime.  Equal primes give equal, equally hashed contexts.
    """

    __slots__ = ("p", "k0")

    def __init__(self, p: int):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k0", primitive_root_mod_p2(p))

    def __setattr__(self, name, value):
        raise AttributeError("PrimeContext is immutable")

    def __eq__(self, other):
        if other.__class__ is not PrimeContext:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p, self.k0))

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, k0={self.k0})"


def _val_int(p: int, n: int) -> int:
    """Largest f with p**f dividing n, for n != 0 (sign ignored)."""
    n = abs(n)
    f = 0
    while n % p == 0:
        n //= p
        f += 1
    return f


def val(ctx: PrimeContext, n: int) -> Valuation:
    """p-adic valuation of ``n``; the infinite sentinel for ``n == 0``."""
    if n == 0:
        return INFINITE
    return Valuation(_val_int(ctx.p, n))


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


def nu(ctx: PrimeContext, n: int) -> Valuation:
    """Exact valuation of ``k0**n - 1``.

    Returns 0 when ``p - 1`` does not divide ``n``, ``val(n) + 1`` when it
    does, and the infinite sentinel for ``n == 0``.  Sign is ignored.
    """
    if n == 0:
        return INFINITE
    n = abs(n)
    if n % (ctx.p - 1) != 0:
        return Valuation(0)
    return Valuation(_val_int(ctx.p, n) + 1)


def _nu_int(ctx: PrimeContext, n: int) -> int:
    # fast path for hot loops; n != 0
    n = abs(n)
    if n % (ctx.p - 1) != 0:
        return 0
    return _val_int(ctx.p, n) + 1


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


def _pair_min_int(ctx: PrimeContext, t1: int, t2: int) -> int:
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
    return Valuation(_pair_min_int(ctx, t1, t2))
