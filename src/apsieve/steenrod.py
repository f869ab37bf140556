"""Odd-prime reduced-power calculus and unstable actions with unknowns.

Bockstein-free throughout: words are tuples of positive exponents
``(i_1, ..., i_s)`` denoting ``P^{i_1} ... P^{i_s}``.  A word is admissible
when ``i_j >= p * i_{j+1}`` for all ``j``; the rewriting rule for an
inadmissible adjacent pair ``P^a P^b`` (``a < p*b``) is

    P^a P^b = sum_{t=0}^{floor(a/p)} (-1)^(a+t) C((p-1)(b-t)-1, a-pt) P^{a+b-t} P^t

with ``P^0`` the identity and binomials taken mod p by Lucas.

The second half of the module implements the action of the powers on a
truncated polynomial algebra (height ``p + 1``) attached to a space type,
with unknown coefficients over GF(p).  One polynomial type, ``Expr``,
holds both the algebra elements and the scalars: its terms are algebra
monomials times products of named unknowns.  ``P^i`` on a generator of
equal half-degree is the p-th power, above it zero, and in between a
memoised linear combination of the basis monomials of the target degree
with fresh named unknowns.  Scripted derivations accumulate polynomial
constraints on the unknowns; a contradiction is detected by exhausting
GF(p) assignments.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product as _cartesian
from math import comb

from .padic import Record
from .psimod import SpaceType, monomial_degree_multiplicities

__all__ = [
    "binom_mod_p",
    "PowerWord",
    "is_admissible",
    "adem_expand",
    "normalize",
    "format_expansion",
    "RelationShapeError",
    "Relation42Result",
    "Relation43Result",
    "verify_relation_42",
    "verify_relation_43",
    "Expr",
    "Derivation",
    "basis_monomials",
    "degree_realizable",
]


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p via base-p digits (Lucas)."""
    if b < 0 or b > a:
        return 0
    result = 1
    while b and result:
        result = result * comb(a % p, b % p) % p
        a //= p
        b //= p
    return result


class PowerWord(Record):
    """A reduced-power word with a coefficient mod p."""

    __slots__ = ()
    _fields = ("exponents", "coefficient")

    def __new__(cls, exponents: tuple[int, ...], coefficient: int):
        if min(exponents, default=1) <= 0:
            raise ValueError("exponents must be positive (identity factors are dropped)")
        return tuple.__new__(cls, (exponents, coefficient))


def is_admissible(exponents: tuple[int, ...], p: int) -> bool:
    return all(exponents[j] >= p * exponents[j + 1] for j in range(len(exponents) - 1))


def _adem_terms(a: int, b: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """The nonzero terms of the expansion of ``P^a P^b`` (``a < p*b``), as
    plain ``(exponents, coefficient)`` pairs, ``P^0`` dropped."""
    terms = []
    for t in range(a // p + 1):
        c = binom_mod_p((p - 1) * (b - t) - 1, a - p * t, p)
        if c:
            terms.append(((a + b - t, t) if t else (a + b,), c * (-1) ** (a + t) % p))
    return terms


def adem_expand(a: int, b: int, p: int) -> list[PowerWord]:
    """Admissible expansion of the inadmissible pair ``P^a P^b`` (``a < p*b``)."""
    if a >= p * b:
        raise ValueError(f"P^{a} P^{b} is already admissible at p={p}")
    return [PowerWord(exponents, c) for exponents, c in _adem_terms(a, b, p)]


def _reduce_to_admissible(exponents: tuple[int, ...], coeff: int, p: int, acc: dict):
    # rewrites the first inadmissible pair on plain tuples; only normalize's
    # results become PowerWords
    for j in range(len(exponents) - 1):
        if exponents[j] < p * exponents[j + 1]:
            head, tail = exponents[:j], exponents[j + 2 :]
            for term, c in _adem_terms(exponents[j], exponents[j + 1], p):
                _reduce_to_admissible(head + term + tail, coeff * c % p, p, acc)
            return
    acc[exponents] = (acc.get(exponents, 0) + coeff) % p


def normalize(word: PowerWord, p: int) -> list[PowerWord]:
    """Admissible expansion of a single word.

    Terminates because each rewrite strictly lowers the moment
    ``sum j * i_j``; the output is sorted descending for determinism.
    """
    acc: dict[tuple[int, ...], int] = {}
    _reduce_to_admissible(word.exponents, word.coefficient % p, p, acc)
    return [
        PowerWord(exponents=e, coefficient=c)
        for e, c in sorted(acc.items(), reverse=True)
        if c % p
    ]


def _signed(c: int, p: int) -> tuple[str, int]:
    # balanced residue rendering: at p=3 coefficient 2 prints as "-"
    if c > p // 2:
        return "-", p - c
    return "+", c


def format_expansion(words: list[PowerWord], p: int) -> str:
    """ASCII pretty-printer, e.g. ``- P^10 + P^9 P^1``."""
    if not words:
        return "0"
    parts: list[str] = []
    for idx, w in enumerate(words):
        sign, mag = _signed(w.coefficient % p, p)
        body = " ".join(f"P^{e}" for e in w.exponents)
        if mag != 1:
            body = f"{mag} {body}"
        if idx == 0:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


class RelationShapeError(RuntimeError):
    """A pinned relation failed to normalise to its stated shape."""


class Relation42Result(Record):
    __slots__ = ()
    _fields = ("k", "coeff_second", "epsilon", "normalized")

    def __new__(cls, k, coeff_second, epsilon, normalized):
        return tuple.__new__(cls, (k, coeff_second, epsilon, normalized))


def verify_relation_42(k: int) -> Relation42Result:
    """Check ``P^1 P^3 P^(3k-1) = eps * P^1 P^(3k+2) + 2 * P^(3k+2) P^1``.

    At p=3 the word ``P^1 P^(3k+2)`` normalises to zero, so eps is
    indeterminate (reported as None); the admissible content of the left
    side must be exactly ``2 * P^(3k+2) P^1``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = normalize(PowerWord((1, 3, 3 * k - 1), 1), 3)
    # the eps-term vanishes: P^1 P^(3k+2) -> -C(6k+3, 1) P^(3k+3) = 0 mod 3
    if normalize(PowerWord((1, 3 * k + 2), 1), 3):
        raise RelationShapeError(f"P^1 P^{3*k+2} unexpectedly nonzero mod 3")
    expected_word = (3 * k + 2, 1)
    if len(lhs) != 1 or lhs[0].exponents != expected_word:
        raise RelationShapeError(
            f"P^1 P^3 P^{3*k-1} normalised to {format_expansion(lhs, 3)}, "
            f"expected a multiple of P^{3*k+2} P^1"
        )
    coeff = lhs[0].coefficient
    if coeff != 2:
        raise RelationShapeError(f"coefficient of P^{3*k+2} P^1 is {coeff}, expected 2")
    return Relation42Result(k=k, coeff_second=coeff, epsilon=None, normalized=tuple(lhs))


class Relation43Result(Record):
    __slots__ = ()
    _fields = ("l", "eps1", "eps2", "eps3", "coeff_trailing", "normalized")

    def __new__(cls, l, eps1, eps2, eps3, coeff_trailing, normalized):
        return tuple.__new__(cls, (l, eps1, eps2, eps3, coeff_trailing, normalized))


def verify_relation_43(l: int) -> Relation43Result:
    """Check ``P^9 P^(3l-1) = e1 P^(3l+8) + e2 P^(3l+7) P^1 + e3 P^(3l+6) P^2 + P^(3l+5) P^3``.

    Needs ``l >= 2`` so the left side is inadmissible and all four right
    side words are admissible; at p = 3 the trailing coefficient must be 1.
    """
    if l < 2:
        raise ValueError("l must be >= 2")
    lhs = normalize(PowerWord((9, 3 * l - 1), 1), 3)
    allowed = {
        (3 * l + 8,): "eps1",
        (3 * l + 7, 1): "eps2",
        (3 * l + 6, 2): "eps3",
        (3 * l + 5, 3): "trail",
    }
    coeffs = {"eps1": 0, "eps2": 0, "eps3": 0, "trail": 0}
    for w in lhs:
        slot = allowed.get(w.exponents)
        if slot is None:
            raise RelationShapeError(
                f"unexpected word {w.exponents} in P^9 P^{3*l-1} expansion"
            )
        coeffs[slot] = w.coefficient
    if coeffs["trail"] != 1:
        raise RelationShapeError(
            f"coefficient of P^{3*l+5} P^3 is {coeffs['trail']}, expected 1"
        )
    return Relation43Result(
        l=l,
        eps1=coeffs["eps1"],
        eps2=coeffs["eps2"],
        eps3=coeffs["eps3"],
        coeff_trailing=coeffs["trail"],
        normalized=tuple(lhs),
    )


# ---------------------------------------------------------------------------
# unstable action on a truncated polynomial algebra, over GF(p) unknowns
# ---------------------------------------------------------------------------


class Expr:
    """Sparse polynomial over GF(p) in algebra monomials and named unknowns.

    Terms map ``(monomial, unknowns)`` pairs -- a sorted tuple of generator
    half-degrees and a sorted tuple of unknown names, both with repetition
    -- to nonzero residues.  Products of more than p generators vanish
    (height truncation); a scalar has only the empty monomial.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[tuple[tuple, tuple], int] | None = None):
        self.p = p
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c %= p
                if c:
                    self.terms[key] = c

    @classmethod
    def const(cls, p: int, c: int) -> "Expr":
        return cls(p, {((), ()): c})

    @classmethod
    def unknown(cls, p: int, name: str) -> "Expr":
        return cls(p, {((), (name,)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not names for _, names in self.terms)

    def __add__(self, other: "Expr") -> "Expr":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Expr(self.p, out)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + other * -1

    def __mul__(self, other) -> "Expr":
        if isinstance(other, int):
            return Expr(self.p, {key: c * other for key, c in self.terms.items()})
        out: dict[tuple[tuple, tuple], int] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                if len(mono) > self.p:
                    continue  # height truncation
                key = (mono, tuple(sorted(n1 + n2)))
                out[key] = out.get(key, 0) + c1 * c2
        return Expr(self.p, out)

    __rmul__ = __mul__

    def monomials(self) -> set[tuple[int, ...]]:
        return {mono for mono, _ in self.terms}

    def coefficient(self, mono: tuple[int, ...]) -> "Expr":
        """The scalar coefficient of one monomial."""
        return Expr(self.p, {((), names): c for (m, names), c in self.terms.items() if m == mono})

    def unknowns(self) -> set[str]:
        return {name for _, names in self.terms for name in names}

    def evaluate(self, assignment: dict[str, int]) -> int:
        """The value of a scalar under an assignment of every unknown."""
        total = 0
        for (_, names), c in self.terms.items():
            for name in names:
                c = c * assignment[name] % self.p
            total += c
        return total % self.p

    def __repr__(self) -> str:
        bits = [
            "*".join([str(c), *(f"x{g}" for g in mono), *names])
            for (mono, names), c in sorted(self.terms.items())
        ]
        return " + ".join(bits) or "0"


def basis_monomials(space: SpaceType, half_degree: int) -> list[tuple[int, ...]]:
    """Monomials (length 1..p, as sorted generator tuples) of the given degree."""
    out = []
    for length in range(1, space.p + 1):
        for combo in combinations_with_replacement(space.halves, length):
            if sum(combo) == half_degree:
                out.append(combo)
    return sorted(out)


def degree_realizable(space: SpaceType, d: int) -> bool:
    """True when ``d`` is a sum of 1..p half-degrees of the type."""
    return d in monomial_degree_multiplicities(space)


def _compositions(total: int, parts: int):
    # ordered tuples of non-negative ints summing to total; none of no parts
    # for a positive total, so P^i with i > 0 kills a scalar
    if parts <= 1:
        if parts or not total:
            yield (total,) * parts
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class Derivation:
    """One scripted derivation: unknown registry, installed facts, constraints.

    Unknowns are named deterministically; ``P^i`` on a generator between
    the unstable bounds is a memoised fresh linear combination of the
    basis monomials in the target degree unless a fact was installed for
    that (generator, i) pair.
    """

    MAX_BRUTE_UNKNOWNS = 14

    def __init__(self, space: SpaceType):
        if len(set(space.halves)) != len(space.halves):
            raise ValueError("derivations need pairwise distinct generator degrees")
        self.space = space
        self.p = space.p
        self.facts: dict[tuple[int, int], Expr] = {}
        self._memo: dict[tuple[int, int], Expr] = {}
        self.constraints: list[Expr] = []
        self.nonzero: list[str] = []
        self.trace: list[str] = []

    # -- element constructors ------------------------------------------
    def zero(self) -> Expr:
        return Expr(self.p)

    def generator(self, g: int) -> Expr:
        if g not in self.space.halves:
            raise ValueError(f"{g} is not a generator half-degree of {self.space}")
        return Expr(self.p, {((g,), ()): 1})

    def fresh_nonzero(self, name: str) -> Expr:
        self.nonzero.append(name)
        return Expr.unknown(self.p, name)

    def install_fact(self, g: int, i: int, element: Expr, note: str = ""):
        if (g, i) in self._memo:
            raise RuntimeError(f"P^{i}(x{g}) already expanded; install facts first")
        self.facts[(g, i)] = element
        if note:
            self.trace.append(note)

    # -- the unstable action -------------------------------------------
    def power_on_generator(self, i: int, g: int) -> Expr:
        if i == 0:
            return self.generator(g)
        if i > g:
            return self.zero()
        if i == g:
            return Expr(self.p, {((g,) * self.p, ()): 1})
        if (g, i) in self.facts:
            return self.facts[(g, i)]
        if (g, i) not in self._memo:
            target = g + i * (self.p - 1)
            basis = basis_monomials(self.space, target)
            self._memo[(g, i)] = Expr(self.p, {
                (mono, (f"u[{g};{i};{k}]",)): 1 for k, mono in enumerate(basis)
            })
        return self._memo[(g, i)]

    def apply_power(self, i: int, element: Expr) -> Expr:
        """Apply ``P^i`` by the Cartan formula over each monomial, carrying
        each term's scalar through the product."""
        if i == 0:
            return element
        result = self.zero()
        for (mono, names), c in element.terms.items():
            for comp in _compositions(i, len(mono)):
                piece = Expr(self.p, {((), names): c})
                for a, g in zip(comp, mono):
                    piece = piece * self.power_on_generator(a, g)
                    if piece.is_zero():
                        break
                result = result + piece
        return result

    def apply_word(self, exponents: tuple[int, ...], element: Expr) -> Expr:
        """Apply ``P^{i_1} ... P^{i_s}`` (rightmost operator acts first)."""
        for e in reversed(exponents):
            element = self.apply_power(e, element)
        return element

    # -- constraints -----------------------------------------------------
    def equate(self, lhs: Expr, rhs: Expr, note: str = ""):
        """Constrain the scalar coefficient of each monomial of ``lhs - rhs``
        to vanish, in sorted monomial order."""
        diff = lhs - rhs
        for mono in sorted(diff.monomials()):
            self.constraints.append(diff.coefficient(mono))
        if note:
            self.trace.append(note)

    def satisfiable(self) -> dict[str, int] | None:
        """Exhaust GF(p) assignments; return a model or None.

        Constant contradictions short-circuit.  Guarded by an unknown-count
        cap since the search is exponential.
        """
        for c in self.constraints:
            if c.is_constant() and not c.is_zero():
                return None
        names = sorted(
            set(self.nonzero)
            | {n for c in self.constraints for n in c.unknowns()}
        )
        if len(names) > self.MAX_BRUTE_UNKNOWNS:
            raise RuntimeError(f"too many unknowns for exhaustive search: {len(names)}")
        nonzero = set(self.nonzero)
        ranges = [
            range(1, self.p) if n in nonzero else range(self.p) for n in names
        ]
        for values in _cartesian(*ranges):
            assignment = dict(zip(names, values))
            if all(c.evaluate(assignment) == 0 for c in self.constraints):
                return assignment
        return None
