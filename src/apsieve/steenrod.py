"""Odd-prime reduced-power calculus and unstable actions with unknowns.

Bockstein-free throughout: words are tuples of positive exponents
``(i_1, ..., i_s)`` denoting ``P^{i_1} ... P^{i_s}``.  A word is admissible
when ``i_j >= p * i_{j+1}`` for all ``j``; the rewriting rule for an
inadmissible adjacent pair ``P^a P^b`` (``a < p*b``) is

    P^a P^b = sum_{t=0}^{floor(a/p)} (-1)^(a+t) C((p-1)(b-t)-1, a-pt) P^{a+b-t} P^t

with ``P^0`` the identity and binomials taken mod p by Lucas.

The second half of the module implements the action of the powers on a
truncated polynomial algebra (height ``p + 1``) attached to a space type,
with unknown coefficients over GF(p): ``P^i`` on a generator of equal
half-degree is the p-th power, above it zero, and in between a memoised
linear combination of the basis monomials of the target degree with fresh
named unknowns.  Scripted derivations accumulate polynomial constraints on
the unknowns; a contradiction is detected by exhausting GF(p) assignments.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product as _cartesian

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
    "SymbolicElement",
    "Derivation",
    "basis_monomials",
    "degree_realizable",
]


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p via base-p digits (Lucas)."""
    if b < 0 or b > a:
        return 0
    result = 1
    while b:
        da, db = a % p, b % p
        if db > da:
            return 0
        # digits are < p, so a tiny iterative binomial suffices
        num = 1
        den = 1
        for i in range(db):
            num = num * (da - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, p - 2, p) % p
        a //= p
        b //= p
    return result


class PowerWord(namedtuple("PowerWord", "exponents coefficient")):
    """A reduced-power word with a coefficient mod p."""

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...], coefficient: int):
        if any(e <= 0 for e in exponents):
            raise ValueError("exponents must be positive (identity factors are dropped)")
        return super().__new__(cls, exponents, coefficient)


def is_admissible(exponents: tuple[int, ...], p: int) -> bool:
    return all(exponents[j] >= p * exponents[j + 1] for j in range(len(exponents) - 1))


def adem_expand(a: int, b: int, p: int) -> list[PowerWord]:
    """Admissible expansion of the inadmissible pair ``P^a P^b`` (``a < p*b``)."""
    if a >= p * b:
        raise ValueError(f"P^{a} P^{b} is already admissible at p={p}")
    out: list[PowerWord] = []
    for t in range(a // p + 1):
        c = binom_mod_p((p - 1) * (b - t) - 1, a - p * t, p)
        c = c * (-1) ** (a + t) % p
        if c == 0:
            continue
        exps = (a + b - t, t) if t > 0 else (a + b,)
        out.append(PowerWord(exponents=exps, coefficient=c))
    return out


def _reduce_to_admissible(exponents: tuple[int, ...], coeff: int, p: int, acc: dict):
    for j in range(len(exponents) - 1):
        if exponents[j] < p * exponents[j + 1]:
            for term in adem_expand(exponents[j], exponents[j + 1], p):
                new = exponents[:j] + term.exponents + exponents[j + 2 :]
                _reduce_to_admissible(new, coeff * term.coefficient % p, p, acc)
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


class Relation42Result(namedtuple("Relation42Result", "k coeff_second epsilon normalized")):
    __slots__ = ()


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


class Relation43Result(
    namedtuple("Relation43Result", "l eps1 eps2 eps3 coeff_trailing normalized")
):
    __slots__ = ()


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
    """Sparse polynomial over GF(p) in named unknowns.

    Terms map monomials (sorted tuples of unknown names, with repetition)
    to nonzero residues; the empty tuple is the constant term.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[tuple[str, ...], int] | None = None):
        self.p = p
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c %= p
                if c:
                    self.terms[mono] = c

    @classmethod
    def const(cls, p: int, c: int) -> "Expr":
        return cls(p, {(): c})

    @classmethod
    def unknown(cls, p: int, name: str) -> "Expr":
        return cls(p, {(name,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def __add__(self, other: "Expr") -> "Expr":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) + c) % self.p
        return Expr(self.p, out)

    def __sub__(self, other: "Expr") -> "Expr":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) - c) % self.p
        return Expr(self.p, out)

    def __mul__(self, other) -> "Expr":
        if isinstance(other, int):
            return Expr(self.p, {m: c * other for m, c in self.terms.items()})
        out: dict[tuple[str, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = (out.get(mono, 0) + c1 * c2) % self.p
        return Expr(self.p, out)

    __rmul__ = __mul__

    def unknowns(self) -> set[str]:
        return {name for mono in self.terms for name in mono}

    def evaluate(self, assignment: dict[str, int]) -> int:
        total = 0
        for mono, c in self.terms.items():
            v = c
            for name in mono:
                v = v * assignment[name] % self.p
            total = (total + v) % self.p
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            head = "*".join(mono) if mono else "1"
            bits.append(f"{c}*{head}" if mono else f"{c}")
        return " + ".join(bits)


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


class SymbolicElement:
    """Formal sum of truncated-algebra monomials with Expr coefficients.

    Monomials are sorted tuples of generator half-degrees; products of
    length above p vanish.  All monomials of one element share a degree.
    """

    __slots__ = ("deriv", "coeffs")

    def __init__(self, deriv: "Derivation", coeffs: dict[tuple[int, ...], Expr] | None = None):
        self.deriv = deriv
        self.coeffs = {}
        if coeffs:
            for mono, e in coeffs.items():
                if not e.is_zero():
                    self.coeffs[mono] = e

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SymbolicElement") -> "SymbolicElement":
        out = dict(self.coeffs)
        for mono, e in other.coeffs.items():
            out[mono] = out[mono] + e if mono in out else e
        return SymbolicElement(self.deriv, out)

    def scale(self, c) -> "SymbolicElement":
        if isinstance(c, int):
            c = Expr.const(self.deriv.p, c)
        return SymbolicElement(self.deriv, {m: e * c for m, e in self.coeffs.items()})

    def __mul__(self, other: "SymbolicElement") -> "SymbolicElement":
        p = self.deriv.p
        out: dict[tuple[int, ...], Expr] = {}
        for m1, e1 in self.coeffs.items():
            for m2, e2 in other.coeffs.items():
                mono = tuple(sorted(m1 + m2))
                if len(mono) > p:
                    continue  # height truncation
                prod = e1 * e2
                out[mono] = out[mono] + prod if mono in out else prod
        return SymbolicElement(self.deriv, out)

    def coefficient(self, mono: tuple[int, ...]) -> Expr:
        return self.coeffs.get(tuple(sorted(mono)), Expr(self.deriv.p))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for mono, e in sorted(self.coeffs.items()):
            name = "*".join(f"x{g}" for g in mono)
            bits.append(f"({e!r})*{name}")
        return " + ".join(bits)


def _compositions(total: int, parts: int):
    # ordered tuples of non-negative ints summing to total
    if parts == 1:
        yield (total,)
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
        self.facts: dict[tuple[int, int], SymbolicElement] = {}
        self._memo: dict[tuple[int, int], SymbolicElement] = {}
        self.constraints: list[Expr] = []
        self.nonzero: list[str] = []
        self.trace: list[str] = []

    # -- element constructors ------------------------------------------
    def zero(self) -> SymbolicElement:
        return SymbolicElement(self)

    def generator(self, g: int) -> SymbolicElement:
        if g not in self.space.halves:
            raise ValueError(f"{g} is not a generator half-degree of {self.space}")
        return SymbolicElement(self, {(g,): Expr.const(self.p, 1)})

    def fresh_nonzero(self, name: str) -> Expr:
        self.nonzero.append(name)
        return Expr.unknown(self.p, name)

    def install_fact(self, g: int, i: int, element: SymbolicElement, note: str = ""):
        if (g, i) in self._memo:
            raise RuntimeError(f"P^{i}(x{g}) already expanded; install facts first")
        self.facts[(g, i)] = element
        if note:
            self.trace.append(note)

    # -- the unstable action -------------------------------------------
    def power_on_generator(self, i: int, g: int) -> SymbolicElement:
        if i == 0:
            return self.generator(g)
        if i > g:
            return self.zero()
        if i == g:
            return SymbolicElement(self, {(g,) * self.p: Expr.const(self.p, 1)})
        if (g, i) in self.facts:
            return self.facts[(g, i)]
        if (g, i) not in self._memo:
            target = g + i * (self.p - 1)
            basis = basis_monomials(self.space, target)
            coeffs = {
                mono: Expr.unknown(self.p, f"u[{g};{i};{k}]")
                for k, mono in enumerate(basis)
            }
            self._memo[(g, i)] = SymbolicElement(self, coeffs)
        return self._memo[(g, i)]

    def apply_power(self, i: int, element: SymbolicElement) -> SymbolicElement:
        """Apply ``P^i`` by the Cartan formula over each monomial."""
        if i == 0:
            return element
        result = self.zero()
        for mono, coeff in element.coeffs.items():
            for comp in _compositions(i, len(mono)):
                piece = None
                dead = False
                for a, g in zip(comp, mono):
                    factor = self.power_on_generator(a, g)
                    if factor.is_zero():
                        dead = True
                        break
                    piece = factor if piece is None else piece * factor
                if dead or piece is None:
                    continue
                result = result + piece.scale(coeff)
        return result

    def apply_word(self, exponents: tuple[int, ...], element: SymbolicElement) -> SymbolicElement:
        """Apply ``P^{i_1} ... P^{i_s}`` (rightmost operator acts first)."""
        for e in reversed(exponents):
            element = self.apply_power(e, element)
        return element

    # -- constraints -----------------------------------------------------
    def equate(self, lhs: SymbolicElement, rhs: SymbolicElement, note: str = ""):
        monos = set(lhs.coeffs) | set(rhs.coeffs)
        for mono in sorted(monos):
            diff = lhs.coefficient(mono) - rhs.coefficient(mono)
            if not diff.is_zero():
                self.constraints.append(diff)
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
