"""The rank-3, p=3 constraint pipeline.

Stages, in verdict precedence order:

1. gcd test (low half-degrees must have gcd dividing p - 1),
2. the two generic filters on half-degree differences (rule W1: the top
   degree is reached from below in steps of p - 1; rule W2: every degree
   prime to p has a companion ``k*m - p + 1``),
3. the rank-3 case split (cases 1-4) with its per-case arithmetic
   (inequality rules L1-L4 plus forced-operation degree checks),
4. scripted reduced-power eliminations E1-E8,
5. the windowed divisibility sieve,
6. the quasi-regularity tag (top minus bottom below ``2*(p-1)``) on the
   types the sieve keeps.

``check_type`` runs these stages for one type, and the partition runs it
on every candidate.  The candidate enumeration reproduces four case lists
totalling 27 types and the final partition: six surviving types, four
quasi-regular, eight eliminated by the scripted power arguments, and nine
claimed by the sieve.  One of those nine, (2,3,9), the standard window
family does not certify: its verdict is ``survives``, and the diff against
the expected lists reports it under the dedicated ``psi_uncertified`` key
rather than silently accepting the claim.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from .finiteness import _ilog
from .padic import PrimeContext, Record, val
from .psimod import (
    SpaceType,
    condition_report,
    eliminate_by_psi,
    enumerate_classes,
    gcd_oracle,
    theorem_1_1_test,
)
from .steenrod import (
    Derivation,
    basis_monomials,
    degree_realizable,
    normalize,
    PowerWord,
)

__all__ = [
    "VerdictKind",
    "Verdict",
    "CaseTag",
    "FilterResult",
    "wilkerson_filter_1",
    "wilkerson_filter_2",
    "case_split",
    "Lemma43Result",
    "lemma_4_3",
    "HemmiResult",
    "hemmi_forced",
    "TopOperationResult",
    "top_operation_lemma",
    "EndgameEncodingError",
    "EndgameElimination",
    "endgame_rules",
    "quasi_regular",
    "proposition_lists",
    "ClassificationResult",
    "classify_theorem_1_2",
    "check_type",
    "PROP_CASE1",
    "PROP_CASE2",
    "PROP_CASE3",
    "PROP_CASE4",
    "SURVIVORS",
    "QUASI_REGULAR_TYPES",
    "STEENROD_TARGETS",
    "PSI_CLAIMED",
    "fixture_up_to",
    "DEFAULT_CAP",
]

# the largest half-degree the rank-3 enumeration scans unless told otherwise
DEFAULT_CAP = 60

# Expected rank-3 candidate lists and final partition (embedded fixtures
# for the reproduction commands; all half-degree triples).
PROP_CASE1 = (
    (2, 3, 9), (2, 12, 18), (2, 21, 27), (2, 30, 36), (2, 39, 45),
    (7, 12, 18), (10, 12, 18), (16, 30, 36), (19, 30, 36),
)
PROP_CASE2 = ((2, 4, 6), (3, 4, 6), (3, 5, 9), (6, 8, 12))
PROP_CASE3 = (
    (2, 3, 5), (2, 6, 8), (3, 5, 7), (3, 6, 8), (4, 6, 8), (5, 6, 8),
    (6, 8, 10), (8, 12, 14), (12, 18, 20), (18, 24, 26), (21, 27, 29),
    (30, 36, 38),
)
PROP_CASE4 = ((2, 3, 4), (2, 3, 6))
SURVIVORS = ((2, 4, 6), (2, 6, 8), (3, 5, 7), (3, 6, 8), (6, 8, 10), (6, 8, 12))
QUASI_REGULAR_TYPES = ((2, 3, 4), (2, 3, 5), (3, 4, 6), (5, 6, 8))
PSI_CLAIMED = (
    (2, 3, 9), (2, 21, 27), (2, 30, 36), (2, 39, 45), (16, 30, 36),
    (18, 24, 26), (19, 30, 36), (21, 27, 29), (30, 36, 38),
)


def fixture_up_to(fixture, cap: int) -> list[tuple[int, ...]]:
    """The entries of an expected list whose top is at most ``cap``, sorted;
    the fixtures hold the candidates up to their largest top, 45."""
    return sorted(halves for halves in fixture if halves[-1] <= cap)


class VerdictKind(str, Enum):
    SURVIVES = "survives"
    QUASI_REGULAR = "quasi-regular"
    ELIMINATED = "eliminated"


class Verdict(Record):
    """Per-type outcome with a machine-checkable certificate reference."""

    __slots__ = ()
    _fields = ("space", "kind", "reason", "certificate", "trace", "corroborating")

    def __new__(cls, space, kind, reason=None, certificate=None, trace=(), corroborating=()):
        return tuple.__new__(cls, (space, kind, reason, certificate, trace, corroborating))

    def as_dict(self) -> dict:
        return {
            "type": list(self.space.halves),
            "cohomology_degrees": list(self.space.cohomology_degrees()),
            "verdict": self.kind.value,
            "reason": self.reason,
            "certificate": self.certificate,
            "trace": list(self.trace),
            "corroborating": list(self.corroborating),
        }


class FilterResult(Record):
    """Outcome of rule W1 or W2; ``rule`` is 1 for W1, 2 for W2."""

    __slots__ = ()
    _fields = ("passed", "detail", "rule")

    def __new__(cls, passed, detail, rule):
        return tuple.__new__(cls, (passed, detail, rule))

    def __bool__(self) -> bool:
        return self.passed


def wilkerson_filter_1(space: SpaceType) -> FilterResult:
    """W1: some lower degree reaches the top in ``s * (p - 1)`` steps,
    ``1 <= s <= val(m_r) + 1``.  Vacuous when ``m_r <= p``."""
    p = space.p
    m_r = space.halves[-1]
    if m_r <= p:
        return FilterResult(True, f"vacuous: top degree {m_r} <= p", 1)
    bound = val(space.ctx, m_r) + 1
    for s in range(1, bound + 1):
        target = m_r - s * (p - 1)
        if target in space.halves:  # target < m_r, so this is a lower degree
            return FilterResult(True, f"m_r - {target} = {s}*(p-1)", 1)
    return FilterResult(False, f"no degree in {{m_r - s*(p-1), s <= {bound}}}", 1)


def wilkerson_filter_2(space: SpaceType) -> FilterResult:
    """W2: every degree prime to p has a companion ``k*m_i - p + 1``
    among the degrees, for some ``1 <= k <= p``."""
    p = space.p
    degrees = set(space.halves)
    for m_i in space.halves:
        if m_i % p == 0:
            continue
        companions = {k * m_i - p + 1 for k in range(1, p + 1)}
        if not companions & degrees:
            return FilterResult(
                False, f"degree {m_i}: none of {sorted(companions)} present", 2
            )
    return FilterResult(True, "all prime-to-p degrees have companions", 2)


class CaseTag(Record):
    """Which of the four rank-3 cases a triple (r, n, m) falls into,
    with the step witness s (cases 1-3) or t (case 4)."""

    __slots__ = ()
    _fields = ("case", "s", "t")

    def __new__(cls, case, s=None, t=None):
        return tuple.__new__(cls, (case, s, t))


def case_split(space: SpaceType) -> CaseTag | None:
    """Assign a strictly increasing rank-3 triple at p=3 to its case.

    Case 1: 3|m, 3|n, m - n = 2s;  Case 2: 3|m, 3 not| n, m - n = 2s;
    Case 3: 3 not| m, m - n = 2s;  Case 4: m - r = 2t and no valid s.
    All step witnesses range over ``1 <= . <= val(m) + 1``.

    Every triple that passes W1 gets a case, so ``None`` only ever comes back
    for a triple that W1 eliminates:

    - half-degrees are at least 2, so a strictly increasing triple has
      ``m >= 4 > p`` and W1 is not vacuous;
    - at p = 3 with m > 3, W1 says that r or n equals ``m - 2s`` for some
      ``1 <= s <= val(m) + 1``;
    - if it is n, that s is a valid step witness and the triple falls in
      case 1, 2 or 3;
    - if it is r and not n, that s is a valid t and the triple falls in
      case 4.
    """
    if space.p != 3:
        raise ValueError("the case split is specific to p = 3")
    if space.rank != 3 or len(set(space.halves)) != 3:
        raise ValueError("the case split needs a strictly increasing rank-3 type")
    r, n, m = space.halves
    bound = val(space.ctx, m) + 1
    diff_n = m - n
    s = diff_n // 2 if diff_n % 2 == 0 else None
    if s is not None and 1 <= s <= bound:
        if m % 3 == 0 and n % 3 == 0:
            return CaseTag(case=1, s=s)
        if m % 3 == 0:
            return CaseTag(case=2, s=s)
        return CaseTag(case=3, s=s)
    diff_r = m - r
    t = diff_r // 2 if diff_r % 2 == 0 else None
    if t is not None and 1 <= t <= bound:
        return CaseTag(case=4, t=t)
    return None


class Lemma43Result(Record):
    __slots__ = ()
    _fields = ("applicable", "inequality_holds", "detail")

    def __new__(cls, applicable, inequality_holds, detail):
        return tuple.__new__(cls, (applicable, inequality_holds, detail))


def lemma_4_3(subcase: int, r: int, n: int, m: int, ctx: PrimeContext | None = None) -> Lemma43Result:
    """Inequality rules L1-L4 for case 1 triples at p=3.

    L1: r=2, m>n>6, e(m) >= e(n)+2  =>  8 e(n) + 23 >= n
    L2: r=2, m>n>6, e(m) = e(n)+1   =>  8 max(e(3n-m), e(3n-2m)) + 15 >= n
    L3: m <= 3r, e(m) >= e(n)+2     =>  7 e(n) + log3(m-r) + 24 >= m
                                        or 8 log3(m-r) + 24 >= 3r
    L4: m <= 3r, e(m) = e(n)+1      =>  7 max(e(3n-m), e(3n-2m)) + log3(m-r) + 17 >= m
                                        or 8 log3(m-r) + 24 >= 3r

    A zero argument to e() uses the infinite sentinel, so the inequality
    is trivially satisfied on that branch.
    """
    ctx = ctx or PrimeContext(3)
    if ctx.p != 3:
        raise ValueError("these inequalities are specific to p = 3")
    if subcase not in (1, 2, 3, 4):
        raise ValueError("subcase must be 1..4")
    en = val(ctx, n)
    em = val(ctx, m)

    if subcase in (1, 2):
        applicable = r == 2 and m > n > 6
    else:
        applicable = m <= 3 * r
    if subcase in (1, 3):
        applicable = applicable and em >= en + 2
    else:
        applicable = applicable and em == en + 1
    if not applicable:
        return Lemma43Result(False, False, "hypotheses not met")

    log_mr = _ilog(3, m - r)

    if subcase == 1:
        holds = 8 * en + 23 >= n
        detail = f"8*{en} + 23 >= {n}: {holds}"
    elif subcase == 2:
        emax = max(val(ctx, 3 * n - m), val(ctx, 3 * n - 2 * m))
        if emax.is_infinite:
            holds = True
            detail = "3n-2m = 0 branch: trivially satisfied"
        else:
            holds = 8 * emax + 15 >= n
            detail = f"8*{emax} + 15 >= {n}: {holds}"
    elif subcase == 3:
        first = 7 * en + log_mr + 24 >= m
        second = 8 * log_mr + 24 >= 3 * r
        holds = first or second
        detail = f"7*{en}+{log_mr}+24 >= {m}: {first}; 8*{log_mr}+24 >= {3*r}: {second}"
    else:
        emax = max(val(ctx, 3 * n - m), val(ctx, 3 * n - 2 * m))
        if emax.is_infinite:
            first = True
        else:
            first = 7 * emax + log_mr + 17 >= m
        second = 8 * log_mr + 24 >= 3 * r
        holds = first or second
        detail = f"7*max(e)+{log_mr}+17 >= {m}: {first}; 8*{log_mr}+24 >= {3*r}: {second}"
    return Lemma43Result(True, holds, detail)


class HemmiResult(Record):
    """Forced reduced-power epimorphism between indecomposables.

    When applicable (and both endpoint degrees are generator degrees with
    one-dimensional indecomposables) the fact ``P^{3^a}(x_source) =
    c * x_target`` with ``c != 0`` is forced.
    """

    __slots__ = ()
    _fields = ("applicable", "source_half", "target_half", "forced", "detail")

    def __new__(cls, applicable, source_half, target_half, forced, detail):
        return tuple.__new__(cls, (applicable, source_half, target_half, forced, detail))


def hemmi_forced(space: SpaceType, a: int, n: int) -> HemmiResult:
    """Forced-operation predicate at p=3 for parameters (a, n).

    Applicability requires ``3 not| n``, ``n > 3`` and that no generator
    half-degree equals ``3^a * 2t`` for any ``t >= n - 1``.
    """
    if space.p != 3:
        raise ValueError("the forced-operation predicate is specific to p = 3")
    src = 3**a * (n - 2)
    tgt = 3**a * n
    if n % 3 == 0 or n <= 3:
        return HemmiResult(False, src, tgt, False, "parameter n must be > 3 and prime to 3")
    unit = 2 * 3**a
    for g in space.halves:
        if g % unit == 0 and g // unit >= n - 1:
            return HemmiResult(
                False, src, tgt, False,
                f"generator {g} = {unit}*{g // unit} blocks the hypothesis",
            )
    forced = (
        space.halves.count(src) == 1 and space.halves.count(tgt) == 1
    )
    detail = (
        f"P^{3**a}: half-degree {src} -> {tgt} epimorphic on indecomposables"
        if forced
        else "applicable, but endpoints are not both one-dimensional generator degrees"
    )
    return HemmiResult(True, src, tgt, forced, detail)


class TopOperationResult(Record):
    """Existence of a single reduced power hitting the top generator.

    ``candidates`` lists the pairs (source half-degree, exponent i) with
    ``i * (p - 1) = m_r - m_k`` and ``2i`` below the source's odd degree;
    no candidate at all eliminates the type outright.
    """

    __slots__ = ()
    _fields = ("candidates", "forced", "eliminated")

    def __new__(cls, candidates, forced, eliminated):
        return tuple.__new__(cls, (candidates, forced, eliminated))


def top_operation_lemma(space: SpaceType) -> TopOperationResult:
    p = space.p
    m_r = space.halves[-1]
    if m_r <= p:
        raise ValueError("the top-operation fact needs m_r > p")
    candidates = []
    for m_k in space.halves[:-1]:
        diff = m_r - m_k
        if diff % (p - 1) != 0:
            continue
        i = diff // (p - 1)
        # on the odd-degree generator x_{2m_k - 1}, P^i vanishes unless 2i < 2m_k
        if 1 <= i < m_k:
            candidates.append((m_k, i))
    candidates = tuple(candidates)
    forced = candidates[0] if len(candidates) == 1 else None
    return TopOperationResult(
        candidates=candidates, forced=forced, eliminated=not candidates
    )


def quasi_regular(space: SpaceType) -> bool:
    """True when ``m_r - m_1 < 2*(p-1)``: decomposable up to p-equivalence,
    hence excluded from the indecomposable list."""
    return space.halves[-1] - space.halves[0] < 2 * (space.p - 1)


# ---------------------------------------------------------------------------
# scripted reduced-power eliminations (rules E1-E8)
# ---------------------------------------------------------------------------


class EndgameEncodingError(RuntimeError):
    """A rule's verified premise failed; the encoding, not the argument."""


class EndgameElimination(Record):
    __slots__ = ()
    _fields = ("rule_id", "space", "trace", "constraint_count")

    def __new__(cls, rule_id, space, trace, constraint_count):
        return tuple.__new__(cls, (rule_id, space, trace, constraint_count))

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "trace": list(self.trace),
            "constraints": self.constraint_count,
        }


def _require(cond: bool, msg: str):
    if not cond:
        raise EndgameEncodingError(msg)


def _identity(deriv: Derivation, word: tuple[int, ...], g: int,
              expected: dict[tuple[int, ...], int], note: str):
    """Equate ``P^word (x_g)`` with the sum of ``c * P^e (x_g)`` over
    ``expected``, once ``x_g`` is a generator of the type and ``word`` is
    checked to normalise to exactly that."""
    _require(g in deriv.space.halves, f"{deriv.space} has no generator x{g}")
    got = {w.exponents: w.coefficient for w in normalize(PowerWord(word, 1), 3)}
    _require(got == expected, f"P^{word} normalises to {got}, not {expected}")
    x = deriv.generator(g)
    rhs = deriv.zero()
    for e, c in expected.items():
        rhs = rhs + deriv.apply_word(e, x) * c
    deriv.equate(deriv.apply_word(word, x), rhs, note)


def _install_hemmi(deriv: Derivation, space: SpaceType, a: int, n: int, name: str):
    h = hemmi_forced(space, a, n)
    _require(h.forced, f"forced operation (a={a}, n={n}) not available")
    c = deriv.fresh_nonzero(name)
    fact = deriv.generator(h.target_half) * c
    deriv.install_fact(
        h.source_half, 3**a, fact,
        f"forced: P^{3**a}(x{h.source_half}) = {name}*x{h.target_half}, {name} != 0",
    )
    return c


def _finish(deriv: Derivation, rule_id: str, space: SpaceType) -> EndgameElimination:
    model = deriv.satisfiable()
    _require(model is None, f"rule {rule_id}: constraint system is satisfiable")
    deriv.trace.append("constraint system has no solution over GF(3)")
    return EndgameElimination(
        rule_id=rule_id, space=space, trace=deriv.trace,
        constraint_count=len(deriv.constraints),
    )


def _rule_e1(space: SpaceType) -> EndgameElimination:
    # (4,6,8): P^4 = P^1 P^3 applied to x4 contains no x4^3 term, against
    # the top-power axiom P^4(x4) = x4^3.
    deriv = Derivation(space)
    _install_hemmi(deriv, space, 0, 8, "c")
    _identity(deriv, (1, 3), 4, {(4,): 1}, "P^1 P^3 (x4) = P^4(x4) = x4^3")
    return _finish(deriv, "E1", space)


def _rule_e2(space: SpaceType) -> EndgameElimination:
    # (3,5,9): P^2(x3) lives in the empty degree 7, yet the k=1 relation
    # forces P^1 P^3 P^2 (x3) = 2c * x5^3 with c != 0.
    deriv = Derivation(space)
    _install_hemmi(deriv, space, 0, 5, "c")
    _require(not basis_monomials(space, 7), "degree 7 should be empty for (3,5,9)")
    _identity(deriv, (1, 3, 2), 3, {(5, 1): 2}, "P^1 P^3 P^2 (x3) = 2 P^5 P^1 (x3)")
    return _finish(deriv, "E2", space)


def _rule_e3(space: SpaceType) -> EndgameElimination:
    # (8,12,14): the double-step identities force P^1(x14) != 0 into x8^2,
    # after which P^11(x12) dies by truncation while the k=4 relation
    # needs it alive.
    deriv = Derivation(space)
    _install_hemmi(deriv, space, 0, 14, "c")
    _identity(deriv, (1, 1, 6), 8, {(8,): 2}, "P^1 P^1 P^6 (x8) = 2 P^8(x8) = 2 x8^3")
    # the k=4 relation with P^11 = 2 P^1 P^1 P^9 substituted, checked as one word
    _identity(deriv, (1, 3, 1, 1, 9), 12, {(14, 1): 1},
              "P^1 P^3 P^11 (x12) = 2 P^14 P^1 (x12), with P^11 = 2 P^1 P^1 P^9")
    return _finish(deriv, "E3", space)


def _rule_e4(space: SpaceType) -> EndgameElimination:
    # (10,12,18): P^1 P^9 (x10) = x10^3 pins P^1(x10) = 0 and
    # P^1(x18) != 0; the P^3 P^7 identity then has no x10^3 on the left.
    deriv = Derivation(space)
    _identity(deriv, (1, 9), 10, {(10,): 1}, "P^1 P^9 (x10) = P^10(x10) = x10^3")
    _identity(deriv, (3, 7), 10, {(10,): 2, (9, 1): 1},
              "P^3 P^7 (x10) = -P^10(x10) + P^9 P^1 (x10)")
    return _finish(deriv, "E4", space)


def _rule_e5(space: SpaceType) -> EndgameElimination:
    # (12,18,20): the k=6 relation forces P^3(x12) != 0 into x18, then the
    # P^3 P^9 identity applied to x12 contradicts the truncated product.
    deriv = Derivation(space)
    _install_hemmi(deriv, space, 0, 20, "c")
    _identity(deriv, (1, 3, 17), 18, {(20, 1): 2}, "P^1 P^3 P^17 (x18) = 2 P^20 P^1 (x18)")
    _identity(deriv, (3, 9), 12, {(12,): 1, (11, 1): 1},
              "P^3 P^9 (x12) = P^12(x12) + P^11 P^1 (x12)")
    return _finish(deriv, "E5", space)


def _rule_e6_e7(space: SpaceType, rule_id: str) -> EndgameElimination:
    # (2,12,18) and (7,12,18): the top class is forced to be hit by
    # P^3(x12); the P^3 P^9 identity applied to x12 then contradicts the
    # truncated product exactly as in E5.
    deriv = Derivation(space)
    top = top_operation_lemma(space)
    _require(top.forced == (12, 3), f"expected the unique forced pair (12, 3), got {top}")
    w = deriv.fresh_nonzero("w")
    deriv.install_fact(12, 3, deriv.generator(18) * w, "forced: P^3(x12) = w*x18, w != 0")
    _identity(deriv, (3, 9), 12, {(12,): 1, (11, 1): 1},
              "P^3 P^9 (x12) = P^12(x12) + P^11 P^1 (x12)")
    return _finish(deriv, rule_id, space)


def _rule_e8(space: SpaceType) -> EndgameElimination:
    # (2,3,6): no admissible (source, exponent) pair can hit the top
    # generator with a single reduced power.
    top = top_operation_lemma(space)
    _require(top.eliminated, "expected no admissible single-power source for the top class")
    return EndgameElimination(
        rule_id="E8",
        space=space,
        trace=["no (m_k, i) with i*(p-1) = m_r - m_k and 2i < 2m_k exists"],
        constraint_count=0,
    )


_ENDGAME_DISPATCH = {
    (4, 6, 8): ("E1", _rule_e1),
    (3, 5, 9): ("E2", _rule_e2),
    (8, 12, 14): ("E3", _rule_e3),
    (10, 12, 18): ("E4", _rule_e4),
    (12, 18, 20): ("E5", _rule_e5),
    (2, 12, 18): ("E6", lambda s: _rule_e6_e7(s, "E6")),
    (7, 12, 18): ("E7", lambda s: _rule_e6_e7(s, "E7")),
    (2, 3, 6): ("E8", _rule_e8),
}

STEENROD_TARGETS = tuple(sorted(_ENDGAME_DISPATCH))


def endgame_rules(space: SpaceType) -> EndgameElimination | None:
    """Replay the scripted elimination for the eight target types.

    Returns None for non-targets; raises EndgameEncodingError if a rule's
    verified premises fail (which would falsify the encoding).
    """
    entry = _ENDGAME_DISPATCH.get(space.halves)
    if entry is None:
        return None
    _, fn = entry
    return fn(space)


# ---------------------------------------------------------------------------
# per-case candidate filters and the enumeration
# ---------------------------------------------------------------------------


def _case1_filter(space: SpaceType) -> tuple[bool, str]:
    """Case 1 (3 | m, 3 | n): L1/L2 if r = 2 and n > 6, else L3/L4 if m <= 3r.
    Unreachable: e(n) >= e(m), as 3^e(m) would divide s, so s > e(m) + 1;
    and m > 3r with r > 2: 3 not| r (gcd test), n = 2r - 2 (W2), 4 <= r < 2e(m) <= 4."""
    ctx = space.ctx
    r, n, m = space.halves
    en = val(ctx, n)
    em = val(ctx, m)
    if r == 2 and n > 6:
        sub = 1 if em >= en + 2 else 2
        res = lemma_4_3(sub, r, n, m, ctx)
        return res.inequality_holds, f"case1/L{sub}: {res.detail}"
    if m <= 3 * r:
        sub = 3 if em >= en + 2 else 4
        res = lemma_4_3(sub, r, n, m, ctx)
        return res.inequality_holds, f"case1/L{sub}: {res.detail}"
    return True, "case1: low-degree branch, case conditions only"


def _case2_filter(space: SpaceType) -> tuple[bool, str]:
    """Case 2 (3 | m, 3 not| n): if r = n - 2, m < 2n - 2 and n = 3k+2, the
    P^1(x_r) = c x_n needs degree 3n - 8; forced, as no generator reaches 2n - 2."""
    r, n, m = space.halves
    if r == n - 2 and m < 2 * n - 2 and n % 3 == 2:
        target = 3 * n - 8
        ok = degree_realizable(space, target)
        return ok, f"case2: P^((n-1))(x_r) != 0 needs degree {target} realizable: {ok}"
    return True, "case2: companion branch, case conditions only"


def _case3_filter(space: SpaceType) -> tuple[bool, str]:
    """Case 3 (3 not| m): degree 3r - 2 if m = 3k+1, else 3n - 2 and, in the
    family (r, r+6, r+8), r = 3l, degree 9l - 2 or m <= 44.  Forced, unchecked:
    P^1(x_n) = c x_m, as W2 puts m - 2 among the degrees and case 3 makes it n;
    if m = 3k+1, r = n - 2, as W2 on n = m - 2 leaves no other companion;
    and P^1(x_r) = c x_n, as with r = n - 2 no generator reaches 2n - 2;
    P^3(x_r) = c x_n if l != 1 mod 3: no generator reaches 2r + 6 > r + 8 = m."""
    r, n, m = space.halves
    if m % 3 == 1:
        target = 3 * r - 2
        ok = degree_realizable(space, target)
        return ok, f"case3: P^(r-1)(x_r) != 0 needs degree {target} realizable: {ok}"
    # m = 3k+2
    target = 3 * n - 2
    if not degree_realizable(space, target):
        return False, f"case3: P^(n-1)(x_n) != 0 needs degree {target} realizable"
    if n == r + 6 and m == r + 8 and r % 3 == 0:
        l = r // 3
        if l % 3 != 1:
            deep_target = 9 * l - 2
            ok = degree_realizable(space, deep_target)
            return ok, f"case3 family: P^(3l-1)(x_r) != 0 needs degree {deep_target}: {ok}"
        # removes (39,45,47) and (48,54,56) at cap 60, and the 8 types with
        # r = 39, 48, ..., 102 at cap 115; the standard sieve certifies each of
        # them on its top window [r, 3m] (ROADMAP item 5)
        ok = m <= 44
        return ok, f"case3 family (l = 1 mod 3): bound m <= 44: {ok}"
    return True, f"case3: degree {target} realizable"


def _case4_filter(space: SpaceType) -> tuple[bool, str]:
    """Case 4 (m - r = 2t): the case conditions alone; m > 3r is unreachable,
    as m = r + 2t, t <= e(m) + 1 then gives m < 3e(m) + 3, false once m >= 4."""
    return True, "case4: m <= 3r, companion rules only"


_CASE_FILTERS = {1: _case1_filter, 2: _case2_filter, 3: _case3_filter, 4: _case4_filter}


class _CaseResult(Record):
    __slots__ = ()
    _fields = ("case", "passed", "detail")

    def __new__(cls, case, passed, detail):
        return tuple.__new__(cls, (case, passed, detail))


def _arithmetic_stages(space: SpaceType) -> FilterResult | _CaseResult | None:
    """W1, W2, then the case split and its filter for a strictly increasing
    rank-3 type at p = 3: the stages between the gcd test and the scripted
    rules, shared by the enumeration and ``check_type``.  Returns W1's or
    W2's result as it is when it fails (the enumeration's common path), else
    the case filter's result, or ``None`` where no case split applies.
    Both callers run it only after the gcd test has passed, so a case filter
    runs only after the gcd test, W1 and W2 have passed, and its docstring
    says which of its branches those stages decide first."""
    w1 = wilkerson_filter_1(space)
    if not w1.passed:
        return w1
    w2 = wilkerson_filter_2(space)
    if not w2.passed:
        return w2
    if space.p != 3 or space.rank != 3 or len(set(space.halves)) != 3:
        return None
    tag = case_split(space)
    if tag is None:  # pragma: no cover - unreachable after W1, see case_split
        raise RuntimeError(f"internal error: {space} passes W1 but has no case")
    keep, detail = _CASE_FILTERS[tag.case](space)
    return _CaseResult(tag.case, keep, detail)


def proposition_lists(ctx: PrimeContext | None = None, cap: int = DEFAULT_CAP) -> dict[int, list[tuple[int, ...]]]:
    """Enumerate strictly increasing rank-3 triples up to ``cap`` and run
    the full filter chain, returning the per-case candidate lists."""
    ctx = ctx or PrimeContext(3)
    if ctx.p != 3:
        raise ValueError("the rank-3 enumeration is specific to p = 3")
    lists: dict[int, list[tuple[int, ...]]] = {1: [], 2: [], 3: [], 4: []}
    for r, n, m in combinations(range(2, cap + 1), 3):
        space = SpaceType(ctx, (r, n, m))
        if not theorem_1_1_test(space).passed:
            continue
        stage = _arithmetic_stages(space)
        if stage.passed:  # only a case filter's result can pass
            lists[stage.case].append(space.halves)
    for case in lists:
        lists[case].sort()
    return lists


# ---------------------------------------------------------------------------
# per-type staged verdict and the final partition
# ---------------------------------------------------------------------------


def _oracle_check(report, k_max: int) -> str:
    """Cross-check a report's valuation sums against the big-integer oracle."""
    for idx, cond in enumerate(report.per_class):
        if gcd_oracle(report.module, idx, k_max) != cond.valuation_sum:
            return f"oracle mismatch at class {cond.degree}"
    return f"oracle (k_max={k_max}) confirms every valuation sum"


def check_type(
    space: SpaceType,
    window_policy: str = "standard",
    oracle_k_max: int | None = None,
) -> Verdict:
    """Staged verdict for one type, first eliminating stage wins.

    Precedence: gcd test < W filters < case arithmetic < scripted power
    rules < windowed sieve; quasi-regularity tags types the sieve keeps.
    An ``oracle_k_max`` cross-checks certified windows against the
    big-integer gcd oracle.
    """
    trace: list[str] = []
    corroborating: list[str] = []

    gcd_res = theorem_1_1_test(space)
    if not gcd_res.passed:
        window = (space.halves[0], space.p * space.halves[0])
        report = condition_report(enumerate_classes(space, window))
        cert = {"m": gcd_res.m, "window": list(window), "report": report.as_dict()}
        if report.holds_everywhere:
            corroborating.append(f"PsiCondition(window={list(window)})")
        if oracle_k_max:
            trace.append(_oracle_check(report, oracle_k_max))
        trace.append(f"gcd of low half-degrees is {gcd_res.m}, not a divisor of p-1")
        return Verdict(
            space, VerdictKind.ELIMINATED, reason=f"GcdTest(m={gcd_res.m})",
            certificate=cert, trace=trace, corroborating=corroborating,
        )
    trace.append(f"gcd test passed (m = {gcd_res.m})")

    stage = _arithmetic_stages(space)
    if isinstance(stage, FilterResult):
        return Verdict(
            space, VerdictKind.ELIMINATED, reason=f"WilkersonFilter({stage.rule})",
            certificate={"detail": stage.detail}, trace=trace + [stage.detail],
        )
    trace.append("difference filters passed")

    if stage is not None:
        trace.append(f"case {stage.case} ({stage.detail})")
        if not stage.passed:
            return Verdict(
                space, VerdictKind.ELIMINATED,
                reason=f"PropositionArithmetic(case{stage.case})",
                certificate={"detail": stage.detail}, trace=trace,
            )
        elim = endgame_rules(space)
        if elim is not None:
            return Verdict(
                space, VerdictKind.ELIMINATED, reason=f"SteenrodRule({elim.rule_id})",
                certificate=elim.as_dict(), trace=trace + elim.trace,
            )

    psi = eliminate_by_psi(space, policy=window_policy)
    if psi is not None:
        trace.append(f"window {list(psi.window)} certifies the divisibility condition")
        if oracle_k_max:
            trace.append(_oracle_check(psi.report, oracle_k_max))
        return Verdict(
            space, VerdictKind.ELIMINATED, reason="PsiCondition",
            certificate=psi.as_dict(), trace=trace,
        )

    if quasi_regular(space):
        return Verdict(
            space, VerdictKind.QUASI_REGULAR,
            certificate={"detail": f"{space.halves[-1]} - {space.halves[0]} < {2*(space.p-1)}"},
            trace=trace + ["quasi-regular: excluded from the indecomposable list"],
        )
    return Verdict(space, VerdictKind.SURVIVES, trace=trace + ["no stage eliminates the type"])


class ClassificationResult(Record):
    """The partition: each type's verdict, the types of each bucket, and
    the diff against the expected lists."""

    __slots__ = ()
    _fields = ("verdicts", "survivors", "quasi_regular", "steenrod_eliminated",
               "psi_certified", "psi_uncertified", "discrepancies")

    def __new__(cls, verdicts, survivors, quasi_regular, steenrod_eliminated,
                psi_certified, psi_uncertified, discrepancies):
        return tuple.__new__(cls, (verdicts, survivors, quasi_regular, steenrod_eliminated,
                                   psi_certified, psi_uncertified, discrepancies))


def classify_theorem_1_2(ctx: PrimeContext | None = None, cap: int = DEFAULT_CAP) -> ClassificationResult:
    """Run ``check_type`` on every rank-3 candidate and partition them.

    Each type is bucketed by its verdict alone.  The embedded expected
    lists, cut to their entries whose top is at most ``cap``, enter only
    afterwards, as a diff: a type the sieve is claimed to
    eliminate but that survives ``check_type`` is listed under
    ``psi_uncertified`` with its honest ``survives`` verdict, rather than
    counted as a survivor or silently accepted as eliminated.
    """
    ctx = ctx or PrimeContext(3)
    lists = proposition_lists(ctx, cap=cap)

    verdicts: dict[tuple[int, ...], Verdict] = {}
    survivors: list[tuple[int, ...]] = []
    qr: list[tuple[int, ...]] = []
    steenrod: list[tuple[int, ...]] = []
    psi_cert: list[tuple[int, ...]] = []
    psi_unc: list[tuple[int, ...]] = []
    discrepancies: list[str] = []

    for halves in sorted(t for case in lists.values() for t in case):
        verdict = verdicts[halves] = check_type(SpaceType(ctx, halves))
        if verdict.kind is VerdictKind.QUASI_REGULAR:
            qr.append(halves)
        elif verdict.reason == "PsiCondition":
            psi_cert.append(halves)
        elif (verdict.reason or "").startswith("SteenrodRule("):
            steenrod.append(halves)
        elif verdict.kind is VerdictKind.SURVIVES:
            (psi_unc if halves in PSI_CLAIMED else survivors).append(halves)
        else:  # pragma: no cover - defensive
            discrepancies.append(
                f"type {halves}: unexpected verdict {verdict.kind.value} ({verdict.reason})"
            )

    for case, fixture in enumerate((PROP_CASE1, PROP_CASE2, PROP_CASE3, PROP_CASE4), 1):
        expected = fixture_up_to(fixture, cap)
        if lists[case] != expected:
            discrepancies.append(
                f"case {case} list mismatch: computed {lists[case]}, expected {expected}"
            )
    for label, computed, fixture in (
        ("survivor", survivors, SURVIVORS),
        ("quasi-regular", qr, QUASI_REGULAR_TYPES),
        ("sieve-claimed", sorted(psi_cert + psi_unc), PSI_CLAIMED),
    ):
        expected = fixture_up_to(fixture, cap)
        if computed != expected:
            discrepancies.append(
                f"{label} list mismatch: computed {computed}, expected {expected}"
            )

    return ClassificationResult(
        verdicts=verdicts,
        survivors=survivors,
        quasi_regular=qr,
        steenrod_eliminated=steenrod,
        psi_certified=psi_cert,
        psi_uncertified=psi_unc,
        discrepancies=discrepancies,
    )
