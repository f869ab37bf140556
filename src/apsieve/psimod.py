"""Truncated-polynomial degree modules and the divisibility sieve.

A candidate space type is a sorted tuple of half-degrees ``m_1 <= ... <= m_r``
(the odd cohomology generators live in degrees ``2*m_i - 1``).  The sieve
works with the filtration degrees of the monomials of the associated
truncated polynomial algebra of height ``p + 1``, restricted to a degree
window ``[D_lo, D_hi]``.

For each distinct class degree ``t_i`` of such a windowed module the sieve
computes

    v_i = sum over the other classes of pair_min_val(t_i, t_j)

which is the exact valuation of the gcd, over all integer base choices, of
the products ``prod_j (k_j**t_i - k_j**t_j)``.  The divisibility condition
at class ``t_i`` is ``v_i < t_i``; when it holds at every class and the
window contains a witness generator (``m_j`` with ``m_j`` and ``p * m_j``
both inside the window, so that its p-th power survives), the type cannot
carry the multiplicative structure under investigation and is certified
eliminated.  Every ``nu`` value these sums need is a lookup into one
per-prime table (:func:`apsieve.padic.nu_table`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import gcd

from .finiteness import monomial_count
from .padic import PrimeContext, Valuation, nu_table

__all__ = [
    "SpaceType",
    "PsiModule",
    "ClassCondition",
    "ConditionReport",
    "PsiCertificate",
    "GcdTestResult",
    "enumerate_classes",
    "condition_report",
    "eliminate_by_psi",
    "gcd_oracle",
    "main_lemma_val",
    "theorem_1_1_test",
    "low_degree_gcd",
    "monomial_degree_multiplicities",
    "check_monomial_budget",
    "MONOMIAL_BUDGET",
]

MONOMIAL_BUDGET = 100_000
"""Most monomials ``comb(rank + p, p) - 1`` in an algebra that
:func:`monomial_degree_multiplicities` or :func:`enumerate_classes` accepts;
larger inputs are refused before any work.  The full enumeration visits
every monomial, so its cost grows as ``comb(rank + p, p)``: the largest
modules the pipeline meets (p = 5, rank 3) have 55 monomials, and p = 31 at
rank 20 would have about 7.7e13."""


@dataclass(frozen=True)
class SpaceType:
    """A candidate type: context plus sorted half-degrees ``m_1 <= ... <= m_r``."""

    ctx: PrimeContext
    halves: tuple[int, ...]

    def __post_init__(self):
        halves = tuple(int(m) for m in self.halves)
        object.__setattr__(self, "halves", halves)
        if not halves:
            raise ValueError("a type needs at least one half-degree")
        if any(m < 2 for m in halves):
            raise ValueError("half-degrees must be >= 2 (simply connected, rank-1 circle excluded)")
        if any(a > b for a, b in zip(halves, halves[1:])):
            raise ValueError("half-degrees must be sorted ascending")

    @property
    def rank(self) -> int:
        return len(self.halves)

    @property
    def p(self) -> int:
        return self.ctx.p

    def cohomology_degrees(self) -> tuple[int, ...]:
        return tuple(2 * m - 1 for m in self.halves)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.halves) + ")"


def check_monomial_budget(space: SpaceType) -> None:
    """Raise ``ValueError`` when the truncated algebra on the generators of
    ``space`` has more than :data:`MONOMIAL_BUDGET` monomials."""
    count = monomial_count(space.p, space.rank)
    if count > MONOMIAL_BUDGET:
        raise ValueError(
            f"{count} monomials at p = {space.p}, rank {space.rank} exceed the "
            f"enumeration budget of {MONOMIAL_BUDGET}"
        )


def _monomial_degrees(space: SpaceType, d_lo: int, d_hi: int) -> tuple[tuple[int, int], ...]:
    """The monomial degrees in ``[d_lo, d_hi]`` of the height-(p+1) truncated
    algebra on the generators of ``space``, with the number of monomials
    realising each.  Since the generators are sorted, a sum of ``length`` of
    them adds at least ``(length - 1) * m_1`` to its largest one, so only the
    generators ``<= d_hi - (length - 1) * m_1`` are combined."""
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


@lru_cache(maxsize=1024)
def monomial_degree_multiplicities(space: SpaceType) -> tuple[tuple[int, int], ...]:
    """All monomial degrees of the height-(p+1) truncated algebra on the
    generators of ``space``: distinct sums of 1..p half-degrees, with the
    number of monomials realising each sum.

    Refuses, before enumerating, an algebra over the monomial budget (see
    :func:`check_monomial_budget`).  The case filters and the window search
    read one type's multiset many times, so the last 1,024 are cached."""
    check_monomial_budget(space)
    return _monomial_degrees(space, 1, space.p * space.halves[-1])


@dataclass(frozen=True)
class PsiModule:
    """Degree data of a windowed truncated-polynomial module.

    ``classes`` holds the distinct degrees inside the window with their
    monomial multiplicities; all condition arithmetic uses the distinct
    degrees only, since equal filtration degree means equal eigenvalue.
    ``witnesses`` lists the generator half-degrees whose p-th power also
    lies in the window.
    """

    space: SpaceType
    window: tuple[int, int]
    classes: tuple[tuple[int, int], ...]
    witnesses: tuple[int, ...]

    @property
    def height(self) -> int:
        return self.space.p

    def degrees(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.classes)


def enumerate_classes(space: SpaceType, window: tuple[int, int]) -> PsiModule:
    """Build the windowed module for ``space`` over ``window = (D_lo, D_hi)``.

    Only the monomials of degree ``<= D_hi`` are generated, so the cost
    follows the window rather than the whole algebra, and the cache of
    :func:`monomial_degree_multiplicities` is neither read nor filled.  An
    algebra over the monomial budget is refused all the same."""
    d_lo, d_hi = window
    if d_lo > d_hi:
        raise ValueError("window must satisfy D_lo <= D_hi")
    check_monomial_budget(space)
    p = space.p
    classes = _monomial_degrees(space, d_lo, d_hi)
    witnesses = tuple(
        sorted({m for m in space.halves if d_lo <= m and p * m <= d_hi})
    )
    return PsiModule(space=space, window=(d_lo, d_hi), classes=classes, witnesses=witnesses)


@dataclass(frozen=True)
class ClassCondition:
    """Per-class sieve data: exact valuation sum, the coarser all-nu bound,
    and whether the divisibility condition ``v < degree`` holds."""

    degree: int
    valuation_sum: int
    nu_bound: int
    passes: bool


@dataclass(frozen=True)
class ConditionReport:
    module: PsiModule
    per_class: tuple[ClassCondition, ...]
    holds_everywhere: bool
    witness_used: int | None

    def as_dict(self) -> dict:
        return {
            "window": list(self.module.window),
            "witness": self.witness_used,
            "holds_everywhere": self.holds_everywhere,
            "classes": [
                {
                    "degree": c.degree,
                    "valuation_sum": c.valuation_sum,
                    "nu_bound": c.nu_bound,
                    "passes": c.passes,
                }
                for c in self.per_class
            ],
        }


def condition_report(module: PsiModule) -> ConditionReport:
    """Evaluate the divisibility condition on every class of ``module``.

    Both per-class sums are read from the per-prime table of
    :func:`~apsieve.padic.nu_table`: for a class ``t_i`` and another class
    ``t_j``, ``nu_bound`` adds ``nu(|t_i - t_j|)`` and ``valuation_sum`` adds
    ``pair_min(t_i, t_j) = min(nu(|t_i - t_j|), min(t_i, t_j))``.  Since
    ``nu(d)`` is 0 unless ``(p - 1) | d``, only classes in the residue class
    of ``t_i`` mod ``p - 1`` add anything, so each class sums over its own
    residue group alone.  The report is computed from the module alone, so
    it re-checks a window the search scored from its own prefix table.
    """
    degrees = module.degrees()
    if len(degrees) < 2:
        raise ValueError("condition_report needs at least 2 classes")
    if len(set(degrees)) != len(degrees):
        raise ValueError("class degrees must be pre-merged (duplicates found)")
    ordered = sorted(degrees)
    nu = nu_table(module.space.ctx, ordered[-1] - ordered[0])
    q = module.space.p - 1
    groups: dict[int, list[int]] = {}
    for t in ordered:
        groups.setdefault(t % q, []).append(t)
    conditions = []
    all_pass = True
    for t_i in degrees:
        group = groups[t_i % q]
        k = bisect_left(group, t_i)
        # below t_i the smaller degree is t_j, above it t_i
        below = [nu[t_i - t_j] for t_j in group[:k]]
        above = [nu[t_j - t_i] for t_j in group[k + 1:]]
        b = sum(below) + sum(above)
        v = (sum([n if n < t_j else t_j for n, t_j in zip(below, group)])
             + sum([n if n < t_i else t_i for n in above]))
        ok = v < t_i
        all_pass = all_pass and ok
        conditions.append(ClassCondition(degree=t_i, valuation_sum=v, nu_bound=b, passes=ok))
    witness = module.witnesses[0] if module.witnesses else None
    return ConditionReport(
        module=module,
        per_class=tuple(conditions),
        holds_everywhere=all_pass,
        witness_used=witness,
    )


@dataclass(frozen=True)
class PsiCertificate:
    """A certified elimination: the window, its full report, the witness,
    and how many windows the search scored to find it."""

    window: tuple[int, int]
    report: ConditionReport
    witness: int
    windows_tried: int

    def replay(self) -> bool:
        """Re-derive the certificate from the window alone."""
        module = enumerate_classes(self.report.module.space, self.window)
        rep = condition_report(module)
        return rep.holds_everywhere and self.witness in module.witnesses

    def as_dict(self) -> dict:
        return {
            "window": list(self.window),
            "witness": self.witness,
            "windows_tried": self.windows_tried,
            "report": self.report.as_dict(),
        }


def _pair_min_prefix_sums(ctx: PrimeContext, degrees: list[int]) -> list[list[int]]:
    """Row prefix sums ``S[i][j] = sum_{k < j, k != i} pair_min(t_i, t_k)``
    for sorted distinct ``degrees``, read from the nu table: for ``k < i``,
    ``pair_min(t_k, t_i) = min(nu[t_i - t_k], t_k)``.  A pair whose degrees
    differ mod ``p - 1`` has ``nu = 0``, so row ``i`` gets a value only at
    the positions of its own residue group and is 0 elsewhere."""
    nu = nu_table(ctx, degrees[-1] - degrees[0])
    n = len(degrees)
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, t in enumerate(degrees):
        groups.setdefault(t % (ctx.p - 1), []).append((k, t))
    prefix: list = [None] * n
    for group in groups.values():
        for pos, (i, t_i) in enumerate(group):
            row = [0] * (n + 1)
            # the smaller degree of a pair caps its minimum
            for k, t in group[:pos]:
                row[k + 1] = v if (v := nu[t_i - t]) < t else t
            for k, t in group[pos + 1:]:
                row[k + 1] = v if (v := nu[t - t_i]) < t_i else t_i
            prefix[i] = list(accumulate(row))
    return prefix


def eliminate_by_psi(space: SpaceType, policy: str = "standard") -> PsiCertificate | None:
    """Search the window family for a certifying window.

    Windows are pairs ``[D_lo, D_hi]`` with ``D_lo`` ranging over the class
    degrees of the full module (ascending) and ``D_hi`` over ``{p * m_j}``
    for the generators (larger cuts first); only windows containing a
    witness are evaluated.  Policy ``exhaustive`` additionally lets
    ``D_hi`` range over every class degree.

    The bottom window ``[m_1, p * m_1]`` is admitted only for types failing
    the gcd divisibility test: for those types the window's condition is
    forced by the run-product estimate, which is robust against degree
    classes the model cannot see.  For gcd-passing types that single
    window may under-approximate the true class set of a realising space,
    so a certificate from it is not trusted.

    Every window is a contiguous run ``t_a .. t_{b-1}`` of the full
    module's sorted class degrees, so the search scores windows from one
    table of row prefix sums ``S[i][j] = sum_{k < j, k != i}
    pair_min(t_i, t_k)``, built once per call: class ``i`` of window
    ``[a, b)`` has valuation sum ``S[i][b] - S[i][a]``.  The rows are
    lookups into the per-prime table of :func:`~apsieve.padic.nu_table`,
    with no function call per pair, and since ``nu(d) = 0`` unless
    ``(p - 1) | d`` each row is filled only within its class's residue
    group mod ``p - 1``; the window scan itself is unchanged.  A window with at least two classes
    that passes these filters counts towards ``windows_tried``.  Only the
    first window whose every class passes is rebuilt with
    :func:`enumerate_classes` and :func:`condition_report`, which produce
    the certificate's report from the module alone, without this table; if
    that report does not hold everywhere the scoring is wrong and
    ``RuntimeError`` is raised, so an unverified window is never returned.

    Returns the first certifying window, or ``None`` (inconclusive; never
    a proof of survival).
    """
    if policy not in ("standard", "exhaustive"):
        raise ValueError(f"unknown window policy {policy!r}")
    degrees = [t for t, _ in monomial_degree_multiplicities(space)]
    p = space.p
    tops = {p * m for m in space.halves}
    if policy == "exhaustive":
        tops.update(degrees)
    tops = sorted(tops, reverse=True)
    bottom_window = (degrees[0], p * space.halves[0])
    bottom_gated = theorem_1_1_test(space).passed
    prefix = _pair_min_prefix_sums(space.ctx, degrees)
    tried = 0
    for a, d_lo in enumerate(degrees):
        for d_hi in tops:
            if d_hi < d_lo:
                continue
            if not any(m >= d_lo and p * m <= d_hi for m in space.halves):
                continue
            if bottom_gated and (d_lo, d_hi) == bottom_window:
                continue
            b = bisect_right(degrees, d_hi)
            if b - a < 2:
                continue
            tried += 1
            if all(prefix[i][b] - prefix[i][a] < degrees[i] for i in range(a, b)):
                report = condition_report(enumerate_classes(space, (d_lo, d_hi)))
                if not report.holds_everywhere:
                    raise RuntimeError(
                        f"internal error: window scoring certified {(d_lo, d_hi)} for "
                        f"{space} but its condition report does not hold everywhere"
                    )
                return PsiCertificate(
                    window=(d_lo, d_hi), report=report,
                    witness=report.module.witnesses[0], windows_tried=tried,
                )
    return None


def gcd_oracle(module: PsiModule, class_index: int, k_max: int) -> Valuation:
    """Big-integer oracle for the exact valuation sum of a class.

    Computes the valuation of the gcd over all per-factor base choices
    ``k_j`` in ``2..k_max`` of ``prod_{j != i} (k_j**t_i - k_j**t_j)`` by
    independent per-factor minimisation.  Refuses a ``k_max`` too small to
    contain both ``p`` and ``k0`` (the result would only be an upper bound).
    """
    ctx = module.space.ctx
    if k_max < max(ctx.p, ctx.k0):
        raise ValueError("k_max must be at least max(p, k0) for an exact answer")
    degrees = module.degrees()
    if len(set(degrees)) != len(degrees):
        raise ValueError("duplicate class degrees; merge before calling the oracle")
    t_i = degrees[class_index]
    p = ctx.p
    total = 0
    for j, t_j in enumerate(degrees):
        if j == class_index:
            continue
        best = None
        for k in range(2, k_max + 1):
            n = k**t_i - k**t_j
            f = 0
            while n % p == 0:
                n //= p
                f += 1
            if best is None or f < best:
                best = f
            if best == 0:
                break
        total += best
    return Valuation(total)


def main_lemma_val(ctx: PrimeContext, m: int, t: int, i: int) -> int:
    """Exact valuation, for the primitive root base, of the run product

        prod over j in [t, t*p], j != i, of (k0**(m*i) - k0**(m*j)),

    namely the sum of ``nu(m * |i - j|)`` over the run, read from the
    per-prime table of :func:`~apsieve.padic.nu_table`.  When ``m`` does
    not divide ``p - 1`` this value is strictly below ``m * t``.
    """
    if m < 1 or t < 1:
        raise ValueError("m and t must be positive")
    top = t * ctx.p
    if not (t <= i <= top):
        raise ValueError("i must lie in [t, t*p]")
    nu = nu_table(ctx, m * (top - t))
    return sum(nu[m * abs(i - j)] for j in range(t, top + 1) if j != i)


@dataclass(frozen=True)
class GcdTestResult:
    """Outcome of the low-degree gcd divisibility test."""

    passed: bool
    m: int

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def low_degree_gcd(p: int, halves: tuple[int, ...]) -> int:
    """gcd of the half-degrees ``<= p * m_1`` of the sorted ``halves``: the
    number the gcd test asks to divide ``p - 1``.  Takes the raw tuple, so a
    caller can test a type before building its :class:`SpaceType`."""
    bound = p * halves[0]
    g = 0
    for m in halves:
        if m > bound:
            break
        g = gcd(g, m)
    return g


def theorem_1_1_test(space: SpaceType) -> GcdTestResult:
    """gcd test: ``m = gcd of the half-degrees <= p * m_1`` must divide ``p - 1``.

    Failure eliminates the type; the forced window is ``[m_1, p * m_1]``.
    """
    g = low_degree_gcd(space.p, space.halves)
    return GcdTestResult(passed=(space.p - 1) % g == 0, m=g)
