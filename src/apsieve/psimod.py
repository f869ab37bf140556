"""Truncated-polynomial degree modules and the divisibility sieve.

A candidate space type is a sorted tuple of half-degrees ``m_1 <= ... <= m_r``
(the odd cohomology generators live in degrees ``2*m_i - 1``).  The sieve
works with the filtration degrees of the monomials of the associated
truncated polynomial algebra of height ``p + 1``, restricted to a degree
window ``[D_lo, D_hi]``.  It reads only the module's distinct degrees (equal
degree means equal eigenvalue), so a module is its sorted degree tuple, found
by a dynamic programme over the generators graded by word length rather than
read off the monomials one by one; how many monomials share a degree is
never counted.  The programme's own work, not the algebra's monomial count,
decides which inputs are refused (:func:`check_dp_work`).

For each distinct class degree ``t_i`` of such a windowed module the sieve
computes

    v_i = sum over the other classes of min(nu(|t_i - t_j|), min(t_i, t_j))

which is the exact valuation of the gcd, over all integer base choices, of
the products ``prod_j (k_j**t_i - k_j**t_j)``.  The divisibility condition
at class ``t_i`` is ``v_i < t_i``; when it holds at every class and the
window contains a witness generator (``m_j`` with ``m_j`` and ``p * m_j``
both inside the window, so that its p-th power survives), the type cannot
carry the multiplicative structure under investigation and is certified
eliminated.

The window search (:func:`eliminate_by_psi`) scores its windows with one
forward sweep over the runs of the full module's classes, reading ``nu``
from one per-prime table (:func:`apsieve.padic.nu_table`).  The report that
certifies a window (:func:`condition_report`) re-checks it by another
route, the list kernel :func:`class_sums`: it counts, per level ``(p - 1) *
p**f``, the classes in each residue class, and corrects the few pairs whose
smaller degree caps ``nu``.  thm1.1-demo decides from that kernel alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd
from operator import add

from .padic import PrimeContext, Record, Valuation, nu_table

__all__ = [
    "SpaceType",
    "PsiModule",
    "ClassCondition",
    "ConditionReport",
    "PsiCertificate",
    "GcdTestResult",
    "enumerate_classes",
    "class_sums",
    "condition_report",
    "eliminate_by_psi",
    "gcd_oracle",
    "main_lemma_prefix",
    "main_lemma_sums",
    "theorem_1_1_test",
    "low_degree_gcd",
    "monomial_degree_multiplicities",
    "check_dp_work",
    "DP_WORK_LIMIT",
    "DEGREE_LIMIT",
]

DP_WORK_LIMIT = 10_000_000
"""Most inner-loop steps, by the bound of :func:`check_dp_work`, that
counting a module's monomial degrees may take; a larger input is refused
before any row is built.  It admits every algebra of at most 100,000
monomials ``C(r + p, p) - 1``: such an algebra has ``r <= 82`` (at p = 3,
``C(85, 3) - 1 = 98,769``), and ``K <= p``, so its bound is at most
``82 * 100,000``."""

DEGREE_LIMIT = 100_000
"""Most distinct degrees a counted module may hold; the rows, the degree
tuple and the window sweep all grow with them.  A rank-1 algebra costs only
``K`` steps but holds ``K`` degrees, so the step bound alone would admit
one with ten million."""


class SpaceType(Record):
    """A candidate type: context plus sorted half-degrees ``m_1 <= ... <= m_r``.

    Immutable after construction.  Equal contexts and half-degrees give
    equal, equally hashed types, so two separately built copies share one
    entry of the :func:`monomial_degree_multiplicities` cache.  Building a
    type does no work on its algebra: a type too costly to count is refused
    by :func:`check_dp_work` when its degrees are first asked for.
    """

    __slots__ = ()
    _fields = ("ctx", "halves")

    def __new__(cls, ctx: PrimeContext, halves: tuple[int, ...]):
        halves = tuple(int(m) for m in halves)
        if not halves:
            raise ValueError("a type needs at least one half-degree")
        if any(m < 2 for m in halves):
            raise ValueError("half-degrees must be >= 2 (simply connected, rank-1 circle excluded)")
        if any(a > b for a, b in zip(halves, halves[1:])):
            raise ValueError("half-degrees must be sorted ascending")
        return tuple.__new__(cls, (ctx, halves))

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


def check_dp_work(space: SpaceType, d_hi: int | None = None) -> int:
    """An upper bound on the inner-loop steps of counting the monomial
    degrees ``<= d_hi`` of ``space`` (default ``p * m_r``, the whole
    algebra), checked in closed form before any row is built: raise
    ``ValueError`` when it exceeds :data:`DP_WORK_LIMIT`, else return it.

    Only the ``r`` generators ``<= d_hi`` take part, and no word longer than
    ``K = min(p, d_hi // m_1)`` fits.  Each generator reads the rows of
    lengths ``0 .. K - 1`` at most once, and the row of length ``l`` holds
    at most ``C(r + l - 1, l)`` degrees (its monomials) and at most
    ``l * spread + 1`` (its degrees lie in ``[l * m_1, l * (m_1 + spread)]``,
    where the spread is the largest of those generators minus ``m_1``).
    Summed over the lengths, the steps are at most
    ``r * min(C(r + K, K) - 1, spread * K * (K + 1) // 2 + K)``.  The
    distinct degrees, at most ``min(C(r + K, K) - 1, d_hi - m_1 + 1)``, must
    also stay within :data:`DEGREE_LIMIT`."""
    halves = space.halves
    p = space.ctx.p
    if d_hi is None:
        d_hi = p * halves[-1]
    r = bisect_right(halves, d_hi)
    if not r:
        return 0
    longest = min(p, d_hi // halves[0])
    spread = halves[r - 1] - halves[0]
    monomials = comb(r + longest, longest) - 1
    work = r * min(monomials, spread * longest * (longest + 1) // 2 + longest)
    if work > DP_WORK_LIMIT:
        raise ValueError(
            f"counting the degrees of {space} up to {d_hi} at p = {p} takes up to "
            f"{work} steps, over the limit of {DP_WORK_LIMIT}"
        )
    degrees = min(monomials, d_hi - halves[0] + 1)
    if degrees > DEGREE_LIMIT:
        raise ValueError(
            f"counting the degrees of {space} up to {d_hi} at p = {p} finds up to "
            f"{degrees} degrees, over the limit of {DEGREE_LIMIT}"
        )
    return work


def _monomial_degrees(space: SpaceType, d_lo: int, d_hi: int) -> tuple[int, ...]:
    """The sorted monomial degrees in ``[d_lo, d_hi]``, once :func:`check_dp_work`
    admits them.  ``rows[l]`` holds the degrees of the words of length ``l``; each
    generator ``g``, ascending, adds ``d + g`` for each ``d`` in ``rows[l - 1]``,
    so a word may repeat ``g``; a length that gains nothing ends it, as no longer word fits."""
    check_dp_work(space, d_hi)
    halves = space.halves
    rows = [{0}] + [set() for _ in range(min(space.ctx.p, d_hi // halves[0]))]
    for g in halves[:bisect_right(halves, d_hi)]:
        room = d_hi - g
        for l in range(1, len(rows)):
            if not (new := {d + g for d in rows[l - 1] if d <= room}):
                break
            rows[l] |= new
    degrees = sorted(set().union(*rows[1:]))
    return tuple(degrees[bisect_left(degrees, d_lo):])


@lru_cache(maxsize=1024)
def monomial_degree_multiplicities(space: SpaceType) -> tuple[int, ...]:
    """The sorted monomial degrees of the height-(p+1) truncated algebra on
    the generators of ``space``: the distinct sums of 1..p half-degrees.  No
    count per degree, despite the name: ``bench/tracer.py`` wraps this by
    name and reads its ``cache_info()`` (ROADMAP item 7).  The case filters
    and the window search read one type's degrees many times, so the last
    1,024 are cached.  Refused as :func:`check_dp_work` says."""
    return _monomial_degrees(space, 1, space.p * space.halves[-1])


class PsiModule(Record):
    """Degree data of a windowed truncated-polynomial module.

    ``degrees`` holds the distinct monomial degrees inside the window,
    ascending; the module carries no multiplicities, since equal filtration
    degree means equal eigenvalue and the condition arithmetic reads each
    degree once.  ``witnesses`` lists the generator half-degrees whose p-th
    power also lies in the window.
    """

    __slots__ = ()
    _fields = ("space", "window", "degrees", "witnesses")

    def __new__(cls, space, window, degrees, witnesses):
        return tuple.__new__(cls, (space, window, degrees, witnesses))


def enumerate_classes(space: SpaceType, window: tuple[int, int]) -> PsiModule:
    """Build the windowed module for ``space`` over ``window = (D_lo, D_hi)``.

    Only the degrees ``<= D_hi`` are found, so the cost follows the window
    rather than the whole algebra, and the cache of
    :func:`monomial_degree_multiplicities` is neither read nor filled.  A
    window whose count would take more than :data:`DP_WORK_LIMIT` steps is
    refused (see :func:`check_dp_work`)."""
    d_lo, d_hi = window
    if d_lo > d_hi:
        raise ValueError("window must satisfy D_lo <= D_hi")
    p = space.p
    witnesses = tuple(sorted({m for m in space.halves if d_lo <= m and p * m <= d_hi}))
    return PsiModule(space=space, window=(d_lo, d_hi),
                     degrees=_monomial_degrees(space, d_lo, d_hi), witnesses=witnesses)


class ClassCondition(Record):
    """Per-class sieve data: exact valuation sum, the coarser all-nu bound,
    and whether the divisibility condition ``v < degree`` holds."""

    __slots__ = ()
    _fields = ("degree", "valuation_sum", "nu_bound", "passes")

    def __new__(cls, degree, valuation_sum, nu_bound, passes):
        return tuple.__new__(cls, (degree, valuation_sum, nu_bound, passes))


class ConditionReport(Record):
    """A module's per-class conditions, whether they all hold, and the
    witness (``None`` without one)."""

    __slots__ = ()
    _fields = ("module", "per_class", "holds_everywhere", "witness_used")

    def __new__(cls, module, per_class, holds_everywhere, witness_used):
        return tuple.__new__(cls, (module, per_class, holds_everywhere, witness_used))

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


def class_sums(ctx: PrimeContext, degrees) -> tuple[list[int], list[int]]:
    """The sums of each class of the sorted distinct ``degrees`` (at least
    one), as two lists in their order: ``valuation_sums[i]`` adds
    ``pair_min(t_i, t_j) = min(nu(|t_i - t_j|), min(t_i, t_j))`` over the
    other classes, and ``nu_bounds[i]`` adds ``nu(|t_i - t_j|)``.

    They are counted by level, not by pair.  ``nu(d)`` is the number of
    moduli ``(p - 1) * p**f`` dividing ``d``, so ``nu_bounds[i]`` sums, over
    the ``L`` levels whose modulus is at most the span of the degrees, the
    classes congruent to ``t_i`` mod that modulus, less one.  As ``nu <= L``,
    the two sums differ only on pairs whose smaller degree is below ``L``, a
    prefix of the degrees; those pairs are corrected one by one."""
    span = degrees[-1] - degrees[0]
    nu_bounds = [0] * len(degrees)
    modulus, levels = ctx.p - 1, 0
    while modulus <= span:
        # each count starts at -1, so a class does not count itself
        counts: dict[int, int] = {}
        for t in degrees:
            r = t % modulus
            counts[r] = counts.get(r, -1) + 1
        for i, t in enumerate(degrees):
            nu_bounds[i] += counts[t % modulus]
        modulus *= ctx.p
        levels += 1
    valuation_sums = nu_bounds[:]
    if degrees[0] < levels:
        nu = nu_table(ctx, span)
        for i, s in enumerate(degrees):
            if s >= levels:
                break
            # s is the smaller degree of each pair it forms with a later class
            for j in range(i + 1, len(degrees)):
                if (excess := nu[degrees[j] - s] - s) > 0:
                    valuation_sums[i] -= excess
                    valuation_sums[j] -= excess
    return valuation_sums, nu_bounds


def condition_report(module: PsiModule) -> ConditionReport:
    """Evaluate the divisibility condition on every class of ``module``, by
    the :func:`class_sums` of its sorted degrees; the records keep the
    module's order, whatever it is.  The report reads nothing but the
    module's degrees, so it re-checks a window by a route independent of the
    search's run sweep.
    """
    degrees = module.degrees
    if len(degrees) < 2:
        raise ValueError("condition_report needs at least 2 classes")
    if len(set(degrees)) != len(degrees):
        raise ValueError("class degrees must be pre-merged (duplicates found)")
    ordered = sorted(degrees)
    by_degree = {t: ClassCondition(degree=t, valuation_sum=v, nu_bound=b, passes=v < t)
                 for t, v, b in zip(ordered, *class_sums(module.space.ctx, ordered))}
    conditions = tuple(by_degree[t] for t in degrees)
    return ConditionReport(module=module, per_class=conditions,
                           holds_everywhere=all(c.passes for c in conditions),
                           witness_used=module.witnesses[0] if module.witnesses else None)


class PsiCertificate(Record):
    """A certified elimination: the window, its full report, the witness,
    and how many windows the search scored to find it."""

    __slots__ = ()
    _fields = ("window", "report", "witness", "windows_tried")

    def __new__(cls, window, report, witness, windows_tried):
        return tuple.__new__(cls, (window, report, witness, windows_tried))

    def replay(self) -> bool:
        """Re-derive the report from the window alone: it must equal the
        recorded one, hold everywhere and hold the witness."""
        rep = condition_report(enumerate_classes(self.report.module.space, self.window))
        return rep == self.report and rep.holds_everywhere and self.witness in rep.module.witnesses

    def as_dict(self) -> dict:
        return {
            "window": list(self.window),
            "witness": self.witness,
            "windows_tried": self.windows_tried,
            "report": self.report.as_dict(),
        }


def _run_reaches(ctx: PrimeContext, degrees: list[int]):
    """For each low end ``a`` of the sorted distinct ``degrees`` in turn,
    yield ``reach(a)``, the largest ``b`` such that every class of the run
    ``t_a .. t_{b-1}`` has its valuation sum over the run below its degree.

    Every ``pair_min`` is >= 0, so a sub-run of a passing run passes, and
    ``reach`` never decreases: the sweep moves both ends forward only,
    keeping each class's headroom (degree minus valuation sum over the
    run).  ``nu(d) = 0`` unless ``(p - 1) | d``, so each residue group mod
    ``p - 1`` keeps its part of the run as a slice ``[lo, hi)`` of its
    degrees, and the sweep costs O(n * g) pair updates for groups of size
    g.  It adds ``nu`` uncapped: a pair whose ``nu`` reaches its smaller
    degree ``u`` alone gives ``u`` a sum of ``u``, so that run fails with
    the cap or without it."""
    q = ctx.p - 1
    nu = nu_table(ctx, degrees[-1] - degrees[0])
    members: dict[int, list[int]] = {}
    for t in degrees:
        members.setdefault(t % q, []).append(t)
    # residue -> [degrees, headroom, lo, hi]; headroom is read only in [lo, hi)
    groups = {r: [ts, [0] * len(ts), 0, 0] for r, ts in members.items()}
    n = len(degrees)
    b = 0
    for t_a in degrees:
        while b < n:
            t = degrees[b]
            group = groups[t % q]
            ts, room, lo, hi = group
            cost = [nu[t - u] for u in ts[lo:hi]]
            left = [h - c for h, c in zip(room[lo:hi], cost)]
            total = sum(cost)
            if total >= t or (left and min(left) <= 0):
                break
            room[lo:hi] = left
            room[hi] = t - total
            group[3] = hi + 1
            b += 1
        yield b
        ts, room, lo, hi = group = groups[t_a % q]
        for j in range(lo + 1, hi):
            room[j] += nu[ts[j] - t_a]
        group[2] = lo + 1


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
    module's sorted class degrees, and its classes all pass exactly when
    ``b <= reach(a)``, which one forward sweep over the runs supplies for
    each ``D_lo`` in turn (see :func:`_run_reaches`).  So each window, in
    the order above, costs one bisect for ``b`` and one comparison, and
    the witness test is one bisect over the half-degrees per ``D_lo``.  A
    window with at least two classes that passes these filters counts
    towards ``windows_tried``.  Only the first window whose every class
    passes is rebuilt with :func:`enumerate_classes` and
    :func:`condition_report`, which produce the certificate's report from
    the module alone, by level counts rather than the sweep's run sums; if
    that report does not hold everywhere the scoring is wrong and
    ``RuntimeError`` is raised, so an unverified window is never returned.

    Returns the first certifying window, or ``None`` (inconclusive; never
    a proof of survival).
    """
    if policy not in ("standard", "exhaustive"):
        raise ValueError(f"unknown window policy {policy!r}")
    degrees = monomial_degree_multiplicities(space)
    p = space.p
    halves = space.halves
    tops = {p * m for m in halves}
    if policy == "exhaustive":
        tops.update(degrees)
    tops = sorted(tops, reverse=True)
    bottom_window = (degrees[0], p * halves[0])
    bottom_gated = theorem_1_1_test(space).passed
    tried = 0
    for a, (d_lo, reach) in enumerate(zip(degrees, _run_reaches(space.ctx, degrees))):
        w = bisect_left(halves, d_lo)
        if w == len(halves):
            break  # no generator at or above D_lo, here or further up
        # the smallest witness candidate has the smallest p-th power
        lowest_top = p * halves[w]
        for d_hi in tops:
            if d_hi < lowest_top:
                break
            if bottom_gated and (d_lo, d_hi) == bottom_window:
                continue
            b = bisect_right(degrees, d_hi)
            if b - a < 2:
                break
            tried += 1
            if b <= reach:
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
    degrees = module.degrees
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


def main_lemma_prefix(ctx: PrimeContext, m: int, span: int) -> list[int]:
    """``P(d)``, the sum of ``nu(m * e)`` over ``1 <= e <= d``, for ``d = 0
    .. span``: the prefix :func:`main_lemma_sums` reads for ``m``, which
    serves every run ``[t, t*p]`` with ``t * (p - 1) <= span``."""
    nu = nu_table(ctx, m * span)
    return list(accumulate(map(nu.__getitem__, range(m, m * span + 1, m)), initial=0))


def main_lemma_sums(ctx: PrimeContext, m: int, t: int, prefix: list[int] | None = None) -> list[int]:
    """Lemma 3.4's sums over the run ``[t, t*p]``: entry ``i - t`` is the
    sum of ``nu(m * |i - j|)`` over the ``j != i`` of the run, the exact
    valuation, for the primitive root base, of the run product

        prod over j in [t, t*p], j != i, of (k0**(m*i) - k0**(m*j)).

    When ``m`` does not divide ``p - 1`` every entry is strictly below
    ``m * t``.

    The ``j`` below ``i`` give the differences ``1 .. i - t`` and those above
    give ``1 .. t*p - i``, so with one prefix sum ``P(d)`` of
    ``nu(m * e)`` over ``e <= d`` the entry is ``P(i - t) + P(t*p - i)``.
    ``prefix`` is :func:`main_lemma_prefix` of ``m`` for this run or a
    longer one, so that the runs of one ``m`` share it; without it, this
    run's is built.
    """
    if m < 1 or t < 1:
        raise ValueError("m and t must be positive")
    span = t * (ctx.p - 1)
    if prefix is None:
        prefix = main_lemma_prefix(ctx, m, span)
    # entry d is P(d) + P(span - d)
    return list(map(add, prefix[:span + 1], prefix[span::-1]))


class GcdTestResult(Record):
    """Outcome of the low-degree gcd divisibility test."""

    __slots__ = ()
    _fields = ("passed", "m")

    def __new__(cls, passed, m):
        return tuple.__new__(cls, (passed, m))

    def __bool__(self) -> bool:
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
