"""A realization oracle: no type that a known space realizes is eliminated.

These checks compare the filters with mathematics this repository did not
write.  A simply connected compact Lie group is a loop space, so it is A_p
at every prime p.  When its integral cohomology has no p-torsion, its mod p
cohomology is exterior on classes of degree ``2d - 1``, where the d are the
degrees of its Weyl group, so its half-degrees are those Weyl degrees (Borel;
Humphreys, *Reflection Groups and Coxeter Groups*, Table 3.1).  Products of
A_p spaces are A_p.  In rank 1 the answer is exact: ``S^{2n-1}`` localized
at p is A_p if and only if ``n`` divides ``p - 1`` (Stasheff, *Homotopy
associativity of H-spaces* I/II, 1963).

A realized type that some stage eliminates is a finding about that stage,
not a reason to change the table below.
"""

from itertools import combinations_with_replacement

import pytest

from apsieve import PrimeContext, SpaceType, VerdictKind, check_type, classify_theorem_1_2

POLICIES = ("standard", "exhaustive")

# group -> (Weyl degrees, primes at which its integral cohomology has torsion)
WEYL_DEGREES = {
    "SU(2)": ((2,), ()),
    "SU(3)": ((2, 3), ()),
    "SU(4)": ((2, 3, 4), ()),
    "SU(5)": ((2, 3, 4, 5), ()),
    "SU(6)": ((2, 3, 4, 5, 6), ()),
    "Sp(2)": ((2, 4), ()),
    "Sp(3)": ((2, 4, 6), ()),
    "Sp(4)": ((2, 4, 6, 8), ()),
    "Spin(7)": ((2, 4, 6), (2,)),
    "Spin(8)": ((2, 4, 6, 4), (2,)),
    "G2": ((2, 6), (2,)),
    "F4": ((2, 6, 8, 12), (2, 3)),
    "E6": ((2, 5, 6, 8, 9, 12), (2, 3)),
}


def realized_types(p: int, max_rank: int = 6, max_factors: int = 3) -> dict[tuple[int, ...], str]:
    """Each type realized at ``p`` by a product of up to ``max_factors``
    groups of the table with no p-torsion and total rank at most
    ``max_rank``, with one product that realizes it."""
    groups = [name for name, (_, torsion) in WEYL_DEGREES.items() if p not in torsion]
    out: dict[tuple[int, ...], str] = {}
    for k in range(1, max_factors + 1):
        for product in combinations_with_replacement(groups, k):
            halves = tuple(sorted(d for name in product for d in WEYL_DEGREES[name][0]))
            if len(halves) <= max_rank:
                out.setdefault(halves, " x ".join(product))
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_no_realized_type_is_eliminated(p):
    ctx = PrimeContext(p)
    eliminated = []
    for halves, realizer in realized_types(p).items():
        for policy in POLICIES:
            verdict = check_type(SpaceType(ctx, halves), window_policy=policy)
            if verdict.kind is VerdictKind.ELIMINATED:
                eliminated.append((realizer, halves, policy, verdict.reason))
    assert eliminated == []


def test_torsion_primes_leave_the_table_at_p3_only():
    at3, at5 = realized_types(3), realized_types(5)
    assert (len(at3), len(at5)) == (59, 66)
    assert at5[(2, 6, 8, 12)] == "F4" and at5[(2, 5, 6, 8, 9, 12)] == "E6"
    assert (2, 6, 8, 12) not in at3 and (2, 5, 6, 8, 9, 12) not in at3
    assert realized_types(7) == realized_types(11) == at5


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rank_one_matches_stasheffs_criterion(p):
    ctx = PrimeContext(p)
    mismatches = [
        (n, policy)
        for n in range(2, 60)
        for policy in POLICIES
        if (check_type(SpaceType(ctx, (n,)), window_policy=policy).kind is VerdictKind.ELIMINATED)
        != ((p - 1) % n != 0)
    ]
    assert mismatches == []


def test_realized_rank_three_types_at_p3_are_kept():
    ctx = PrimeContext(3)
    result = classify_theorem_1_2(ctx, cap=60)
    assert (2, 3, 4) in result.quasi_regular  # SU(4)
    assert (2, 4, 6) in result.survivors  # Sp(3), Spin(7)
    # SU(2) x G2 repeats a degree, so it is outside the partition
    assert check_type(SpaceType(ctx, (2, 2, 6))).kind is VerdictKind.SURVIVES
