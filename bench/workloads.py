"""The four workloads and the inputs they send to apsieve.

Workloads pass only ``--p``, ``--cap`` and ``--window-policy`` to the
command line, never ``--workers`` or ``--timing``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd


@dataclass(frozen=True)
class Workload:
    name: str
    # True: every op is a fresh interpreter; False: ops share one process.
    fresh_process: bool
    # Types decided by one op.
    types_per_op: int
    # Commands of one op, for workloads whose op never changes.
    commands: tuple[tuple[str, ...], ...] = ()


THM12 = ("reproduce", "thm1.2", "--cap")
WORKLOADS = {
    w.name: w
    for w in (
        # every strictly increasing triple below the cap is decided
        Workload("thm12-cap60", True, 32_509, (THM12 + ("60",),)),
        Workload("thm12-cap115", True, 240_464, (THM12 + ("115",),)),
        Workload("check-types", False, types_per_op=1),
        Workload(
            # the gcd-failing types of rank <= 3 up to 40 that thm1.1-demo certifies
            "verify-targets", True, 3_584,
            (
                ("reproduce", "thm1.1-demo"),
                ("reproduce", "lemma3.4"),
                ("reproduce", "adem"),
                ("reproduce", "bound"),
            ),
        ),
    )
}


# -- the benchmark's own filter predicate --------------------------------------
# A copy of the gcd test and the difference filters W1/W2 as the README states
# them, so that a change to the program's filters cannot change the inputs.


def _val(p: int, n: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def passes_filters(p: int, halves: tuple[int, ...]) -> bool:
    """gcd test, W1 and W2 for a sorted type at the odd prime ``p``."""
    low = 0
    for m in halves:
        if m <= p * halves[0]:
            low = gcd(low, m)
    if (p - 1) % low:
        return False
    top = halves[-1]
    if top > p and not any(top - s * (p - 1) in halves for s in range(1, _val(p, top) + 2)):
        return False
    degrees = set(halves)
    return all(
        m % p == 0 or any(k * m - p + 1 in degrees for k in range(1, p + 1))
        for m in halves
    )


# -- the check-types stream -------------------------------------------------------
# (p, rank, top) of the two halves of the stream.
STRATA = ((3, 4, 60), (5, 3, 80))
POLICIES = ("standard", "exhaustive")
# The p = 3 rank-4 universe has 1,572 types and the p = 5 rank-3 one 197; every
# 16th of the former and every 2nd of the latter give two pools of 99 types,
# so that a cycle of the stream takes a few seconds.
STRIDES = {3: 16, 5: 2}


def type_pools() -> dict[int, list[tuple[int, ...]]]:
    """The fixed pool of filter-passing types for each stratum."""
    pools = {}
    for p, rank, top in STRATA:
        universe = [c for c in combinations(range(2, top + 1), rank) if passes_filters(p, c)]
        pools[p] = universe[::STRIDES[p]]
    return pools


def check_types_cycle(pools: dict[int, list[tuple[int, ...]]], seed: int, cycle: int) -> list[tuple[int, tuple[int, ...], str]]:
    """One cycle of the stream: every pooled type once under each policy.

    Op ``i`` uses policy ``i % 2`` and stratum ``(i // 2) % 2``; the order of
    the types within each (stratum, policy) pair is a seeded shuffle. A run
    measures whole cycles, so runs with different seeds do the same work in
    different orders, and a type's first occurrence warms the program's
    caches for its later ones.
    """
    rng = random.Random(seed * 1_000_003 + cycle)
    decks = {}
    for p, _rank, _top in STRATA:
        for policy in POLICIES:
            deck = list(pools[p])
            rng.shuffle(deck)
            decks[(p, policy)] = deck
    size = len(next(iter(decks.values())))
    if any(len(d) != size for d in decks.values()):
        raise ValueError("the check-types pools must have equal sizes")
    ops = []
    for i in range(4 * size):
        p = STRATA[(i // 2) % 2][0]
        policy = POLICIES[i % 2]
        ops.append((p, decks[(p, policy)][i // 4], policy))
    return ops


def check_type_command(p: int, halves: tuple[int, ...], policy: str) -> tuple[str, ...]:
    return ("check-type", "--p", str(p), "--window-policy", policy, ",".join(map(str, halves)))
