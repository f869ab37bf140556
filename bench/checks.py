"""Output checks, run after the timed section.

Every function returns a list of failure messages; an op fails when any
of its commands has one.
"""

from __future__ import annotations

import json
import random

THM12_COUNTS = {"survivors": 6, "quasi_regular": 4, "steenrod": 8, "psi_claimed": 9}
ORACLE_SAMPLE = 3


def command_failures(result: dict) -> tuple[list[str], dict | None]:
    """Exit code, exception and JSON shape common to every command."""
    failures = []
    if result["error"] is not None:
        failures.append(f"raised {result['error']}")
    if result["rc"] != 0:
        failures.append(f"exit code {result['rc']}")
    try:
        doc = json.loads(result["report"])
    except ValueError:
        return failures + ["report is not JSON"], None
    if doc.get("discrepancies") != []:
        failures.append(f"discrepancies {doc.get('discrepancies')}")
    return failures, doc


def thm12_failures(doc: dict) -> list[str]:
    failures = []
    counts = doc.get("summary", {}).get("counts")
    if counts != THM12_COUNTS:
        failures.append(f"partition counts {counts}, expected {THM12_COUNTS}")
    if doc.get("psi_uncertified") != [[2, 3, 9]]:
        failures.append(f"psi_uncertified {doc.get('psi_uncertified')}, expected [[2, 3, 9]]")
    return failures


def check_type_failures(doc: dict, p: int, halves: tuple[int, ...], policy: str) -> list[str]:
    failures = []
    types = doc.get("types", [])
    if len(types) != 1 or tuple(types[0]["type"]) != halves:
        failures.append(f"report does not describe {halves}")
    if doc.get("config", {}).get("p") != p or doc["config"].get("window_policy") != policy:
        failures.append(f"report config {doc.get('config')}")
    if types and types[0]["verdict"] not in ("survives", "quasi-regular", "eliminated"):
        failures.append(f"unknown verdict {types[0]['verdict']}")
    return failures


def certificate_failures(doc: dict, seed: int) -> list[str]:
    """Rebuild every PsiCondition certificate from its window.

    The window's module comes from the public ``enumerate_classes`` and
    its report from ``condition_report``; the rebuilt report must equal the
    one in the certificate, hold at every class and contain the witness. A
    seeded sample of the classes is checked against ``gcd_oracle``.
    """
    from apsieve import PrimeContext, SpaceType, condition_report, enumerate_classes, gcd_oracle

    p = doc["config"]["p"]
    ctx = PrimeContext(p)
    k_max = max(ctx.p, ctx.k0)
    failures = []
    for entry in doc.get("types", []):
        if entry["reason"] != "PsiCondition":
            continue
        cert = entry["certificate"]
        space = SpaceType(ctx, tuple(entry["type"]))
        module = enumerate_classes(space, tuple(cert["window"]))
        report = condition_report(module)
        label = f"{tuple(entry['type'])} window {cert['window']}"
        if report.as_dict() != cert["report"]:
            failures.append(f"{label}: rebuilt report differs from the certificate")
        if not report.holds_everywhere or cert["witness"] not in module.witnesses:
            failures.append(f"{label}: does not certify on replay")
        rng = random.Random(f"{seed}:{entry['type']}:{cert['window']}")
        picks = rng.sample(range(len(report.per_class)), min(ORACLE_SAMPLE, len(report.per_class)))
        for idx in sorted(picks):
            cls = report.per_class[idx]
            if gcd_oracle(module, idx, k_max).value != cls.valuation_sum:
                failures.append(f"{label}: oracle disagrees at class {cls.degree}")
    return failures
