"""Command-line front end and deterministic report emission.

Exit codes: 0 = reproduced / OK, 1 = substantive diff between computed and
expected values, 2 = usage error.  Reports are byte-deterministic for a
fixed configuration: keys are sorted, no timestamps are embedded, and
timing is included only on request.
"""

from __future__ import annotations

import json
import sys
import time
from json.encoder import encode_basestring_ascii

import click

from . import __version__
from .classifier import (
    PROP_CASE1,
    PROP_CASE2,
    PROP_CASE3,
    PROP_CASE4,
    SURVIVORS,
    check_type,
    classify_theorem_1_2,
)
from .finiteness import monomial_count, rank_bound
from .padic import PrimeContext, digit_sum, nu, val, val_factorial
from .psimod import (
    SpaceType,
    check_monomial_budget,
    condition_report,
    enumerate_classes,
    main_lemma_val,
    theorem_1_1_test,
)
from .steenrod import (
    PowerWord,
    adem_expand,
    format_expansion,
    is_admissible,
    normalize,
    verify_relation_42,
    verify_relation_43,
)

_REPRODUCE_TARGETS = (
    "thm1.1-demo",
    "prop1",
    "prop2",
    "prop3",
    "prop4",
    "thm1.2",
    "lemma3.4",
    "adem",
    "bound",
)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, for a value whose dict
    keys are strings, without the standard library's pure-Python encoder
    (``json`` uses its C encoder only without ``indent``).  ``indent`` is the
    line break and indentation that precede ``value``'s closing bracket."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ])
        return "{" + inner + items + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ("," + inner).join([_json_text(item, inner) for item in value])
        return "[" + inner + items + indent + "]"
    # floats and str or int subclasses; raises TypeError on what JSON cannot hold
    return json.dumps(value)


def _emit(document: dict, fmt: str, out: str | None):
    if fmt == "json":
        text = _json_text(document) + "\n"
    else:
        text = _render_markdown(document)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _render_markdown(document: dict) -> str:
    lines = [f"# apsieve report ({document.get('target', 'check-type')})", ""]
    cfg = document.get("config", {})
    lines.append("## config")
    for key in sorted(cfg):
        lines.append(f"- {key}: {cfg[key]}")
    lines.append("")
    if "types" in document:
        lines.append("## verdicts")
        lines.append("| type | odd degrees | verdict | reason |")
        lines.append("|------|-------------|---------|--------|")
        for entry in document["types"]:
            lines.append(
                "| ({}) | ({}) | {} | {} |".format(
                    ",".join(map(str, entry["type"])),
                    ",".join(map(str, entry["cohomology_degrees"])),
                    entry["verdict"],
                    entry.get("reason") or "",
                )
            )
        lines.append("")
    for key in ("psi_uncertified", "discrepancies"):
        if key in document:
            lines.append(f"## {key}")
            entries = document[key]
            if not entries:
                lines.append("- none")
            else:
                for entry in entries:
                    lines.append(f"- {entry}")
            lines.append("")
    if "summary" in document:
        lines.append("## summary")
        for key in sorted(document["summary"]):
            lines.append(f"- {key}: {document['summary'][key]}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _base_document(target: str, config: dict) -> dict:
    return {
        "tool": "apsieve",
        "version": __version__,
        "target": target,
        "config": config,
        "discrepancies": [],
    }


def _parse_type(ctx_p: int, text: str) -> SpaceType:
    try:
        halves = tuple(int(part) for part in text.split(","))
        space = SpaceType(PrimeContext(ctx_p), halves)
        check_monomial_budget(space)
        return space
    except ValueError as exc:
        raise click.UsageError(f"bad type {text!r}: {exc}") from exc


@click.group()
def main():
    """Deterministic sieve and verification toolkit for mod-p H-space types."""


@main.command("val")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.argument("n", type=int)
def cmd_val(p: int, n: int):
    """Print the p-adic valuation of N."""
    try:
        ctx = PrimeContext(p)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(str(val(ctx, n)))


@main.command("nu")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.argument("n", type=int)
def cmd_nu(p: int, n: int):
    """Print the exact valuation of k0**N - 1."""
    try:
        ctx = PrimeContext(p)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(str(nu(ctx, n)))


@main.command("digitsum")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.argument("n", type=int)
def cmd_digitsum(p: int, n: int):
    """Print the base-p digit sum of N."""
    try:
        ctx = PrimeContext(p)
        click.echo(str(digit_sum(ctx, n)))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command("valfact")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.argument("n", type=int)
def cmd_valfact(p: int, n: int):
    """Print the valuation of N factorial."""
    try:
        ctx = PrimeContext(p)
        click.echo(str(val_factorial(ctx, n)))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command("adem")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.argument("a", type=int)
@click.argument("b", type=int)
def cmd_adem(p: int, a: int, b: int):
    """Print the admissible expansion of P^A P^B."""
    if a < 1 or b < 1:
        raise click.UsageError("exponents must be positive")
    word = PowerWord((a, b), 1)
    if is_admissible(word.exponents, p):
        click.echo(f"P^{a} P^{b} is admissible")
        return
    expansion = normalize(word, p)
    click.echo(f"P^{a} P^{b} = {format_expansion(expansion, p)}")


@main.command("check-type")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.option("--window-policy", type=click.Choice(["standard", "exhaustive"]),
              default="standard", show_default=True)
@click.option("--oracle/--no-oracle", default=False, show_default=True,
              help="Cross-check certified windows with the big-integer gcd oracle.")
@click.option("--k-max", type=int, default=50, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.argument("halves")
def cmd_check_type(p: int, window_policy: str, oracle: bool, k_max: int,
                   fmt: str, out: str | None, halves: str):
    """Full staged verdict for one comma-separated type, e.g. 4,8,12."""
    space = _parse_type(p, halves)
    if oracle and k_max < max(space.ctx.p, space.ctx.k0):
        raise click.UsageError(f"k-max must be at least max(p, k0) = {max(space.ctx.p, space.ctx.k0)}")
    verdict = check_type(space, window_policy=window_policy,
                         oracle_k_max=k_max if oracle else None)
    document = _base_document(
        "check-type",
        {"p": p, "type": list(space.halves), "window_policy": window_policy,
         "oracle": oracle, "k_max": k_max if oracle else None},
    )
    document["types"] = [verdict.as_dict()]
    document["psi_uncertified"] = []
    _emit(document, fmt, out)


@main.command("bound")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.option("--rank", "r", type=int, default=3, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_bound(p: int, r: int, fmt: str, out: str | None):
    """Monomial count and the effective top-degree bound for (p, rank)."""
    try:
        bound = rank_bound(p, r)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    document = _base_document("bound", {"p": p, "rank": r})
    document["summary"] = {
        "monomials": bound.monomials,
        "min_half_degree": bound.min_half_degree,
        "scan_horizon": bound.scan_horizon,
        "breakpoints_checked": bound.breakpoints_checked,
    }
    _emit(document, fmt, out)


def _reproduce_props(ctx: PrimeContext, document: dict, cap: int = 60) -> None:
    from .classifier import proposition_lists

    lists = proposition_lists(ctx, cap=cap)
    expected = {
        1: sorted(PROP_CASE1),
        2: sorted(PROP_CASE2),
        3: sorted(PROP_CASE3),
        4: sorted(PROP_CASE4),
    }
    document["summary"] = {}
    for case in (1, 2, 3, 4):
        computed = [list(t) for t in lists[case]]
        document["summary"][f"case{case}"] = computed
        if lists[case] != expected[case]:
            document["discrepancies"].append(
                f"case {case}: computed {lists[case]} != expected {expected[case]}"
            )


def _reproduce_thm12(ctx: PrimeContext, document: dict, cap: int = 60, workers: int = 1) -> None:
    result = classify_theorem_1_2(ctx, cap=cap, workers=workers)
    document["types"] = [
        result.verdicts[halves].as_dict() for halves in sorted(result.verdicts)
    ]
    document["psi_uncertified"] = [list(t) for t in result.psi_uncertified]
    document["discrepancies"].extend(result.discrepancies)
    document["summary"] = {
        "survivors": [list(t) for t in result.survivors],
        "quasi_regular": [list(t) for t in result.quasi_regular],
        "steenrod_eliminated": [list(t) for t in result.steenrod_eliminated],
        "psi_certified": [list(t) for t in result.psi_certified],
        "counts": {
            "survivors": len(result.survivors),
            "quasi_regular": len(result.quasi_regular),
            "steenrod": len(result.steenrod_eliminated),
            "psi_claimed": len(result.psi_certified) + len(result.psi_uncertified),
        },
    }
    if result.survivors != sorted(SURVIVORS):
        document["discrepancies"].append("survivor list differs from the expected six")


def _reproduce_thm11_demo(ctx: PrimeContext, document: dict, cap: int = 40) -> None:
    from itertools import combinations_with_replacement

    failures = []
    checked = 0
    for rank in (1, 2, 3):
        for halves in combinations_with_replacement(range(2, cap + 1), rank):
            space = SpaceType(ctx, halves)
            res = theorem_1_1_test(space)
            if res.passed:
                continue
            checked += 1
            window = (space.halves[0], ctx.p * space.halves[0])
            report = condition_report(enumerate_classes(space, window))
            if not (report.holds_everywhere and space.halves[0] in report.module.witnesses):
                failures.append(list(halves))
    document["summary"] = {"gcd_failing_types_checked": checked, "uncertified": failures}
    if failures:
        document["discrepancies"].append(
            f"{len(failures)} gcd-failing types not certified on the bottom window"
        )


def _reproduce_lemma34(document: dict) -> None:
    violations = []
    grids = 0
    for p in (3, 5):
        ctx = PrimeContext(p)
        for m in range(1, 31):
            if (p - 1) % m == 0:
                continue
            for t in range(1, 5):
                for i in range(t, t * p + 1):
                    grids += 1
                    if not main_lemma_val(ctx, m, t, i) < m * t:
                        violations.append([p, m, t, i])
    document["summary"] = {"grid_points": grids, "violations": violations}
    if violations:
        document["discrepancies"].append(f"{len(violations)} run-product bound violations")


def _reproduce_adem(document: dict) -> None:
    checks = []
    ok = True

    def record(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        checks.append({"check": name, "passed": passed, "detail": detail})
        ok = ok and passed

    got44 = {w.exponents: w.coefficient for w in adem_expand(3, 7, 3)}
    record("P^3 P^7 = - P^10 + P^9 P^1", got44 == {(10,): 2, (9, 1): 1}, str(got44))
    got45 = {w.exponents: w.coefficient for w in adem_expand(3, 9, 3)}
    record("P^3 P^9 = P^12 + P^11 P^1", got45 == {(12,): 1, (11, 1): 1}, str(got45))
    got11 = {w.exponents: w.coefficient for w in adem_expand(1, 1, 3)}
    record("P^1 P^1 = 2 P^2", got11 == {(2,): 2}, str(got11))
    try:
        for k in range(1, 51):
            verify_relation_42(k)
        record("R42 family, k <= 50", True)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        record("R42 family, k <= 50", False, str(exc))
    try:
        for l in range(2, 51):
            verify_relation_43(l)
        record("R43 family, l <= 50", True)
    except Exception as exc:  # noqa: BLE001
        record("R43 family, l <= 50", False, str(exc))
    document["summary"] = {"checks": checks}
    if not ok:
        document["discrepancies"].append("a pinned relation failed to verify")


def _reproduce_bound(document: dict) -> None:
    bound = rank_bound(3, 3)
    candidates = sorted(set(PROP_CASE1 + PROP_CASE2 + PROP_CASE3 + PROP_CASE4))
    max_top = max(t[-1] for t in candidates)
    document["summary"] = {
        "monomials": bound.monomials,
        "min_half_degree": bound.min_half_degree,
        "max_candidate_top": max_top,
    }
    if bound.monomials != monomial_count(3, 3):
        document["discrepancies"].append("monomial count mismatch")
    if not max_top < bound.min_half_degree:
        document["discrepancies"].append("a candidate exceeds the finiteness bound")


@main.command("reproduce")
@click.option("--p", "p", type=int, default=3, show_default=True)
@click.option("--cap", type=int, default=60, show_default=True,
              help="Maximum half-degree for the candidate enumeration.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--timing/--no-timing", default=False, show_default=True,
              help="Include wall-clock timing (breaks byte-for-byte determinism).")
@click.argument("target")
@click.pass_context
def cmd_reproduce(click_ctx, p: int, cap: int, workers: int, fmt: str,
                  out: str | None, timing: bool, target: str):
    """Regenerate a classification table and diff it against the expected values.

    Targets: thm1.1-demo, prop1..prop4, thm1.2, lemma3.4, adem, bound.
    """
    if target not in _REPRODUCE_TARGETS:
        raise click.UsageError(f"unknown target {target!r}; choose from {_REPRODUCE_TARGETS}")
    if cap < p:
        raise click.UsageError("cap must be at least p")
    if p != 3 and (target == "thm1.2" or target.startswith("prop")):
        raise click.UsageError(f"target {target} is specific to p = 3")
    try:
        ctx = PrimeContext(p)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    document = _base_document(target, {"p": p, "format": fmt, "cap": cap, "workers": workers})
    start = time.perf_counter()
    if target.startswith("prop"):
        case = int(target[4:])
        full = _base_document(target, {"p": p, "format": fmt, "cap": cap, "workers": workers})
        _reproduce_props(ctx, full, cap)
        document["summary"] = {f"case{case}": full["summary"][f"case{case}"]}
        document["discrepancies"] = [
            d for d in full["discrepancies"] if d.startswith(f"case {case}")
        ]
    elif target == "thm1.2":
        _reproduce_thm12(ctx, document, cap, workers)
    elif target == "thm1.1-demo":
        _reproduce_thm11_demo(ctx, document)
    elif target == "lemma3.4":
        _reproduce_lemma34(document)
    elif target == "adem":
        _reproduce_adem(document)
    elif target == "bound":
        _reproduce_bound(document)
    if timing:
        document["timing_seconds"] = round(time.perf_counter() - start, 3)
    _emit(document, fmt, out)
    click_ctx.exit(1 if document["discrepancies"] else 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
