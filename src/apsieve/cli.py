"""Command-line front end and deterministic report emission.

Exit codes: 0 = reproduced / OK, 1 = substantive diff between computed and
expected values, 2 = usage error, printed as one ``Error: ...`` line on
stderr.  Reports are byte-deterministic for a fixed configuration: keys are
sorted, no timestamps are embedded, and timing is included only on request.
Arguments are parsed with the standard library's ``argparse``; the parser is
built once, at import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import combinations_with_replacement
from json.encoder import encode_basestring_ascii
from math import comb, gcd

from . import __version__
from .classifier import (
    PROP_CASE1,
    PROP_CASE2,
    PROP_CASE3,
    PROP_CASE4,
    check_type,
    classify_theorem_1_2,
    fixture_up_to,
    proposition_lists,
)
from .finiteness import rank_bound
from .padic import PrimeContext, digit_sum, nu, val, val_factorial
from .psimod import (
    SpaceType,
    check_dp_work,
    condition_report,
    enumerate_classes,
    main_lemma_sums,
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

# thm1.1-demo checks every type of rank <= 3 with half-degrees up to this
_DEMO_TOP = 40

# check-type --oracle's k bound by default and at most: the oracle is exact
# from max(p, k0) on, and a larger bound repeats the answer at a linear cost
_ORACLE_K_MAX = 50
_ORACLE_K_CEILING = 1000


class UsageError(Exception):
    """A bad command line: ``main`` prints it as ``Error: ...`` and exits 2."""


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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


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
        check_dp_work(space)
        return space
    except ValueError as exc:
        raise UsageError(f"bad type {text!r}: {exc}") from exc


def _prime_context(p: int) -> PrimeContext:
    """``PrimeContext(p)``; a ``--p`` that is not an odd prime is a usage error."""
    try:
        return PrimeContext(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_valuation(p: int, function, n: int):
    """Print ``function(ctx, N)``; ``val``, ``nu``, ``digitsum`` and
    ``valfact`` each bind their own function and help text."""
    ctx = _prime_context(p)
    try:
        print(function(ctx, n))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_adem(p: int, a: int, b: int):
    """Print the admissible expansion of P^A P^B."""
    _prime_context(p)
    if a < 1 or b < 1:
        raise UsageError("exponents must be positive")
    word = PowerWord((a, b), 1)
    if is_admissible(word.exponents, p):
        print(f"P^{a} P^{b} is admissible")
        return
    expansion = normalize(word, p)
    print(f"P^{a} P^{b} = {format_expansion(expansion, p)}")


def cmd_check_type(p: int, window_policy: str, oracle: bool, k_max: int | None,
                   fmt: str, out: str | None, halves: str):
    """Full staged verdict for one comma-separated type, e.g. 4,8,12."""
    space = _parse_type(p, halves)
    if k_max is not None and not oracle:
        raise UsageError("--k-max is read only with --oracle")
    k_max = _ORACLE_K_MAX if k_max is None else k_max
    if oracle and k_max > _ORACLE_K_CEILING:
        raise UsageError(f"k-max must be at most {_ORACLE_K_CEILING}")
    if oracle and k_max < max(space.ctx.p, space.ctx.k0):
        raise UsageError(f"k-max must be at least max(p, k0) = {max(space.ctx.p, space.ctx.k0)}")
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


def cmd_bound(p: int, r: int, fmt: str, out: str | None):
    """Monomial count and the effective top-degree bound for (p, rank)."""
    _prime_context(p)
    try:
        bound = rank_bound(p, r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    document = _base_document("bound", {"p": p, "rank": r})
    document["summary"] = {
        "monomials": bound.monomials,
        "min_half_degree": bound.min_half_degree,
    }
    _emit(document, fmt, out)


def _reproduce_prop(ctx: PrimeContext, document: dict, cap: int) -> None:
    case = int(document["target"][4:])
    computed = proposition_lists(ctx, cap=cap)[case]
    fixture = (PROP_CASE1, PROP_CASE2, PROP_CASE3, PROP_CASE4)[case - 1]
    expected = fixture_up_to(fixture, cap)
    document["summary"] = {f"case{case}": [list(t) for t in computed]}
    if computed != expected:
        document["discrepancies"].append(
            f"case {case}: computed {computed} != expected {expected}"
        )


def _reproduce_thm12(ctx: PrimeContext, document: dict, cap: int) -> None:
    result = classify_theorem_1_2(ctx, cap=cap)
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


def _reproduce_thm11_demo(ctx: PrimeContext, document: dict, cap: None) -> None:
    p = ctx.p
    # The bottom window [m_1, p*m_1] holds only monomials in the generators
    # <= p*m_1, so a type and its low part (those generators) have the same
    # window module, and m_1 is its witness; each gcd-failing low part is
    # decided once.  A prefix's gcd only shrinks as the prefix grows, so once
    # it divides p - 1 no extension fails the test: the walk extends only
    # failing prefixes.  A low part stands for itself and every non-decreasing
    # tail from (p*m_1, top] up to rank 3, and its types are listed only when
    # it is uncertified.  The report's sums read only ctx and the class
    # degrees, so each distinct degree tuple is evaluated once.
    top = _DEMO_TOP
    # m_1 >= 3, since 2 divides p - 1, so every window built below has at
    # most 3 generators, words of length <= p and a spread <= top - 3: it
    # costs no more than this one
    try:
        check_dp_work(SpaceType(ctx, (3, top, top)), p * top)
    except ValueError as exc:
        raise UsageError(f"target thm1.1-demo: {exc}") from exc
    holds: dict[tuple[int, ...], bool] = {}
    uncertified = []
    checked = 0
    for m1 in range(2, top + 1):
        if (p - 1) % m1 == 0:
            continue
        cut = min(p * m1, top)
        lows = [((m1,), m1)]
        for low, g in lows:  # failing extensions join the list as it is walked
            spare = 3 - len(low)
            # sum over j <= spare of C(n + j - 1, j), the tails of length j
            # from the n = top - cut values above the cut
            checked += comb(top - cut + spare, spare)
            module = enumerate_classes(SpaceType(ctx, low), (m1, p * m1))
            degrees = module.degrees
            if degrees not in holds:
                holds[degrees] = condition_report(module).holds_everywhere
            # m1 and p*m1 bound the window, so m1 is always a witness
            if not holds[degrees]:
                for j in range(spare + 1):
                    uncertified.extend(
                        low + tail
                        for tail in combinations_with_replacement(range(cut + 1, top + 1), j)
                    )
            if spare:
                for x in range(low[-1], cut + 1):
                    h = gcd(g, x)
                    if (p - 1) % h:
                        lows.append((low + (x,), h))
    uncertified.sort(key=lambda halves: (len(halves), halves))
    document["summary"] = {
        "gcd_failing_types_checked": checked,
        "uncertified": [list(halves) for halves in uncertified],
    }
    if uncertified:
        document["discrepancies"].append(
            f"{len(uncertified)} gcd-failing types not certified on the bottom window"
        )


def _reproduce_lemma34(ctx: PrimeContext, document: dict, cap: None) -> None:
    violations = []
    grids = 0
    for p in (3, 5):
        ctx = PrimeContext(p)
        for m in range(1, 31):
            if (p - 1) % m == 0:
                continue
            for t in range(1, 5):
                sums = main_lemma_sums(ctx, m, t)
                grids += len(sums)
                violations.extend([p, m, t, t + d] for d, s in enumerate(sums) if not s < m * t)
    document["summary"] = {"grid_points": grids, "violations": violations}
    if violations:
        document["discrepancies"].append(f"{len(violations)} run-product bound violations")


def _reproduce_adem(ctx: PrimeContext, document: dict, cap: None) -> None:
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


def _reproduce_bound(ctx: PrimeContext, document: dict, cap: None) -> None:
    bound = rank_bound(3, 3)
    max_top = max(t[-1] for t in PROP_CASE1 + PROP_CASE2 + PROP_CASE3 + PROP_CASE4)
    document["summary"] = {
        "monomials": bound.monomials,
        "min_half_degree": bound.min_half_degree,
        "max_candidate_top": max_top,
    }
    if not max_top < bound.min_half_degree:
        document["discrepancies"].append("a candidate exceeds the finiteness bound")


# each target's runner, called as runner(ctx, document, cap), and whether the
# target enumerates candidates and so reads --cap
_REPRODUCE_TARGETS = {
    "thm1.1-demo": (_reproduce_thm11_demo, False),
    "prop1": (_reproduce_prop, True),
    "prop2": (_reproduce_prop, True),
    "prop3": (_reproduce_prop, True),
    "prop4": (_reproduce_prop, True),
    "thm1.2": (_reproduce_thm12, True),
    "lemma3.4": (_reproduce_lemma34, False),
    "adem": (_reproduce_adem, False),
    "bound": (_reproduce_bound, False),
}


def cmd_reproduce(p: int, cap: int | None, fmt: str, out: str | None, timing: bool,
                  target: str):
    """Regenerate a classification table and diff it against the expected values.

    Targets: thm1.1-demo, prop1..prop4, thm1.2, lemma3.4, adem, bound.
    """
    if target not in _REPRODUCE_TARGETS:
        raise UsageError(f"unknown target {target!r}; choose from {tuple(_REPRODUCE_TARGETS)}")
    runner, reads_cap = _REPRODUCE_TARGETS[target]
    config = {"p": p, "format": fmt}
    if reads_cap:
        cap = config["cap"] = 60 if cap is None else cap
        if cap < p:
            raise UsageError("cap must be at least p")
    elif cap is not None:
        raise UsageError(f"target {target} does not read --cap; only prop1..prop4 and thm1.2 do")
    if p != 3 and target != "thm1.1-demo":
        raise UsageError(f"target {target} is specific to p = 3")
    # no type with top >= M0 survives the sieve, and the scan is cubic in the cap
    if reads_cap and cap > (m0 := rank_bound(3, 3).min_half_degree):
        raise UsageError(f"cap must be at most M0 = {m0}, the rank-3 finiteness bound")
    ctx = _prime_context(p)
    document = _base_document(target, config)
    start = time.perf_counter()
    runner(ctx, document, cap)
    if timing:
        document["timing_seconds"] = round(time.perf_counter() - start, 3)
    _emit(document, fmt, out)
    return 1 if document["discrepancies"] else 0


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` on a bad command line instead of printing the
    usage and exiting, so that ``main`` reports every usage error alike."""

    def error(self, message):
        raise UsageError(message)


def _file_path(text: str) -> str:
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"File {text!r} is a directory.")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apsieve",
        description="Deterministic sieve and verification toolkit for mod-p H-space types.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, handler, doc=None):
        doc = doc or handler.__doc__
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler)
        sub.add_argument("--p", type=int, default=3, help="the odd prime (default: 3)")
        return sub

    def report_options(sub):
        sub.add_argument("--format", dest="fmt", choices=("json", "markdown"), default="json",
                         help="report format (default: json)")
        sub.add_argument("--out", type=_file_path, metavar="FILE",
                         help="write the report to FILE instead of stdout")

    for name, function, doc in (
        ("val", val, "Print the p-adic valuation of N."),
        ("nu", nu, "Print the exact valuation of k0**N - 1."),
        ("digitsum", digit_sum, "Print the base-p digit sum of N."),
        ("valfact", val_factorial, "Print the valuation of N factorial."),
    ):
        sub = command(name, cmd_valuation, doc)
        sub.set_defaults(function=function)
        sub.add_argument("n", type=int, metavar="N")

    sub = command("adem", cmd_adem)
    sub.add_argument("a", type=int, metavar="A")
    sub.add_argument("b", type=int, metavar="B")

    sub = command("check-type", cmd_check_type)
    sub.add_argument("--window-policy", choices=("standard", "exhaustive"), default="standard",
                     help="window family of the sieve (default: standard)")
    sub.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=False,
                     help="Cross-check certified windows with the big-integer gcd oracle.")
    sub.add_argument("--k-max", type=int, help=f"the oracle's k bound, at most "
                     f"{_ORACLE_K_CEILING} (default: {_ORACLE_K_MAX})")
    report_options(sub)
    sub.add_argument("halves", metavar="HALVES")

    sub = command("bound", cmd_bound)
    sub.add_argument("--rank", dest="r", type=int, default=3, help="the rank (default: 3)")
    report_options(sub)

    sub = command("reproduce", cmd_reproduce)
    sub.add_argument("--cap", type=int,
                     help="Maximum half-degree for the candidate enumeration of prop1..prop4 "
                          "and thm1.2 (default: 60).")
    report_options(sub)
    sub.add_argument("--timing", action=argparse.BooleanOptionalAction, default=False,
                     help="Include wall-clock timing (breaks byte-for-byte determinism).")
    sub.add_argument("target", metavar="TARGET")
    return parser


_PARSER = _build_parser()


def _run(argv) -> int:
    try:
        namespace, extras = _PARSER.parse_known_args(argv)
    except SystemExit as exc:  # ``--help`` exits after printing the help text
        return exc.code
    if extras:
        # an unknown option's value lands in a positional slot, pushing the
        # real positional into the extras, so name only the option tokens
        unknown = [a for a in extras if a.startswith("-")] or extras
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    args = vars(namespace)
    handler = args.pop("handler")
    return handler(**args) or 0


def main(argv=None, standalone_mode=True, prog_name=None):
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None).

    Returns the exit code 0, 1 or 2 when ``standalone_mode`` is false, and
    exits with it otherwise.  ``prog_name`` is accepted and ignored: the
    program name is always ``apsieve``.
    """
    try:
        code = _run(argv)
    except UsageError as exc:
        sys.stderr.write(f"Error: {exc}\n")
        code = 2
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":  # pragma: no cover
    main()
