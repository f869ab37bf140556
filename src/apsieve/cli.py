"""Command-line front end and deterministic report emission.

Exit codes: 0 = reproduced / OK, 1 = substantive diff between computed and
expected values, 2 = usage error, printed as one ``Error: ...`` line on
stderr.  Reports are byte-deterministic for a fixed configuration: keys are
sorted, no timestamps are embedded, and timing is included only on request.
Arguments are read from one table, ``_COMMANDS``, which gives each command's
handler, options, switches and positionals; ``_run`` parses a command line
from it and prints ``--help`` from it too, so no parser is built at import.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import combinations_with_replacement
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from operator import gt

from . import __version__
from .classifier import (
    DEFAULT_CAP,
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
    class_sums,
    main_lemma_prefix,
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

# adem_expand walks a // p + 1 values of t for P^a P^b; a million take about
# a second, while a billion would take minutes, so larger pairs are refused
_ADEM_MAX_TERMS = 1_000_000


class UsageError(Exception):
    """A bad command line: ``main`` prints it as ``Error: ...`` and exits 2."""


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, for a value whose dict
    keys are strings, without the standard library's pure-Python encoder
    (``json`` uses its C encoder only without ``indent``)."""
    parts: list[str] = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_parts(value, indent: str, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``indent`` is the line break
    and indentation that precede its closing bracket.  Members that are
    scalars are written in place, not by a call each."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        parts.append(scalar(value))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        lead = "{" + inner
        for key in sorted(value):
            member = value[key]
            parts.append(lead + encode_basestring_ascii(key) + ": ")
            scalar = _JSON_SCALARS.get(type(member))
            if scalar is None:
                _json_parts(member, inner, parts)
            else:
                parts.append(scalar(member))
            lead = "," + inner
        parts.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        lead = "[" + inner
        for member in value:
            scalar = _JSON_SCALARS.get(type(member))
            if scalar is None:
                parts.append(lead)
                _json_parts(member, inner, parts)
            else:
                parts.append(lead + scalar(member))
            lead = "," + inner
        parts.append(indent + "]")
    else:
        # floats and str or int subclasses; raises TypeError on what JSON cannot hold
        parts.append(json.dumps(value))


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


def _parse_type(ctx: PrimeContext, text: str) -> SpaceType:
    try:
        halves = tuple(int(part) for part in text.split(","))
        space = SpaceType(ctx, halves)
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
    if a // p + 1 > _ADEM_MAX_TERMS:
        raise UsageError(f"P^{a} P^{b} needs {a // p + 1} Adem terms, "
                         f"over the limit of {_ADEM_MAX_TERMS}")
    expansion = normalize(word, p)
    print(f"P^{a} P^{b} = {format_expansion(expansion, p)}")


def cmd_check_type(p: int, window_policy: str, oracle: bool, fmt: str, out: str | None,
                   halves: str):
    """Full staged verdict for one comma-separated type, e.g. 4,8,12."""
    space = _parse_type(_prime_context(p), halves)
    # the oracle is exact for every k bound from max(p, k0) on, and costs
    # linear time in it; 50 keeps the bound recorded at small primes
    k_max = max(50, space.ctx.p, space.ctx.k0)
    if oracle and k_max > 1000:
        raise UsageError(f"--oracle checks k up to max(50, p, k0) = {k_max}, over the limit of 1000")
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
    # both numbers are printed in decimal: refuse before any output what
    # Python would refuse to convert in the middle of it
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before 3.10.7
    if limit and max(bound.monomials, bound.min_half_degree) >= 10**limit:
        raise UsageError(f"the bound at p={p}, rank={r} has more than {limit} digits, "
                         "Python's limit for integer string conversion")
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


def _with_generator(bits: int, g: int, d_hi: int) -> int:
    """The degrees ``<= d_hi`` of the words through one more generator ``g``,
    from those of the words without it: bit ``d`` of ``bits`` is set when
    ``d`` is a word's degree, bit 0 standing for the empty word.  Adding
    ``g`` up to ``2**k - 1`` times is ``k`` doubling shifts, so the step
    takes ``log2(d_hi / g) + 1`` of them."""
    mask = (1 << d_hi + 1) - 1
    shift = g
    while shift <= d_hi:
        bits |= bits << shift & mask
        shift <<= 1
    return bits


def _bit_degrees(bits: int) -> tuple[int, ...]:
    """The positions of the set bits of ``bits``, ascending."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return tuple(found)


def _gcd_failing_low_parts(p: int, top: int):
    """Yield each low part up to rank 3 of thm1.1-demo's types at ``p``, with
    the degrees of its bottom window ``[m_1, p*m_1]`` as the bits of an int:
    bit ``d`` is set when ``d`` is the degree of a word, bit 0 for the empty
    one (see :func:`_with_generator`).

    A low part is ``m_1`` and the further half-degrees ``<= min(p*m_1, top)``
    of a type whose gcd test fails.  A prefix's gcd only shrinks as the
    prefix grows, so once it divides p - 1 no extension fails the test: the
    walk over ``m_1 <= x <= y`` extends only failing prefixes, and each low
    part's degrees are its prefix's with one more generator.  Every
    generator is at least ``m_1``, so a word of length ``l`` has degree at
    least ``l * m_1``, and every word of degree ``<= p*m_1`` has at most
    ``p`` letters: the height bound never cuts the window, whose degrees
    are all the sums of its generators in ``[m_1, p*m_1]``."""
    for m1 in range(2, top + 1):
        if (p - 1) % m1 == 0:
            continue
        d_hi = p * m1
        cut = min(d_hi, top)
        one = _with_generator(1, m1, d_hi)
        yield (m1,), one
        for x in range(m1, cut + 1):
            gx = gcd(m1, x)
            if (p - 1) % gx == 0:
                continue
            two = _with_generator(one, x, d_hi)
            yield (m1, x), two
            for y in range(x, cut + 1):
                if (p - 1) % gcd(gx, y):
                    yield (m1, x, y), _with_generator(two, y, d_hi)


def _reproduce_thm11_demo(ctx: PrimeContext, document: dict, cap: None) -> None:
    p = ctx.p
    # The bottom window [m_1, p*m_1] holds only monomials in the generators
    # <= p*m_1, so a type and its low part (those generators) have the same
    # window module, and m_1 is its witness; each gcd-failing low part is
    # decided once.  A low part stands for itself and every non-decreasing
    # tail from (p*m_1, top] up to rank 3, and its types are listed only when
    # it is uncertified.  The class sums read only ctx and the class degrees,
    # so each window's degrees, keyed by their bits, are decided once.
    top = _DEMO_TOP
    # m_1 >= 3, since 2 divides p - 1, so every window walked below has at
    # most 3 generators and a spread <= top - 3; the degree count on rows
    # would cost at most this much, and the demo admits the same primes
    try:
        check_dp_work(SpaceType(ctx, (3, top, top)), p * top)
    except ValueError as exc:
        raise UsageError(f"target thm1.1-demo: {exc}") from exc
    holds: dict[int, bool] = {}
    uncertified = []
    checked = 0
    for low, bits in _gcd_failing_low_parts(p, top):
        cut = min(p * low[0], top)
        spare = 3 - len(low)
        # sum over j <= spare of C(n + j - 1, j), the tails of length j
        # from the n = top - cut values above the cut
        checked += comb(top - cut + spare, spare)
        decided = holds.get(bits)
        if decided is None:
            degrees = _bit_degrees(bits)[1:]  # all but the empty word's 0
            valuation_sums = class_sums(ctx, degrees)[0]
            decided = holds[bits] = all(map(gt, degrees, valuation_sums))
        if not decided:
            for j in range(spare + 1):
                uncertified.extend(
                    low + tail
                    for tail in combinations_with_replacement(range(cut + 1, top + 1), j)
                )
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
            # one prefix serves the runs of t = 1..4, the longest t = 4's
            prefix = main_lemma_prefix(ctx, m, 4 * (p - 1))
            for t in range(1, 5):
                sums = main_lemma_sums(ctx, m, t, prefix)
                grids += len(sums)
                if max(sums) >= m * t:
                    violations.extend([p, m, t, t + d] for d, s in enumerate(sums) if s >= m * t)
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
    if p != 3 and target != "thm1.1-demo":
        raise UsageError(f"target {target} is specific to p = 3")
    config = {"p": p, "format": fmt}
    if reads_cap:
        cap = config["cap"] = DEFAULT_CAP if cap is None else cap
        if cap < p:
            raise UsageError("cap must be at least p")
    elif cap is not None:
        raise UsageError(f"target {target} does not read --cap; only prop1..prop4 and thm1.2 do")
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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _file_path(text: str) -> str:
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    return text


# An option is (flag, destination, converter, default, help).  The converter
# turns the value's text into the argument or raises ValueError with the
# reason; a tuple in its place lists the values accepted.
_PRIME = ("--p", "p", _int, 3, "the odd prime (default: 3)")
_REPORT = (
    ("--format", "fmt", ("json", "markdown"), "json", "report format (default: json)"),
    ("--out", "out", _file_path, None, "write the report to this file instead of stdout"),
)
_N = (("n", _int, "N"),)

# Each command is (handler, description, fixed keyword arguments, options,
# switches, positionals).  A switch (flag, destination, help) sets its
# destination to True, its --no- form sets it to False, and it defaults to
# False.  A positional is (destination, converter, metavar) and is required.
_COMMANDS = {
    "val": (cmd_valuation, "Print the p-adic valuation of N.", {"function": val},
            (_PRIME,), (), _N),
    "nu": (cmd_valuation, "Print the exact valuation of k0**N - 1.", {"function": nu},
           (_PRIME,), (), _N),
    "digitsum": (cmd_valuation, "Print the base-p digit sum of N.", {"function": digit_sum},
                 (_PRIME,), (), _N),
    "valfact": (cmd_valuation, "Print the valuation of N factorial.", {"function": val_factorial},
                (_PRIME,), (), _N),
    "adem": (cmd_adem, cmd_adem.__doc__, {}, (_PRIME,), (), (("a", _int, "A"), ("b", _int, "B"))),
    "check-type": (
        cmd_check_type, cmd_check_type.__doc__, {},
        (_PRIME, ("--window-policy", "window_policy", ("standard", "exhaustive"), "standard",
                  "window family of the sieve (default: standard)"), *_REPORT),
        (("--oracle", "oracle", "Cross-check certified windows with the big-integer gcd oracle."),),
        (("halves", str, "HALVES"),),
    ),
    "bound": (cmd_bound, cmd_bound.__doc__, {},
              (_PRIME, ("--rank", "r", _int, 3, "the rank (default: 3)"), *_REPORT), (), ()),
    "reproduce": (
        cmd_reproduce, cmd_reproduce.__doc__, {},
        (_PRIME, ("--cap", "cap", _int, None,
                  "Maximum half-degree for the candidate enumeration of prop1..prop4 "
                  f"and thm1.2 (default: {DEFAULT_CAP})."), *_REPORT),
        (("--timing", "timing", "Include wall-clock timing (breaks byte-for-byte determinism)."),),
        (("target", str, "TARGET"),),
    ),
}

_DESCRIPTION = "Deterministic sieve and verification toolkit for mod-p H-space types."
def _is_option(arg: str, flags) -> bool:
    """Whether ``arg`` is read as an option: ``-h`` or one of ``flags``, alone
    or with a value attached, or any other word that starts with ``-`` and
    is neither ``-`` itself, a negative number such as ``-9``, ``-.5`` or
    ``-1.5``, nor a word with a space."""
    if arg[:1] != "-" or arg == "-":
        return False
    if arg[:2] == "-h" or arg.partition("=")[0] in flags:
        return True
    whole, dot, fraction = arg[1:].partition(".")
    if dot:
        negative = fraction.isdecimal() and (not whole or whole.isdecimal())
    else:
        negative = whole.isdecimal()
    return not (negative or " " in arg)


def _asks_for_help(arg: str) -> bool:
    """Whether ``arg`` is ``-h`` or ``--help``; ``-hh`` is ``-h`` twice.  A
    value given to either, as in ``--help=x``, ``-h=x`` or ``-hx``, is
    refused."""
    flag, eq, explicit = arg.partition("=")
    if flag == "--help":
        if not eq:
            return True
    elif arg[:2] == "-h":
        # short flags run together after -h, or -h=VALUE: only h is known
        explicit = (explicit if flag == "-h" else arg[2:]).lstrip("h")
        if not explicit and arg != "-h=":
            return True
    else:
        return False
    raise UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")


def _convert(name: str, converter, text: str):
    """Argument ``name``'s value from ``text``; a bad one is a usage error."""
    if type(converter) is tuple:
        if text in converter:
            return text
        reason = f"invalid choice: {text!r} (choose from {', '.join(map(repr, converter))})"
    else:
        try:
            return converter(text)
        except ValueError as exc:
            reason = str(exc)
    raise UsageError(f"argument {name}: {reason}")


def _help_text(name: str | None) -> str:
    """The ``--help`` text of command ``name``, or of the program for None."""
    rows = [("-h, --help", "show this help message and exit")]
    if name is None:
        usage = "[-h] COMMAND ..."
        description = _DESCRIPTION
        commands = [(command, spec[1].splitlines()[0]) for command, spec in _COMMANDS.items()]
        sections = (("commands", commands), ("options", rows))
    else:
        _, doc, _, options, switches, positionals = _COMMANDS[name]
        words = [name, "[-h]"]
        for flag, destination, converter, _, text in options:
            metavar = ("{" + ",".join(converter) + "}" if type(converter) is tuple
                       else destination.upper())
            words.append(f"[{flag} {metavar}]")
            rows.append((f"{flag} {metavar}", text))
        for flag, _, text in switches:
            negation = "--no-" + flag[2:]
            words.append(f"[{flag} | {negation}]")
            rows.append((f"{flag}, {negation}", text))
        words.extend(metavar for _, _, metavar in positionals)
        usage = " ".join(words)
        description = "\n".join(line.strip() for line in doc.strip().splitlines())
        sections = (("options", rows),)
    lines = [f"usage: apsieve {usage}", "", description]
    for title, entries in sections:
        lines += ["", f"{title}:"]
        for left, text in entries:
            lines += ([f"  {left:<22}  {text}"] if len(left) <= 22
                      else [f"  {left}", f"{'':<26}{text}"])
    return "\n".join(lines) + "\n"


def _run(argv) -> int:
    """Parse ``argv`` from ``_COMMANDS`` and run the command's handler.

    Options may come before or after the positionals, as ``--opt value`` or
    ``--opt=value``, and the last repeat wins; after ``--`` every argument is
    a positional.  Long options must be spelled in full.  A bad command line
    raises ``UsageError`` naming the option or metavar at fault."""
    args = sys.argv[1:] if argv is None else list(argv)
    extras = []
    # before the command, -h/--help is the one option known
    for start, arg in enumerate(args):
        if _asks_for_help(arg):
            sys.stdout.write(_help_text(None))
            return 0
        if arg == "--" or not _is_option(arg, ("--help",)):
            break
        extras.append(arg)
    else:
        raise UsageError("the following arguments are required: COMMAND")
    name = _convert("COMMAND", tuple(_COMMANDS), args[start])
    handler, _, fixed, options, switches, positionals = _COMMANDS[name]
    values = dict(fixed)
    takes_value = {}
    for flag, destination, converter, default, _ in options:
        takes_value[flag] = destination, converter
        values[destination] = default
    toggles = {}
    for flag, destination, _ in switches:
        values[destination] = False
        names = f"{flag}/--no-{flag[2:]}"
        toggles[flag] = destination, True, names
        toggles["--no-" + flag[2:]] = destination, False, names
    known = {"--help", *takes_value, *toggles}
    pending = list(positionals)
    rest = iter(args[start + 1:])
    after_dashes = took_positional = False
    for arg in rest:
        if arg == "--" and not after_dashes:
            after_dashes = True
            # a "--" next to no positional is not consumed, as in argparse
            if not (pending or took_positional):
                extras.append(arg)
            continue
        took_positional = False
        if after_dashes or not _is_option(arg, known):
            if pending:
                destination, converter, metavar = pending.pop(0)
                values[destination] = _convert(metavar, converter, arg)
                took_positional = True
            else:
                extras.append(arg)
        elif _asks_for_help(arg):
            sys.stdout.write(_help_text(name))
            return 0
        else:
            flag, eq, explicit = arg.partition("=")
            if flag in takes_value:
                destination, converter = takes_value[flag]
                if not eq:
                    explicit = next(rest, "--")
                    if explicit == "--" or _is_option(explicit, known):
                        raise UsageError(f"argument {flag}: expected one argument")
                values[destination] = _convert(flag, converter, explicit)
            elif flag in toggles:
                destination, value, names = toggles[flag]
                if eq:
                    raise UsageError(f"argument {names}: ignored explicit argument {explicit!r}")
                values[destination] = value
            else:
                extras.append(arg)
    if pending:
        raise UsageError("the following arguments are required: "
                         + ", ".join(metavar for _, _, metavar in pending))
    if extras:
        # an unknown option's value lands in a positional slot, pushing the
        # real positional into the extras, so name only the option tokens
        unknown = [a for a in extras if a.startswith("-")] or extras
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return handler(**values) or 0


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
