import functools
import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from apsieve import (
    PrimeContext,
    SpaceType,
    classifier,
    cli,
    condition_report,
    enumerate_classes,
    psimod,
    theorem_1_1_test,
)
from apsieve.cli import main
from apsieve.psimod import DP_WORK_LIMIT, check_dp_work
from apsieve.steenrod import RelationShapeError

from conftest import invoke


def run(*args):
    return invoke(args)


def test_valuation_commands():
    assert run("val", "--p", "3", "27").output.strip() == "3"
    assert run("nu", "--p", "3", "18").output.strip() == "3"
    assert run("valfact", "--p", "3", "9").output.strip() == "4"
    assert run("digitsum", "--p", "3", "17").output.strip() == "5"
    assert run("val", "--p", "3", "0").output.strip() == "inf"
    assert run("nu", "--p", "3", "0").output.strip() == "inf"


def test_usage_errors_exit_2():
    assert run("val", "--p", "4", "5").exit_code == 2
    assert run("check-type", "--p", "3", "6,4,2").exit_code == 2
    assert run("check-type", "--p", "3", "2,x,6").exit_code == 2
    assert run("reproduce", "nosuch").exit_code == 2


@pytest.mark.parametrize("args, message", [
    (("check-type", "--window-policy", "widest", "2,4,6"), "--window-policy"),
    (("check-type", "--format", "xml", "2,4,6"), "--format"),
    (("reproduce", "--format", "xml", "bound"), "--format"),
    (("check-type",), "HALVES"),
    (("adem", "--p", "3", "3"), "B"),
    (("nosuch",), "'nosuch'"),
    (("reproduce", "--workers", "2", "thm1.2"), "--workers"),
    (("check-type", "--win", "standard", "2,4,6"), "--win"),
    ((), "COMMAND"),
])
def test_parser_usage_errors(args, message):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1, res.output
    assert message in res.output


_CHECK_TYPE_AT_5 = '{\n  "config": {\n    "k_max": null,\n    "oracle": false,\n    "p": 5,\n'


@pytest.mark.parametrize("args, code, output", [
    (("check-type", "--p=5", "4,6,14"), 0, _CHECK_TYPE_AT_5),
    (("check-type", "4,6,14", "--p", "5"), 0, _CHECK_TYPE_AT_5),
    # the last repeat wins: val_5(25) = 2, val_3(25) = 0
    (("val", "--p", "3", "--p", "5", "25"), 0, "2\n"),
    (("val", "--p", "3", "--", "-9"), 0, "2\n"),
    (("check-type", "2,4,6", "--help"), 0, "usage: apsieve check-type "),
    (("val", "-h"), 0, "usage: apsieve val "),
    (("check-type", "--oracle=yes", "2,4,6"), 2,
     "Error: argument --oracle/--no-oracle: ignored explicit argument 'yes'\n"),
    (("check-type", "2,4,6", "--p"), 2, "Error: argument --p: expected one argument\n"),
    (("check-type", "--p", "x", "2,4,6"), 2, "Error: argument --p: invalid int value: 'x'\n"),
    (("val", "--p", "3"), 2, "Error: the following arguments are required: N\n"),
    (("adem",), 2, "Error: the following arguments are required: A, B\n"),
    (("adem", "3", "7", "9"), 2, "Error: unrecognized arguments: 9\n"),
    (("check-type", "-x", "2,4,6"), 2, "Error: unrecognized arguments: -x\n"),
    ((), 2, "Error: the following arguments are required: COMMAND\n"),
    # "--" is dropped next to a positional only; -hh is -h twice
    (("val", "5", "--"), 0, "0\n"),
    (("bound", "--"), 2, "Error: unrecognized arguments: --\n"),
    (("val", "-hh"), 0, "usage: apsieve val "),
    (("val", "-hx", "5"), 2, "Error: argument -h/--help: ignored explicit argument 'x'\n"),
    (("val", "--help=x", "5"), 2, "Error: argument -h/--help: ignored explicit argument 'x'\n"),
    (("val", "--p", "-.5", "3"), 2, "Error: argument --p: invalid int value: '-.5'\n"),
])
def test_command_line_forms(args, code, output):
    # a refusal is exactly one line; an accepted form is pinned by its start
    res = run(*args)
    assert res.exit_code == code, res.output
    if code == 2:
        assert res.output == output
    else:
        assert res.output.startswith(output), res.output


def test_unknown_option_names_only_the_option():
    # the option's value takes the TARGET slot, pushing the real target out;
    # the message names the option alone, not the target
    for args in (("reproduce", "--workers", "2", "thm1.2"), ("reproduce", "thm1.2", "--workers", "2")):
        res = run(*args)
        assert res.exit_code == 2
        assert res.output == "Error: unrecognized arguments: --workers\n"
    assert run("reproduce", "thm1.2", "extra").output == "Error: unrecognized arguments: extra\n"


def test_out_naming_a_directory_is_a_usage_error(tmp_path):
    res = run("check-type", "--out", str(tmp_path), "2,4,6")
    assert res.exit_code == 2
    assert f"File '{tmp_path}' is a directory" in res.output


@pytest.mark.parametrize("args", [("check-type", "2,4,6"), ("bound",), ("reproduce", "bound")])
def test_out_into_a_missing_directory_is_a_usage_error(args, tmp_path):
    # exit 1 would claim a discrepancy; a report that cannot be written is bad input
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "r.json", tmp_path / "file" / "r.json"):
        res = run(*args, "--out", str(out))
        assert res.exit_code == 2, res.output
        assert res.output.startswith(f"Error: cannot write {str(out)!r}: "), res.output
        assert res.output.count("\n") == 1 and not out.exists()


def test_usage_error_is_one_line_on_stderr(capsys):
    assert main(["check-type", "6,4,2"], standalone_mode=False) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "Error: bad type '6,4,2': half-degrees must be sorted ascending\n"


@pytest.mark.parametrize("command", [
    "val", "nu", "digitsum", "valfact", "adem", "check-type", "bound", "reproduce",
])
def test_help_on_each_subcommand(command):
    res = run(command, "--help")
    assert res.exit_code == 0
    assert res.output.startswith(f"usage: apsieve {command} ")


def test_main_returns_the_exit_code(monkeypatch):
    # with standalone_mode=False, main returns 0, 1 or 2 and never raises SystemExit
    assert main(["val", "27"], standalone_mode=False) == 0
    assert main(["reproduce", "bound"], standalone_mode=False) == 0
    assert main(["--help"], standalone_mode=False) == 0
    assert main(["check-type", "6,4,2"], standalone_mode=False) == 2
    assert main(["nosuch"], standalone_mode=False) == 2
    monkeypatch.setitem(cli._REPRODUCE_TARGETS, "bound",
                        (lambda ctx, document, cap: document["discrepancies"].append("injected"), False))
    assert main(["reproduce", "bound"], standalone_mode=False) == 1
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "bound"])
    assert exc.value.code == 1


def test_negative_n_is_an_argument():
    # a bare negative number is read as N; "--" before it is still accepted
    for args in (("val", "--p", "3", "-9"), ("val", "--p", "3", "--", "-9")):
        res = run(*args)
        assert res.exit_code == 0 and res.output == "2\n", (args, res.output)
    assert run("nu", "--p", "3", "-18").output == "3\n"


def test_import_leaves_heavy_modules_unloaded():
    # -S keeps site's .pth files out, so that none of them can preload a module
    # and hide its import; the first four would cost the cold start ~30 ms,
    # the command-line parser and what it pulls in ~4 ms more.  namedtuple
    # raises once functools has built its own, so the import fails if a
    # record compiles its class source at import again (~1.2 ms for 20)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    heavy = ("click", "dataclasses", "inspect", "typing", "argparse", "gettext", "locale", "shutil")
    code = ("import collections, functools, sys\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('a record is built by collections.namedtuple')\n"
            "collections.namedtuple = refuse\n"
            "import apsieve.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert res.stdout == "[]\n"


def test_p3_only_targets_refuse_other_primes():
    for target in ("thm1.2", "prop1", "prop2", "prop3", "prop4", "bound", "lemma3.4", "adem"):
        res = run("reproduce", "--p", "5", target)
        assert res.exit_code == 2, (target, res.output)
        assert res.output == f"Error: target {target} is specific to p = 3\n"
    # the prime is the reason even when the cap is also below it
    res = run("reproduce", "--p", "5", "--cap", "4", "thm1.2")
    assert res.exit_code == 2, res.output
    assert res.output == "Error: target thm1.2 is specific to p = 3\n"
    # the demo runs at the prime it is given
    res = run("reproduce", "--p", "5", "thm1.1-demo")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["config"]["p"] == 5
    assert doc["summary"] == {"gcd_failing_types_checked": 1615, "uncertified": []}


@pytest.mark.parametrize("args", [
    ("bound", "--p", "4"),
    ("bound", "--p", "9", "--rank", "3"),
    ("adem", "--p", "4", "3", "7"),
    ("adem", "--p", "1", "3", "7"),
    ("check-type", "--p", "4", "2,4,6"),
])
def test_bound_and_adem_refuse_a_non_prime(args):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("Error: p must be an odd prime") and res.output.count("\n") == 1


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_bound_past_the_int_str_limit_is_refused_before_output(fmt, capsys):
    # the report prints the bound in decimal, which Python refuses past its
    # conversion limit; the refusal comes before any report text
    args = ["bound", "--format", fmt, "--p", "10007", "--rank", "10007"]
    assert main(args, standalone_mode=False) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"Error: the bound at p=10007, rank=10007 has more than {sys.get_int_max_str_digits()} "
        "digits, Python's limit for integer string conversion\n"
    )


def test_adem_refuses_a_pair_past_the_term_limit(monkeypatch):
    # the limit itself is admitted: P^6 P^4 needs 6 // 3 + 1 = 3 terms; this
    # runs first, so that a missing guard fails here instead of hanging below
    monkeypatch.setattr(cli, "_ADEM_MAX_TERMS", 3)
    assert run("adem", "6", "4").output == "P^6 P^4 = P^10 - P^9 P^1 + P^8 P^2\n"
    assert run("adem", "9", "4").exit_code == 2
    monkeypatch.undo()
    # unguarded, this pair walks 333,333,334 Adem terms: minutes of work
    start = time.perf_counter()
    res = run("adem", "1000000000", "1000000000")
    assert time.perf_counter() - start < 5
    assert res.exit_code == 2
    assert res.output == ("Error: P^1000000000 P^1000000000 needs 333333334 Adem terms, "
                          "over the limit of 1000000\n")


def test_thm11_demo_leaves_the_monomial_cache_alone():
    # the demo enumerates bottom windows only, never a full multiset
    from apsieve.psimod import monomial_degree_multiplicities

    monomial_degree_multiplicities.cache_clear()
    res = run("reproduce", "thm1.1-demo")
    info = monomial_degree_multiplicities.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (0, 0, 0, 1024)
    assert res.exit_code == 0
    assert json.loads(res.output)["summary"] == {"gcd_failing_types_checked": 3584, "uncertified": []}


def _holds_everywhere(module):
    return condition_report(module).holds_everywhere


def _reference_thm11_demo(p, holds=_holds_everywhere):
    """The demo's summary by one module and one report per type: every
    gcd-failing type of rank <= 3 up to 40 on its full bottom window, which
    certifies the type when ``holds(module)`` and ``m_1`` is a witness."""
    ctx = PrimeContext(p)
    checked = 0
    failures = []
    for rank in (1, 2, 3):
        for halves in combinations_with_replacement(range(2, 41), rank):
            space = SpaceType(ctx, halves)
            if theorem_1_1_test(space).passed:
                continue
            checked += 1
            module = enumerate_classes(space, (halves[0], p * halves[0]))
            if not (holds(module) and halves[0] in module.witnesses):
                failures.append(list(halves))
    return {"gcd_failing_types_checked": checked, "uncertified": failures}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_thm11_demo_matches_per_type_reference(p):
    res = run("reproduce", "--p", str(p), "thm1.1-demo")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["summary"] == _reference_thm11_demo(p)


@pytest.mark.parametrize("p, failing", [(3, 889), (5, 594)])
def test_thm11_demo_lists_the_types_of_uncertified_low_parts(p, failing, monkeypatch):
    # every bottom window holding degree 9 is made to fail, so the demo must
    # list each type of those low parts, tails included, in the order of the
    # per-type reference
    def holds(module):
        return 9 not in module.degrees and _holds_everywhere(module)

    def failing_sums(ctx, degrees):
        valuation_sums, nu_bounds = psimod.class_sums(ctx, degrees)
        # class 9's sum reaches its degree
        return [9 if t == 9 else v for t, v in zip(degrees, valuation_sums)], nu_bounds

    monkeypatch.setattr(cli, "class_sums", failing_sums)
    res = run("reproduce", "--p", str(p), "thm1.1-demo")
    assert res.exit_code == 1, res.output
    doc = json.loads(res.output)
    assert doc["summary"] == _reference_thm11_demo(p, holds)
    uncertified = doc["summary"]["uncertified"]
    assert len(uncertified) == failing
    assert doc["discrepancies"] == [
        f"{failing} gcd-failing types not certified on the bottom window"
    ]
    # the low part is the half-degrees <= p * m_1; some listed types extend it
    tailed = {len(t) for t in uncertified if t[-1] > p * t[0]}
    assert tailed == {2, 3}


def _set_bits(bits):
    return tuple(d for d in range(bits.bit_length()) if bits >> d & 1)


def test_thm11_demo_decides_each_degree_tuple_once(monkeypatch):
    # 3,584 gcd-failing types share 701 low parts and 247 degree tuples: one
    # int-row step per low part and one kernel call per degree tuple, with no
    # module, no report and no degree count from scratch
    calls = {"_with_generator": 0, "class_sums": 0, "PsiModule": 0, "condition_report": 0,
             "_monomial_degrees": 0}
    decided = []
    for module, name in ((cli, "_with_generator"), (cli, "class_sums"), (psimod, "PsiModule"),
                         (psimod, "condition_report"), (psimod, "_monomial_degrees")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            if _name == "class_sums":
                decided.append(args[1])
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    res = run("reproduce", "thm1.1-demo")
    assert res.exit_code == 0
    assert calls == {"_with_generator": 701, "class_sums": 247, "PsiModule": 0,
                     "condition_report": 0, "_monomial_degrees": 0}
    monkeypatch.undo()
    # each call gets a distinct tuple of sorted distinct degrees
    assert len(set(decided)) == 247
    assert all(isinstance(d, tuple) and list(d) == sorted(set(d)) for d in decided)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_thm11_demo_decides_as_the_condition_report(p, monkeypatch):
    # on the bottom window of every low part the demo walks, the kernel's
    # sums are the report's and the demo's decision, read off its listing
    # (a low part stands for itself), is the report's holds_everywhere
    ctx = PrimeContext(p)
    sums = {}

    def recording(ctx, degrees):
        sums[degrees] = psimod.class_sums(ctx, degrees)
        return sums[degrees]

    monkeypatch.setattr(cli, "class_sums", recording)
    res = run("reproduce", "--p", str(p), "thm1.1-demo")
    monkeypatch.undo()
    uncertified = json.loads(res.output)["summary"]["uncertified"]
    walked = [(low, _set_bits(bits)[1:]) for low, bits in cli._gcd_failing_low_parts(p, 40)]
    assert {degrees for _, degrees in walked} == sums.keys()
    for low, degrees in walked:
        report = condition_report(enumerate_classes(SpaceType(ctx, low), (low[0], p * low[0])))
        assert (list(low) not in uncertified) == report.holds_everywhere, low
        assert sums[degrees] == (
            [c.valuation_sum for c in report.per_class], [c.nu_bound for c in report.per_class]
        ), low


@pytest.mark.parametrize("p, low_parts", [(3, 701), (5, 730), (7, 549)])
def test_thm11_demo_carried_rows_match_a_count_from_scratch(p, low_parts):
    # each low part's degrees come from its parent's bits and one more
    # generator; a count from nothing must agree on every low part walked,
    # those whose generators repeat among them; bit 0 is the empty word
    ctx = PrimeContext(p)
    walked = list(cli._gcd_failing_low_parts(p, 40))
    degrees = dict(walked)
    assert len(walked) == len(degrees) == low_parts
    if p == 3:
        assert {(5, 5), (5, 5, 10), (3, 3, 3)} <= degrees.keys()
    for low, bits in walked:
        got = _set_bits(bits)
        assert got[0] == 0, low
        assert got[1:] == enumerate_classes(SpaceType(ctx, low), (low[0], p * low[0])).degrees, low


def test_thm11_demo_runs_at_p_83():
    # the rank-3 algebra at p = 83 has 102,339 monomials, over the old
    # 100,000 budget; its windows take at most 307,017 counting steps
    ctx = PrimeContext(83)
    assert check_dp_work(SpaceType(ctx, (3, 40, 40)), 83 * 40) == 3 * 102_339
    res = run("reproduce", "--p", "83", "thm1.1-demo")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["summary"]["uncertified"] == []


@pytest.mark.parametrize("p", ["431", "1000000007"])
def test_thm11_demo_refuses_a_prime_over_the_work_limit(p, capsys):
    # the demo asks about (3, 40, 40) on [3, 40p], which costs at least as
    # much as any window it builds; p = 421 is the largest prime admitted
    assert check_dp_work(SpaceType(PrimeContext(421), (3, 40, 40)), 421 * 40) <= DP_WORK_LIMIT
    start = time.perf_counter()
    assert main(["reproduce", "--p", p, "thm1.1-demo"], standalone_mode=False) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Error: target thm1.1-demo: counting the degrees of (3,40,40)")
    assert captured.err.endswith(f"over the limit of {DP_WORK_LIMIT}\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["thm1.1-demo", "lemma3.4", "adem", "bound"])
def test_cap_on_a_target_that_does_not_read_it_is_a_usage_error(target):
    res = run("reproduce", "--cap", "115", target)
    assert res.exit_code == 2, res.output
    assert res.output == f"Error: target {target} does not read --cap; only prop1..prop4 and thm1.2 do\n"


@pytest.mark.parametrize("target", ["thm1.2", "prop1"])
def test_cap_above_the_finiteness_bound_is_a_usage_error(target):
    # no type with top >= M0 = 115 survives the sieve, and the scan is cubic in the cap
    res = run("reproduce", "--cap", "116", target)
    assert res.exit_code == 2, res.output
    assert res.output == "Error: cap must be at most M0 = 115, the rank-3 finiteness bound\n"


def test_config_records_cap_only_where_read(shared_enumeration):
    for target in ("thm1.1-demo", "lemma3.4", "adem", "bound"):
        assert "cap" not in json.loads(run("reproduce", target).output)["config"], target
    for args, cap in ((("prop2",), 60), (("--cap", "115", "prop2"), 115),
                      (("thm1.2",), 60), (("--cap", "115", "thm1.2"), 115)):
        doc = json.loads(run("reproduce", *args).output)
        assert doc["config"] == {"p": 3, "format": "json", "cap": cap}, args


def test_workers_below_one_is_a_usage_error():
    # --workers is no longer an option, so any count is refused as unknown
    for workers in ("0", "-3"):
        res = run("reproduce", "--workers", workers, "thm1.2")
        assert res.exit_code == 2, (workers, res.output)
        assert "--workers" in res.output


def test_check_type_refuses_oversized_enumeration(monkeypatch):
    # the work bound is a closed form, so a huge prime is refused at once
    start = time.perf_counter()
    res = run("check-type", "--p", "1000000007", "2,3")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2 and res.output.count("\n") == 1
    assert res.output.startswith("Error: bad type '2,3': counting the degrees of (2,3) up to 3000000021")
    # a rank-1 type takes only p steps but holds p degrees
    start = time.perf_counter()
    res = run("check-type", "--p", "1000003", "2")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2 and res.output.count("\n") == 1
    assert res.output.endswith("finds up to 1000003 degrees, over the limit of 100000\n")
    assert run("check-type", "--p", "99991", "2").exit_code == 0
    # p = 31 with the 20 generators 2..21 has ~7.7e13 monomials but costs
    # 189,100 counting steps: refused only under a lower limit
    halves = ",".join(str(m) for m in range(2, 22))
    monkeypatch.setattr(psimod, "DP_WORK_LIMIT", 189_099)
    res = run("check-type", "--p", "31", halves)
    assert res.exit_code == 2 and res.output.endswith("over the limit of 189099\n")
    monkeypatch.setattr(psimod, "DP_WORK_LIMIT", 189_100)
    res = run("check-type", "--p", "31", halves)
    assert res.exit_code == 0, res.output


def test_adem_command():
    res = run("adem", "--p", "3", "3", "7")
    assert res.exit_code == 0
    assert res.output.strip() == "P^3 P^7 = - P^10 + P^9 P^1"
    res = run("adem", "--p", "3", "9", "1")
    assert "admissible" in res.output


def test_check_type_json():
    res = run("check-type", "--p", "3", "4,8,12")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    entry = doc["types"][0]
    assert entry["verdict"] == "eliminated"
    assert entry["reason"] == "GcdTest(m=4)"
    assert entry["certificate"]["window"] == [4, 12]
    assert entry["cohomology_degrees"] == [7, 15, 23]

    res = run("check-type", "--p", "3", "2,4,6")
    assert json.loads(res.output)["types"][0]["verdict"] == "survives"

    res = run("check-type", "--p", "3", "2,21,27")
    entry = json.loads(res.output)["types"][0]
    assert entry["reason"] == "PsiCondition"
    assert entry["certificate"]["window"] == [21, 81]
    assert entry["certificate"]["windows_tried"] == 7

    for args, window, tried in (
        (("--window-policy", "exhaustive", "2,12,57,59"), [12, 118], 77),
        (("--p", "5", "--window-policy", "exhaustive", "2,50,54"), [50, 270], 65),
    ):
        certificate = json.loads(run("check-type", *args).output)["types"][0]["certificate"]
        assert (certificate["window"], certificate["windows_tried"]) == (window, tried), args


def test_check_type_markdown():
    res = run("check-type", "--p", "3", "2,4,6", "--format", "markdown")
    assert res.exit_code == 0
    assert "| (2,4,6) | (3,7,11) | survives |" in res.output


def test_reproduce_prop_lists():
    res = run("reproduce", "prop2")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["summary"]["case2"] == [[2, 4, 6], [3, 4, 6], [3, 5, 9], [6, 8, 12]]
    assert doc["discrepancies"] == []
    assert run("reproduce", "prop1").exit_code == 0
    assert run("reproduce", "prop3").exit_code == 0
    assert run("reproduce", "prop4").exit_code == 0


def test_reproduce_thm12():
    res = run("reproduce", "thm1.2")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    counts = doc["summary"]["counts"]
    assert counts == {"survivors": 6, "quasi_regular": 4, "steenrod": 8, "psi_claimed": 9}
    assert doc["psi_uncertified"] == [[2, 3, 9]]
    assert doc["summary"]["survivors"] == [
        [2, 4, 6], [2, 6, 8], [3, 5, 7], [3, 6, 8], [6, 8, 10], [6, 8, 12],
    ]
    assert doc["discrepancies"] == []


@pytest.mark.parametrize("args", [
    ("--cap", "3", "thm1.2"),
    ("--cap", "20", "thm1.2"),
    ("--cap", "44", "thm1.2"),
    ("--cap", "45", "thm1.2"),
    ("--cap", "20", "prop1"),
    ("--cap", "20", "prop2"),
    ("--cap", "20", "prop3"),
    ("--cap", "20", "prop4"),
])
def test_reproduce_below_the_largest_fixture_top(args):
    # the fixtures reach top 45; a smaller cap is diffed against the entries
    # it can reach, not reported as missing the others
    res = run("reproduce", *args)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["discrepancies"] == []


def test_reproduce_lemma34_summary():
    res = run("reproduce", "lemma3.4")
    assert res.exit_code == 0
    assert json.loads(res.output)["summary"] == {"grid_points": 1860, "violations": []}


def test_reproduce_lemma34_lists_each_violation(monkeypatch):
    # two entries of one run are raised to the bound m * t, so the target
    # must list both grid points and exit 1
    def raised(ctx, m, t, prefix):
        sums = psimod.main_lemma_sums(ctx, m, t, prefix)
        if (ctx.p, m, t) == (5, 3, 2):
            sums[1] = sums[4] = m * t
        return sums

    monkeypatch.setattr(cli, "main_lemma_sums", raised)
    res = run("reproduce", "lemma3.4")
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["summary"] == {"grid_points": 1860, "violations": [[5, 3, 2, 3], [5, 3, 2, 6]]}
    assert doc["discrepancies"] == ["2 run-product bound violations"]


def test_reproduce_cap_below_p_is_a_usage_error():
    res = run("reproduce", "--cap", "2", "thm1.2")
    assert (res.exit_code, res.output) == (2, "Error: cap must be at least p\n")


def test_reproduce_names_a_fixture_mismatch(monkeypatch, shared_enumeration):
    # a fixture that disagrees with the computed lists is a discrepancy and exit 1
    monkeypatch.setattr(classifier, "SURVIVORS", classifier.SURVIVORS[:-1])
    res = run("reproduce", "thm1.2")
    assert res.exit_code == 1
    assert json.loads(res.output)["discrepancies"] == [
        "survivor list mismatch: computed [(2, 4, 6), (2, 6, 8), (3, 5, 7), (3, 6, 8), "
        "(6, 8, 10), (6, 8, 12)], expected [(2, 4, 6), (2, 6, 8), (3, 5, 7), (3, 6, 8), "
        "(6, 8, 10)]"
    ]
    res = run("reproduce", "--format", "markdown", "thm1.2")
    assert res.exit_code == 1
    assert "\n## discrepancies\n- survivor list mismatch: computed [(2, 4, 6), " in res.output

    monkeypatch.setattr(cli, "PROP_CASE1", cli.PROP_CASE1[1:])
    res = run("reproduce", "prop1")
    assert res.exit_code == 1
    assert json.loads(res.output)["discrepancies"] == [
        "case 1: computed [(2, 3, 9), (2, 12, 18), (2, 21, 27), (2, 30, 36), (2, 39, 45), "
        "(7, 12, 18), (10, 12, 18), (16, 30, 36), (19, 30, 36)] != expected [(2, 12, 18), "
        "(2, 21, 27), (2, 30, 36), (2, 39, 45), (7, 12, 18), (10, 12, 18), (16, 30, 36), "
        "(19, 30, 36)]"
    ]


def test_reproduce_thm12_markdown_has_a_summary(shared_enumeration):
    res = run("reproduce", "--format", "markdown", "thm1.2")
    assert res.exit_code == 0
    assert res.output.endswith(
        "\n## summary\n"
        "- counts: {'survivors': 6, 'quasi_regular': 4, 'steenrod': 8, 'psi_claimed': 9}\n"
        "- psi_certified: [[2, 21, 27], [2, 30, 36], [2, 39, 45], [16, 30, 36], [18, 24, 26], "
        "[19, 30, 36], [21, 27, 29], [30, 36, 38]]\n"
        "- quasi_regular: [[2, 3, 4], [2, 3, 5], [3, 4, 6], [5, 6, 8]]\n"
        "- steenrod_eliminated: [[2, 3, 6], [2, 12, 18], [3, 5, 9], [4, 6, 8], [7, 12, 18], "
        "[8, 12, 14], [10, 12, 18], [12, 18, 20]]\n"
        "- survivors: [[2, 4, 6], [2, 6, 8], [3, 5, 7], [3, 6, 8], [6, 8, 10], [6, 8, 12]]\n\n"
    )
    assert "\n## psi_uncertified\n- [2, 3, 9]\n\n## discrepancies\n- none\n" in res.output


def test_reproduce_adem_reports_a_relation_that_fails(monkeypatch):
    def broken(k):
        raise RelationShapeError(f"broken at k = {k}")

    monkeypatch.setattr(cli, "verify_relation_42", broken)
    res = run("reproduce", "adem")
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["discrepancies"] == ["a pinned relation failed to verify"]
    checks = {check["check"]: check for check in doc["summary"]["checks"]}
    assert checks["R42 family, k <= 50"] == {
        "check": "R42 family, k <= 50", "passed": False, "detail": "broken at k = 1"}
    assert [name for name, check in checks.items() if not check["passed"]] == ["R42 family, k <= 50"]


def test_reproduce_other_targets():
    for target in ("lemma3.4", "adem", "bound", "thm1.1-demo"):
        res = run("reproduce", target)
        assert res.exit_code == 0, (target, res.output)


def test_reproduce_determinism():
    first = run("reproduce", "thm1.2")
    second = run("reproduce", "thm1.2")
    assert first.output == second.output
    assert first.exit_code == second.exit_code == 0


def test_check_type_oracle_and_policy():
    res = run("check-type", "--p", "3", "2,21,27", "--oracle", "--window-policy", "exhaustive")
    assert res.exit_code == 0
    entry = json.loads(res.output)["types"][0]
    assert entry["reason"] == "PsiCondition"
    assert any("oracle" in line for line in entry["trace"])
    assert run("check-type", "--p", "3", "2,4,6", "--oracle", "--k-max", "2").exit_code == 2


def test_check_type_oracle_on_a_gcd_failing_type():
    # gcd(4, 8, 12) = 4, so the bottom window's report is checked by the oracle
    entry = json.loads(run("check-type", "--oracle", "4,8,12").output)["types"][0]
    assert entry["reason"] == "GcdTest(m=4)"
    assert entry["trace"] == ["oracle (k_max=50) confirms every valuation sum",
                              "gcd of low half-degrees is 4, not a divisor of p-1"]


def test_oracle_bound_is_derived_from_the_prime():
    # the oracle answers alike for every bound of at least max(p, k0), so
    # the bound is max(50, p, k0) and is not an option
    for args in (("--k-max", "7", "2,4,6"), ("--oracle", "--k-max", "50", "2,21,27")):
        res = run("check-type", *args)
        assert (res.exit_code, res.output) == (2, "Error: unrecognized arguments: --k-max\n"), args
    assert json.loads(run("check-type", "--oracle", "2,21,27").output)["config"]["k_max"] == 50
    assert json.loads(run("check-type", "2,21,27").output)["config"]["k_max"] is None
    res = run("check-type", "--p", "53", "--oracle", "2,4,6")
    assert res.exit_code == 0 and json.loads(res.output)["config"]["k_max"] == 53
    res = run("check-type", "--p", "1009", "--oracle", "2,4,6")
    assert (res.exit_code, res.output) == (
        2, "Error: --oracle checks k up to max(50, p, k0) = 1009, over the limit of 1000\n")
    assert run("check-type", "--p", "1009", "2,4,6").exit_code == 0


def test_bound_command():
    res = run("bound", "--p", "3", "--rank", "3")
    doc = json.loads(res.output)
    assert doc["summary"]["monomials"] == 19
    assert doc["summary"]["min_half_degree"] == 115


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    res = run("check-type", "--p", "3", "2,4,6", "--out", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["types"][0]["verdict"] == "survives"
    # the file holds exactly the bytes stdout would
    for args in (("check-type", "--p", "3", "2,21,27"), ("reproduce", "bound")):
        res = run(*args, "--out", str(out))
        assert res.exit_code == 0 and res.output == ""
        assert out.read_bytes() == run(*args).output.encode()


def _dumps(document):
    return json.dumps(document, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def shared_enumeration():
    """``proposition_lists`` is a pure function of its arguments: the report
    commands below share one enumeration per cap instead of one each."""
    cached = functools.cache(classifier.proposition_lists)
    with pytest.MonkeyPatch.context() as mp:
        # thm1.2 reads the classifier's binding, the prop targets the CLI's
        mp.setattr(classifier, "proposition_lists", cached)
        mp.setattr(cli, "proposition_lists", cached)
        yield


@pytest.mark.parametrize("args", [
    ("reproduce", "thm1.2"),
    ("reproduce", "--cap", "115", "thm1.2"),
    ("reproduce", "thm1.1-demo"),
    ("reproduce", "lemma3.4"),
    ("reproduce", "adem"),
    ("reproduce", "--timing", "bound"),
    ("reproduce", "prop1"),
    ("reproduce", "prop2"),
    ("reproduce", "prop3"),
    ("reproduce", "prop4"),
    ("check-type", "--p", "3", "2,21,27"),
    ("check-type", "--p", "5", "--window-policy", "exhaustive", "4,6,14"),
    ("check-type", "--p", "3", "--window-policy", "exhaustive", "--oracle", "2,21,27"),
])
def test_report_writer_matches_json_dumps(args, monkeypatch, shared_enumeration):
    # the documents as built, tuples included, not as parsed back from the output
    documents = []
    emit = cli._emit

    def recording(document, fmt, out):
        documents.append(document)
        emit(document, fmt, out)

    monkeypatch.setattr(cli, "_emit", recording)
    res = run(*args)
    assert res.exit_code == 0, res.output
    [document] = documents
    assert cli._json_text(document) == _dumps(document)
    assert res.output == _dumps(document) + "\n"
    if "--timing" in args:
        assert isinstance(document["timing_seconds"], float)


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "[]": [], "{}": {}, "()": ()})
@example([[], {}, (), [[]], {"": {"": []}}])
@example({"b\u00e9": [2**100, -(2**100), True, False, None], "\"a\n": "\x00\u2028\"\\"})
def test_report_writer_matches_json_dumps_on_any_document(value):
    assert cli._json_text(value) == _dumps(value)


def test_report_writer_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError):
        cli._json_text({"a": [object()]})

