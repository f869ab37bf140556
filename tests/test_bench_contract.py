"""The benchmark's contract with the program.

``bench/tracer.py`` wraps public functions by name for ``--trace 1`` runs and
``bench/checks.py`` reads result fields, so a rename or deletion in
``apsieve`` would break those runs silently.  These tests load the tracer
from ``bench/`` as it is and change nothing there.
"""

import importlib
import importlib.util
import os
import sys
from collections import Counter
from math import comb

import pytest

from apsieve import PrimeContext, SpaceType, enumerate_classes, gcd_oracle, proposition_lists
from apsieve.cli import main
from apsieve.psimod import monomial_degree_multiplicities

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every value bound in an apsieve module, or in the dict of a class
    defined there, by (module, name[, attribute])."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "apsieve" and not name.startswith("apsieve."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_every_traced_name_resolves(tracer):
    for table in (tracer.TIMED, tracer.COUNTED):
        for module, attr in table:
            owner = importlib.import_module(f"apsieve.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module, attr)


def test_tracer_restores_every_original(tracer):
    before = _bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin(0)
        code = trace.root(main, ["reproduce", "--cap", "20", "thm1.2"],
                          standalone_mode=False, prog_name="apsieve")
        values = trace.end()
    finally:
        trace.uninstall()
    after = _bindings()
    assert code == 0
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
    # the wrappers saw the op: every triple below the cap went through the gcd test
    assert values["classifier.triples_scanned"] == comb(19, 3)
    kept = proposition_lists(PrimeContext(3), cap=20)
    assert values["classifier.funnel.kept"] == sum(map(len, kept.values()))


def test_traced_spans_of_the_relation_sweep_and_the_bound(tracer, capsys):
    # verify-targets times these three by the wrappers bound in their own
    # modules; a caller that reached them through a local alias would leave
    # their spans, and so their per-layer times, at zero
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin(0)
        codes = [trace.root(main, ["reproduce", target], standalone_mode=False,
                            prog_name="apsieve") for target in ("adem", "bound")]
        spans = Counter(span[1] for span in trace.spans)
    finally:
        trace.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    assert (spans["steenrod.verify_relation_42"], spans["steenrod.verify_relation_43"],
            spans["finiteness.rank_bound"]) == (50, 49, 1)


def test_fields_the_benchmark_reads():
    info = monomial_degree_multiplicities.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    module = enumerate_classes(SpaceType(PrimeContext(3), (4, 8, 12)), (4, 12))
    assert isinstance(gcd_oracle(module, 0, 3).value, int)
