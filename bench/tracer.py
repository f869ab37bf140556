"""Spans and counts recorded around apsieve's public functions.

The tracer never edits the program. It replaces a public function with a
wrapper in every ``apsieve`` module that binds it (``classifier`` imports
``eliminate_by_psi`` by name, ``cli`` imports ``check_type``, and so on), and
puts the originals back on ``uninstall``. Timed functions get a span
``(op, name, start, end, parent, outcome)``; the spans of one op share the
op id and ``parent`` is the index of the enclosing span, or -1. Functions
that take well under a microsecond are only counted, because timing them
from outside would measure the wrapper.

``outcome`` is the small integer the workload counts need: whether a filter
passed, whether a window search certified, how many triples an enumeration
kept.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from statistics import median

PROPOSITION_LISTS = "classifier.proposition_lists"
ELIMINATE_BY_PSI = "psimod.eliminate_by_psi"


def _passed(result) -> int:
    return int(result.passed)


def _certified(result) -> int:
    return int(result is not None)


def _kept(result) -> int:
    return sum(len(types) for types in result.values())


# (module, attribute) -> outcome function, or None when no outcome is counted.
TIMED = {
    ("classifier", "proposition_lists"): _kept,
    ("classifier", "check_type"): None,
    ("classifier", "endgame_rules"): None,
    ("classifier", "classify_theorem_1_2"): None,
    ("psimod", "eliminate_by_psi"): _certified,
    ("psimod", "condition_report"): None,
    ("psimod", "enumerate_classes"): None,
    ("psimod", "monomial_degree_multiplicities"): None,
    ("psimod", "theorem_1_1_test"): _passed,
    ("steenrod", "Derivation.satisfiable"): None,
    ("steenrod", "verify_relation_42"): None,
    ("steenrod", "verify_relation_43"): None,
    ("finiteness", "rank_bound"): None,
}
COUNTED = {
    ("padic", "val"): None,
    ("steenrod", "normalize"): None,
    ("steenrod", "degree_realizable"): None,
    ("classifier", "wilkerson_filter_1"): _passed,
    ("classifier", "wilkerson_filter_2"): _passed,
}

# Per-op span totals reported as "<name>.s" and call counts as "<name>.calls".
SPAN_TIMES = [f"{m}.{a}" for m, a in TIMED]
SELF_TIMES = ["classifier.classify_theorem_1_2", "cli.main"]
CALL_COUNTS = [
    "classifier.check_type",
    "classifier.endgame_rules",
    "psimod.eliminate_by_psi",
    "psimod.condition_report",
    "steenrod.Derivation.satisfiable",
    "steenrod.normalize",
    "steenrod.degree_realizable",
    "padic.val",
]
# Ratios formed from run-level counts by ``layer_metrics``.
RATIOS = (
    "classifier.enum_yield",
    "psimod.windows_per_search",
    "psimod.certify_ratio",
    "psimod.monomial_cache.hit_ratio",
)
# Counts that depend on what earlier ops left in the program's caches.
CACHE_COUNTS = ("psimod.monomial_cache.hits", "psimod.monomial_cache.misses")


class Tracer:
    """Collects the spans and counts of one op at a time."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []
        self._cache = None
        self._cache_base = (0, 0)

    # -- installing wrappers ------------------------------------------------
    def install(self) -> None:
        """Wrap every target in every loaded apsieve module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "apsieve" or n.startswith("apsieve.")]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for (module, attr), outcome in table.items():
                owner = importlib.import_module(f"apsieve.{module}")
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, make(name, original, outcome))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original, outcome)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
                if attr == "monomial_degree_multiplicities":
                    self._cache = original

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _timed(self, name, fn, outcome):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((self.op, name, 0.0, 0.0, parent, 0))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, 0)
            if outcome is not None:
                spans[idx] = (self.op, name, start, end, parent, outcome(result))
            return result

        return wrapper

    def _counted(self, name, fn, outcome):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            parent = spans[stack[-1]][1] if stack else None
            counts[(name, parent, 0 if outcome is None else outcome(result))] += 1
            return result

        return wrapper

    # -- one op -------------------------------------------------------------
    def begin(self, op: int) -> None:
        self.op = op
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        info = self._cache.cache_info()
        self._cache_base = (info.hits, info.misses)

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` under the op's root span ``cli.main``."""
        return self._timed("cli.main", fn, None)(*args, **kwargs)

    def end(self) -> dict:
        """Fold the op's spans into per-op layer values."""
        info = self._cache.cache_info()
        return summarize(
            self.spans, self.counts,
            info.hits - self._cache_base[0], info.misses - self._cache_base[1],
        )

    def folded(self) -> dict[str, list]:
        """Span paths, root first, with calls, total and self seconds."""
        durations, self_times = _durations(self.spans)
        paths: list[str] = []
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_op, name, _start, _end, parent, _out), dur, own in zip(self.spans, durations, self_times):
            paths.append(name if parent < 0 else f"{paths[parent]};{name}")
            row = out[paths[-1]]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return dict(out)


def _durations(spans) -> tuple[list[float], list[float]]:
    """Each span's duration and self time: the duration minus the time its
    child spans cover. Spans of one thread nest, so the children's
    durations add up to that time."""
    durations = [end - start for _op, _name, start, end, _parent, _out in spans]
    self_times = list(durations)
    for span, dur in zip(spans, durations):
        if span[4] >= 0:
            self_times[span[4]] -= dur
    return durations, self_times


def summarize(spans, counts, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-op totals, self times, call counts and workload counts."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    by_parent: Counter = Counter()
    outcome_by_parent: Counter = Counter()
    outcome: Counter = Counter()
    for (_op, name, _start, _end, parent, out), dur, own in zip(spans, *_durations(spans)):
        total[name] += dur
        self_time[name] += own
        calls[name] += 1
        outcome[name] += out
        parent_name = spans[parent][1] if parent >= 0 else None
        by_parent[(name, parent_name)] += 1
        outcome_by_parent[(name, parent_name)] += out
    for (name, parent_name, out), n in counts.items():
        calls[name] += n
        by_parent[(name, parent_name)] += n
        outcome_by_parent[(name, parent_name)] += out * n

    values: dict[str, float] = {}
    for name in SPAN_TIMES:
        values[f"{name}.s"] = total[name]
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = self_time[name]
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = calls[name]
    gcd = ("psimod.theorem_1_1_test", PROPOSITION_LISTS)
    values["classifier.triples_scanned"] = by_parent[gcd]
    values["classifier.funnel.gcd_pass"] = outcome_by_parent[gcd]
    values["classifier.funnel.w1_pass"] = outcome_by_parent[("classifier.wilkerson_filter_1", PROPOSITION_LISTS)]
    values["classifier.funnel.w2_pass"] = outcome_by_parent[("classifier.wilkerson_filter_2", PROPOSITION_LISTS)]
    values["classifier.funnel.kept"] = outcome[PROPOSITION_LISTS]
    values["psimod.search_windows"] = by_parent[("psimod.condition_report", ELIMINATE_BY_PSI)]
    values["psimod.eliminate_by_psi.certified"] = outcome[ELIMINATE_BY_PSI]
    values["psimod.monomial_cache.hits"] = cache_hits
    values["psimod.monomial_cache.misses"] = cache_misses
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timed_ops: list[dict], counted_ops: list[dict]) -> dict[str, float]:
    """Run-level per-layer metrics.

    Times are medians over the traced ops. Counts are sums over
    ``counted_ops``, a set of ops fixed by the workload, so that they
    repeat exactly from run to run; ratios are formed from those sums.
    """
    out: dict[str, float] = {}
    for key in timed_ops[0]:
        if key.endswith(".s") or key.endswith(".self_s"):
            out[key] = median(op[key] for op in timed_ops)
        else:
            out[key] = sum(op[key] for op in counted_ops)
    out["classifier.enum_yield"] = _ratio(out["classifier.funnel.kept"], out["classifier.triples_scanned"])
    out["psimod.windows_per_search"] = _ratio(out["psimod.search_windows"], out["psimod.eliminate_by_psi.calls"])
    out["psimod.certify_ratio"] = _ratio(out["psimod.eliminate_by_psi.certified"], out["psimod.eliminate_by_psi.calls"])
    hits, misses = out["psimod.monomial_cache.hits"], out["psimod.monomial_cache.misses"]
    out["psimod.monomial_cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["cli.self_s"] = out.pop("cli.main.self_s")
    return out
