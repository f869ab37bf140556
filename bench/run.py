"""apsieve benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; apsieve is imported from ``src/``.
Prints a few summary lines and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
record of the run, with every failure message, goes to ``bench/out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

from checks import (
    certificate_failures,
    check_type_failures,
    command_failures,
    thm12_failures,
)
from tracer import CACHE_COUNTS, RATIOS, layer_metrics
from workloads import WORKLOADS, check_type_command, check_types_cycle, type_pools

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(os.getcwd(), "src")
REGISTRY = os.path.join(OUT, "registry.json")

MIN_FRESH_OPS = 4  # at least two traced and two untraced ops in a traced run
SETUP_PROBES = 6  # import-only interpreters started by the check-types workload
OP_TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, CHILD, *args], capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "apsieve")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


class Registry:
    """Report hashes and work counts by input, kept across runs of one source."""

    def __init__(self, source: str):
        self.data = {"source": source, "reports": {}, "counts": {}}
        try:
            with open(REGISTRY, encoding="utf-8") as fh:
                stored = json.load(fh)
            if stored.get("source") == source:
                self.data = stored
        except (OSError, ValueError):
            pass

    def same(self, table: str, key: str, value) -> bool:
        """Record ``value`` for ``key``, or compare it with the recorded one."""
        return self.data[table].setdefault(key, value) == value

    def save(self) -> None:
        tmp = REGISTRY + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh)
        os.replace(tmp, REGISTRY)


# -- running ops -------------------------------------------------------------------


def run_fresh(workload, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """One fresh interpreter per op; every other op is traced in a traced run."""
    ops, imports = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_FRESH_OPS:
        i = len(ops)
        traced = trace and i % 2 == 1
        job = {"op": i, "trace": traced, "folded": traced and i == 1,
               "commands": [list(c) for c in workload.commands]}
        try:
            reply = _child("once", json.dumps(job))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            ops.append({"op": i, "traced": traced, "crash": str(exc)})
            continue
        imports.append(reply.pop("import_s"))
        reply.update(traced=traced, key=" ".join(map(" ".join, job["commands"])))
        ops.append(reply)
    return ops, imports


def run_check_types(seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float], int]:
    """Whole cycles of the check-types stream in one long-lived process.

    A traced run alternates traced and untraced cycles and ends after an
    even number of them, so both halves do the same work.
    """
    imports = [_child("import")["import_s"] for _ in range(SETUP_PROBES)]
    pools = type_pools()
    ops = []
    worker = subprocess.Popen(
        [sys.executable, CHILD, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        imports.append(json.loads(worker.stdout.readline())["import_s"])
        cycle_len = 0
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or (trace and cycle % 2) or time.perf_counter() - start < seconds:
            stream = check_types_cycle(pools, seed, cycle)
            cycle_len = len(stream)
            traced = trace and cycle % 2 == 0
            for p, halves, policy in stream:
                i = len(ops)
                command = check_type_command(p, halves, policy)
                worker.stdin.write(json.dumps({"op": i, "trace": traced, "commands": [command]}) + "\n")
                worker.stdin.flush()
                line = worker.stdout.readline()
                if not line:
                    raise RuntimeError(f"check-types worker exited at op {i}")
                reply = json.loads(line)
                reply.update(traced=traced, key=" ".join(command), input=(p, halves, policy))
                ops.append(reply)
            cycle += 1
        worker.stdin.close()
        worker.wait(timeout=OP_TIMEOUT_S)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    return ops, imports, cycle_len


# -- checking ------------------------------------------------------------------------


def check_ops(workload, ops: list[dict], seed: int, registry: Registry) -> None:
    """Attach a list of failure messages to every op."""
    cert_cache: dict[str, list[str]] = {}
    for op in ops:
        if "crash" in op:
            op["failures"] = [op["crash"]]
            continue
        failures = []
        for result in op["results"]:
            found, doc = command_failures(result)
            label = " ".join(result["argv"])
            digest = hashlib.sha256(result["report"].encode()).hexdigest()
            if not registry.same("reports", label, digest):
                found.append("report bytes differ from an earlier op with the same input")
            if doc is not None:
                if workload.name.startswith("thm12"):
                    found += thm12_failures(doc)
                if workload.name == "check-types":
                    found += check_type_failures(doc, *op["input"])
                if digest not in cert_cache:
                    cert_cache[digest] = certificate_failures(doc, seed)
                found += cert_cache[digest]
            failures += [f"{label}: {msg}" for msg in found]
        if op["layers"] is not None:
            work = {k: v for k, v in op["layers"].items() if not k.endswith(("_s", ".s")) and k not in CACHE_COUNTS}
            if not registry.same("counts", f"{workload.name}: {op['key']}", work):
                failures.append(f"{op['key']}: work counts differ from an earlier traced op with the same input")
        op["failures"] = failures


# -- metrics --------------------------------------------------------------------------


def end_to_end(workload, ops: list[dict], imports: list[float], cycle_len: int) -> dict[str, float]:
    done = [op for op in ops if "crash" not in op]
    seconds = [op["seconds"] for op in done]
    types = len(done) * workload.types_per_op
    return {
        "op_s_p50": median(seconds),
        "op_s_p90": quantiles(seconds, n=10, method="inclusive")[-1],
        "types_per_s": types / sum(seconds),
        "setup_s": median(imports),
        # check-types: the worker after its first cycle, which holds every
        # pooled type, so that the figure does not depend on how many cycles fit
        "peak_rss_mb": median(op["rss_mb"] for op in done) if workload.fresh_process else ops[cycle_len - 1]["rss_mb"],
    }


def per_layer(ops: list[dict], count_window: int) -> dict[str, float]:
    traced = [op for op in ops if op["traced"] and "crash" not in op]
    untraced = [op for op in ops if not op["traced"] and "crash" not in op]
    counted = [op["layers"] for op in traced if op["op"] < count_window]
    metrics = layer_metrics([op["layers"] for op in traced], counted)
    traced_p50 = median(op["seconds"] for op in traced)
    untraced_p50 = median(op["seconds"] for op in untraced)
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.untraced_op_s_p50"] = untraced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    return metrics


UNITS = {"types_per_s": "1/s", "peak_rss_mb": "MB", **{name: "ratio" for name in RATIOS}}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s", "_p50", "_p90")) else "count"


def composition(ops: list[dict]) -> dict[str, float]:
    """Shares of the check-types stream by stratum, policy, repetition and verdict."""
    n = len(ops)
    seen = set()
    repeated = certified = 0
    for op in ops:
        p, halves, _policy = op["input"]
        repeated += (p, halves) in seen
        seen.add((p, halves))
        certified += '"reason": "PsiCondition"' in op["results"][0]["report"]
    return {
        "share_p3_rank4": sum(op["input"][0] == 3 for op in ops) / n,
        "share_p5_rank3": sum(op["input"][0] == 5 for op in ops) / n,
        "share_standard": sum(op["input"][2] == "standard" for op in ops) / n,
        "share_exhaustive": sum(op["input"][2] == "exhaustive" for op in ops) / n,
        "share_repeated": repeated / n,
        "share_certified": certified / n,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "apsieve", "cli.py")):
        _fail(f"no apsieve source under {SRC}; run from the root of a checkout")
    # Byte-compile once, as an install would, so that set-up time does not
    # depend on whether the environment lets imports write bytecode.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "apsieve")],
        capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if compiled.returncode != 0:
        _fail(f"cannot compile apsieve: {compiled.stdout.strip()[-400:]}")
    try:
        _child("import")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        _fail(f"cannot import apsieve.cli: {exc}")
    os.makedirs(OUT, exist_ok=True)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if workload.fresh_process:
        ops, imports = run_fresh(workload, args.seconds, trace)
        count_window = 2
    else:
        ops, imports, count_window = run_check_types(args.seed, args.seconds, trace)

    sys.path.insert(0, SRC)
    registry = Registry(_source_digest())
    check_ops(workload, ops, args.seed, registry)
    registry.save()
    failed = sum(bool(op["failures"]) for op in ops)
    metrics = per_layer(ops, count_window) if trace else end_to_end(workload, ops, imports, count_window)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "metrics": metrics, "op_seconds": [op.get("seconds") for op in ops], "import_seconds": imports,
        "failures": [msg for op in ops for msg in op["failures"]][:100],
    }
    print(f"{workload.name}: {len(ops)} ops, {failed} failed, error_rate {failed / len(ops):.4f}")
    if workload.name == "check-types":
        record["composition"] = composition(ops)
        print("composition: " + ", ".join(f"{k} {v:.3f}" for k, v in record["composition"].items()))
    folded = next((op["folded"] for op in ops if op.get("folded")), None)
    if folded:
        record["folded_first_traced_op"] = folded
    for msg in record["failures"][:5]:
        print(f"failure: {msg}")
    out_path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
