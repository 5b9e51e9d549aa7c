"""Run the repository benchmark.

    python3 perfbench/run.py --workload fig6-long --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # all, one process

Each workload repeats set-up and its timed body until ``--seconds`` is
used up (at least once), checks the program's outputs on every
repetition, and prints a table of metrics followed, as the last line of
standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half the time untraced and half with every layer
wrapped (see ``tracing.py``) and reports the per-layer metrics, the
tracing overhead and coverage, and fails unless the traced results are
byte-identical to the untraced ones.  Provenance, checks, simulated
statistics and the full metric set go to ``perfbench/out/``.

The benchmark imports ``repro`` from ``src/`` of the checkout it sits
in; without it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)

#: Metric name -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Layers reported as ``<layer>.busy_s`` / ``.calls`` / counts.
LAYERS = ("netlist.logicsim", "power.compose", "power.measure",
          "power.model_init", "sca.acquirer_init", "sca.acquire", "sca.pool",
          "sca.cpa", "sca.mtd", "sca.highorder", "sca.tvla",
          "cells.library", "cells.preflight", "synth.reduced_aes",
          "cells.characterize", "cells.bias", "spice.transient", "spice.dc",
          "service.ledger.append", "service.ledger.refresh",
          "service.store.put", "service.store.get", "service.claim",
          "service.complete")

#: Environment the benchmark pins: serial BLAS, program defaults.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fail(message: str) -> "NoReturn":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import the program from this checkout; seconds spent importing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no program sources at {SRC}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    began = time.perf_counter()
    try:
        import repro
        import workloads
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not {SRC}")
    return time.perf_counter() - began, workloads


# -- provenance ---------------------------------------------------------------

def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    import hashlib
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "cpu_count": os.cpu_count(), "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "seed": seed,
            "env": dict(PINNED_ENV)}


# -- measurement --------------------------------------------------------------

class Repetitions:
    """Set-up times, body times and outcomes of one workload's runs."""

    def __init__(self):
        self.setup_s = []
        self.run_s = []
        self.outcomes = []
        #: Traced runs only: each repetition's span index range and its
        #: distinct (acquirer, plaintext) inputs.
        self.span_ranges = []
        self.distinct_inputs = []


def repeat(workload, seconds: float, workdir: str, tracer=None,
           min_setups: int = 1):
    """Set up and run ``workload`` until ``seconds`` is used up."""
    reps = Repetitions()
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = "setup"
            tracer.inputs.clear()
            first_span = len(tracer.spans)
        t0 = time.perf_counter()
        state = workload.setup(workdir)
        t1 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.phase = "run"
            outcome = workload.run(state, tracer)
            t2 = time.perf_counter()
        finally:
            workload.teardown(state)
        reps.setup_s.append(t1 - t0)
        reps.run_s.append(t2 - t1)
        reps.outcomes.append(outcome)
        if tracer is not None:
            reps.span_ranges.append((first_span, len(tracer.spans)))
            reps.distinct_inputs.append(len(tracer.inputs))
        elapsed = time.perf_counter() - began
        if elapsed + (t2 - t0) > seconds:
            break
    while len(reps.setup_s) < min_setups:
        t0 = time.perf_counter()
        state = workload.setup(workdir)
        reps.setup_s.append(time.perf_counter() - t0)
        workload.teardown(state)
    return reps


def tally(reps_list):
    """(attempted, failed, failed check names) over every repetition."""
    attempted = failed = 0
    broken = set()
    for reps in reps_list:
        for outcome in reps.outcomes:
            attempted += outcome.ops + len(outcome.checks)
            failed += outcome.failed_ops
            for name, ok in outcome.checks.items():
                if not ok:
                    failed += 1
                    broken.add(name)
    return attempted, failed, sorted(broken)


def import_samples(first: float, extra: int = 2) -> list:
    """Import times of the program: this process's, plus ``extra``
    fresh interpreters timing the same imports."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            "t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)")
    samples = [first]
    for _ in range(extra):
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def reset_peak_rss() -> None:
    """Restart the process's resident-set high-water mark (Linux), so a
    workload reports its own peak, not an earlier workload's."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Resident-set high-water mark since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(reps: Repetitions, import_s: float) -> dict:
    run_s = statistics.median(reps.run_s)
    rates = [o.traces / t for o, t in zip(reps.outcomes, reps.run_s)]
    return {"setup_s": import_s + statistics.median(reps.setup_s),
            "run_s": run_s,
            "traces_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb()}


def latencies(reps: Repetitions) -> dict:
    metrics = {}
    for outcome_name, prefix in (("done", "chunk_s"), ("cache-hit", "hit_s")):
        samples = [s for o in reps.outcomes
                   for s in o.latencies.get(outcome_name, [])]
        deciles = statistics.quantiles(samples, n=10, method="inclusive") \
            if len(samples) > 1 else [0.0] * 9
        metrics[f"{prefix}.p50"] = deciles[4]
        metrics[f"{prefix}.p90"] = deciles[8]
        metrics[f"{prefix}.samples"] = len(samples)
    return metrics


def per_layer(tracer, traced: Repetitions, plain: Repetitions) -> dict:
    """Per-iteration layer metrics from the traced repetitions."""
    n = len(traced.outcomes)
    metrics = {name: 0.0 for name in PER_LAYER}
    own = tracer.self_times()
    spans = tracer.spans
    covered = 0.0
    for span, self_s in zip(spans, own):
        metrics[f"{span.name}.busy_s"] = \
            metrics.get(f"{span.name}.busy_s", 0.0) + self_s / n
        metrics[f"{span.name}.calls"] = \
            metrics.get(f"{span.name}.calls", 0.0) + 1.0 / n
        for key, value in (span.counts or {}).items():
            name = f"{span.name}.{key}"
            metrics[name] = metrics.get(name, 0.0) + value / n
        if span.name in LAYERS and span.phase == "run":
            covered += self_s
        if span.name == "sca.cpa" and _has_ancestor(spans, span, "sca.mtd"):
            metrics["sca.mtd.cpa_evals"] += 1.0 / n
    if metrics["netlist.logicsim.busy_s"] > 0:
        metrics["netlist.logicsim.events_per_busy_s"] = (
            metrics["netlist.logicsim.events"]
            / metrics["netlist.logicsim.busy_s"])
    if metrics["spice.transient.busy_s"] > 0:
        metrics["spice.transient.steps_per_busy_s"] = (
            metrics["spice.transient.steps"]
            / metrics["spice.transient.busy_s"])
    ratios = [sum(s.name == "netlist.logicsim" for s in spans[lo:hi])
              / distinct for (lo, hi), distinct
              in zip(traced.span_ranges, traced.distinct_inputs) if distinct]
    if ratios:
        metrics["sca.sims_per_distinct_input"] = statistics.mean(ratios)
    acquired = metrics["sca.matrix.acquisitions"]
    reused = metrics.get("sca.matrix.reused", 0.0)
    if acquired + reused > 0:
        metrics["sca.matrix.reuse_ratio"] = reused / (acquired + reused)
    outcomes = plain.outcomes
    done = sum(len(o.latencies.get("done", [])) for o in outcomes)
    hits = sum(len(o.latencies.get("cache-hit", [])) for o in outcomes)
    runs = len(outcomes)
    metrics["service.chunks.done"] = done / runs
    metrics["service.chunks.cache_hit"] = hits / runs
    metrics["service.chunks.failed"] = sum(
        len(v) for o in outcomes for k, v in o.latencies.items()
        if k not in ("done", "cache-hit")) / runs
    metrics["service.idle_s"] = statistics.median(o.idle_s for o in outcomes)
    read = sum(o.stats.get("read_chunks", 0) for o in outcomes)
    if read:
        metrics["service.hit_ratio"] = sum(
            o.stats["read_hits"] for o in outcomes) / read
    metrics.update(latencies(plain))
    traced_s = statistics.median(traced.run_s)
    plain_s = statistics.median(plain.run_s)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics["trace.coverage"] = covered / sum(traced.run_s)
    return {name: metrics[name] for name in PER_LAYER}


def _has_ancestor(spans, span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


# -- one workload -------------------------------------------------------------

def run_workload(workload, seconds: float, trace: bool, import_s: float,
                 workdir: str = OUT) -> dict:
    """Measure one workload instance; the record printed and saved.
    ``import_s`` is the median program import time; temporary files and
    the span dump go to ``workdir``."""
    import tracing
    import workloads

    name = workload.name
    record = {"workload": name, "why": workload.why,
              "provenance": provenance(workload.seed), "trace": trace}
    reset_peak_rss()
    if not trace:
        reps = repeat(workload, seconds, workdir, min_setups=3)
        metrics = end_to_end(reps, import_s)
        units = END_TO_END
        groups = [reps]
    else:
        plain = repeat(workload, seconds / 2.0, workdir)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, callers=(workloads,)):
            traced = repeat(workload, seconds / 2.0, workdir,
                            tracer=tracer)
        tracer.write(os.path.join(
            workdir, f"spans-{name}-seed{workload.seed}.jsonl"))
        digests = {o.digest for o in plain.outcomes + traced.outcomes}
        for outcome in traced.outcomes:
            outcome.checks["traced_digest_equals_untraced"] = \
                len(digests) == 1
        metrics = per_layer(tracer, traced, plain)
        units = PER_LAYER
        groups = [plain, traced]
    for reps in groups:
        first = reps.outcomes[0].digest
        for outcome in reps.outcomes:
            outcome.checks["digest_repeats"] = outcome.digest == first
    attempted, failed, broken = tally(groups)
    if not trace:
        metrics_note = {"fail_ratio": failed / attempted}
    else:
        metrics["fail_ratio"] = failed / attempted
        metrics_note = {}
    record.update({
        "correct": not broken and failed == 0,
        "attempted": attempted, "failed": failed, "failed_checks": broken,
        "repetitions": [len(r.outcomes) for r in groups],
        "run_s_samples": [t for r in groups for t in r.run_s],
        "setup_s_samples": [t for r in groups for t in r.setup_s],
        "import_s": import_s,
        "digest": groups[0].outcomes[0].digest,
        "stats": groups[0].outcomes[0].stats,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "notes": metrics_note,
    })
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  (trace={int(record['trace'])}, "
          f"repetitions={record['repetitions']})")
    print(f"   why: {record['why']}")
    print(f"   provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        print(f"   {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["notes"].items():
        print(f"   {name:40s} {value:>16.6g} ratio")
    verdict = "ok" if record["correct"] else \
        f"FAILED {record['failed_checks']}"
    print(f"   checks: {verdict}  attempted={record['attempted']} "
          f"failed={record['failed']}")
    print(f"   simulated statistics: {json.dumps(record['stats'])}")
    print(f"   result digest: {record['digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    first_import_s, workloads = load_program()
    import_s = first_import_s if args.trace else \
        statistics.median(import_samples(first_import_s))
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            fail(f"unknown workload {name!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    os.makedirs(OUT, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(workloads.WORKLOADS[name](args.seed),
                              args.seconds, bool(args.trace), import_s)
        print_record(record)
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
