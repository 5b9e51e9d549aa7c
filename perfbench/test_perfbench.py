"""The benchmark's own tests: reduced-size smoke runs of every workload,
byte-identity of traced and untraced results, and the result contract.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 20261017

SMOKE = {
    "fig6-long": lambda: workloads.Fig6Long(SEED, n_traces=384),
    "matrix-dies": lambda: workloads.MatrixDies(SEED, budget=64, repeats=1),
    "fig3-spice": lambda: workloads.Fig3Spice(SEED,
                                              sweep=workloads.SMOKE_SWEEP),
    "service-replay": lambda: workloads.ServiceReplay(
        SEED, budget=32, repeats=1, styles=("cmos", "wddl")),
}


def _once(workload, workdir, tracer=None):
    state = workload.setup(str(workdir))
    try:
        return workload.run(state, tracer)
    finally:
        workload.teardown(state)


def _originals():
    return {target: tracing._resolve(target) for _, target, _ in
            tracing.TARGETS}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_checks_and_tracing_changes_no_byte(name, tmp_path):
    plain = _once(SMOKE[name](), tmp_path)
    assert plain.checks and all(plain.checks.values()), plain.checks
    assert plain.failed_ops == 0 and plain.ops > 0 and plain.traces > 0
    before = {t: getattr(*owner_attr) for t, owner_attr in
              _originals().items()}
    tracer = tracing.Tracer()
    with tracing.patched(tracer, callers=(workloads,)):
        traced = _once(SMOKE[name](), tmp_path, tracer)
    assert traced.digest == plain.digest
    assert traced.checks == plain.checks
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    after = {t: getattr(*owner_attr) for t, owner_attr in
             _originals().items()}
    assert after == before
    for namespace in tracing._holders((workloads,)):
        for value in list(namespace.values()):
            assert not (callable(value) and hasattr(value, "__wrapped__")
                        and value.__qualname__.endswith("traced")), value
    assert not os.listdir(tmp_path)


def test_layers_land_where_the_workload_runs(tmp_path):
    tracer = tracing.Tracer()
    with tracing.patched(tracer, callers=(workloads,)):
        _once(SMOKE["fig3-spice"](), tmp_path, tracer)
    names = {s.name for s in tracer.spans}
    assert {"cells.bias", "cells.characterize", "spice.transient",
            "spice.dc"} <= names
    assert "netlist.logicsim" not in names
    requests = {s.request for s in tracer.spans if s.name == "spice.transient"}
    assert len(requests) == len(workloads.SMOKE_SWEEP)
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)


@pytest.mark.parametrize("trace", [False, True])
def test_record_carries_every_declared_metric(trace, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    record = run.run_workload(SMOKE["fig6-long"](), 0.1, trace, 0.5,
                              workdir=str(tmp_path))
    declared = bench["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["correct"] and record["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    else:
        metrics = record["metrics"]
        assert metrics["netlist.logicsim.calls"]["value"] > 0
        assert metrics["sca.mtd.cpa_evals"]["value"] > 0
        assert metrics["spice.transient.calls"]["value"] == 0
        assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_sims_per_distinct_input_does_not_grow_with_repetitions(tmp_path):
    """Repetitions repeat the same inputs, so the ratio of two traced
    repetitions equals that of one."""
    workload = SMOKE["matrix-dies"]()

    def ratio(n_repetitions):
        tracer = tracing.Tracer()
        traced = run.Repetitions()
        with tracing.patched(tracer, callers=(workloads,)):
            for _ in range(n_repetitions):
                once = run.repeat(workload, 0.0, str(tmp_path), tracer=tracer)
                for name in vars(traced):
                    getattr(traced, name).extend(getattr(once, name))
        assert len(traced.outcomes) == n_repetitions
        return run.per_layer(tracer, traced, traced)[
            "sca.sims_per_distinct_input"]

    one = ratio(1)
    assert one >= 1.0
    assert ratio(2) == pytest.approx(one, rel=1e-12)


def test_peak_rss_is_the_workloads_own():
    ballast = bytearray(48 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    with_ballast = run.peak_rss_mb()
    del ballast
    run.reset_peak_rss()
    assert run.peak_rss_mb() < with_ballast - 32


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-spice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
