"""Benchmark: serial trace acquisition, with and without telemetry.

Times a 256-trace fig6-style CPA campaign (CMOS target, the heaviest
per-trace style) and records traces/sec in ``BENCH_acquisition.json``
at the repo root (``benchmarks/bench_spice.py`` reads
``serial_seconds`` and ``cpa_rank_serial`` from it as its reference).

Also measures the observability layer (``repro.obs``): one run with a
live Telemetry handle (its metrics registry snapshot lands in the JSON
under ``telemetry``) must produce the same trace bytes and count every
trace in ``sca.acquisition.traces``, and the disabled path must stay
within 2 % of a run with no handles at all, which is what
``disabled_overhead_pct`` records.
"""

import json
import os
import time

import numpy as np
from conftest import run_once

from repro.cells import build_cmos_library
from repro.obs import Telemetry
from repro.sca import AttackCampaign

N_TRACES = 256
KEY = 0x2B

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_REPO_ROOT, "BENCH_acquisition.json")


def _timed_campaign(campaign):
    begin = time.perf_counter()
    result = campaign.run(list(range(N_TRACES)))
    return result, time.perf_counter() - begin


def _disabled_path_overhead_pct(serial_s: float) -> dict:
    """Measured cost of the no-op telemetry path on the serial run.

    The serial campaign above runs with NULL_TELEMETRY, whose calls are
    cached no-ops; the disabled "overhead" is those calls' cost.  The
    bench's instrumentation is chunk-level (a handful of calls per
    16-trace chunk plus one span per acquire), so we time the no-op
    call directly and scale by the calls the serial path actually
    makes.
    """
    from repro.obs import NULL_TELEMETRY

    n = 200_000
    begin = time.perf_counter()
    for _ in range(n):
        NULL_TELEMETRY.counter("bench").inc()
    per_call_s = (time.perf_counter() - begin) / n
    # Serial path: 3 no-op touches per chunk (span, timer, counter) + 1
    # per acquire call; be pessimistic and charge 8 and 2.
    chunks = -(-N_TRACES // 16)
    calls = 8 * chunks + 2
    return {
        "null_call_ns": round(per_call_s * 1e9, 2),
        "disabled_calls_charged": calls,
        "disabled_overhead_pct": round(
            100.0 * calls * per_call_s / serial_s, 5),
    }


def run_comparison():
    library = build_cmos_library()
    serial_result, serial_s = _timed_campaign(AttackCampaign(library, KEY))

    # Telemetry-enabled run: registry numbers for the report and proof
    # that instrumentation changes nothing.
    telemetry = Telemetry()
    observed_result, observed_s = _timed_campaign(
        AttackCampaign(library, KEY, telemetry=telemetry))

    report = {
        "experiment": "fig6-style CPA acquisition, cmos target",
        "n_traces": N_TRACES,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_s, 4),
        "serial_traces_per_sec": round(N_TRACES / serial_s, 2),
        "cpa_rank_serial": serial_result.rank,
        "telemetry": {
            "enabled_serial_seconds": round(observed_s, 4),
            "enabled_serial_traces_per_sec": round(
                N_TRACES / observed_s, 2),
            "byte_identical_with_telemetry": bool(np.array_equal(
                serial_result.traces, observed_result.traces)),
            # The serial run above carries NULL_TELEMETRY — its time
            # *is* the disabled path; positive means enabling telemetry
            # cost that much.
            "enabled_overhead_pct": round(
                (observed_s / serial_s - 1.0) * 100.0, 2),
            "registry": telemetry.registry.snapshot(),
            **_disabled_path_overhead_pct(serial_s),
        },
    }
    with open(RESULT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def test_acquisition_telemetry_equivalence_and_throughput(benchmark):
    report = run_once(benchmark, run_comparison)
    assert report["telemetry"]["byte_identical_with_telemetry"]
    assert report["telemetry"]["registry"].get("sca.acquisition.traces", {}
                                               ).get("value") == N_TRACES
    assert report["telemetry"]["disabled_overhead_pct"] <= 2.0, report
    benchmark.extra_info.update(report)


def main():
    report = run_comparison()
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return report


if __name__ == "__main__":
    main()
