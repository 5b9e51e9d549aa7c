"""The benchmark's four workloads.

Each workload turns the benchmark seed into its inputs, builds what it
needs in :meth:`setup` (timed as set-up), runs the timed body in
:meth:`run`, and checks the program's outputs.  Everything is serial:
``workers=1``, no pool, one in-process service worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import repro.cells.bias as bias_module
from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
)
from repro.experiments import fig3
from repro.experiments.fig6 import DEFAULT_KEY
from repro.power import MeasurementChain
from repro.sca import AttackCampaign, MatrixSpec, mtd, run_matrix
from repro.service import (
    JobLedger,
    JobQueue,
    ResultStore,
    ServiceWorker,
    expand_matrix,
)
from repro.units import uA


@dataclass
class Outcome:
    """What one run of a workload's timed body produced."""

    digest: str
    #: Traces produced: measured power traces, or on fig3-spice the
    #: transient waveforms the sweep simulates.
    traces: int
    #: Requests attempted and failed: campaigns, matrix cells, sweep
    #: points or service chunks.
    ops: int
    failed_ops: int
    checks: Dict[str, bool]
    #: Simulated statistics recorded but not asserted.
    stats: Dict[str, object] = field(default_factory=dict)
    #: ``ServiceWorker.run_once`` latency per outcome, seconds.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Drain time spent outside ``run_once``.
    idle_s: float = 0.0


#: Trace-count step of the MTD search on ``fig6-long``.
MTD_STEP = 32

#: Traces per service chunk on ``service-replay``.
CHUNK_SIZE = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, stream])


def _begin_request(tracer, request: str) -> None:
    if tracer is not None:
        tracer.request = request


class Workload:
    name = ""
    why = ""

    def setup(self, workdir: str):
        raise NotImplementedError

    def run(self, state, tracer=None) -> Outcome:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass


class Fig6Long(Workload):
    """Fig. 6's three-style CPA campaign, several times 256 traces long."""

    name = "fig6-long"
    why = ("logic simulation dominates and plaintexts repeat, so a "
           "per-acquirer leakage table and one-pass MTD show their full "
           "effect here")

    def __init__(self, seed: int, n_traces: int = 768):
        rng = _rng(seed, 6)
        self.seed = seed
        self.plaintexts = [int(p) for p in rng.integers(0, 256, n_traces)]
        self.noise_seed = int(rng.integers(2 ** 31))
        self.mismatch_seed = int(rng.integers(2 ** 31))

    def setup(self, workdir: str):
        return [AttackCampaign(build(), DEFAULT_KEY,
                               chain=MeasurementChain(seed=self.noise_seed),
                               mismatch_seed=self.mismatch_seed)
                for build in (build_cmos_library, build_mcml_library,
                              build_pg_mcml_library)]

    def run(self, campaigns, tracer=None) -> Outcome:
        digest = hashlib.sha256()
        stats: Dict[str, object] = {}
        for campaign in campaigns:
            style = campaign.library.style
            _begin_request(tracer, f"campaign:{style}")
            result = campaign.run(self.plaintexts)
            disclosed = mtd(result.traces, self.plaintexts, DEFAULT_KEY,
                            step=MTD_STEP)
            stats[style] = {"rank": float(result.rank), "mtd": disclosed}
            digest.update(result.traces.tobytes())
            digest.update(repr((result.rank, disclosed)).encode())
        checks = {"cmos_rank_0": stats["cmos"]["rank"] == 0.0,
                  "cmos_mtd_found": stats["cmos"]["mtd"] is not None}
        return Outcome(digest=digest.hexdigest(),
                       traces=len(campaigns) * len(self.plaintexts),
                       ops=len(campaigns), failed_ops=0, checks=checks,
                       stats=stats)


def matrix_spec_args(seed: int, budget: int, repeats: int,
                     styles=("cmos", "mcml", "pgmcml", "wddl")) -> Dict:
    """The seeded grid shared by matrix-dies and service-replay.

    The seed draws the grid's base seed, hence every plaintext schedule,
    die and noise stream.  The key stays the grid default: TVLA's fixed
    class is plaintext 0x00, so a quarter of all traces would repeat the
    activity of ``0x00 ^ key``, and a seeded key would swing the logic
    simulation work by about a third between seeds.
    """
    return {"styles": tuple(styles),
            "attacks": ("cpa", "cpa2", "mlpa", "tvla"),
            "budgets": (budget,), "repeats": repeats,
            "base_seed": int(_rng(seed, 9).integers(2 ** 31))}


class MatrixDies(Workload):
    """All four styles × four attacks over several dies, short budgets."""

    name = "matrix-dies"
    why = ("many short acquirers: per-die set-up, higher-order attacks "
           "and TVLA take a real share, so a gain that slows short "
           "campaigns shows here")

    def __init__(self, seed: int, budget: int = 96, repeats: int = 3):
        self.seed = seed
        self.spec_args = matrix_spec_args(seed, budget, repeats)

    def setup(self, workdir: str):
        return MatrixSpec(**self.spec_args)

    def run(self, spec, tracer=None) -> Outcome:
        report = run_matrix(spec)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        failed = [c for c in report.cells if not c.ok]
        cmos_tvla = [c for c in report.cells
                     if c.cell.style == "cmos" and c.cell.attack == "tvla"]
        checks = {"all_cells_ok": not failed,
                  "tvla_flags_cmos": bool(cmos_tvla) and all(
                      c.leak_detected for c in cmos_tvla)}
        stats = {f"{c.cell.style}/{c.cell.attack}":
                 c.guessing_entropy if c.cell.attack != "tvla"
                 else c.max_abs_t for c in report.cells}
        return Outcome(digest=hashlib.sha256(payload.encode()).hexdigest(),
                       traces=report.acquisitions * spec.budgets[0],
                       ops=len(report.cells), failed_ops=len(failed),
                       checks=checks, stats=stats)


#: A three-point sweep around the paper's optimum, for smoke runs.
SMOKE_SWEEP = tuple(uA(x) for x in (35, 50, 75))


class Fig3Spice(Workload):
    """The Fig. 3 Iss sweep: bias solve and transient characterisation."""

    name = "fig3-spice"
    why = ("runs only the SPICE layers and bypasses logicsim and the "
           "attacks, so sca/power changes predict no change here")

    def __init__(self, seed: int, sweep=fig3.DEFAULT_SWEEP):
        # Deterministic: the seed is recorded, not used.
        self.seed = seed
        self.sweep = tuple(sweep)

    def setup(self, workdir: str):
        # Every repetition regenerates Fig. 3 as a fresh process does:
        # drop the bias solutions the program caches per process.
        bias_module._CACHE.clear()
        return self.sweep

    def run(self, sweep, tracer=None) -> Outcome:
        result = fig3.run(sweep)
        rows = [(p.iss, p.delay_fo1, p.delay_fo4, p.swing, p.area_um2)
                for p in result.points]
        fo4 = [row[2] for row in rows]
        bad = [row for row in rows if not all(np.isfinite(row))]
        checks = {
            "optimum_at_50uA": abs(result.optimum_iss() - uA(50)) < uA(1),
            "fo4_nonincreasing": all(b <= a for a, b in zip(fo4, fo4[1:])),
        }
        return Outcome(
            digest=hashlib.sha256(repr(rows).encode()).hexdigest(),
            traces=2 * len(rows), ops=len(rows), failed_ops=len(bad),
            checks=checks,
            stats={"optimum_uA": result.optimum_iss() * 1e6})


@dataclass
class _ServiceState:
    jobs: list
    root: str
    ledgers: List[JobLedger]
    store: ResultStore


class ServiceReplay(Workload):
    """The seeded grid's tracesets through the job service, twice."""

    name = "service-replay"
    why = ("the only workload on the ledger, store and lease path: a "
           "write phase of fresh chunks, then a read phase of cache hits")

    #: Longest a drain waits on chunks in retry backoff.
    DRAIN_LIMIT_S = 60.0

    def __init__(self, seed: int, budget: int = 96, repeats: int = 3,
                 styles=("cmos", "mcml", "pgmcml", "wddl")):
        self.seed = seed
        self.spec_args = matrix_spec_args(seed, budget, repeats, styles)

    def setup(self, workdir: str):
        jobs = expand_matrix(MatrixSpec(**self.spec_args),
                             chunk_size=CHUNK_SIZE)
        root = tempfile.mkdtemp(prefix="service-", dir=workdir)
        ledgers = [JobLedger(os.path.join(root, f"{phase}.jsonl"))
                   for phase in ("write", "read")]
        return _ServiceState(jobs, root, ledgers,
                             ResultStore(os.path.join(root, "store")))

    def teardown(self, state: _ServiceState) -> None:
        for ledger in state.ledgers:
            ledger.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def _phase(self, state: _ServiceState, ledger: JobLedger, phase: str,
               outcome: Outcome, tracer) -> List[bytes]:
        queue = JobQueue(ledger, state.store)
        ids = [queue.submit(job)[0] for job in state.jobs]
        worker = ServiceWorker(queue, worker_id=f"bench-{phase}")
        began = time.perf_counter()
        busy = 0.0
        chunk = hits = 0
        while True:
            _begin_request(tracer, f"chunk:{phase}:{chunk}")
            t0 = time.perf_counter()
            result = worker.run_once()
            elapsed = time.perf_counter() - t0
            busy += elapsed
            if result == "idle":
                open_chunks = any(j["counts"]["pending"]
                                  or j["counts"]["leased"]
                                  for j in queue.jobs())
                if not open_chunks:
                    break
                if time.perf_counter() - began > self.DRAIN_LIMIT_S:
                    outcome.failed_ops += 1
                    break
                time.sleep(0.01)
                continue
            chunk += 1
            hits += result == "cache-hit"
            outcome.latencies.setdefault(result, []).append(elapsed)
            outcome.ops += 1
            if result not in ("done", "cache-hit"):
                outcome.failed_ops += 1
        outcome.idle_s += time.perf_counter() - began - busy
        outcome.stats[f"{phase}_chunks"] = chunk
        outcome.stats[f"{phase}_hits"] = hits
        jobs = queue.jobs()
        quarantined = sum(j["counts"]["quarantined"] for j in jobs)
        outcome.failed_ops += quarantined
        outcome.checks[f"{phase}_none_quarantined"] = quarantined == 0
        outcome.checks[f"{phase}_all_done"] = all(
            j["state"] == "done" for j in jobs)
        return [queue.gather(job_id).tobytes() for job_id in ids]

    def run(self, state: _ServiceState, tracer=None) -> Outcome:
        outcome = Outcome(digest="", traces=0, ops=0, failed_ops=0,
                          checks={})
        n_chunks = sum(job.n_chunks for job in state.jobs)
        written = self._phase(state, state.ledgers[0], "write", outcome,
                              tracer)
        read = self._phase(state, state.ledgers[1], "read", outcome,
                           tracer)
        done = len(outcome.latencies.get("done", []))
        hits = len(outcome.latencies.get("cache-hit", []))
        outcome.checks["write_every_chunk_done"] = done == n_chunks
        outcome.checks["read_hits_equal_chunks"] = hits == n_chunks
        outcome.checks["gathers_byte_identical"] = written == read
        outcome.traces = sum(job.budget for job in state.jobs)
        digest = hashlib.sha256()
        for blob in written:
            digest.update(blob)
        outcome.digest = digest.hexdigest()
        outcome.stats.update(jobs=len(state.jobs), chunks=n_chunks)
        return outcome


WORKLOADS = {cls.name: cls for cls in (Fig6Long, MatrixDies, Fig3Spice,
                                       ServiceReplay)}
