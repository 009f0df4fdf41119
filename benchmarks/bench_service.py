"""``make bench-service``: the job server end to end -> ``BENCH_service.json``.

Drives a live :class:`repro.service.SweepService` over its unix socket
with two concurrent tenants and emits a machine-readable baseline
(same contract as ``bench_fastpath.py`` -> ``BENCH_fastpath.json``):

* **jobs/s and cells/s** through the full submit -> schedule ->
  execute -> journal -> reply path;
* **p50/p99 submit-to-first-result latency** (submit frame sent to the
  first ``watch`` frame reporting a completed cell);
* **warm-cache replay ratio** — the same grids resubmitted by a third
  tenant must resolve entirely from the shared cache/journal with zero
  DES invocations.

The grid set is pinned so numbers are comparable across commits; state
lives in a throwaway temp directory.  Run from the repo root::

    make bench-service        # writes ./BENCH_service.json
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.parallel import ResultCache, code_salt
from repro.service import ServiceClient, SweepService

# Pinned job set — change it and the baseline stops being comparable.
SCHEMES = ("dcw", "tetris")
WORKLOADS = ("dedup",)
REQUESTS = 120
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)   # one job per seed: 8 jobs x 2 cells
WORKERS = 1


def pinned_jobs() -> list[dict]:
    return [
        {
            "schemes": list(SCHEMES),
            "workloads": list(WORKLOADS),
            "requests_per_core": REQUESTS,
            "seed": seed,
        }
        for seed in SEEDS
    ]


def serve_in_thread(state_dir: Path, sock_path: Path):
    """Run the service on a daemon thread; returns (thread, ready_event)."""
    ready = threading.Event()

    def runner() -> None:
        async def amain() -> None:
            svc = SweepService(
                state_dir=state_dir / "state",
                cache=ResultCache(state_dir / "cache"),
                workers=WORKERS,
                fsync=False,
            )
            server = await svc.serve_unix(sock_path)
            ready.set()
            # ``drain`` from the bench's main thread ends the service
            # once every job has finished.
            await svc.drained.wait()
            server.close()
            await server.wait_closed()
            await svc.shutdown()

        asyncio.run(amain())

    thread = threading.Thread(target=runner, name="bench-service", daemon=True)
    thread.start()
    return thread, ready


def tenant_run(client: ServiceClient, grids: list[dict], latencies: list[float]):
    """Submit all grids, then watch each to its first completed cell."""
    accepted = []
    for grid in grids:
        t0 = time.perf_counter()
        reply = client.submit(grid)
        accepted.append((reply["job"], t0, reply))
    for job_id, t0, reply in accepted:
        if reply.get("done", 0) >= 1:  # finished (or cache-hit) at submit
            latencies.append(time.perf_counter() - t0)
        else:
            for event in client.watch(job_id):
                if event.get("done", 0) >= 1:
                    latencies.append(time.perf_counter() - t0)
                    break
        final = client.wait(job_id)
        assert final["state"] == "done", final
        assert not final["errors"], final["errors"]


def percentile(sorted_samples: list[float], q: float) -> float:
    idx = min(len(sorted_samples) - 1, round(q * (len(sorted_samples) - 1)))
    return sorted_samples[idx]


def main(out_path: str = "BENCH_service.json") -> int:
    jobs = pinned_jobs()
    half = len(jobs) // 2
    with tempfile.TemporaryDirectory(prefix="bench-svc-") as tmp:
        tmp_path = Path(tmp)
        sock = tmp_path / "tw.sock"
        thread, ready = serve_in_thread(tmp_path, sock)
        if not ready.wait(30):
            print("ERROR: service did not come up", file=sys.stderr)
            return 1
        endpoint = f"unix:{sock}"

        # Cold phase: two concurrent tenants, half the job set each.
        latencies: list[float] = []
        tenants = [
            threading.Thread(
                target=tenant_run,
                args=(ServiceClient(endpoint, tenant=name), grids, latencies),
            )
            for name, grids in (
                ("alice", jobs[:half]),
                ("bob", jobs[half:]),
            )
        ]
        t_cold = time.perf_counter()
        for t in tenants:
            t.start()
        for t in tenants:
            t.join()
        cold_wall = time.perf_counter() - t_cold

        status = ServiceClient(endpoint).status()
        counters = status["counters"]

        # Warm phase: a third tenant replays every grid; everything must
        # come from the shared cache/journal with zero DES invocations.
        replay = ServiceClient(endpoint, tenant="replay")
        t_warm = time.perf_counter()
        for grid in jobs:
            reply = replay.submit(grid)
            assert reply["state"] == "done", reply
        warm_wall = time.perf_counter() - t_warm
        warm_counters = ServiceClient(endpoint).status()["counters"]

        ServiceClient(endpoint).drain()
        thread.join(timeout=30)

    n_cells = len(jobs) * len(SCHEMES) * len(WORKLOADS)
    executed = counters["cells_executed"]
    warm_executed = warm_counters["cells_executed"] - executed
    latencies.sort()
    doc = {
        "grid": {
            "jobs": len(jobs),
            "cells_per_job": len(SCHEMES) * len(WORKLOADS),
            "schemes": list(SCHEMES),
            "workloads": list(WORKLOADS),
            "requests_per_core": REQUESTS,
            "seeds": list(SEEDS),
            "tenants": 2,
            "workers": WORKERS,
        },
        "host": {"cpu_count": os.cpu_count()},
        "code_version": code_salt()[:16],
        "cold": {
            "wall_s": round(cold_wall, 4),
            "jobs_per_s": round(len(jobs) / cold_wall, 3),
            "cells_per_s": round(n_cells / cold_wall, 3),
            "cells_executed": executed,
            "submit_to_first_result_p50_s": round(percentile(latencies, 0.50), 4),
            "submit_to_first_result_p99_s": round(percentile(latencies, 0.99), 4),
        },
        "warm": {
            "wall_s": round(warm_wall, 4),
            "replay_ratio": round(warm_wall / cold_wall, 4),
            "des_invocations": warm_executed,
        },
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {out_path}: {doc['cold']['jobs_per_s']} jobs/s, "
        f"{doc['cold']['cells_per_s']} cells/s, "
        f"first-result p50 {doc['cold']['submit_to_first_result_p50_s']}s / "
        f"p99 {doc['cold']['submit_to_first_result_p99_s']}s, "
        f"warm replay ratio {doc['warm']['replay_ratio']}"
    )
    if executed != n_cells:
        print(
            f"ERROR: expected {n_cells} unique executions, got {executed}",
            file=sys.stderr,
        )
        return 1
    if warm_executed != 0:
        print("ERROR: warm replay invoked the DES", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
