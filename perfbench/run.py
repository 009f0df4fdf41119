"""The repository benchmark: one command, three workloads, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload des_grid --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``des_grid`` — the Fig 11-14 grid through ``SweepEngine.run`` on the
  DES lane, no cache, one worker;
* ``zoo_auto`` — the 11-scheme zoo grid on the ``auto`` lane with the
  default recheck and a fresh result cache;
* ``service_mixed`` — a live ``serve`` process driven open-loop by two
  tenants with cold, overlapping and warm grid jobs.

Every repetition runs in a fresh process with every ``REPRO_*``
variable removed from its environment.  With ``--trace 0`` the last
line of output is the end-to-end result; with ``--trace 1`` the run
also makes a traced repetition and reports the per-layer split.
Outputs are checked against the committed reference rows and every
mismatch is counted as a failure.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from grids import (  # noqa: E402
    DES_SCHEMES,
    GRID_REQUESTS_PER_CORE,
    SERVICE_REQUESTS_PER_CORE,
    WORKLOADS,
    ZOO_SCHEMES,
    ZOO_TRACE_SEED,
    trace_seed,
)
from loadgen import JOB_LATENCY_LIMIT_S, RATE_PER_S  # noqa: E402
from speed import REFERENCE_S_PER_ITER, normalize_window, without_probes  # noqa: E402
from stats import describe, highest_percentile  # noqa: E402

#: Set-up probes per run (plus the set-up of every timed repetition).
SETUP_PROBES = 4
#: Per-process ceiling; a repetition that takes longer is a failure.
CHILD_TIMEOUT_S = 170.0

#: Metric names and units, as declared in the benchmark definition.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _DEFINITION["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DEFINITION["per_layer"])


class Tally:
    """Attempted operations, failures, and the first few failure texts.

    ``wrong`` counts the failures whose output was wrong or missing; a
    job that returned the right rows too late failed without being wrong.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failures: list[str], *, late: bool = False) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.wrong += 0 if late else len(failures)
        self.notes.extend(failures[: max(0, 20 - len(self.notes))])


def child_env() -> dict:
    """No ``REPRO_*`` knobs, and the interpreter's default bytecode caching
    whatever the caller's shell says, so set-up times compare across hosts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> float:
    """Run a child to completion; returns its spawn time (monotonic)."""
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=child_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    return t


# ----------------------------------------------------------------------
# Grid workloads.
# ----------------------------------------------------------------------
def grid_rep(workload: str, ts: int, work: Path, n: int, *, probe=False, trace=False) -> dict:
    out = work / f"rep{n}.json"
    args = [str(HERE / "grid_worker.py"), workload, str(ts), out.name]
    args += ["--probe"] * probe + ["--trace"] * trace
    spawned = spawn(args, work)
    doc = json.loads(out.read_text())
    doc["setup_s"] = doc["ready"] - spawned
    doc["spawned"] = spawned
    if trace:
        doc.update(json.loads(out.with_suffix(".spans.json").read_text()))
    return doc


def check_grid_rep(workload: str, rep: dict, ts: int, tally: Tally) -> list[float]:
    """Count the rep's failures; returns the fastpath rows' relative errors."""
    from check import check_fastpath_row, check_grid, check_identical, relative_errors, zoo_gates

    schemes = DES_SCHEMES if workload == "des_grid" else ZOO_SCHEMES
    rows = rep["rows"]
    tally.add(0, [f"cell error: {e}" for e in rep["errors"]])
    tally.add(len(schemes) * len(WORKLOADS), check_grid(rows, schemes, WORKLOADS))
    errors: list[float] = []
    bad = []
    for row in rows:
        if row["events"]:
            found = check_identical(row, ts, f"off/{GRID_REQUESTS_PER_CORE}")
        else:
            found = check_fastpath_row(row, ts, GRID_REQUESTS_PER_CORE)
            errors += relative_errors(row, ts, GRID_REQUESTS_PER_CORE)
        if workload == "des_grid" and not row["events"]:
            found.append(f"{row['workload']}/{row['scheme']}: fastpath row on des_grid")
        bad += found[:1]
    tally.add(0, bad)
    if workload == "zoo_auto":
        tally.add(2 * len(WORKLOADS), zoo_gates(rows, WORKLOADS))
    return errors


def run_grid(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ts = trace_seed(seed) if workload == "des_grid" else ZOO_TRACE_SEED
    tally = Tally()
    grid_rep(workload, ts, work, 0, probe=True)      # untimed: byte-compile once
    reps, errors = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rep = grid_rep(workload, ts, work, len(reps) + 1)
        errors = check_grid_rep(workload, rep, ts, tally)
        reps.append(rep)
        # Start another repetition only if it fits in the run's time.
        if trace or 2 * time.monotonic() - t - start > seconds:
            break
    probes = [grid_rep(workload, ts, work, 100 + i, probe=True) for i in range(SETUP_PROBES)]
    cells = len(reps[0]["rows"]) or 1
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "grid_s": statistics.median(r["grid_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "jobs_per_s": statistics.median(cells / r["grid_s"] for r in reps),
    }
    extra = {
        "reps": len(reps),
        "grid_s.raw": statistics.median(r["wall_s"] for r in reps),
        "jobs_per_s.raw": statistics.median(cells / r["wall_s"] for r in reps),
        "host.speed_factor": statistics.median(r["speed"] for r in reps),
        "fastpath_err_max": max(errors, default=0.0),
        "fastpath_err_mean": statistics.fmean(errors) if errors else 0.0,
        "paper_bands_missed": 0,
    }
    if workload == "des_grid":
        from check import paper_band_misses

        misses = paper_band_misses(reps[-1]["rows"])
        extra["paper_bands_missed"] = len(misses)
        extra["paper_band_misses"] = misses
    layers = None
    if trace:
        traced = grid_rep(workload, ts, work, 99, trace=True)
        check_grid_rep(workload, traced, ts, tally)
        layers = grid_layers(traced, extra["grid_s.raw"])
    return {"e2e": e2e, "extra": extra, "tally": tally, "layers": layers, "trace_seed": ts}


def common_layers(traced: dict, busy) -> dict:
    """Per-layer numbers every workload reports from one traced process,
    busy (alive, or with a job outstanding) in the ``busy`` intervals."""
    from layers import layer_summary, unattributed_s

    spans, counts = traced["spans"], traced["counts"]
    summary = layer_summary(spans)
    des_total = summary["des.run"]["total_s"]
    requests = counts.get("des.requests", 0)
    gets = summary["cache.get"]["calls"]
    out = {}
    for name, entry in summary.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    out.update({
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_s": counts.get("sim.events", 0) / des_total if des_total else 0.0,
        "memctrl.select.calls": counts.get("memctrl.select.calls", 0),
        "memctrl.select.per_request": (
            counts.get("memctrl.select.calls", 0) / requests if requests else 0.0
        ),
        "memctrl.drain_entries": counts.get("memctrl.drain_entries", 0),
        "cache.hit_ratio": counts.get("cache.hits", 0) / gets if gets else 0.0,
        "unattributed_s": unattributed_s(spans, busy, traced["clock_origin_s"]),
    })
    return out


def grid_layers(traced: dict, untraced_wall_s: float) -> dict:
    stats = traced["stats"]
    out = common_layers(traced, [(traced["spawned"], traced["end"])])
    out.update({
        "lane.fastpath.cells": stats["fastpath_cells"],
        "lane.des.cells": stats["des_cells"],
        "obs.tracing_overhead_frac": traced["wall_s"] / untraced_wall_s - 1.0,
    })
    return out


# ----------------------------------------------------------------------
# The service workload.
# ----------------------------------------------------------------------
def prewarm(schedule, state: Path) -> None:
    """Fill the server's cache with the schedule's pre-warmed grids."""
    from repro.parallel import ResultCache, SweepEngine

    cache = ResultCache(state / "cache")
    for grid in schedule.prewarm:
        result = SweepEngine(
            requests_per_core=SERVICE_REQUESTS_PER_CORE, root_seed=grid.trace_seed,
            workers=1, cache=cache, fastpath=grid.fastpath, recheck_fraction=0.0,
        ).run(grid.schemes, grid.workloads)
        result.raise_errors()


class Server:
    """A ``serve`` process started through the benchmark's launcher."""

    def __init__(self, work: Path, name: str, trace: bool) -> None:
        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.out = self.dir / "server.json"
        self.trace = trace
        self.sock = os.path.relpath(self.dir / "s.sock")
        self.proc = None

    def start(self) -> float:
        args = [str(HERE / "serve.py"), self.out.name] + ["--trace"] * self.trace
        args += ["--", "serve", "--socket", "s.sock", "--state-dir", "state",
                 "--workers", "1"]
        self.spawned = time.monotonic()
        self.log = open(self.dir / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=self.dir, env=child_env(),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        return self.spawned

    def wait_ready(self) -> float:
        """Seconds from spawn until the first ``ping`` is answered."""
        from repro.service import ServiceClient

        client = ServiceClient(f"unix:{self.sock}", timeout_s=5.0)
        deadline = self.spawned + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: {self.read_log()}")
            try:
                client.ping()
                return time.monotonic() - self.spawned
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def stop(self) -> dict:
        """Drain, wait for exit, and return the launcher's report."""
        from repro.service import ServiceClient

        try:
            ServiceClient(f"unix:{self.sock}", timeout_s=10.0).drain()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}: {self.read_log()}")
        doc = json.loads(self.out.read_text())
        if self.trace:
            doc.update(json.loads(self.out.with_suffix(".spans.json").read_text()))
        return doc

    def read_log(self) -> str:
        return (self.dir / "server.log").read_text()[-4000:]


def check_jobs(results, schedule, counters: dict, tally: Tally) -> list[float]:
    """Rows, failures, latency limit and exactly-once execution."""
    from check import check_identical, relative_errors

    errors: list[float] = []
    for res in results:
        job, problems = res.job, []
        if res.error:
            problems.append(f"job {job.index}: {res.error}")
        rows = res.reply.get("rows", [])
        if not res.error and len(rows) != len(job.grid.cells()):
            problems.append(f"job {job.index}: {len(rows)} rows for {len(job.grid.cells())} cells")
        for row in rows:
            lane = "fastpath" if row["events"] == 0 else "des"
            row_set = f"{'auto' if lane == 'fastpath' else 'off'}/{SERVICE_REQUESTS_PER_CORE}"
            problems += check_identical(row, job.grid.trace_seed, row_set)
            if lane == "fastpath":
                errors += relative_errors(row, job.grid.trace_seed, SERVICE_REQUESTS_PER_CORE)
        if problems or res.sample.latency <= JOB_LATENCY_LIMIT_S:
            tally.add(1, problems[:1])
        else:
            tally.add(1, [f"job {job.index}: {res.sample.latency:.3f}s over the limit"], late=True)
    executed = counters.get("cells_executed", 0) + counters.get("cells_failed", 0)
    expected = schedule.expected_executions()
    tally.add(1, [] if executed == expected else [
        f"server executed {executed} cells; exactly-once expects {expected}"
    ])
    return errors


def service_session(schedule, work: Path, name: str, trace: bool, tally: Tally) -> dict:
    from loadgen import drive

    server = Server(work, name, trace)
    prewarm(schedule, server.dir / "state")
    server.start()
    try:
        setup_s = server.wait_ready()
        res = asyncio.run(drive(server.sock, schedule))
    finally:
        report = server.stop()
    results = res.open_loop + res.saturation
    errors = check_jobs(results, schedule, res.counters, tally)
    sat_window = (res.saturation_start, res.saturation_start + res.saturation_s)
    out = {"setup_s": setup_s, "report": report, "counters": res.counters, "errors": errors}
    if trace:
        probes = None
        out["jobs_per_s.raw"] = len(res.saturation) / res.saturation_s
    else:
        # Untraced, the server probed before every cell: raw times leave
        # the probe waits out, normalized ones are at reference speed.
        p = report["probes"]
        probes = (p["starts"], p["waits"], p["durations"], p["iterations"])
        out["speed"] = REFERENCE_S_PER_ITER * p["iterations"] / statistics.median(p["durations"])
        out["jobs_per_s"] = len(res.saturation) / normalize_window(*sat_window, *probes)
        out["jobs_per_s.raw"] = len(res.saturation) / without_probes(*sat_window, *probes[:2])

    def latency(sample, end) -> float:
        return without_probes(sample.due, end, *probes[:2]) if probes else end - sample.due

    done = [r for r in res.open_loop if r.sample is not None]
    cold = [r.sample for r in done if r.job.kind == "cold"]
    out.update({
        "cold": [latency(s, s.done) for s in cold],
        "warm": [latency(r.sample, r.sample.done) for r in done if r.job.kind == "warm"],
        "first": [latency(r.sample, r.sample.first) for r in done],
        "late_max": max(r.sample.late for r in done),
        "latency_sum": sum(latency(r.sample, r.sample.done) for r in done),
        "busy": [(r.sample.sent, r.sample.done) for r in results if r.sample is not None],
        "requested": sum(len(r.job.grid.cells()) for r in results),
    })
    if probes:
        out["cold_norm"] = [normalize_window(s.due, s.done, *probes) for s in cold]
    return out


def setup_probe(work: Path, n: int) -> float:
    server = Server(work, f"probe{n}", False)
    server.start()
    try:
        return server.wait_ready()
    finally:
        server.stop()


def pct(samples, p: float) -> float:
    """The ``p``-th percentile, or 0.0 when too few samples lie beyond it."""
    top = highest_percentile(samples, (p,))
    return top[1] if top else 0.0


def run_service(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from loadgen import build_schedule

    seeds = (trace_seed(seed), trace_seed(seed, 1))
    sat_seeds = tuple(trace_seed(seed, k) for k in (2, 3, 4))
    schedule = build_schedule(seed, seconds, seeds, sat_seeds)
    tally = Tally()
    setup_probe(work, 0)                         # untimed: byte-compile once
    main = service_session(schedule, work, "main", False, tally)
    probes = [setup_probe(work, i + 1) for i in range(SETUP_PROBES)]
    e2e = {
        "setup_s": statistics.median(probes + [main["setup_s"]]),
        "grid_s": statistics.median(main["cold_norm"]),
        "peak_rss_mb": main["report"]["peak_rss_mb"],
        "jobs_per_s": main["jobs_per_s"],
    }
    errors = main["errors"]
    extra = {
        "jobs": f"{len(schedule.jobs)} open loop at {RATE_PER_S:g}/s, "
                f"{len(schedule.saturation)} closed loop",
        "grid_s.raw": statistics.median(main["cold"]),
        "jobs_per_s.raw": main["jobs_per_s.raw"],
        "host.speed_factor": main["speed"],
        "cold_job_s": describe(main["cold"]),
        "warm_job_s": describe(main["warm"]),
        "first_result_s": describe(main["first"]),
        "fastpath_err_max": max(errors, default=0.0),
        "fastpath_err_mean": statistics.fmean(errors) if errors else 0.0,
        "paper_bands_missed": 0,
        "cold_job_s_p50": statistics.median(main["cold"]),
        "cold_job_s_p90": pct(main["cold"], 90),
        "warm_job_s_p50": statistics.median(main["warm"]),
        "warm_job_s_p90": pct(main["warm"], 90),
        "first_result_s_p50": statistics.median(main["first"]),
        "loadgen.late_s_max": main["late_max"],
        "loadgen.utilization": RATE_PER_S / main["jobs_per_s.raw"],
    }
    layers = None
    if trace:
        traced = service_session(schedule, work, "traced", True, tally)
        report, counters = traced["report"], traced["counters"]
        layers = common_layers(report, traced["busy"])
        requested = traced["requested"]
        executed = counters.get("cells_executed", 0)
        layers.update({
            "lane.fastpath.cells": counters.get("cells_fastpath", 0),
            "lane.des.cells": counters.get("cells_des", 0),
            "service.cells.requested": requested,
            "service.cells.executed": executed,
            "service.dedup_ratio": executed / requested if requested else 0.0,
            "loadgen.late_s_max": max(main["late_max"], traced["late_max"]),
            "obs.tracing_overhead_frac": traced["latency_sum"] / main["latency_sum"] - 1.0,
        })
    return {"e2e": e2e, "extra": extra, "tally": tally, "layers": layers,
            "trace_seed": list(seeds)}


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
RUNNERS = {
    "des_grid": functools.partial(run_grid, "des_grid"),
    "zoo_auto": functools.partial(run_grid, "zoo_auto"),
    "service_mixed": run_service,
}


def provenance(seed: int, trace_seed_used) -> dict:
    import numpy

    from repro.parallel import code_salt

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_salt": code_salt()[:16],
        "seed": seed,
        "trace_seed": trace_seed_used,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), work)
        spans = sorted(work.rglob("*.spans.json"))
        if spans:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            for path in spans:
                rel = path.relative_to(work).as_posix().replace("/", "-")
                name = f"{args.workload}-seed{args.seed}-{rel}"
                shutil.copyfile(path, out / name)
            print(f"spans written to {out.relative_to(ROOT)}/")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = res["tally"]
    res["e2e"]["ok_frac"] = 1.0 - tally.failed / max(1, tally.attempted)
    extra = dict(res["extra"], failed_frac=tally.failed / max(1, tally.attempted))
    print(f"provenance: {json.dumps(provenance(args.seed, res['trace_seed']))}")
    for name, unit in END_TO_END:
        print(f"  {name:<28} {res['e2e'][name]:>14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:<28} {value}")
    for note in tally.notes:
        print(f"  FAIL {note}")
    if res["layers"] is not None:
        # Metrics a workload does not exercise read 0.
        layers = dict(res["layers"], **{
            k: extra.get(k, 0.0) for k, _ in PER_LAYER if k not in res["layers"]
        })
        print("per-layer split (traced run):")
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {layers[name]:>14.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": res["e2e"][n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
