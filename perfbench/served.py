"""The served workload: a job daemon under a closed loop of two clients.

``served-mix`` starts ``python -m repro.cli serve --n-workers 1`` in its own
process and drives it from two client threads.  Each client submits bert
search jobs at a 100-sample budget, alternating between dosa and random,
follows the job's SSE stream to its terminal frame, then reads the job record
and fetches the result before submitting the next job.  Clients stop
submitting once ``--seconds`` have passed and the first ``min_jobs`` jobs are
done.  After the daemon has stopped, every served result is compared byte for
byte with the same seeded search run offline.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import geometric_mean, median, quantiles

from perfbench.checks import check_same_bytes
from perfbench.measure import (
    OUT_DIR,
    ROOT,
    RunResult,
    host_probe,
    import_probes,
    program_env,
    search_seed,
    tree_peak_rss_mb,
)
from perfbench.search import canonical_bytes, run_search
from perfbench.tracing import (
    Tracer,
    install_client_shims,
    install_search_shims,
    search_layer_metrics,
)

NETWORK = "bert"
BUDGET = 100
CLIENTS = 2
STRATEGIES = ("dosa", "random")
WORKLOAD = "served-mix"


@dataclass(frozen=True)
class ServedScale:
    """How much one run does; the defaults are the benchmark's."""

    #: Daemon start-ups whose median is ``setup_s``; the last one serves.
    setups: int = 3
    #: Jobs done however long they take: the EDP geomean and the per-layer
    #: counts cover exactly these, and at 128 jobs the p90 latency has 12
    #: jobs beyond it.
    min_jobs: int = 128


def twin_bytes(plan: tuple[str, int]) -> tuple[bytes, str | None]:
    """A served job's offline twin: its canonical outcome and check result."""
    strategy, seed = plan
    search = run_search(NETWORK, strategy, BUDGET, seed, 0)
    if search.error is not None:
        return b"", search.error
    return canonical_bytes(search.outcome), None


def offline_twins(plans: list[tuple[str, int]]) -> list[tuple[bytes, str | None]]:
    """``twin_bytes`` of every plan, in two ``perfbench/twins.py`` children.

    Plain subprocesses, one per core, each waited for: a multiprocessing
    pool would leave its resource tracker running past the end of the run.
    """
    def run_twins(share: list[tuple[str, int]]) -> list[dict]:
        child = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "twins.py")],
            cwd=ROOT, env=program_env(), input=json.dumps(share),
            capture_output=True, text=True, timeout=150)
        if child.returncode != 0:
            raise RuntimeError(f"offline twins exited with code "
                               f"{child.returncode}: {child.stderr[-2000:]}")
        return [json.loads(line) for line in child.stdout.splitlines()]

    with ThreadPoolExecutor(max_workers=2) as threads:
        evens, odds = threads.map(run_twins, [plans[0::2], plans[1::2]])
    twins: list[dict] = [{}] * len(plans)
    twins[0::2], twins[1::2] = evens, odds
    return [(twin["outcome"].encode(), twin["error"]) for twin in twins]


def job_plan(workload_seed: int, index: int) -> tuple[str, int]:
    """Strategy and seed of job ``index``; each client alternates strategies."""
    client, turn = index % CLIENTS, index // CLIENTS
    return (STRATEGIES[(turn + client) % len(STRATEGIES)],
            search_seed(WORKLOAD, workload_seed, index))


class Daemon:
    """One ``repro.cli serve`` process with its own root directory."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="daemon-", dir=OUT_DIR))
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the daemon; seconds until ``/healthz`` answers."""
        from repro.service import Client, ServiceError

        started = time.perf_counter()
        with open(self.root / "daemon.log", "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--root", str(self.root), "--n-workers", "1"],
                cwd=ROOT, env=program_env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        deadline = started + 60.0
        client = None
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.process.returncode}; "
                    f"see {self.root / 'daemon.log'}")
            try:
                if client is None and (self.root / "service.json").exists():
                    client = Client.from_root(self.root, timeout=5.0,
                                              retries=0)
                if client is not None:
                    client.healthz()
                    return time.perf_counter() - started
            except (ServiceError, OSError, http.client.HTTPException,
                    ValueError):
                pass  # not listening yet
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz within 60 s")

    def stop(self) -> None:
        """Drain with SIGTERM; kill the whole session if that hangs."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process is not None:
            stop_session(self.process.pid)
        shutil.rmtree(self.root, ignore_errors=True)


def stop_session(session: int) -> None:
    """Kill what is left of a daemon's session (its pool workers, should the
    daemon have died without reaping them) and wait until it is empty."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.killpg(session, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"processes of session {session} survived SIGKILL")


@dataclass
class Job:
    index: int
    strategy: str
    seed: int
    latency: float = 0.0
    record: dict | None = None
    served: bytes = b""
    error: str | None = None


def drive(daemon: Daemon, workload_seed: int, seconds: float, min_jobs: int,
          tracer: Tracer | None) -> tuple[list[Job], float]:
    """The closed loop; returns every job and the load phase's wall time."""
    from repro.service import Client
    from repro.service.client import TERMINAL_EVENTS

    jobs: list[Job] = []
    lock = threading.Lock()
    started = time.perf_counter()

    def one_job(client: Client, job: Job) -> None:
        begun = time.perf_counter()
        summary = client.submit_search(NETWORK, strategy=job.strategy,
                                       seed=job.seed, budget=BUDGET)
        terminal = None
        stream = client.events(summary["job_id"])
        try:
            for name, _ in stream:
                if name in TERMINAL_EVENTS:
                    terminal = name
                    break
        finally:
            stream.close()
        job.latency = time.perf_counter() - begun
        if terminal != "done":
            raise RuntimeError(f"stream ended with {terminal!r}")
        job.record = client.job(summary["job_id"])
        job.served = client.result_bytes(summary["job_id"])

    def client_loop(client_number: int) -> None:
        client = Client.from_root(daemon.root, timeout=60.0)
        index = client_number
        while index < min_jobs or time.perf_counter() - started < seconds:
            job = Job(index, *job_plan(workload_seed, index))
            with (tracer.span("service.job", request=f"job-{index}")
                  if tracer is not None else nullcontext()):
                try:
                    one_job(client, job)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    job.error = f"raised {error!r}"
            with lock:
                jobs.append(job)
            index += CLIENTS

    threads = [threading.Thread(target=client_loop, args=(number,))
               for number in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if len(jobs) < min_jobs:
        raise RuntimeError(f"a client stopped early: {len(jobs)} jobs "
                           f"of at least {min_jobs}")
    return sorted(jobs, key=lambda job: job.index), elapsed


def run_served(workload_seed: int, seconds: float, trace: bool,
               scale: ServedScale = ServedScale()) -> RunResult:
    """Run ``served-mix``; see :mod:`perfbench.served`."""
    from repro.service import Client

    result = RunResult()
    probes = [host_probe()]
    starts: list[float] = []
    tracer = Tracer() if trace else None
    daemon = None
    try:
        for _ in range(scale.setups):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon()
            starts.append(daemon.start())
        if tracer is not None:
            install_client_shims(tracer)
        try:
            jobs, load_seconds = drive(daemon, workload_seed, seconds,
                                       scale.min_jobs, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        service_metrics = Client.from_root(daemon.root).metrics()
        peak_rss_mb = tree_peak_rss_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    # Offline twins, after the daemon is gone so they do not compete with it.
    done = [job for job in jobs if job.error is None]
    twins, traced = {}, {}
    if tracer is None:
        # Two processes, one per core, as nothing else runs now.
        offline = offline_twins([(job.strategy, job.seed) for job in done])
        for job, (data, error) in zip(done, offline):
            job.error = error or check_same_bytes(
                data, job.served, "served result vs offline repro.optimize()")
    else:
        # In this process, untraced then traced, to compare their times.
        for job in done:
            twin = twins[job.index] = run_search(
                NETWORK, job.strategy, BUDGET, job.seed, job.index)
            job.error = twin.error or check_same_bytes(
                canonical_bytes(twin.outcome), job.served,
                "served result vs offline repro.optimize()")
        install_search_shims(tracer)
        try:
            for job in done:
                traced[job.index] = run_search(
                    NETWORK, job.strategy, BUDGET, job.seed, job.index, tracer)
        finally:
            tracer.restore()
        for job in done:
            if job.error is None:
                search = traced[job.index]
                job.error = search.error or check_same_bytes(
                    canonical_bytes(twins[job.index].outcome),
                    canonical_bytes(search.outcome),
                    "traced outcome vs untraced outcome")

    for job in jobs:
        result.attempted += 1
        if job.error is not None:
            result.failures.append(
                f"job {job.index} ({job.strategy} seed {job.seed}): "
                f"{job.error}")
    if not done:
        raise RuntimeError(f"no served job completed: {result.failures}")
    # Service metrics cover every completed job, including those whose
    # result then failed a check (they are counted in ``failed``).
    latencies = [job.latency for job in done]
    queue_waits = [job.record["started_at"] - job.record["created_at"]
                   for job in done]
    runs = [job.record["finished_at"] - job.record["started_at"]
            for job in done]
    if not trace:
        result.metrics = {
            "setup_s": median(starts),
            "latency_s.p50": median(latencies),
            "samples_per_s": (sum(job.record["result"]["samples"]
                                  for job in done) / load_seconds),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        result.metrics = search_layer_metrics(
            tracer, {str(index): search.strategy
                     for index, search in traced.items()},
            fixed=[str(index) for index in traced if index < scale.min_jobs])
        spans = {name: [span.duration for span in tracer.spans
                        if span.name == name]
                 for name in ("service.submit", "service.result_fetch")}
        setups = import_probes(NETWORK, scale.setups)
        result.metrics.update({
            "trace.overhead_ratio": (
                sum(search.seconds for search in traced.values())
                / sum(twin.seconds for twin in twins.values())),
            "setup.import_s": median([probe["import_s"] for probe in setups]),
            "service.submit_s.p50": median(spans["service.submit"]),
            "service.result_fetch_s.p50": median(spans["service.result_fetch"]),
            "service.queue_wait_s.p50": median(queue_waits),
            "service.run_s.p50": median(runs),
            "service.overhead_s.p50": median(
                [latency - wait - run for latency, wait, run
                 in zip(latencies, queue_waits, runs)]),
            "service.jobs_retried": float(service_metrics["jobs"]["retried"]),
            "service.pool_respawns": float(
                service_metrics["recovery"]["pool_respawns"]),
            "service.start_s": median(starts),
            "best_edp.geomean": geometric_mean(
                [job.record["result"]["best_edp"] for job in done
                 if job.index < scale.min_jobs]),
            "service.jobs_per_s": len(done) / load_seconds,
            # The 9th decile; ``min_jobs`` keeps ten jobs or more beyond it.
            "service.job_latency_s.p90": quantiles(latencies, n=10,
                                                   method="inclusive")[-1],
        })
        tracer.dump(OUT_DIR / f"{WORKLOAD}-seed{workload_seed}-spans.json")
    probes.append(host_probe())
    result.record.update({
        "jobs": [{"index": job.index, "strategy": job.strategy,
                  "seed": job.seed, "latency_s": job.latency,
                  "queue_wait_s": wait, "run_s": run}
                 for job, wait, run in zip(done, queue_waits, runs)],
        "load_seconds": load_seconds,
        "daemon_start_s": starts,
        "service_metrics": service_metrics,
        "host_probe_s": probes,
    })
    result.metrics["host.probe_s"] = median(probes)
    return result


#: Per-layer metrics only this workload measures; the offline workloads
#: cross none of these boundaries and report them as 0.
SERVICE_METRICS = (
    "service.submit_s.p50",
    "service.result_fetch_s.p50",
    "service.queue_wait_s.p50",
    "service.run_s.p50",
    "service.overhead_s.p50",
    "service.jobs_retried",
    "service.pool_respawns",
    "service.start_s",
    "service.jobs_per_s",
    "service.job_latency_s.p90",
)
