"""Closed-loop load generator for the Triangle K-Core query service.

Boots a real in-process server (:class:`repro.service.BackgroundServer`)
on the dblp fixture and drives it over loopback HTTP with 1, 8 and 64
concurrent closed-loop clients at a 90/10 read/write mix, each
client-count phase run three times against the same server — reads are
``GET /kappa`` on real dblp edges, writes are small ``POST /edits``
batches toggling synthetic edges (each client owns a private vertex pool
so batches never conflict).  A last single-client phase measures
``GET /community`` right after a write: each round toggles one real dblp
edge and reads the community of an endpoint, the read the service answers
by BFS over its live maintainer.  Client-side wall-clock latency of every
exchange feeds exact percentiles.  Two artifacts are written:

* ``benchmarks/results/service.txt`` — the human-readable table;
* ``BENCH_service.json`` at the repo root — the machine-readable record
  CI uploads, with the host it ran on and whether it was a smoke run.

Acceptance gate: the median sustained read throughput over a phase's
runs must reach >= 500 requests/second at some concurrency level.  The
record keeps the median and the min/max of read throughput and of p99
read latency per client count, so one noisy run neither passes nor fails
the gate on its own.

Run stand-alone (no pytest) with ``python benchmarks/bench_service.py
[--smoke]``; ``--smoke`` shortens each phase for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import format_table, host_info, write_report

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_service.json"

DATASET = "dblp"
CLIENT_COUNTS = (1, 8, 64)
WRITE_FRACTION = 0.10
PHASE_SECONDS = 5.0
SMOKE_SECONDS = 1.5
#: Runs per client count.  Single 5 s runs of one build have read 1.5k
#: and 2.5k read req/s back to back on a shared 2-vCPU host.
PHASE_REPEATS = 3
MIN_READ_RPS = 500.0
#: Edits per write batch (small live batches, the common ingestion shape).
WRITE_BATCH_OPS = 2


def _percentile_ms(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return round(ordered[index] * 1000.0, 3)


class _ClientLoop(threading.Thread):
    """One closed-loop client: issue, wait, repeat until the deadline."""

    def __init__(self, port, index, deadline, read_edges, write_fraction):
        super().__init__(name=f"bench-client-{index}", daemon=True)
        self.port = port
        self.index = index
        self.deadline = deadline
        self.read_edges = read_edges
        self.write_fraction = write_fraction
        self.reads = 0
        self.writes = 0
        self.errors = 0
        self.read_latencies = []
        self.write_latencies = []
        self.last_version = 0

    def run(self):
        from repro.service import ServiceClient, ServiceClientError

        rng = random.Random(f"service-bench:{self.index}")
        # Private synthetic vertex pool: edits never touch dblp structure
        # another client is reading, and never collide across clients.
        base = 10_000_000 + self.index * 1000
        pool = list(range(base, base + 16))
        shadow = set()
        with ServiceClient("127.0.0.1", self.port, timeout=60) as client:
            while time.perf_counter() < self.deadline:
                try:
                    if rng.random() < self.write_fraction:
                        ops = []
                        for _ in range(WRITE_BATCH_OPS):
                            u, v = rng.sample(pool, 2)
                            key = (min(u, v), max(u, v))
                            if key in shadow:
                                ops.append(["remove", u, v])
                                shadow.discard(key)
                            else:
                                ops.append(["add", u, v])
                                shadow.add(key)
                        start = time.perf_counter()
                        outcome = client.edits(ops)
                        self.write_latencies.append(
                            time.perf_counter() - start
                        )
                        self.writes += 1
                        self.last_version = outcome.version
                    else:
                        u, v = self.read_edges[
                            rng.randrange(len(self.read_edges))
                        ]
                        start = time.perf_counter()
                        answer = client.kappa(u, v)
                        self.read_latencies.append(
                            time.perf_counter() - start
                        )
                        self.reads += 1
                        self.last_version = answer.version
                except ServiceClientError:
                    self.errors += 1


def _run_phase(port, clients, seconds, read_edges, write_fraction):
    deadline = time.perf_counter() + seconds
    loops = [
        _ClientLoop(port, index, deadline, read_edges, write_fraction)
        for index in range(clients)
    ]
    start = time.perf_counter()
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join(timeout=seconds + 120)
    elapsed = time.perf_counter() - start
    reads = sum(l.reads for l in loops)
    writes = sum(l.writes for l in loops)
    read_latencies = [s for l in loops for s in l.read_latencies]
    write_latencies = [s for l in loops for s in l.write_latencies]
    return {
        "clients": clients,
        "seconds": round(elapsed, 3),
        "reads": reads,
        "writes": writes,
        "errors": sum(l.errors for l in loops),
        "rps": round((reads + writes) / elapsed, 1),
        "read_rps": round(reads / elapsed, 1),
        "read_p50_ms": _percentile_ms(read_latencies, 0.50),
        "read_p95_ms": _percentile_ms(read_latencies, 0.95),
        "read_p99_ms": _percentile_ms(read_latencies, 0.99),
        "write_p99_ms": _percentile_ms(write_latencies, 0.99),
        "final_version": max((l.last_version for l in loops), default=0),
    }


def _summarize(clients, runs):
    """Median and min/max of read throughput and read p99 over ``runs``."""
    summary = {"clients": clients}
    for key in ("read_rps", "read_p99_ms"):
        values = [run[key] for run in runs]
        summary[key] = statistics.median(values)
        summary[f"{key}_min"] = min(values)
        summary[f"{key}_max"] = max(values)
    summary["errors"] = sum(run["errors"] for run in runs)
    summary["runs"] = runs
    return summary


def _community_phase(port, seconds, read_edges):
    """Closed loop of (toggle one dblp edge, read an endpoint's community)."""
    from repro.service import ServiceClient

    rng = random.Random("service-bench:community")
    latencies = []
    deadline = time.perf_counter() + seconds
    with ServiceClient("127.0.0.1", port, timeout=60) as client:
        while time.perf_counter() < deadline:
            u, v = read_edges[rng.randrange(len(read_edges))]
            client.edits([["remove", u, v]])
            start = time.perf_counter()
            answer = client.community(u)
            latencies.append(time.perf_counter() - start)
            client.edits([["add", u, v]])
            assert not answer.degraded
            assert answer.answered_at_version == answer.version
    return {
        "reads": len(latencies),
        "community_p50_ms": _percentile_ms(latencies, 0.50),
        "community_p95_ms": _percentile_ms(latencies, 0.95),
    }


def _service_report(phase_seconds=PHASE_SECONDS, *, smoke=False):
    from repro.datasets import load
    from repro.service import BackgroundServer, ServiceClient

    graph = load(DATASET).graph
    read_edges = sorted(graph.edges(), key=repr)[:4000]
    phases = []
    with BackgroundServer(
        graph,
        # Headroom for 64 closed-loop clients; no artificial rate limit —
        # the bench measures capacity, not the limiter.
        max_queue=256,
        request_timeout=None,
        idle_timeout=300.0,
    ) as server:
        for clients in CLIENT_COUNTS:
            runs = [
                _run_phase(
                    server.port,
                    clients,
                    phase_seconds,
                    read_edges,
                    WRITE_FRACTION,
                )
                for _ in range(PHASE_REPEATS)
            ]
            phases.append(_summarize(clients, runs))
        community = _community_phase(server.port, phase_seconds, read_edges)
        with ServiceClient("127.0.0.1", server.port) as client:
            stats = client.stats()["service"]

    rows = [
        (
            f"{p['clients']}.{index}",
            f"{run['seconds']:.1f}",
            run["reads"],
            run["writes"],
            run["errors"],
            f"{run['rps']:.0f}",
            f"{run['read_rps']:.0f}",
            f"{run['read_p50_ms']:.2f}",
            f"{run['read_p95_ms']:.2f}",
            f"{run['read_p99_ms']:.2f}",
            f"{run['write_p99_ms']:.2f}",
        )
        for p in phases
        for index, run in enumerate(p["runs"], start=1)
    ]
    lines = format_table(
        (
            "run", "secs", "reads", "writes", "errors", "rps",
            "read rps", "p50ms", "p95ms", "p99ms", "w-p99ms",
        ),
        rows,
    )
    lines.append("")
    lines.extend(
        format_table(
            (
                "clients", "read rps median", "read rps min-max",
                "p99ms median", "p99ms min-max",
            ),
            [
                (
                    p["clients"],
                    f"{p['read_rps']:.0f}",
                    f"{p['read_rps_min']:.0f}-{p['read_rps_max']:.0f}",
                    f"{p['read_p99_ms']:.2f}",
                    f"{p['read_p99_ms_min']:.2f}-{p['read_p99_ms_max']:.2f}",
                )
                for p in phases
            ],
        )
    )
    best = max(phases, key=lambda p: p["read_rps"])
    lines.append("")
    lines.append(
        f"dataset {DATASET}: |V|={graph.num_vertices} "
        f"|E|={graph.num_edges}; {WRITE_FRACTION:.0%} writes "
        f"({WRITE_BATCH_OPS} ops/batch); closed loop over loopback HTTP"
    )
    lines.append(
        f"gate: median sustained read throughput >= {MIN_READ_RPS:.0f} "
        f"req/s; best median {best['read_rps']:.0f} req/s at "
        f"{best['clients']} client(s) over {PHASE_REPEATS} runs "
        f"(read p99 median {best['read_p99_ms']:.2f} ms)"
    )
    lines.append(
        f"community after write: {community['reads']} reads, "
        f"p50 {community['community_p50_ms']:.2f} ms, "
        f"p95 {community['community_p95_ms']:.2f} ms "
        "(BFS over the live maintainer, always at-version)"
    )
    write_report("service", lines)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "service",
                "description": (
                    "Long-lived query service under closed-loop load: "
                    f"{WRITE_FRACTION:.0%} POST /edits, rest GET /kappa, "
                    f"on {DATASET} over loopback HTTP"
                ),
                "command": "PYTHONPATH=src python benchmarks/bench_service.py",
                "smoke": smoke,
                "host": host_info(),
                "dataset": {
                    "name": DATASET,
                    "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                },
                "acceptance": {
                    "min_read_rps": MIN_READ_RPS,
                    "statistic": f"median of {PHASE_REPEATS} runs",
                    "measured_read_rps": best["read_rps"],
                    "at_clients": best["clients"],
                    "read_p99_ms": best["read_p99_ms"],
                },
                "phases": phases,
                "community_after_write": community,
                "server_stats": stats,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert best["read_rps"] >= MIN_READ_RPS, (
        f"median read throughput only {best['read_rps']:.0f} req/s "
        "(best client count); "
        f"the service must sustain >= {MIN_READ_RPS:.0f} req/s on {DATASET}"
    )
    total_errors = sum(p["errors"] for p in phases)
    assert total_errors == 0, f"{total_errors} client-visible errors"
    return best


def test_service_report(benchmark):
    # Short phases under pytest-benchmark: `make bench` regenerates the
    # artifacts without a 15-second wall-clock tax on the whole sweep.
    benchmark.pedantic(
        lambda: _service_report(phase_seconds=SMOKE_SECONDS, smoke=True),
        rounds=1,
        iterations=1,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"short {SMOKE_SECONDS:.1f}s phases instead of "
        f"{PHASE_SECONDS:.0f}s (CI smoke run)",
    )
    args = parser.parse_args(argv)
    best = _service_report(
        phase_seconds=SMOKE_SECONDS if args.smoke else PHASE_SECONDS,
        smoke=args.smoke,
    )
    print(
        f"\nBENCH_service.json written; best median read throughput "
        f"{best['read_rps']:.0f} req/s (p99 {best['read_p99_ms']:.2f} ms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
