"""The four closed-loop workloads and the metrics each run reports.

Every workload has one caller that issues its next op only after the
previous one returned, against the program's public entry points:

``decompose-lj`` / ``decompose-cave``
    ``Engine.decompose(g, use_cache=False)`` back to back on the default
    (``auto``) backend; every answer is compared with a reference kappa map.
``maintain-cave``
    Churn rounds through a warm ``Engine.maintainer``: a 0.1% edit batch
    and its inverse, both via ``DynamicTriangleKCore.apply(strategy="auto")``;
    after each round kappa must equal the start kappa.
``serve-dblp``
    One keep-alive HTTP connection to a ``triangle-kcore serve`` process:
    85% ``GET /kappa``, 10% ``POST /edits``, 5% ``GET /community``.

An untraced run reports the end-to-end metrics.  A traced run measures
half its time untraced, then a fixed number of ops with the span wrappers
of :mod:`spans` installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import inputs
import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

#: Untimed ops before the timed loop starts.
WARMUP_OPS = 2

#: Set-up repetitions in an untraced run (median reported).
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # decompose | maintain | serve
    graph: str  # lj | cave | dblp
    #: Tail percentile.  A run makes at least enough ops to leave 10
    #: samples beyond it.  serve-dblp could afford p99, but its p99 moved
    #: by 40% between seeds (single server hiccups), so it reports p95.
    tail_pct: float
    #: Ops in the traced phase (fixed, so traced counts repeat exactly).
    traced_ops: int
    primary: str  # what one primary op is, for the printed report


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("decompose-lj", "decompose", "lj", 80, 10, "Engine.decompose call"),
        Workload("decompose-cave", "decompose", "cave", 70, 6, "Engine.decompose call"),
        Workload(
            "maintain-cave", "maintain", "cave", 80, 16,
            "churn round (edit batch + its inverse)",
        ),
        Workload("serve-dblp", "serve", "dblp", 95, 16, "GET /kappa request"),
    )
}

#: End-to-end metrics: name -> unit.  Every run reports all of them.
END_TO_END = {
    "latency_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: serve-dblp's other request kinds, printed beside the end-to-end metrics
#: (the result line carries only metrics every workload has).
SERVE_EXTRA = {"write_ms": "ms", "derived_ms": "ms"}

#: Metrics scaled by the loopback echo instead of the calibration loop when
#: a run measured one (serve-dblp's kappa reads, which are mostly transport).
TRANSPORT_BOUND = ("latency_ms", "latency_tail_ms")

#: Per-layer metrics of a traced run: name -> unit.  A layer a workload
#: does not reach reports 0.
PER_LAYER = {
    "engine.decompose.self_ms": "ms",
    "fast.build.self_ms": "ms",
    "fast.enumerate.self_ms": "ms",
    "fast.enumerate.triangles": "count",
    "fast.enumerate.child_peak_rss_mib": "MiB",
    "fast.peel.self_ms": "ms",
    "fast.peel.levels": "count",
    "fast.peel.batched_decrements": "count",
    "fast.peel.bound_skips": "count",
    "fast.decode.self_ms": "ms",
    "core.apply.self_ms": "ms",
    "core.diff_apply.self_ms": "ms",
    "core.apply.candidates_per_edit": "count",
    "core.apply.changed_per_edit": "count",
    "core.apply.levels_touched": "count",
    "core.apply.recompute_batches": "count",
    "core.community_index.self_ms": "ms",
    "service.transport_ms": "ms",
    "service.server.kappa_ms": "ms",
    "service.server.edits_ms": "ms",
    "service.server.community_ms": "ms",
    "service.state.kappa.self_ms": "ms",
    "service.state.apply_edits.self_ms": "ms",
    "service.state.community.self_ms": "ms",
    "service.queue_peak": "count",
    "service.client.write_ms": "ms",
    "service.client.derived_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_ms": "ms",
}


@dataclass
class Outcome:
    """What one run measured, before printing."""

    #: As measured; :func:`measure.scaled` turns them into reference times.
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    host: measure.HostSpeed = field(default_factory=measure.HostSpeed)
    #: Sampled around the set-ups only, which scales ``setup_s``.
    setup_host: measure.HostSpeed = field(default_factory=measure.HostSpeed)
    #: Echo round trips beside the kappa reads; scales ``TRANSPORT_BOUND``.
    transport: Optional[measure.TransportSpeed] = None
    #: Printed with the metrics: sample counts, percentile, extra timings.
    notes: Dict[str, object] = field(default_factory=dict)


def _median_ms(seconds: List[float]) -> float:
    return measure.median(seconds) * 1000.0


def _fill_primary(
    outcome: Outcome, loop: measure.Loop, workload: Workload, work_per_op: int
) -> None:
    """latency_ms / latency_tail_ms / ops_per_s from the primary-op loop."""
    times = loop.normalised()
    outcome.metrics["latency_ms"] = _median_ms(times)
    outcome.metrics["latency_tail_ms"] = measure.percentile(times, workload.tail_pct) * 1000.0
    outcome.metrics["ops_per_s"] = len(times) * work_per_op / sum(times)
    outcome.notes["samples"] = len(loop.seconds)
    outcome.notes["tail_percentile"] = workload.tail_pct


def _layer_metrics(
    span_list: List[list],
    counts: Dict[str, float],
    coverage: float,
) -> Dict[str, float]:
    """Per-layer self times (ms per call) and per-call counts."""
    summary = spans.layer_summary(span_list)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, entry in summary.items():
        metrics[f"{name}.self_ms"] = entry["self_s"] * 1000.0 / entry["calls"]
    enumerations = summary.get("fast.enumerate", {}).get("calls", 0)
    if enumerations:
        metrics["fast.enumerate.triangles"] = counts.get("fast.enumerate.triangles", 0) / enumerations
    peels = summary.get("fast.peel", {}).get("calls", 0)
    for key in ("levels", "batched_decrements", "bound_skips"):
        if peels:
            metrics[f"fast.peel.{key}"] = counts.get(f"fast.peel.{key}", 0) / peels
    edits = counts.get("core.apply.edits", 0)
    if edits:
        metrics["core.apply.candidates_per_edit"] = counts["core.apply.candidates"] / edits
        metrics["core.apply.changed_per_edit"] = counts["core.apply.changed"] / edits
        metrics["core.apply.levels_touched"] = (
            counts["core.apply.levels_touched"] / counts["core.apply.batches"]
        )
        metrics["core.apply.recompute_batches"] = counts["core.apply.recompute_batches"]
    metrics["trace.coverage"] = coverage
    return metrics


def _traced_phases(op, check, seconds, workload, host, before_traced=None):
    """Half the run untraced, then ``workload.traced_ops`` ops with spans on."""
    untraced = measure.run_closed_loop(
        op, check, seconds=seconds / 2, min_count=3, host=host
    )
    if before_traced is not None:
        before_traced()
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        traced = measure.run_closed_loop(
            op, check, seconds=0, min_count=workload.traced_ops,
            max_count=workload.traced_ops, host=host,
        )
    finally:
        uninstall()
    return untraced, traced, recorder


# ---------------------------------------------------------------------- #
# decompose-*
# ---------------------------------------------------------------------- #


def run_decompose(
    workload: Workload, prepared: inputs.Prepared, seconds: float, trace: bool
) -> Outcome:
    from repro.engine import Engine

    outcome = Outcome()
    host = outcome.host
    setup: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        graph = engine = None
        gc.collect()
        outcome.setup_host.sample_many()
        start = time.perf_counter()
        graph = inputs.ingest(prepared.path)
        engine = Engine()
        engine.decompose(graph)
        setup.append(time.perf_counter() - start)
    oracle = prepared.kappa

    def op():
        return engine.decompose(graph, use_cache=False)

    def check(result) -> bool:
        return result.kappa == oracle

    for _ in range(WARMUP_OPS):
        op()
    if not trace:
        loop = measure.run_closed_loop(
            op, check, seconds=seconds,
            min_count=measure.min_samples(workload.tail_pct), host=host,
        )
        _fill_primary(outcome, loop, workload, 1)
        outcome.metrics["setup_s"] = measure.median(setup)
        outcome.metrics["peak_rss_mib"] = measure.peak_rss_mib()
        outcome.notes["setup_repeats"] = len(setup)
        outcome.attempted, outcome.failed = loop.attempted, loop.failed
        return outcome

    untraced, traced, recorder = _traced_phases(op, check, seconds, workload, host)
    outcome.metrics = _layer_metrics(
        recorder.spans,
        recorder.counts,
        spans.root_seconds(recorder.spans) / sum(traced.seconds),
    )
    outcome.metrics["fast.enumerate.child_peak_rss_mib"] = measure.children_peak_rss_mib()
    outcome.metrics["trace.overhead_ms"] = _median_ms(traced.seconds) - _median_ms(untraced.seconds)
    outcome.notes["samples"] = f"{len(untraced.seconds)} untraced + {len(traced.seconds)} traced"
    outcome.attempted = untraced.attempted + traced.attempted
    outcome.failed = untraced.failed + traced.failed
    return outcome


# ---------------------------------------------------------------------- #
# maintain-cave
# ---------------------------------------------------------------------- #


def run_maintain(
    workload: Workload, prepared: inputs.Prepared, seconds: float, trace: bool
) -> Outcome:
    from repro.engine import Engine

    outcome = Outcome()
    host = outcome.host
    setup: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        maintainer = None
        gc.collect()
        outcome.setup_host.sample_many()
        start = time.perf_counter()
        graph = inputs.ingest(prepared.path)
        maintainer = Engine().maintainer(graph)
        setup.append(time.perf_counter() - start)
        del graph
    start_kappa = prepared.kappa
    strategies = set()
    rounds = itertools.cycle(prepared.batches)

    def op():
        removed, added = next(rounds)
        first = maintainer.apply(added=added, removed=removed, strategy="auto")
        second = maintainer.apply(added=removed, removed=added, strategy="auto")
        strategies.update((first.strategy, second.strategy))

    def check(_result) -> bool:
        return maintainer.kappa == start_kappa

    edits_per_round = 2 * prepared.facts["edits_per_batch"]
    for _ in range(WARMUP_OPS):
        op()
    if not trace:
        loop = measure.run_closed_loop(
            op, check, seconds=seconds,
            min_count=measure.min_samples(workload.tail_pct), host=host,
        )
        _fill_primary(outcome, loop, workload, edits_per_round)
        outcome.metrics["setup_s"] = measure.median(setup)
        outcome.metrics["peak_rss_mib"] = measure.peak_rss_mib()
        outcome.notes["setup_repeats"] = len(setup)
        outcome.notes["edits_per_round"] = edits_per_round
        outcome.notes["edit_strategy"] = sorted(strategies)
        outcome.attempted, outcome.failed = loop.attempted, loop.failed
        return outcome

    def restart() -> None:  # traced rounds always start at the first batch
        nonlocal rounds
        rounds = itertools.cycle(prepared.batches)

    untraced, traced, recorder = _traced_phases(
        op, check, seconds, workload, host, before_traced=restart
    )
    outcome.metrics = _layer_metrics(
        recorder.spans,
        recorder.counts,
        spans.root_seconds(recorder.spans) / sum(traced.seconds),
    )
    outcome.metrics["trace.overhead_ms"] = _median_ms(traced.seconds) - _median_ms(untraced.seconds)
    outcome.notes["samples"] = f"{len(untraced.seconds)} untraced + {len(traced.seconds)} traced"
    outcome.notes["edit_strategy"] = sorted(strategies)
    outcome.attempted = untraced.attempted + traced.attempted
    outcome.failed = untraced.failed + traced.failed
    return outcome


# ---------------------------------------------------------------------- #
# serve-dblp
# ---------------------------------------------------------------------- #


class Server:
    """A ``triangle-kcore serve`` child process on a kernel-chosen port."""

    ANNOUNCE = "ANNOUNCE "

    def __init__(self, root: str, path: str, workdir: str, spans_path: Optional[str] = None):
        entry = ["-m", "repro"]
        if spans_path is not None:
            entry = [os.path.join(HERE, "serve_launcher.py"), spans_path]
        command = [sys.executable, *entry, "serve", path, "--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        self._stderr = open(os.path.join(workdir, "server.stderr"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True
        )
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(self.ANNOUNCE):
                    self.port = json.loads(line[len(self.ANNOUNCE):])["port"]
                    break
            else:
                raise RuntimeError(f"serve exited before announcing (code {self.proc.wait()})")
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_seconds = time.perf_counter() - start

    def peak_rss_mib(self) -> float:
        return measure.peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class Echo:
    """The benchmark's loopback echo (``echo_server.py``) in its own process."""

    WARMUP_CALLS = 20

    def __init__(self) -> None:
        self.speed = measure.TransportSpeed()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "echo_server.py")],
            stdout=subprocess.PIPE, text=True,
        )
        self.client: Optional[Client] = None
        try:
            self.client = Client(int(self.proc.stdout.readline()))
            for _ in range(self.WARMUP_CALLS):
                self.client.call("GET", "/kappa")
        except BaseException:
            self.stop()
            raise

    def ping(self, path: str) -> float:
        """One timed round trip, under the same conditions as a timed request."""
        gc.collect()
        start = time.perf_counter()
        status, _ = self.client.call("GET", path)
        elapsed = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"echo server answered {status}")
        self.speed.samples.append(elapsed)
        return elapsed

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
        self.proc.kill()
        self.proc.communicate()


def _answer_ok(request: inputs.Request, reply: Tuple[int, bytes]) -> bool:
    status, body = reply
    if not 200 <= status < 300:
        return False
    if request.kind == "kappa":
        return json.loads(body)["kappa"] == request.expect
    if request.kind == "edits":
        answer = json.loads(body)
        return answer["applied"] == request.ops and not answer["rejected"]
    return True


def _replay(
    client: Client,
    blocks: List[List[inputs.Request]],
    loops: Dict[str, measure.Loop],
    strategies: set,
    host: Optional[measure.HostSpeed] = None,
    echo: Optional[Echo] = None,
) -> None:
    for block in blocks:
        if host is not None:
            host.sample()
        for request in block:
            def op(request=request):
                return client.call(request.method, request.path, request.body)

            def check(reply, request=request) -> bool:
                ok = _answer_ok(request, reply)
                if ok and request.kind == "edits":
                    strategies.add(json.loads(reply[1])["strategy"])
                return ok

            loop = loops[request.kind]
            answered = len(loop.seconds)
            loop.timed(op, check)
            if echo is not None and request.kind == "kappa":
                round_trip = echo.ping(request.path)
                if len(loop.seconds) > answered:
                    loop.speeds.append(round_trip)


def _serve_loops() -> Dict[str, measure.Loop]:
    return {kind: measure.Loop() for kind in ("kappa", "edits", "community")}


def _serve_phase(
    client: Client,
    blocks: List[List[inputs.Request]],
    strategies: set,
    host: measure.HostSpeed,
    *,
    seconds: float,
    min_kappa: int,
    echo: Optional[Echo] = None,
) -> Dict[str, measure.Loop]:
    """Replay whole blocks for ``seconds`` and at least ``min_kappa`` reads."""
    loops = _serve_loops()
    start = time.perf_counter()
    for block in itertools.cycle(blocks):
        if len(loops["kappa"].seconds) >= min_kappa and time.perf_counter() - start >= seconds:
            break
        _replay(client, [block], loops, strategies, host, echo)
    return loops


def _loop_totals(loops: Dict[str, measure.Loop]) -> Tuple[int, int]:
    return (
        sum(loop.attempted for loop in loops.values()),
        sum(loop.failed for loop in loops.values()),
    )


def run_serve(
    workload: Workload,
    prepared: inputs.Prepared,
    seconds: float,
    trace: bool,
    *,
    root: str,
    workdir: str,
) -> Outcome:
    outcome = Outcome()
    host = outcome.host
    size = len(prepared.script) // len(prepared.batches)
    blocks = [prepared.script[i:i + size] for i in range(0, len(prepared.script), size)]
    strategies: set = set()
    setup: List[float] = []
    server: Optional[Server] = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.stop()
        outcome.setup_host.sample_many()
        server = Server(root, prepared.path, workdir)
        setup.append(server.setup_seconds)
    client = Client(server.port)
    echo: Optional[Echo] = None
    try:
        if not trace:
            echo = Echo()
        _replay(client, blocks[:1], _serve_loops(), strategies)  # warm-up
        loops = _serve_phase(
            client, blocks, strategies, host,
            seconds=seconds / 2 if trace else seconds,
            min_kappa=3 if trace else measure.min_samples(workload.tail_pct),
            echo=echo,
        )
        peak = server.peak_rss_mib()
    finally:
        client.close()
        server.stop()
        if echo is not None:
            echo.stop()
    write_ms = _median_ms(loops["edits"].seconds)
    derived_ms = _median_ms(loops["community"].seconds)
    outcome.notes["requests"] = {kind: len(loop.seconds) for kind, loop in loops.items()}
    if not trace:
        kappa = loops["kappa"]
        _fill_primary(outcome, kappa, workload, 1)
        every = [s for loop in loops.values() for s in loop.seconds]
        outcome.metrics["ops_per_s"] = len(every) / sum(every)
        outcome.metrics["setup_s"] = measure.median(setup)
        outcome.metrics["peak_rss_mib"] = peak
        outcome.metrics["write_ms"] = write_ms
        outcome.metrics["derived_ms"] = derived_ms
        outcome.notes["setup_repeats"] = len(setup)
        outcome.notes["edit_strategy"] = sorted(strategies)
        outcome.transport = echo.speed
        outcome.attempted, outcome.failed = _loop_totals(loops)
        return outcome

    spans_path = os.path.join(workdir, "server-spans.json")
    server = Server(root, prepared.path, workdir, spans_path=spans_path)
    client = Client(server.port)
    traced = _serve_loops()
    try:
        _replay(client, blocks[: workload.traced_ops], traced, strategies, host)
        status, body = client.call("GET", "/stats")
        service = json.loads(body)["service"] if status == 200 else {}
    finally:
        client.close()
        server.stop()
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    every = [s for loop in traced.values() for s in loop.seconds]
    requests = service.get("requests", {})
    state_spans = [name for name in spans.SPAN_NAMES if name.startswith("service.state.")]
    outcome.metrics = _layer_metrics(
        recorded["spans"],
        recorded["counts"],
        spans.root_seconds(recorded["spans"], state_spans) / sum(every),
    )
    kappa_ms = _median_ms(traced["kappa"].seconds)
    server_kappa_ms = requests.get("kappa", {}).get("p50_ms", 0.0)
    outcome.metrics.update(
        {
            "service.transport_ms": kappa_ms - server_kappa_ms,
            "service.server.kappa_ms": server_kappa_ms,
            "service.server.edits_ms": requests.get("edits", {}).get("p50_ms", 0.0),
            "service.server.community_ms": requests.get("community", {}).get("p50_ms", 0.0),
            "service.queue_peak": service.get("queue", {}).get("peak", 0),
            "service.client.write_ms": write_ms,
            "service.client.derived_ms": derived_ms,
            "trace.overhead_ms": kappa_ms - _median_ms(loops["kappa"].seconds),
        }
    )
    outcome.notes["samples"] = (
        f"{len(loops['kappa'].seconds)} untraced + {len(traced['kappa'].seconds)} traced kappa reads"
    )
    outcome.notes["edit_strategy"] = sorted(strategies)
    attempted, failed = _loop_totals(loops)
    traced_attempted, traced_failed = _loop_totals(traced)
    outcome.attempted = attempted + traced_attempted
    outcome.failed = failed + traced_failed
    return outcome
