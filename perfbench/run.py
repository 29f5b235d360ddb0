"""The repository benchmark: one workload per run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decompose-lj --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` reports the per-layer metrics from a run with span wrappers
on each layer's public functions.  ``--smoke`` shrinks the inputs for a
quick check; a smoke result is printed but never recorded.

The program runs from ``src/`` of the checkout, with no install step.  The
inputs, the answer keys and the timed loops are described in README.md.
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  A copy with provenance goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time

import inputs
import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha(root: str):
    """HEAD's commit from ``.git`` files (None outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_pids() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:  # the process ended while the list was read
            continue
        # "pid (comm) state ppid ...": comm may hold spaces, so split after ")".
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.append(int(entry))
    return children


def reap(pid: int, grace: float) -> None:
    """Wait up to ``grace`` seconds for child ``pid`` to exit, then kill it and wait."""
    deadline = time.monotonic() + grace
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
            time.sleep(0.02)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):  # already reaped
        pass


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process whose parent exits (a pool worker of a killed builder, the
    server's own resource tracker) is then re-parented here instead of to
    init, so :func:`stop_children` finds and ends it too.
    """
    try:
        import ctypes

        pr_set_child_subreaper = 36
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def terminate_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so the ``finally`` that stops children runs."""
    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers and the server are waited for where they are used; this
    catches what outlives them, including orphans adopted by
    :func:`adopt_orphans`.  Ending a child can orphan its own children,
    so the sweep repeats until none is left.  ``multiprocessing`` starts a
    resource tracker (for the spawned input builder and the shared-memory
    CSR handoff) that by design outlives its parent and ignores SIGTERM.
    It is stopped after the other children are gone, when nothing else
    holds its pipe open, so it reads end-of-file, unlinks any segment left
    registered, and exits.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for _ in range(20):
        others = [pid for pid in child_pids() if pid != tracker._pid]
        if not others:
            break
        for pid in others:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in others:
            reap(pid, grace=10.0)
    if tracker._pid is not None:
        tracker._stop()
    for pid in child_pids():
        reap(pid, grace=0.0)


def provenance(args, workload, facts, outcome) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(ROOT),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "resolved_backend": facts["resolved_backend"],
        "edit_strategy": outcome.notes.get("edit_strategy"),
        "graph": {k: facts[k] for k in ("vertices", "edges", "kappa_max") if k in facts},
    }


def prepare_inputs(workload, seed: int, workdir: str, *, small: bool, in_process: bool):
    """Seeded inputs and answer keys.

    An untraced run builds them in a separate process, so the benchmark
    process's peak RSS is the program's and not the reference oracle's.
    The traced run builds them in-process, which leaves the kernel pool
    workers as the only children behind ``fast.enumerate.child_peak_rss_mib``.
    """
    args = (workload.kind, workload.graph, seed, os.path.join(workdir, f"{workload.graph}.edges"))
    if in_process:
        return inputs.prepare(*args, small=small)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(inputs.prepare, *args, small=small).result()


def report(workload, args, outcome, metrics, scale, facts) -> None:
    notes = outcome.notes
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}"
          f" (primary op: {workload.primary})")
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for name, unit in units.items():
        detail = ""
        if name == "latency_ms":
            detail = f"median of {notes['samples']}"
        elif name == "latency_tail_ms":
            detail = f"p{notes['tail_percentile']:g} of {notes['samples']}"
        elif name == "setup_s":
            detail = f"median of {notes['setup_repeats']} set-ups"
        print(f"  {name:36s} {metrics[name]:14.4f} {unit:6s} {detail}")
    if "write_ms" in metrics:
        requests = notes["requests"]
        print(f"  {'write_ms':36s} {metrics['write_ms']:14.4f} {'ms':6s} "
              f"median of {requests['edits']} POST /edits")
        print(f"  {'derived_ms':36s} {metrics['derived_ms']:14.4f} {'ms':6s} "
              f"median of {requests['community']} GET /community after a write")
    print(f"  host speed: calibration loop {outcome.host.calibration_ms():.3f} ms "
          f"(median of {len(outcome.host.samples)}); times above are scaled "
          f"by {scale:.4f} to the {measure.REFERENCE_CALIBRATION_MS:g} ms reference")
    if outcome.transport is not None:
        transport = outcome.transport
        print(f"  transport: loopback echo {transport.echo_ms():.4f} ms "
              f"(median of {len(transport.samples)}); "
              f"{', '.join(workloads.TRANSPORT_BOUND)} are scaled instead "
              f"by {transport.scale():.4f} to the {measure.REFERENCE_ECHO_MS:g} ms reference")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':36s} {frac:14.4f} {'ratio':6s} "
          f"{outcome.failed} failed of {outcome.attempted} attempted")
    if args.trace:
        print(f"  samples: {notes['samples']}")
    print("provenance " + json.dumps(provenance(args, workload, facts, outcome), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, at most 2 s; the result is not recorded")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)
    seconds = args.seconds
    trace = bool(args.trace)

    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        prepared = prepare_inputs(workload, args.seed, workdir,
                                  small=args.smoke, in_process=trace)
        if workload.kind == "decompose":
            outcome = workloads.run_decompose(workload, prepared, seconds, trace)
        elif workload.kind == "maintain":
            outcome = workloads.run_maintain(workload, prepared, seconds, trace)
        else:
            outcome = workloads.run_serve(workload, prepared, seconds, trace,
                                          root=ROOT, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    scale = outcome.host.scale()
    metrics = measure.scaled(outcome.metrics, {**units, **workloads.SERVE_EXTRA}, scale)
    if "setup_s" in metrics:
        metrics["setup_s"] = outcome.metrics["setup_s"] * outcome.setup_host.scale()
    if outcome.transport is not None:
        for name in workloads.TRANSPORT_BOUND:
            metrics[name] = outcome.metrics[name] * outcome.transport.scale()
    report(workload, args, outcome, metrics, scale, prepared.facts)
    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    if not args.smoke:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        record = dict(result, provenance=provenance(args, workload, prepared.facts, outcome),
                      notes=outcome.notes, measured=outcome.metrics,
                      calibration_ms=outcome.host.calibration_ms(),
                      setup_calibration_ms=outcome.setup_host.calibration_ms(),
                      echo_ms=outcome.transport.echo_ms() if outcome.transport else None)
        with open(os.path.join(results, f"{workload.name}.trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    adopt_orphans()
    terminate_on_sigterm()
    code = 1
    try:
        code = main()
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        stop_children()
    sys.exit(code)
