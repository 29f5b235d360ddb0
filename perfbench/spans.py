"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer (``TARGETS``)
from outside the program: every wrapped call records its span name, start,
end and parent span, and a probe may add counts taken from the call's
arguments and result.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover, so the self times of one call tree add up to its root's duration.

The wrappers are installed only for the traced phase and removed after it;
the untraced runs that give the end-to-end metrics never see them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Probe = Callable[[Dict[str, float], inspect.BoundArguments, object], None]


def _count(counts: Dict[str, float], key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _probe_enumerate(counts, bound, result) -> None:
    _count(counts, "fast.enumerate.triangles", len(result[1]) // 3)


def _probe_peel(counts, bound, result) -> None:
    stats = bound.arguments.get("stats") or {}
    for key in ("levels", "batched_decrements", "bound_skips"):
        _count(counts, f"fast.peel.{key}", int(stats.get(key, 0)))


def _edits(bound: inspect.BoundArguments) -> int:
    return sum(
        len(bound.arguments.get(side) or ()) for side in ("added", "removed")
    )


def _probe_update(counts, bound, result) -> None:
    stats = getattr(result, "stats", result)  # diff_apply returns a KappaDelta
    _count(counts, "core.apply.edits", _edits(bound))
    _count(counts, "core.apply.batches", 1)
    _count(counts, "core.apply.candidates", stats.candidates_examined)
    _count(counts, "core.apply.changed", stats.edges_changed)
    _count(counts, "core.apply.levels_touched", stats.levels_touched)
    _count(counts, "core.apply.recompute_batches", stats.strategy == "recompute")


#: (span name, module, attribute, probe).  ``fast.decode`` wraps the
#: backend entries: their self time is what is left once build, enumerate
#: and peel are taken out, which is the decode back to dict results.
TARGETS: Tuple[Tuple[str, str, str, Optional[Probe]], ...] = (
    ("engine.decompose", "repro.engine.engine", "Engine.decompose", None),
    ("fast.build", "repro.fast.csr", "CSRGraph.from_graph", None),
    ("fast.enumerate", "repro.fast", "supports_and_triangles", _probe_enumerate),
    (
        "fast.enumerate",
        "repro.fast.parallel",
        "parallel_supports_and_triangles",
        _probe_enumerate,
    ),
    ("fast.peel", "repro.fast", "peel", _probe_peel),
    ("fast.decode", "repro.fast", "csr_decomposition", None),
    ("fast.decode", "repro.fast.parallel", "parallel_decomposition", None),
    ("core.apply", "repro.core.dynamic", "DynamicTriangleKCore.apply", _probe_update),
    (
        "core.diff_apply",
        "repro.core.dynamic",
        "DynamicTriangleKCore.diff_apply",
        _probe_update,
    ),
    ("core.community_index", "repro.core.community", "CommunityIndex.__init__", None),
    ("service.state.kappa", "repro.service.state", "ServiceState.kappa", None),
    (
        "service.state.apply_edits",
        "repro.service.state",
        "ServiceState.apply_edits",
        None,
    ),
    ("service.state.community", "repro.service.state", "ServiceState.community", None),
)

#: Span names in report order (one per layer boundary).
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent index]`` plus counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None):
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, self.clock(), None, stack[-1] if stack else None]
            stack.append(len(self.spans))
            self.spans.append(span)
            bound = signature.bind(*args, **kwargs) if signature else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if probe is not None:
                probe(self.counts, bound, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def install(recorder: SpanRecorder, targets=TARGETS) -> Callable[[], None]:
    """Patch every target with a recording wrapper; return the undo."""
    undo: List[Tuple[object, str, object]] = []
    for name, module_name, attribute, probe in targets:
        owner = importlib.import_module(module_name)
        *owner_path, leaf = attribute.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, classmethod):
            patched = classmethod(recorder.wrap(name, raw.__func__, probe))
        else:
            patched = recorder.wrap(name, raw, probe)
        setattr(owner, leaf, patched)
        undo.append((owner, leaf, raw))

    def uninstall() -> None:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)

    return uninstall


# ---------------------------------------------------------------------- #
# arithmetic over recorded spans
# ---------------------------------------------------------------------- #


def _covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered((start, end), children.get(index, ()))
        for index, (_, start, end, _) in enumerate(spans)
    ]


def layer_summary(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (total self seconds)."""
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = summary.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return summary


def root_seconds(spans: Sequence[Sequence], names: Optional[Iterable[str]] = None) -> float:
    """Total duration of root spans (optionally only those named ``names``)."""
    wanted = None if names is None else set(names)
    return sum(
        end - start
        for name, start, end, parent in spans
        if parent is None and (wanted is None or name in wanted)
    )
