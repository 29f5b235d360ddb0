"""Closed-loop timing, percentiles and memory readings."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


def samples_beyond(percentile: float, count: int) -> int:
    """Samples strictly above the nearest-rank ``percentile`` of ``count``."""
    return count - math.ceil(percentile / 100.0 * count)


def min_samples(percentile: float, beyond: int = 10) -> int:
    """Fewest samples that leave ``beyond`` samples past ``percentile``."""
    count = beyond
    while samples_beyond(percentile, count) < beyond:
        count += 1
    return count


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Calibration-loop time the reported timings are scaled to.
REFERENCE_CALIBRATION_MS = 10.0


def _calibration_loop() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


class HostSpeed:
    """A fixed pure-Python loop, timed beside the program's ops.

    The host's speed drifts by tens of percent over minutes, and the
    loop's time tracks that drift closely.  Timings are reported scaled to
    a host on which the loop takes ``REFERENCE_CALIBRATION_MS``, which
    takes most of the drift out of a comparison between two runs.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - start)

    def sample_many(self, count: int = 3) -> None:
        for _ in range(count):
            self.sample()

    def calibration_ms(self) -> float:
        return median(self.samples) * 1000.0

    def scale(self) -> float:
        """Multiplier that turns a measured time into a reference time."""
        return REFERENCE_CALIBRATION_MS / self.calibration_ms()


#: Echo round trip the transport-bound timings are scaled to.
REFERENCE_ECHO_MS = 0.25


class TransportSpeed:
    """Round trips to a benchmark-owned loopback echo, timed beside the program's.

    A ``GET /kappa`` is mostly loopback transport and process wake-ups, whose
    cost on a shared host moves by tens of percent from minute to minute
    while the calibration loop of :class:`HostSpeed` barely moves with it.
    The echo's round trip does move with it, so the transport-bound
    timings are reported scaled to a host on which the echo takes
    ``REFERENCE_ECHO_MS``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def echo_ms(self) -> float:
        return median(self.samples) * 1000.0

    def scale(self) -> float:
        """Multiplier that turns a measured transport-bound time into a reference time."""
        return REFERENCE_ECHO_MS / self.echo_ms()


def scaled(metrics: Dict[str, float], units: Dict[str, str], scale: float) -> Dict[str, float]:
    """Times multiplied by ``scale``, rates divided by it, the rest as is."""
    out = dict(metrics)
    for name, value in metrics.items():
        unit = units.get(name)
        if unit in ("ms", "s"):
            out[name] = value * scale
        elif unit == "1/s":
            out[name] = value / scale
    return out


@dataclass
class Loop:
    """Timings and failure counts of one closed loop."""

    seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    host: Optional[HostSpeed] = None
    #: A yardstick sample taken beside each op in ``seconds``: the
    #: calibration loop, or for serve-dblp's reads the echo round trip.
    speeds: List[float] = field(default_factory=list)

    def timed(self, op: Callable[[], object], check: Callable[[object], bool]) -> None:
        """Run ``op`` once after a full collection; check it outside the timer."""
        gc.collect()
        if self.host is not None:
            self.host.sample()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception:  # a failed op is counted, the run goes on
            self.failed += 1
            return
        self.seconds.append(time.perf_counter() - start)
        if self.host is not None:
            self.speeds.append(self.host.samples[-1])
        if not check(result):
            self.failed += 1

    def normalised(self, half_window: int = 4) -> List[float]:
        """Op times with the host's drift within the run taken out.

        Each time is multiplied by the run's median yardstick sample over
        the median of the samples taken beside it and its ``half_window``
        neighbours on each side, so a slow stretch of the host does not set
        the tail.  The run-wide drift is left to :meth:`HostSpeed.scale` or
        :meth:`TransportSpeed.scale`.  Without samples the times are
        returned as measured.
        """
        if not self.speeds:
            return list(self.seconds)
        overall = median(self.speeds)
        return [
            seconds * overall / median(self.speeds[max(0, i - half_window): i + half_window + 1])
            for i, seconds in enumerate(self.seconds)
        ]


def run_closed_loop(
    op: Callable[[], object],
    check: Callable[[object], bool],
    *,
    seconds: float,
    min_count: int,
    max_count: Optional[int] = None,
    host: Optional[HostSpeed] = None,
) -> Loop:
    """Call ``op`` back to back for ``seconds`` and at least ``min_count`` times."""
    loop = Loop(host=host)
    start = time.perf_counter()
    while loop.attempted < min_count or time.perf_counter() - start < seconds:
        if max_count is not None and loop.attempted >= max_count:
            break
        loop.timed(op, check)
    return loop


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """High-water RSS of a process (VmHWM; reset on exec, unlike ru_maxrss)."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def children_peak_rss_mib() -> float:
    """Largest high-water RSS among this process's waited-for children."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


