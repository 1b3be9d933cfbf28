"""Per-rank heartbeat/staleness liveness for the real-process backend.

EOF tells a parent that a rank *died*; nothing tells it that a rank is
alive but *wedged* — SIGSTOPped, or spinning inside native code with its
connection still open.  Each rank therefore emits a cheap heartbeat from
a daemon thread, and the parent tracks per-rank last-seen times through
one :class:`LivenessMonitor`, declaring a rank wedged once its silence
exceeds ``heartbeat_timeout``.

The socket router beats the monitor on *every* frame (data counts as
proof of life, heartbeats only cover idle ranks).  The policy — window
bookkeeping, staleness predicate, error wording — lives here, apart from
the router's event loop.
"""

from __future__ import annotations

import time

from repro.parallel.mpi.comm import CommError

__all__ = [
    "LivenessMonitor",
    "DEFAULT_HEARTBEAT",
    "default_heartbeat_timeout",
]

#: Default heartbeat send interval (seconds) inside each rank.
DEFAULT_HEARTBEAT = 2.0


def default_heartbeat_timeout(heartbeat: float) -> float:
    """Silence threshold for a given heartbeat interval.

    Generous (``max(30, 10 × heartbeat)``) so CPU oversubscription at
    p = 64 cannot starve a healthy rank's heartbeat thread into a false
    positive.
    """
    return max(30.0, 10.0 * heartbeat)


class LivenessMonitor:
    """Tracks when each rank was last seen; flags the ones gone silent."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._last: dict[int, float] = {}

    def register(self, rank: int, now: float | None = None) -> None:
        self._last[rank] = time.perf_counter() if now is None else now

    def beat(self, rank: int, now: float | None = None) -> None:
        if rank in self._last:
            self._last[rank] = time.perf_counter() if now is None else now

    def forget(self, rank: int) -> None:
        self._last.pop(rank, None)

    def reset(self, now: float | None = None) -> None:
        """Restart every rank's window (e.g. after a long accept phase)."""
        if now is None:
            now = time.perf_counter()
        for rank in self._last:
            self._last[rank] = now

    def stale(self, now: float | None = None) -> list[int]:
        """Ranks silent for longer than ``timeout``, sorted."""
        if now is None:
            now = time.perf_counter()
        return sorted(
            r for r, seen in self._last.items() if now - seen > self.timeout
        )

    def silence_error(self, ranks: list[int]) -> CommError:
        """The uniform wedge report the router raises."""
        return CommError(
            f"rank(s) {ranks} went silent: no heartbeat for "
            f"{self.timeout:.1f}s (wedged or stopped)"
        )
