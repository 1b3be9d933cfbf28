"""Abstract communicator interface (mpi4py-style, lower-case semantics).

SPMD programs in this library are written against this interface and run
unchanged on any backend: the deterministic simulated cluster, the real
multiprocessing backend, or the size-1 loopback.  The API mirrors the
pickle-based (lower-case) half of mpi4py:

* ``send(obj, dest, tag)`` — buffered-eager send: returns once the message
  is handed to the transport (it never rendezvouses with the receiver);
* ``recv(source, tag)`` — blocking receive; ``source=ANY_SOURCE`` matches
  any sender, delivered in deterministic ``(arrival, source, seq)`` order
  on the simulated backend;
* ``bcast / scatter / gather / allgather / barrier`` — synchronizing
  collectives, called by every rank in the same order (SPMD discipline).

Backends also expose ``elapsed()`` — virtual model-seconds on the
simulated cluster, wall-clock seconds elsewhere — so strategy code reports
runtimes uniformly.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

__all__ = ["Communicator", "ANY_SOURCE", "CommError", "DeadlockError"]

#: Wildcard source for :meth:`Communicator.recv`.
ANY_SOURCE: int = -1


class CommError(RuntimeError):
    """Raised for protocol misuse (bad ranks, mismatched collectives...)."""


class DeadlockError(CommError):
    """Raised by the simulated cluster when every rank is blocked."""


class Communicator(abc.ABC):
    """One rank's endpoint in a communicator group (see module docstring)."""

    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This process's rank in ``[0, size)``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks in the group."""

    # -- point-to-point -------------------------------------------------
    @abc.abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send of a picklable object."""

    @abc.abstractmethod
    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> tuple[int, Any]:
        """Blocking receive; returns ``(source_rank, object)``."""

    # -- collectives ------------------------------------------------------
    @abc.abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; every rank returns the object."""

    @abc.abstractmethod
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-``size`` sequence from ``root``."""

    @abc.abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to ``root`` (None elsewhere)."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks."""

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to root 0 then broadcast (default composition)."""
        out = self.gather(obj, root=0)
        return self.bcast(out, root=0)

    # -- timing -----------------------------------------------------------
    @abc.abstractmethod
    def elapsed(self) -> float:
        """Seconds elapsed for this rank (virtual or wall-clock)."""

    def progress(self) -> None:
        """Optional progress hint: publish this rank's current clock.

        A no-op on real backends; on the simulated cluster it lets a rank
        in a long compute stretch update its virtual clock so other ranks'
        conservative delivery decisions can proceed sooner.
        """

    def _check_rank(self, r: int, *, allow_any: bool = False) -> None:
        if allow_any and r == ANY_SOURCE:
            return
        if not 0 <= r < self.size:
            raise CommError(f"rank {r} out of range for size {self.size}")
