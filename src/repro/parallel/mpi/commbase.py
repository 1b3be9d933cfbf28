"""Protocol semantics of the real-transport communicator.

The socket router's ``_SocketComm`` must behave like the simulated
cluster at the protocol level — tag matching, ANY_SOURCE over a mix of
live and finished peers, out-of-order stashing, dead-peer errors,
root-sequenced collectives — or strategies would silently produce
different results depending on ``--cluster``.  This base class owns every
one of those decisions, kept apart from the byte transport it runs over;
a transport supplies exactly two hooks:

* :meth:`_transmit` — hand ``(obj, dest, tag)`` to the transport
  (buffered-eager: it must not rendezvous with the receiver), raising
  :class:`CommError` if the destination is known dead;
* :meth:`_pump` — block until at least one new ``(source, tag, obj)``
  message is appended to ``self._stash``, raising :class:`CommError`
  when the wait can provably never complete (the wanted peer is dead, or
  an ANY_SOURCE wait has no live peers and nothing stashed matched).

``recv`` is then a pure template: scan the stash for a match, otherwise
pump and rescan.  Self-sends short-circuit through the stash (no
transport round trip).  The collectives are root-sequenced over the
point-to-point layer with a reserved tag; collective traffic read while
hunting for a p2p message (or vice versa) lands in the stash and is
matched later — interleaving is legal on every backend.

The simulated cluster does **not** share this class: its delivery is
globally ordered by virtual time and implemented in the cluster, not the
endpoint.  The conformance suite (``tests/parallel/
test_backend_conformance.py``) is what holds both to one contract.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.cost.workmeter import WorkMeter, WorkModel
from repro.parallel.mpi.comm import ANY_SOURCE, CommError, Communicator

__all__ = ["BufferedComm"]


class BufferedComm(Communicator):
    """Stash-buffered communicator over an eager byte transport."""

    def __init__(self, rank: int, size: int, work_model: WorkModel | None = None):
        self._rank = rank
        self._size = size
        self._t0 = time.perf_counter()
        self.meter = WorkMeter(work_model)
        # Messages read from the transport while waiting for another
        # (source, tag) — plus self-sends, which never hit the transport.
        self._stash: list[tuple[int, int, Any]] = []
        # Peers known to be gone (finished or died).  A dead peer is only
        # an error when a send or receive actually needs it.
        self._dead: set[int] = set()

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- transport hooks --------------------------------------------------
    def _transmit(self, obj: Any, dest: int, tag: int) -> None:
        """Hand one message to the transport (eager, non-blocking-ish)."""
        raise NotImplementedError

    def _pump(self, source: int, tag: int) -> None:
        """Block until ≥ 1 new message lands in the stash (see module doc)."""
        raise NotImplementedError

    # -- point-to-point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        if dest == self._rank:
            self._stash.append((self._rank, tag, obj))
            return
        self._transmit(obj, dest, tag)

    def _take(self, source: int, tag: int) -> tuple[int, Any] | None:
        """Pop the first stashed message matching (source, tag), if any."""
        for i, (src, t, obj) in enumerate(self._stash):
            if t == tag and (source == ANY_SOURCE or src == source):
                del self._stash[i]
                return src, obj
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> tuple[int, Any]:
        self._check_rank(source, allow_any=True)
        while True:
            hit = self._take(source, tag)
            if hit is not None:
                return hit
            self._pump(source, tag)

    # -- collectives ------------------------------------------------------
    _COLL_TAG = -7  # reserved tag for collective plumbing

    def _coll_send(self, obj: Any, dest: int) -> None:
        self._transmit(obj, dest, self._COLL_TAG)

    def _coll_recv(self, source: int) -> Any:
        # Collective traffic may interleave with stashed p2p messages;
        # recv's stash discipline resolves both directions.
        _src, obj = self.recv(source, self._COLL_TAG)
        return obj

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root)
        if self._size == 1:
            return obj
        if self._rank == root:
            for r in range(self._size):
                if r != root:
                    self._coll_send(obj, r)
            return obj
        return self._coll_recv(root)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root)
        if self._rank == root:
            if objs is None or len(objs) != self._size:
                raise CommError(f"scatter needs a length-{self._size} sequence")
            for r in range(self._size):
                if r != root:
                    self._coll_send(objs[r], r)
            return objs[root]
        return self._coll_recv(root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root)
        if self._rank == root:
            out: list[Any] = [None] * self._size
            out[root] = obj
            for r in range(self._size):
                if r != root:
                    out[r] = self._coll_recv(r)
            return out
        self._coll_send(obj, root)
        return None

    def barrier(self) -> None:
        # Gather-to-0 then broadcast a token.
        self.gather(None, root=0)
        self.bcast(None, root=0)

    # -- timing -----------------------------------------------------------
    def elapsed(self) -> float:
        return time.perf_counter() - self._t0
