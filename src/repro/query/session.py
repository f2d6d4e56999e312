"""Resumable streaming query sessions: the anytime face of the library.

ExSample is an *anytime* algorithm — it surfaces distinct objects
incrementally and can stop at any budget — and :class:`QuerySession` is the
API that exposes that property. Where :meth:`repro.query.engine.QueryEngine
.run` blocks until a finished :class:`~repro.core.sampler.SearchTrace`,
a session streams typed events as the search progresses::

    session = engine.session(DistinctObjectQuery("person", limit=20))
    for event in session.stream():
        if isinstance(event, ResultFound):
            print("found", event.result, "after", event.sample_index, "frames")
        if isinstance(event, SampleBatch) and event.total_cost > 30.0:
            session.pause()            # stream() returns after this event
    blob = session.checkpoint("search.ckpt")

A paused (or simply abandoned) session can be serialised with
:meth:`QuerySession.checkpoint` and revived — in the same process or a
fresh one — with :meth:`QuerySession.restore`. The checkpoint captures the
*entire* search state: per-chunk statistics, within-chunk frame orders, RNG
streams, discriminator track stores, and the partial trace. Finishing a
restored session therefore produces a final trace byte-identical to the
trace of a never-interrupted run; the test suite asserts this for every
registered method.

Checkpoints use :mod:`pickle` under the hood: restore only checkpoints you
(or something you trust) created.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, List, Optional, Tuple, Union

from repro.core.sampler import SearchRun, SearchStep, SearchTrace
from repro.errors import QueryError

#: Version tag embedded in checkpoints; bumped on incompatible layout changes.
#: v1 pickled the session state as one flat dict; v2 wrapped the pickled
#: state in an envelope carrying a payload digest and summary metadata, so
#: checkpoints shipped over a wire (base64 frames between fleet shards) can
#: be integrity-checked and routed without deserialising the search state.
#: v3 keeps that envelope; the uniform baselines now build chunk orders on
#: first pick, which changed their pickled layout. v4 keeps it too; the
#: synthetic world inside a session's engine now pickles as its columns
#: instead of a list of instance objects. v5 keeps it too; a searcher now
#: holds one order generator for all its chunk orders and a discriminator
#: one track-extension generator. v6 keeps it too; an ExSample searcher
#: over more than 256 chunks now holds the chunk groups of its grouped
#: Thompson draw. v7 keeps it too; a built synthetic world now pickles as
#: its builder recipe plus content digest instead of its columns. Only the
#: current version restores: an older blob gets a
#: :class:`~repro.errors.QueryError`.
CHECKPOINT_VERSION = 7


@dataclass(frozen=True)
class SampleBatch:
    """One batch of frames was processed (one §III-F sampling step).

    ``picks`` holds the consumed ``(chunk, frame)`` pairs; the counters are
    cumulative over the whole session.
    """

    picks: Tuple[Tuple[int, int], ...]
    num_samples: int
    num_results: int
    total_cost: float


@dataclass(frozen=True)
class ResultFound:
    """A new distinct result was discovered.

    ``result`` is the searcher's payload (a
    :class:`repro.query.engine.FoundObject` in the video pipeline);
    ``sample_index`` is the 1-based count of frames processed when it was
    found, and ``num_results`` the cumulative result count including it.
    """

    result: object
    sample_index: int
    num_results: int


@dataclass(frozen=True)
class BudgetExhausted:
    """The session finished; no further events will follow.

    ``reason`` names what ended the search: ``"result_limit"``,
    ``"distinct_real_limit"``, ``"frame_budget"``, ``"cost_budget"``, or
    ``"exhausted"`` (every frame sampled).
    """

    reason: str
    num_samples: int
    num_results: int
    total_cost: float


#: Everything :meth:`QuerySession.stream` can yield.
SessionEvent = Union[SampleBatch, ResultFound, BudgetExhausted]


@dataclass(frozen=True)
class CheckpointInfo:
    """Envelope metadata of a checkpoint, readable without restoring it.

    Returned by :func:`peek_checkpoint`. ``method``/``num_samples``/
    ``num_results``/``total_cost`` describe the session at checkpoint
    time; ``payload_bytes`` is the size of the pickled search state. A
    fleet router uses this to log and account a migration without paying
    the deserialisation of chunk statistics and track stores.
    """

    version: int
    method: str
    num_samples: int
    num_results: int
    total_cost: float
    payload_bytes: int


def peek_checkpoint(source: "Union[bytes, bytearray, str]") -> CheckpointInfo:
    """Read a checkpoint's envelope metadata without restoring the session.

    Only the outer envelope is decoded; the search-state payload stays an
    opaque byte string (its digest is still verified, so a truncated or
    corrupted wire transfer is caught here, before any restore attempt).
    """
    envelope = _load_envelope(source)
    meta = envelope["meta"]
    return CheckpointInfo(
        version=envelope["version"],
        method=meta["method"],
        num_samples=meta["num_samples"],
        num_results=meta["num_results"],
        total_cost=meta["total_cost"],
        payload_bytes=len(envelope["payload"]),
    )


def _payload_digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _load_envelope(source: "Union[bytes, bytearray, str]") -> dict:
    """Decode checkpoint bytes (or a file path) into the envelope dict.

    The version must be :data:`CHECKPOINT_VERSION` and the payload digest
    must match.
    """
    if isinstance(source, (bytes, bytearray)):
        blob = bytes(source)
    else:
        with open(source, "rb") as handle:
            blob = handle.read()
    try:
        state = pickle.loads(blob)
    except Exception as exc:
        raise QueryError(f"could not decode session checkpoint: {exc}") from exc
    if not isinstance(state, dict) or "version" not in state:
        raise QueryError("not a QuerySession checkpoint")
    version = state["version"]
    if version != CHECKPOINT_VERSION:
        raise QueryError(
            f"checkpoint version {version} is not supported "
            f"(this library reads version {CHECKPOINT_VERSION} only)"
        )
    if _payload_digest(state["payload"]) != state["digest"]:
        raise QueryError(
            "checkpoint payload digest mismatch: the blob was "
            "corrupted in transit or storage"
        )
    return state


class QuerySession:
    """A resumable, streaming run of one query with one search method.

    Sessions are created by :meth:`repro.query.engine.QueryEngine.session`
    (or :meth:`restore`) and consumed either through the :meth:`stream`
    iterator or the lower-level :meth:`step`. They are single-threaded and
    not re-entrant: drive one consumer at a time.
    """

    #: True on sessions short-circuited from a recorded index outcome
    #: (:class:`repro.query.engine.ReplaySession`); False on live runs.
    replayed = False

    def __init__(
        self,
        run: SearchRun,
        query: Optional[object] = None,
        method: str = "",
        gt_count: int = 0,
    ):
        self._run = run
        self.query = query
        self.method = method
        self.gt_count = gt_count
        self._pending: Deque[SessionEvent] = deque()
        self._paused = False
        self._end_emitted = False
        #: Optional callback fired exactly once when the run finishes.
        #: The engine's repository-index recorder attaches here; the hook
        #: is process-local and deliberately excluded from checkpoints (a
        #: restored session re-attaches whatever its new engine provides).
        self.on_complete: Optional[Callable[["QuerySession"], None]] = None
        self._completion_notified = False

    # -- progress introspection --------------------------------------------

    @property
    def search_run(self) -> SearchRun:
        """The underlying resumable stepper.

        Exposed for drivers that schedule the propose/fulfil phases
        themselves — the :class:`repro.serving.QueryServer` event loop
        fulfils detection through a cross-session batcher. Ordinary
        consumers should stick to :meth:`stream`/:meth:`step`.
        """
        return self._run

    @property
    def finished(self) -> bool:
        """True once the search can make no further progress."""
        return self._run.finished

    @property
    def reason(self) -> Optional[str]:
        """Why the search stopped (None while it is still running)."""
        return self._run.reason

    @property
    def num_samples(self) -> int:
        return self._run.num_samples

    @property
    def num_results(self) -> int:
        return self._run.num_results

    @property
    def total_cost(self) -> float:
        return self._run.total_cost

    # -- the streaming interface -------------------------------------------

    def pause(self) -> None:
        """Make the active :meth:`stream` iterator return after this event.

        Purely cooperative: the search state is left at a batch boundary,
        ready for :meth:`checkpoint`, a later :meth:`stream` call, or both.
        """
        self._paused = True

    def stream(self) -> Iterator[SessionEvent]:
        """Yield events until the session finishes or :meth:`pause` is called.

        Calling :meth:`stream` again on a paused (or restored) session
        resumes exactly where it left off — including events that were
        already produced by a step but not yet consumed.
        """
        self._paused = False
        while True:
            if self._pending:
                yield self._pending.popleft()
                if self._paused:
                    return
                continue
            if self._end_emitted:
                return
            self._advance()

    def step(self) -> List[SessionEvent]:
        """Advance by one batch and return the events it produced.

        Pending events from an earlier, partially consumed :meth:`stream`
        are included first. Returns ``[]`` once the session has finished
        and the :class:`BudgetExhausted` event has been delivered.
        """
        if not self._end_emitted:
            self._advance()
        events = list(self._pending)
        self._pending.clear()
        return events

    def _advance(self) -> None:
        """Run one stepper batch and queue the resulting events."""
        if not self._run.finished:
            step = self._run.step()
            self._pending.extend(self._events_from(step))
        if self._run.finished and not self._end_emitted:
            self._pending.append(
                BudgetExhausted(
                    reason=self._run.reason or "exhausted",
                    num_samples=self._run.num_samples,
                    num_results=self._run.num_results,
                    total_cost=self._run.total_cost,
                )
            )
            self._end_emitted = True
            self.notify_complete()

    def _events_from(self, step: SearchStep) -> List[SessionEvent]:
        events: List[SessionEvent] = []
        count_before = self._run.num_results - len(step.new_results)
        for offset, (sample_index, payload) in enumerate(step.new_results, start=1):
            events.append(
                ResultFound(
                    result=payload,
                    sample_index=sample_index,
                    num_results=count_before + offset,
                )
            )
        if step.picks:
            events.append(
                SampleBatch(
                    picks=tuple(step.picks),
                    num_samples=self._run.num_samples,
                    num_results=self._run.num_results,
                    total_cost=self._run.total_cost,
                )
            )
        return events

    # -- completion ----------------------------------------------------------

    def advance(self) -> None:
        """Advance one batch *without* materialising events.

        For blocking drivers (:meth:`run_to_completion`) that only read
        the final outcome: the stepper does the same work, but no event
        objects are built. Mixing this with :meth:`stream` forfeits the
        events of batches advanced this way.
        """
        if not self._run.finished:
            self._run.step()
        if self._run.finished:
            self._end_emitted = True
            self.notify_complete()

    def run_to_completion(self):
        """Drive the remaining search without materialising events.

        This is what :meth:`QueryEngine.run` uses: same stepper, no event
        objects, so the blocking path stays as fast as the historical
        monolithic loop. Returns the finished
        :class:`~repro.query.engine.QueryOutcome`.
        """
        while not self._run.finished:
            self.advance()
        self._end_emitted = True
        self._pending.clear()
        self.notify_complete()
        return self.outcome()

    def notify_complete(self) -> None:
        """Fire :attr:`on_complete` once, if the run has actually finished.

        Idempotent and failure-isolated: the hook fires at most once per
        session, only on a finished run, and a raising hook is logged and
        swallowed — knowledge recording must never turn a successful query
        into an error. Drivers that step the underlying
        :class:`~repro.core.sampler.SearchRun` directly (the serving event
        loop) call this themselves when they observe completion.
        """
        if self._completion_notified or not self._run.finished:
            return
        self._completion_notified = True
        hook = self.on_complete
        if hook is None:
            return
        try:
            hook(self)
        except Exception:  # noqa: BLE001 - recording is best-effort
            logging.getLogger("repro.query.session").warning(
                "session on_complete hook failed; the query outcome is "
                "unaffected", exc_info=True,
            )

    def trace(self) -> SearchTrace:
        """The (partial, if unfinished) trace accumulated so far."""
        return self._run.trace()

    def outcome(self):
        """Wrap the current trace in a :class:`QueryOutcome`."""
        from repro.query.engine import QueryOutcome

        if self.query is None:
            raise QueryError(
                "this session has no query attached; use trace() instead"
            )
        return QueryOutcome(
            query=self.query,
            method=self.method,
            trace=self.trace(),
            gt_count=self.gt_count,
        )

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self, path: Optional[str] = None) -> bytes:
        """Serialise the complete session state; optionally write it to disk.

        The blob embeds everything needed to resume in a fresh process:
        the query, the searcher (chunk statistics, frame orders, RNG
        streams), the environment (dataset, detector, discriminator track
        store, cost model) and the partial trace. Events produced but not
        yet consumed from :meth:`stream` are preserved too.
        """
        payload = pickle.dumps(
            {
                "query": self.query,
                "method": self.method,
                "gt_count": self.gt_count,
                "run": self._run,
                "pending": list(self._pending),
                "end_emitted": self._end_emitted,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        envelope = {
            "version": CHECKPOINT_VERSION,
            "meta": {
                "method": self.method,
                "num_samples": self.num_samples,
                "num_results": self.num_results,
                "total_cost": self.total_cost,
            },
            "digest": _payload_digest(payload),
            "payload": payload,
        }
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        if path is not None:
            with open(path, "wb") as handle:
                handle.write(blob)
        return blob

    @staticmethod
    def restore(source: "Union[bytes, bytearray, str]") -> "QuerySession":
        """Revive a session from :meth:`checkpoint` bytes or a file path.

        Only :data:`CHECKPOINT_VERSION` envelopes restore (digest-verified);
        a blob written by an older layout raises
        :class:`~repro.errors.QueryError`.
        """
        envelope = _load_envelope(source)
        try:
            state = pickle.loads(envelope["payload"])
        except Exception as exc:
            raise QueryError(
                f"could not decode session checkpoint payload: {exc}"
            ) from exc
        session = QuerySession(
            state["run"],
            query=state["query"],
            method=state["method"],
            gt_count=state["gt_count"],
        )
        session._pending.extend(state["pending"])
        session._end_emitted = state["end_emitted"]
        return session
