"""The wire protocol front-end: a QueryServer behind a TCP socket.

Newline-delimited JSON over :mod:`asyncio` streams — one frame per line,
small enough to debug with ``nc`` and stable enough to version. This is
the network face the ROADMAP's fleet item calls for: :class:`NetServer`
wraps one :class:`~repro.serving.server.QueryServer` and speaks
:data:`PROTOCOL_VERSION` to any number of connections;
:class:`FleetClient` is the matching client, used directly by
applications and by the :class:`~repro.serving.fleet.FleetRouter` to
drive shard processes.

Client frames carry an ``op`` plus a request id ``rid`` (responses echo
it); ops that address a session carry its submission id ``sid``::

    {"op": "submit", "rid": "r1", "sid": "q1",
     "query": {"object": "car", "limit": 5, "tenant": "a"}, "stream": true}
    {"op": "pause",      "rid": "r2", "sid": "q1"}
    {"op": "checkpoint", "rid": "r3", "sid": "q1"}
    {"op": "restore",    "rid": "r4", "sid": "q2", "checkpoint": "<b64>"}
    {"op": "evict",      "rid": "r5", "sid": "q1"}
    {"op": "stats",      "rid": "r6"}
    {"op": "drain",      "rid": "r7", "checkpoint": false}
    {"op": "shutdown",   "rid": "r8"}

Each op handler declares the keys its frames may carry; a frame with any
other key is answered by a typed ``ConfigError`` frame and admits
nothing, so a misspelled option is never silently dropped.

Server frames are responses (``{"rid": ..., "ok": true, ...}``), typed
error frames (``{"rid": ..., "error": "ServerOverloadedError",
"message": ...}`` — the client re-raises the named
:mod:`repro.errors` class), or session events (``{"sid": ...,
"event": ...}``). Events mirror the :mod:`repro.query.session`
vocabulary: ``result`` / ``samples`` while streaming is on, and always a
final ``terminal`` frame whose ``state`` is ``finished`` / ``paused`` /
``failed``. A finished terminal frame embeds the pickled
:class:`~repro.query.engine.QueryOutcome` (base64), so a remote result
is *exactly* the object a local ``engine.run`` returns — the fleet test
suite asserts element-wise trace identity through this path.

Checkpoints cross the wire as base64 checkpoint envelopes
(:mod:`repro.query.session`), digest-verified on restore; pause →
checkpoint → restore against another server is the live-migration
primitive. A draining server answers ``submit`` with a typed
``ServerDrainingError`` frame instead of dropping the connection.

Both ends tolerate a hostile wire: the server answers a non-JSON or
oversized line with a typed ``ProtocolError`` frame (counting it in
``wire_errors``) instead of dropping the connection, and the client
skips undecodable inbound frames, applies per-op timeouts
(:class:`~repro.errors.WireTimeoutError`), retries idempotent ops with
bounded jittered backoff (:class:`RetryPolicy`), and can
:meth:`~FleetClient.reconnect` and re-subscribe to live sessions by
their server-assigned ``gid`` (:meth:`~FleetClient.attach`).

Like session checkpoints, the protocol moves pickled payloads between
processes that trust each other (shards of one fleet); do not expose the
port beyond that trust boundary.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import json
import pickle
import random
from typing import ClassVar, Dict, Optional, Set

import repro.errors as _errors
from repro.errors import (
    ProtocolError,
    QueryError,
    ReproError,
    WireTimeoutError,
)
from repro.query.session import QuerySession, peek_checkpoint
from repro.serving.server import QueryServer, ServerConfig, ServerStats
from repro.serving.workload import WorkloadItem, item_from_json

__all__ = [
    "FleetClient",
    "NetServer",
    "PROTOCOL_VERSION",
    "RemoteSession",
    "RetryPolicy",
    "stats_to_jsonable",
]

#: Bumped on incompatible frame-layout changes; exchanged in ``ping``.
PROTOCOL_VERSION = 1

#: Per-line asyncio stream limit, both directions. Terminal frames embed
#: a whole pickled outcome (trace arrays included) and restore frames a
#: whole checkpoint, so the 64 KiB asyncio default is far too small — an
#: oversized line makes ``readline`` raise mid-stream and looks like a
#: hang to the peer.
_STREAM_LIMIT = 64 * 1024 * 1024


def _encode_frame(frame: dict) -> bytes:
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


#: Marker returned by :func:`_read_frame_line` for an over-limit line.
_OVERSIZED = object()


async def _read_frame_line(reader: asyncio.StreamReader):
    """One newline-terminated frame, ``b""`` at EOF, or :data:`_OVERSIZED`.

    ``readline()`` raises ``ValueError`` on an over-limit line *and*
    leaves the stream unframed, killing the connection. This variant
    discards the oversized line up to and including its newline, so the
    caller can answer with a typed error frame and keep serving the
    same connection.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # b"" at clean EOF
    except asyncio.LimitOverrunError as exc:
        overrun = exc.consumed
        while True:
            try:
                await reader.readexactly(overrun)
                await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return b""
            except asyncio.LimitOverrunError as again:
                overrun = again.consumed
                continue
            return _OVERSIZED


def _error_frame(rid, exc: BaseException) -> dict:
    return {"rid": rid, "error": type(exc).__name__, "message": str(exc)}


def _raise_typed(frame: dict) -> None:
    """Re-raise a typed error frame as the named repro error class."""
    name = frame.get("error", "ReproError")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    raise cls(frame.get("message", name))


def _jsonable_result(payload) -> dict:
    """A wire-safe summary of one found result (FoundObject or other)."""
    if dataclasses.is_dataclass(payload):
        raw = dataclasses.asdict(payload)
        return {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in raw.items()
        }
    return {"repr": repr(payload)}


def stats_to_jsonable(stats: ServerStats) -> dict:
    """Flatten a :class:`ServerStats` snapshot into JSON-safe primitives."""
    return dataclasses.asdict(stats)


class _Connection:
    """One client connection: an ordered, non-blocking outbound queue.

    Frames are enqueued synchronously (event sinks run inside the
    serving loop and must not await) and written by a dedicated task
    that absorbs socket backpressure. A dead peer flips ``closed`` and
    the queue drains into the void — sessions belong to the server, not
    the connection, so they keep running.
    """

    def __init__(self, writer: asyncio.StreamWriter, faults=None):
        self.writer = writer
        self.closed = False
        self.sessions: Dict[str, object] = {}  # sid -> SessionHandle
        #: Optional WireFaults (repro.serving.faults): chaos tests mangle
        #: outbound frames here, the one choke point every frame crosses.
        self.faults = faults
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self._writer_task = asyncio.create_task(self._write_loop())

    def send(self, frame: dict) -> None:
        if self.closed:
            return
        data = _encode_frame(frame)
        if self.faults is not None:
            action = self.faults.outbound(frame)
            if action == "drop":
                return
            if action == "corrupt":
                # Undecodable but still newline-terminated: the stream
                # stays framed, so clients must skip it, not die.
                data = b'\x00<<corrupted-frame>>\n'
            elif action is not None:
                self._loop.call_later(
                    float(action), self._queue.put_nowait, data
                )
                return
        self._queue.put_nowait(data)

    async def _write_loop(self) -> None:
        try:
            while True:
                data = await self._queue.get()
                if data is None:
                    break
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True

    async def close(self) -> None:
        self.closed = True
        self._queue.put_nowait(None)
        try:
            await self._writer_task
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass


# Retry contract of every wire op, consulted by
# :meth:`FleetClient._request_retrying` and enforced by lint (SER402):
# a transport failure leaves the client unsure whether the server
# executed the request, so only ops marked True here may be retried
# blindly. Session-creating and session-mutating ops are False — a
# duplicated submit would burn detector budget twice, a duplicated
# attach trips the per-connection sid check.
OP_IDEMPOTENCY: Dict[str, bool] = {
    "ping": True,
    "stats": True,
    "drain": True,
    "submit": False,
    "restore": False,
    "attach": False,
    "pause": False,
    "checkpoint": False,
    "evict": False,
    "shutdown": False,
}


def _accepts(*keys: str):
    """Declare the keys an op handler's frames may carry.

    ``op`` and ``rid`` are implied. :meth:`NetServer._dispatch` answers
    a frame with any other key by a typed ``ConfigError`` before the
    handler runs, as :func:`~repro.serving.workload.item_from_json` does
    for a bad submit item: a misspelled ``pause_after`` must not start a
    session that never pauses.
    """

    def declare(handler):
        handler.frame_keys = frozenset(("op", "rid", *keys))
        return handler

    return declare


def _retrieve_task_exception(task: asyncio.Task) -> None:
    """Done-callback that marks a task's exception as retrieved.

    For tasks whose failure has nowhere useful to go (e.g. the detached
    shutdown task — its requester's socket is already closed): without
    this, a failure surfaces as "exception was never retrieved" noise at
    garbage-collection time.
    """
    if not task.cancelled():
        task.exception()


class NetServer:
    """Serve one engine's :class:`QueryServer` over a TCP socket.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` after
    :meth:`start` — how shard processes report their address). Use as an
    async context manager, or ``start()``/``stop()`` explicitly;
    ``repro serve --listen HOST:PORT`` is the CLI wrapper.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServerConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        line_limit: int = _STREAM_LIMIT,
        faults=None,
    ):
        self.engine = engine
        self.query_server = QueryServer(engine, config)
        self.host = host
        self.port = port
        self.line_limit = line_limit
        #: Malformed (non-JSON / oversized) inbound lines answered with a
        #: typed error frame instead of a dropped connection.
        self.wire_errors = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[_Connection] = set()
        self._op_tasks: Set[asyncio.Task] = set()
        self._closed: Optional[asyncio.Event] = None
        # Server-assigned global session ids: unlike sids (per
        # connection), a gid survives the connection that created it, so
        # a reconnecting client can re-subscribe via the attach op.
        self._registry: Dict[str, object] = {}
        self._gid_counter = 0
        # The detached shutdown task (see _op_shutdown); retained here
        # because stop() cancels everything in _op_tasks, which would
        # include the very task running stop().
        self._shutdown_task: Optional[asyncio.Task] = None
        self._wire_faults = None
        if faults:
            from repro.serving.faults import install_faults

            install_faults(self, faults)

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> "NetServer":
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.line_limit,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` completes (e.g. via a shutdown op)."""
        assert self._closed is not None, "server not started"
        await self._closed.wait()

    async def stop(self, drain: bool = True, checkpoint: bool = False) -> None:
        """Stop accepting, settle sessions, close every connection.

        ``drain=True`` (default) is the graceful path — in-flight
        sessions finish (or pause, with ``checkpoint=True``) before the
        socket closes; ``drain=False`` cancels them via
        :meth:`QueryServer.shutdown`.
        """
        if self._server is None:
            return
        self._server.close()
        if drain:
            await self.query_server.drain_gracefully(checkpoint=checkpoint)
        else:
            await self.query_server.shutdown()
        for task in list(self._op_tasks):
            task.cancel()
        await asyncio.gather(*self._op_tasks, return_exceptions=True)
        for conn in list(self._conns):
            await conn.close()
        await self._server.wait_closed()
        self._server = None
        if self._closed is not None:
            self._closed.set()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, faults=self._wire_faults)
        self._conns.add(conn)
        try:
            while True:
                line = await _read_frame_line(reader)
                if line is _OVERSIZED:
                    # One oversized line answers with a typed error frame
                    # — the stream stays framed (the line was discarded
                    # through its newline), so the connection lives on.
                    self.wire_errors += 1
                    conn.send(_error_frame(None, ProtocolError(
                        f"frame exceeds the {self.line_limit}-byte "
                        "line limit"
                    )))
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._dispatch(conn, line))
                self._op_tasks.add(task)
                task.add_done_callback(self._op_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # The socket is gone; detach event sinks so finished steps
            # stop building frames nobody will read. Sessions run on.
            for handle in conn.sessions.values():
                handle.event_sink = None
            self._conns.discard(conn)
            await conn.close()

    async def _dispatch(self, conn: _Connection, line: bytes) -> None:
        rid = None
        try:
            try:
                frame = json.loads(line)
            except json.JSONDecodeError as exc:
                self.wire_errors += 1
                raise ProtocolError(f"undecodable frame: {exc}") from exc
            if not isinstance(frame, dict) or "op" not in frame:
                self.wire_errors += 1
                raise ProtocolError("frames must be objects with an 'op'")
            rid = frame.get("rid")
            op = frame["op"]
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            unknown = set(frame) - handler.frame_keys
            if unknown:
                raise _errors.ConfigError(
                    f"{op} frame has unknown keys {sorted(unknown)}; "
                    f"valid keys: {sorted(handler.frame_keys)}"
                )
            await handler(conn, rid, frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - becomes a typed frame
            conn.send(_error_frame(rid, exc))

    # -- session plumbing ----------------------------------------------------

    def _event_sink(self, conn: _Connection, sid: str):
        """Build the per-step callback that streams events for one session."""

        def sink(handle, step) -> None:
            if conn.closed:
                return
            run = handle.session.search_run
            count_before = run.num_results - len(step.new_results)
            for offset, (sample_index, payload) in enumerate(
                step.new_results, start=1
            ):
                conn.send(
                    {
                        "sid": sid,
                        "event": "result",
                        "sample_index": sample_index,
                        "num_results": count_before + offset,
                        "result": _jsonable_result(payload),
                    }
                )
            if step.picks:
                conn.send(
                    {
                        "sid": sid,
                        "event": "samples",
                        "num_picks": len(step.picks),
                        "num_samples": run.num_samples,
                        "num_results": run.num_results,
                        "total_cost": run.total_cost,
                    }
                )

        return sink

    async def _watch_terminal(
        self, conn: _Connection, sid: str, handle
    ) -> None:
        """Send the terminal frame once a session settles."""
        state = await handle.wait()
        session = handle.session
        frame = {
            "sid": sid,
            "event": "terminal",
            "state": state,
            "num_samples": session.num_samples,
            "num_results": session.num_results,
            "total_cost": session.total_cost,
        }
        if state == "finished":
            frame["reason"] = session.reason
            frame["outcome"] = base64.b64encode(
                pickle.dumps(
                    session.outcome(), protocol=pickle.HIGHEST_PROTOCOL
                )
            ).decode("ascii")
        elif state == "failed":
            frame["error"] = type(handle.error).__name__
            frame["message"] = str(handle.error)
        conn.send(frame)

    async def _admit(
        self, conn: _Connection, rid, frame: dict, *, session=None,
        item: Optional[WorkloadItem] = None,
    ) -> None:
        """Shared tail of submit/restore: admission, ack, event wiring."""
        sid = frame.get("sid")
        if not isinstance(sid, str) or not sid:
            raise ProtocolError("submit/restore frames need a string 'sid'")
        if sid in conn.sessions:
            raise ProtocolError(f"sid {sid!r} is already in use")
        stream = bool(frame.get("stream", False))
        wait = bool(frame.get("wait", False))
        sink = self._event_sink(conn, sid) if stream else None
        pause_after = frame.get("pause_after")
        if session is not None:
            handle = await self.query_server.submit(
                session=session,
                tenant=frame.get("tenant", "default"),
                pause_after=pause_after,
                wait=wait,
                event_sink=sink,
            )
        else:
            assert item is not None
            if pause_after is None:
                pause_after = item.pause_after
            kwargs = (
                {"batch_size": item.batch_size}
                if item.batch_size is not None
                else {}
            )
            handle = await self.query_server.submit(
                item.query(),
                method=item.method,
                run_seed=item.run_seed,
                tenant=item.tenant,
                pause_after=pause_after,
                wait=wait,
                event_sink=sink,
                **kwargs,
            )
        conn.sessions[sid] = handle
        self._gid_counter += 1
        gid = f"g{self._gid_counter}"
        self._registry[gid] = handle
        conn.send(
            {"rid": rid, "ok": True, "op": frame["op"], "sid": sid,
             "gid": gid}
        )
        task = asyncio.create_task(self._watch_terminal(conn, sid, handle))
        self._op_tasks.add(task)
        task.add_done_callback(self._op_tasks.discard)

    def _handle_for(self, conn: _Connection, frame: dict):
        sid = frame.get("sid")
        handle = conn.sessions.get(sid)
        if handle is None:
            raise ProtocolError(f"unknown sid {sid!r} on this connection")
        return handle

    # -- ops -----------------------------------------------------------------

    @_accepts()
    async def _op_ping(self, conn, rid, frame) -> None:
        conn.send(
            {"rid": rid, "ok": True, "op": "ping",
             "protocol": PROTOCOL_VERSION,
             "draining": self.query_server.draining}
        )

    @_accepts("sid", "query", "wait", "stream", "pause_after")
    async def _op_submit(self, conn, rid, frame) -> None:
        query = frame.get("query")
        if not isinstance(query, dict):
            raise ProtocolError("submit frames need a 'query' object")
        item = item_from_json(query)
        await self._admit(conn, rid, frame, item=item)

    @_accepts("sid", "checkpoint", "tenant", "wait", "stream", "pause_after")
    async def _op_restore(self, conn, rid, frame) -> None:
        blob_b64 = frame.get("checkpoint")
        if not isinstance(blob_b64, str):
            raise ProtocolError("restore frames need a base64 'checkpoint'")
        try:
            blob = base64.b64decode(blob_b64.encode("ascii"), validate=True)
        except Exception as exc:
            raise ProtocolError(f"checkpoint is not valid base64: {exc}") from exc
        session = QuerySession.restore(blob)
        await self._admit(conn, rid, frame, session=session)

    @_accepts("sid", "gid", "stream")
    async def _op_attach(self, conn, rid, frame) -> None:
        """Re-subscribe to a live (or finished) session after a reconnect.

        The session is addressed by the server-assigned ``gid`` from its
        submit/restore ack — sids are per-connection, gids are not. The
        attach re-wires streaming (if asked) and re-arms the terminal
        frame on this connection, so a client that lost its socket
        mid-session picks the outcome up without redoing any work.
        """
        sid = frame.get("sid")
        if not isinstance(sid, str) or not sid:
            raise ProtocolError("attach frames need a string 'sid'")
        if sid in conn.sessions:
            raise ProtocolError(f"sid {sid!r} is already in use")
        gid = frame.get("gid")
        handle = self._registry.get(gid)
        if handle is None:
            raise ProtocolError(f"unknown session gid {gid!r}")
        if frame.get("stream"):
            handle.event_sink = self._event_sink(conn, sid)
        conn.sessions[sid] = handle
        conn.send(
            {"rid": rid, "ok": True, "op": "attach", "sid": sid,
             "gid": gid, "state": handle.state}
        )
        task = asyncio.create_task(self._watch_terminal(conn, sid, handle))
        self._op_tasks.add(task)
        task.add_done_callback(self._op_tasks.discard)

    @_accepts("sid")
    async def _op_pause(self, conn, rid, frame) -> None:
        handle = self._handle_for(conn, frame)
        handle.pause()
        conn.send({"rid": rid, "ok": True, "op": "pause", "sid": frame["sid"]})

    @_accepts("sid")
    async def _op_checkpoint(self, conn, rid, frame) -> None:
        handle = self._handle_for(conn, frame)
        if not handle.done:
            raise QueryError(
                "session is still running; pause it and await the terminal "
                "event before checkpointing"
            )
        if handle.state == "failed":
            raise QueryError("a failed session cannot be checkpointed")
        blob = handle.session.checkpoint()
        meta = peek_checkpoint(blob)
        conn.send(
            {
                "rid": rid,
                "ok": True,
                "op": "checkpoint",
                "sid": frame["sid"],
                "checkpoint": base64.b64encode(blob).decode("ascii"),
                "meta": {
                    "method": meta.method,
                    "num_samples": meta.num_samples,
                    "num_results": meta.num_results,
                    "total_cost": meta.total_cost,
                    "payload_bytes": meta.payload_bytes,
                },
            }
        )

    @_accepts("sid")
    async def _op_evict(self, conn, rid, frame) -> None:
        handle = self._handle_for(conn, frame)
        if not self.query_server.evict(handle):
            raise QueryError(
                "session is still running; only terminal sessions "
                "(finished, failed or paused) can be evicted"
            )
        conn.sessions.pop(frame["sid"], None)
        conn.send({"rid": rid, "ok": True, "op": "evict", "sid": frame["sid"]})

    @_accepts()
    async def _op_stats(self, conn, rid, frame) -> None:
        cache = getattr(self.engine, "detection_cache", None)
        publish = getattr(cache, "publish_counters", None)
        if publish is not None:
            # Shared-cache fleets aggregate per-scope counters router-side
            # (SharedDetectionCache.aggregate_info); publishing here makes
            # every stats round-trip refresh this shard's row.
            publish()
        payload = stats_to_jsonable(self.query_server.stats())
        payload["wire_errors"] = self.wire_errors
        conn.send(
            {
                "rid": rid,
                "ok": True,
                "op": "stats",
                "stats": payload,
            }
        )

    @_accepts("checkpoint")
    async def _op_drain(self, conn, rid, frame) -> None:
        await self.query_server.drain_gracefully(
            checkpoint=bool(frame.get("checkpoint", False))
        )
        conn.send({"rid": rid, "ok": True, "op": "drain"})

    @_accepts("drain", "checkpoint")
    async def _op_shutdown(self, conn, rid, frame) -> None:
        conn.send({"rid": rid, "ok": True, "op": "shutdown"})
        # Ack first (the stop below closes this very connection), then
        # detach into a task so the dispatch task is not cancelled by the
        # stop it is itself running. The handle is retained on the server
        # (it cannot live in _op_tasks — stop() cancels those) and its
        # exception is retrieved by the done-callback, so a failing stop
        # no longer logs "exception was never retrieved" at GC time.
        self._shutdown_task = asyncio.create_task(
            self.stop(
                drain=bool(frame.get("drain", True)),
                checkpoint=bool(frame.get("checkpoint", False)),
            )
        )
        self._shutdown_task.add_done_callback(_retrieve_task_exception)


async def serve_forever(
    engine,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
    ready=None,
    faults=None,
) -> None:
    """Run a :class:`NetServer` until a client sends ``shutdown``.

    ``ready`` is an optional callable invoked with the bound port once
    the socket is listening — how shard processes report their ephemeral
    port to the router that spawned them. ``faults`` arms a sequence of
    :class:`~repro.serving.faults.FaultSpec` on this server (chaos
    testing).
    """
    server = NetServer(engine, config=config, host=host, port=port,
                       faults=faults)
    await server.start()
    if ready is not None:
        ready(server.port)
    await server.wait_closed()


# ---------------------------------------------------------------------------
# The client.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for idempotent ops.

    ``attempts`` bounds the total tries (first try included); waits grow
    ``base_delay * 2**n`` capped at ``max_delay``, plus up to ``jitter``
    (a fraction of the computed delay) of uniform noise so a fleet of
    retrying clients does not thunder in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5

    # Jitter draws from a private stream so library backoff neither
    # perturbs nor is perturbed by the process-global ``random`` module:
    # an application that calls ``random.seed()`` for its own
    # reproducibility keeps an untouched stream (DET101).
    _jitter_rng: ClassVar[random.Random] = random.Random()

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise _errors.ConfigError("retry attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise _errors.ConfigError("retry delays must be >= 0")

    def backoff(self, attempt: int) -> float:
        """The wait before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay * (2 ** attempt), self.max_delay)
        return delay + self._jitter_rng.uniform(0.0, self.jitter * delay)


class RemoteSession:
    """Client-side face of one session submitted over the wire.

    The analogue of :class:`~repro.serving.server.SessionHandle` with a
    network in between: :meth:`wait` for the terminal state,
    :meth:`result` for the full :class:`~repro.query.engine.QueryOutcome`
    (reconstructed from the terminal frame), :meth:`events` for the live
    stream (only if submitted with ``stream=True``), :meth:`pause` /
    :meth:`checkpoint` for migration.
    """

    def __init__(self, client: "FleetClient", sid: str):
        self.client = client
        self.sid = sid
        #: Server-assigned global session id (from the submit/restore
        #: ack): survives the connection, so after a reconnect
        #: :meth:`FleetClient.attach` re-subscribes with it.
        self.gid: Optional[str] = None
        self.events_queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self._terminal: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )

    @property
    def done(self) -> bool:
        return self._terminal.done()

    async def wait(self) -> str:
        """Await the terminal frame; returns its state string."""
        frame = await asyncio.shield(self._terminal)
        return frame["state"]

    async def terminal(self) -> dict:
        """Await and return the raw terminal frame."""
        return await asyncio.shield(self._terminal)

    async def result(self):
        """Await completion and return the remote QueryOutcome."""
        frame = await self.terminal()
        if frame["state"] == "failed":
            _raise_typed(frame)
        if frame["state"] == "paused":
            raise QueryError(
                "session was paused before finishing; checkpoint it and "
                "restore elsewhere to resume"
            )
        return pickle.loads(base64.b64decode(frame["outcome"]))

    async def events(self):
        """Yield event frames until (and including) the terminal frame."""
        while True:
            frame = await self.events_queue.get()
            if frame is None:
                return
            yield frame

    async def pause(self) -> None:
        await self.client._request({"op": "pause", "sid": self.sid})

    async def checkpoint(self) -> bytes:
        """Fetch the paused/finished session's checkpoint blob."""
        response = await self.client._request(
            {"op": "checkpoint", "sid": self.sid}
        )
        return base64.b64decode(response["checkpoint"])

    async def evict(self) -> None:
        """Drop this terminal session from the server's stats history.

        Frees the shard-side record (which pins the whole session) once
        the caller has everything it needs — the checkpoint cycle and
        migration call this on each superseded incarnation so long-lived
        fleets do not accumulate one paused ghost per checkpoint.
        """
        await self.client._request({"op": "evict", "sid": self.sid})
        self.client._sessions.pop(self.sid, None)


class FleetClient:
    """Protocol client for one :class:`NetServer` (one shard).

    One TCP connection multiplexes any number of sessions; a background
    reader task routes response frames to their awaiting requests and
    event frames to their :class:`RemoteSession`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        op_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self._reader = reader
        self._writer = writer
        self.host = host
        self.port = port
        #: Default per-request timeout (None: wait forever). A timed-out
        #: request raises :class:`~repro.errors.WireTimeoutError`.
        self.op_timeout = op_timeout
        self.retry = retry or RetryPolicy()
        #: Operations re-issued after a transport failure or timeout.
        self.retries = 0
        #: Undecodable inbound frames skipped (corrupt lines).
        self.wire_errors = 0
        self._closing = False
        self._pending: Dict[str, asyncio.Future] = {}
        self._sessions: Dict[str, RemoteSession] = {}
        self._counter = 0
        self._read_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        op_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> "FleetClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=_STREAM_LIMIT
        )
        return cls(reader, writer, host=host, port=port,
                   op_timeout=op_timeout, retry=retry)

    @property
    def connected(self) -> bool:
        """False once the reader task died (connection lost or closed)."""
        return not self._read_task.done() and not self._closing

    async def close(self) -> None:
        self._closing = True
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def reconnect(self) -> None:
        """Re-open the TCP connection to the same server.

        Pending requests and un-terminal sessions on the dropped
        connection fail with ``ConnectionError`` — the server keeps
        running their sessions, so callers re-subscribe with
        :meth:`attach` using each session's ``gid``. Only clients built
        by :meth:`connect` (which know their address) can reconnect.
        """
        if self._closing:
            raise ConnectionError("client is closed")
        if self.host is None or self.port is None:
            raise ConnectionError(
                "client was built from raw streams; cannot reconnect"
            )
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_STREAM_LIMIT
        )
        self._read_task = asyncio.create_task(self._read_loop())

    # -- plumbing ------------------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line)
                except ValueError:
                    # One corrupt line must not unframe the client:
                    # newlines delimit frames, so skip it and read on.
                    self.wire_errors += 1
                    continue
                if not isinstance(frame, dict):
                    self.wire_errors += 1
                    continue
                if "event" in frame:
                    session = self._sessions.get(frame.get("sid"))
                    if session is None:
                        continue
                    if frame["event"] == "terminal":
                        if not session._terminal.done():
                            session._terminal.set_result(frame)
                        session.events_queue.put_nowait(frame)
                        session.events_queue.put_nowait(None)
                    else:
                        session.events_queue.put_nowait(frame)
                    continue
                future = self._pending.pop(frame.get("rid"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (ConnectionError, asyncio.CancelledError, ValueError):
            # json.JSONDecodeError and over-limit readline errors are both
            # ValueError: either way the stream is unframed from here on.
            pass
        finally:
            # A fresh exception instance per future: re-raising a shared
            # one from several awaiters splices their tracebacks together.
            # Mark each retrieved immediately (``.exception()`` clears the
            # log flag, later awaiters still raise): recovery routinely
            # abandons a dead generation's in-flight requests, and every
            # abandoned future would otherwise print "exception was never
            # retrieved" at garbage collection.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("connection to server lost")
                    )
                    future.exception()
            self._pending.clear()
            for session in self._sessions.values():
                if not session._terminal.done():
                    session._terminal.set_exception(
                        ConnectionError("connection to server lost")
                    )
                    session._terminal.exception()
                session.events_queue.put_nowait(None)

    async def _request(
        self, frame: dict, *, timeout: Optional[float] = -1.0
    ) -> dict:
        """One request/response round-trip with a per-op timeout.

        ``timeout=-1.0`` (the default sentinel) means "use this client's
        ``op_timeout``"; None waits forever.
        """
        if timeout is not None and timeout < 0:
            timeout = self.op_timeout
        rid = self._next_id("r")
        frame = dict(frame, rid=rid)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            self._writer.write(_encode_frame(frame))
            await self._writer.drain()
            if timeout is None:
                response = await future
            else:
                # Plain future with no cleanup obligations: on timeout the
                # pending rid is dropped below and a late response frame is
                # discarded by _read_loop, so the bpo-42130 cancellation
                # race cannot strand state.
                response = await asyncio.wait_for(future, timeout)  # repro-lint: allow[AIO201]
        except (asyncio.TimeoutError, TimeoutError) as exc:
            self._pending.pop(rid, None)
            raise WireTimeoutError(
                f"op {frame.get('op')!r} timed out after {timeout:g}s"
            ) from exc
        except (ConnectionError, OSError):
            self._pending.pop(rid, None)
            raise
        if "error" in response:
            _raise_typed(response)
        return response

    async def _request_retrying(self, frame: dict) -> dict:
        """Issue an *idempotent* request, retrying transport failures.

        Reconnects (when the connection died and this client knows its
        address) and backs off per :class:`RetryPolicy` between tries.
        Typed server errors are not retried — those are answers.
        """
        op = frame.get("op")
        if not OP_IDEMPOTENCY.get(op, False):
            raise _errors.ProtocolError(
                f"op {op!r} is not declared idempotent in OP_IDEMPOTENCY; "
                "it must not be retried blindly"
            )
        policy = self.retry
        last: Optional[BaseException] = None
        for attempt in range(policy.attempts):
            if attempt:
                self.retries += 1
                await asyncio.sleep(policy.backoff(attempt - 1))
            if self._read_task.done() and not self._closing:
                try:
                    await self.reconnect()
                except (ConnectionError, OSError) as exc:
                    last = exc
                    continue
            try:
                return await self._request(frame)
            except (WireTimeoutError, ConnectionError, OSError) as exc:
                last = exc
        assert last is not None
        raise last

    # -- the protocol surface ------------------------------------------------

    async def ping(
        self, *, timeout: Optional[float] = -1.0, retrying: bool = True
    ) -> dict:
        """Round-trip a ping; with ``retrying=False`` exactly one try
        (how heartbeat monitors count misses themselves)."""
        if not retrying:
            return await self._request({"op": "ping"}, timeout=timeout)
        return await self._request_retrying({"op": "ping"})

    async def submit(
        self,
        item: Optional[WorkloadItem] = None,
        *,
        wait: bool = False,
        stream: bool = False,
        pause_after: Optional[int] = None,
        **query_fields,
    ) -> RemoteSession:
        """Submit one query; returns its :class:`RemoteSession`.

        Pass a :class:`~repro.serving.workload.WorkloadItem` or its
        fields as keywords (``object="car", limit=5, tenant="a"``).
        ``wait=False`` (default) surfaces a full server as a typed
        :class:`~repro.errors.ServerOverloadedError`; ``stream=True``
        turns on per-step ``result``/``samples`` event frames.
        """
        if item is None:
            item = WorkloadItem(**query_fields)
        elif query_fields:
            raise QueryError("pass item= or query fields, not both")
        query = {
            key: value
            for key, value in dataclasses.asdict(item).items()
            if value is not None
        }
        query.pop("arrival", None)  # scheduling, not query, metadata
        query.pop("shard", None)  # consumed router-side
        frame = {
            "op": "submit",
            "sid": self._next_id("q"),
            "query": query,
            "wait": wait,
            "stream": stream,
        }
        if pause_after is not None:
            frame["pause_after"] = pause_after
        return await self._admit(frame)

    async def restore(
        self,
        checkpoint: bytes,
        *,
        tenant: str = "default",
        wait: bool = False,
        stream: bool = False,
        pause_after: Optional[int] = None,
    ) -> RemoteSession:
        """Resubmit a checkpointed session on this server (migration)."""
        frame = {
            "op": "restore",
            "sid": self._next_id("q"),
            "checkpoint": base64.b64encode(checkpoint).decode("ascii"),
            "tenant": tenant,
            "wait": wait,
            "stream": stream,
        }
        if pause_after is not None:
            frame["pause_after"] = pause_after
        return await self._admit(frame)

    async def attach(self, gid: str, *, stream: bool = False) -> RemoteSession:
        """Re-subscribe to a session by its server-assigned ``gid``.

        The stream re-subscription path after :meth:`reconnect`: the
        server re-arms the terminal frame (and, with ``stream=True``,
        the event stream) on the current connection, returning a fresh
        :class:`RemoteSession` for a session that never stopped running.
        """
        frame = {
            "op": "attach",
            "sid": self._next_id("q"),
            "gid": gid,
            "stream": stream,
        }
        return await self._admit(frame)

    async def _admit(self, frame: dict) -> RemoteSession:
        session = RemoteSession(self, frame["sid"])
        self._sessions[frame["sid"]] = session
        try:
            response = await self._request(frame)
        except BaseException:
            self._sessions.pop(frame["sid"], None)
            session.events_queue.put_nowait(None)
            raise
        session.gid = response.get("gid", frame.get("gid"))
        return session

    async def stats(self) -> dict:
        """The server's :class:`ServerStats`, as JSON primitives.

        Idempotent, so transport failures retry per this client's
        :class:`RetryPolicy`.
        """
        response = await self._request_retrying({"op": "stats"})
        return response["stats"]

    async def drain(self, checkpoint: bool = False) -> None:
        """Ask the server to drain gracefully; returns once settled."""
        await self._request({"op": "drain", "checkpoint": checkpoint})

    async def shutdown_server(
        self, drain: bool = True, checkpoint: bool = False
    ) -> None:
        """Stop the remote server (draining first by default)."""
        await self._request(
            {"op": "shutdown", "drain": drain, "checkpoint": checkpoint}
        )
