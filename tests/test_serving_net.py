"""The wire protocol front-end (repro.serving.net).

The acceptance bar is the serving layer's, lifted over a socket: a query
submitted through the newline-delimited JSON protocol must return a
``QueryOutcome`` element-wise identical to the same ``(query, method,
run_seed)`` run solo, errors must arrive as *typed* frames that re-raise
as the matching :mod:`repro.errors` class, and pause → checkpoint →
restore over the wire must keep the trace byte-identical — the primitive
fleet migration is built on.

Every test drives a real ``NetServer`` on an ephemeral localhost port
inside a private ``asyncio.run`` loop (clean under
``PYTHONASYNCIODEBUG=1``, which a CI job enforces).
"""

import asyncio
import base64
import json

import pytest

from repro.errors import (
    ConfigError,
    ProtocolError,
    QueryError,
    ServerDrainingError,
    ServerOverloadedError,
    WireTimeoutError,
)
from repro.query.engine import QueryEngine
from repro.query.query import DistinctObjectQuery
from repro.query.session import CHECKPOINT_VERSION, peek_checkpoint
from repro.serving import ServerConfig
from repro.serving.faults import FaultSpec
from repro.serving.net import (
    PROTOCOL_VERSION,
    FleetClient,
    NetServer,
    RetryPolicy,
)

from tests.conftest import make_tiny_dataset
from tests.test_query_session import assert_traces_identical


def fresh_engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


@pytest.fixture(scope="module")
def solo_engine():
    return QueryEngine(make_tiny_dataset(seed=11), seed=11)


QUERY = DistinctObjectQuery("car", limit=5)


async def _with_server(fn, config=None):
    """Run ``fn(server, client)`` against a fresh served engine."""
    async with NetServer(fresh_engine(), config=config) as server:
        client = await FleetClient.connect("127.0.0.1", server.port)
        try:
            return await fn(server, client)
        finally:
            await client.close()


class TestProtocolBasics:
    def test_ping_reports_protocol_version(self):
        async def go(server, client):
            response = await client.ping()
            assert response["protocol"] == PROTOCOL_VERSION
            assert response["draining"] is False

        asyncio.run(_with_server(go))

    def test_unknown_op_is_a_typed_protocol_error(self):
        async def go(server, client):
            with pytest.raises(ProtocolError, match="unknown op"):
                await client._request({"op": "frobnicate"})

        asyncio.run(_with_server(go))

    def test_malformed_frames_get_error_frames_not_disconnects(self):
        """Raw garbage elicits an error frame; the connection survives."""

        async def go(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                frame = json.loads(await reader.readline())
                assert frame["error"] == "ProtocolError"
                assert frame["rid"] is None
                # Same connection still answers a well-formed frame.
                writer.write(
                    json.dumps({"op": "ping", "rid": "r1"}).encode() + b"\n"
                )
                await writer.drain()
                frame = json.loads(await reader.readline())
                assert frame["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(_with_server(go))

    def test_submit_validates_like_workload_files(self):
        async def go(server, client):
            with pytest.raises(ConfigError, match="unknown keys"):
                await client._request(
                    {
                        "op": "submit",
                        "sid": "q1",
                        "query": {"object": "car", "limitt": 3},
                    }
                )
            # Unknown class surfaces the engine's own QueryError, typed.
            with pytest.raises(QueryError, match="not in dataset"):
                await client.submit(object="unicorn", limit=1)

        asyncio.run(_with_server(go))

    def test_stats_roundtrip_is_jsonable(self):
        async def go(server, client):
            session = await client.submit(item=None, object="car", limit=2)
            await session.wait()
            stats = await client.stats()
            assert stats["submitted"] == 1
            assert stats["finished"] == 1
            assert stats["draining"] is False
            assert stats["cache"]["hits"] >= 0
            assert isinstance(stats["per_tenant"], dict)

        asyncio.run(_with_server(go))


class TestFrameKeys:
    """Every op declares its frame keys; a frame with any other key gets a
    typed ConfigError and admits no session."""

    @staticmethod
    def _paused_checkpoint():
        session = fresh_engine().session(QUERY, method="exsample", run_seed=2)
        for _ in session.stream():
            session.pause()
        return session.checkpoint()

    @pytest.mark.parametrize(
        "stray", [{"pause_afer": 1}, {"deadline": 5.0}], ids=["typo", "retired"]
    )
    def test_restore_with_an_unknown_key_admits_nothing(self, stray):
        blob = self._paused_checkpoint()

        async def go(server, client):
            frame = {
                "op": "restore",
                "sid": "q1",
                "checkpoint": base64.b64encode(blob).decode("ascii"),
                "tenant": "a",
                **stray,
            }
            with pytest.raises(ConfigError, match="unknown keys"):
                await client._request(frame)
            assert (await client.stats())["submitted"] == 0
            # The well-formed frame is admitted and honours pause_after.
            session = await client.restore(blob, pause_after=1)
            assert await session.wait() == "paused"

        asyncio.run(_with_server(go))

    def test_submit_with_a_stray_top_level_key_admits_nothing(self):
        async def go(server, client):
            with pytest.raises(ConfigError, match="unknown keys"):
                await client._request(
                    {
                        "op": "submit",
                        "sid": "q1",
                        "query": {"object": "car", "limit": 1},
                        "tennant": "a",
                    }
                )
            assert (await client.stats())["submitted"] == 0

        asyncio.run(_with_server(go))


class TestRemoteOutcomes:
    @pytest.mark.parametrize("method", ["exsample", "random"])
    def test_remote_outcome_identical_to_solo(self, method, solo_engine):
        async def go(server, client):
            session = await client.submit(
                object="car", limit=5, method=method, run_seed=3, tenant="t"
            )
            return await session.result()

        outcome = asyncio.run(_with_server(go))
        solo = solo_engine.run(QUERY, method=method, run_seed=3)
        assert outcome.query == solo.query
        assert outcome.gt_count == solo.gt_count
        assert_traces_identical(outcome.trace, solo.trace)

    def test_event_stream_matches_session_counters(self):
        async def go(server, client):
            session = await client.submit(
                object="car", limit=4, stream=True, tenant="s"
            )
            events = []
            async for frame in session.events():
                events.append(frame)
            assert events[-1]["event"] == "terminal"
            assert events[-1]["state"] == "finished"
            results = [e for e in events if e["event"] == "result"]
            # Result numbering is dense and agrees with the terminal frame.
            assert [e["num_results"] for e in results] == list(
                range(1, len(results) + 1)
            )
            assert len(results) == events[-1]["num_results"]
            samples = [e for e in events if e["event"] == "samples"]
            assert samples, "streaming must emit sample-batch frames"
            assert all(
                a["num_samples"] < b["num_samples"]
                for a, b in zip(samples, samples[1:])
            )
            for e in results:
                assert set(e["result"]) >= {"video", "frame", "score"}

        asyncio.run(_with_server(go))

    def test_overload_arrives_as_typed_error(self):
        config = ServerConfig(max_in_flight=1, queue_capacity=0)

        async def go(server, client):
            first = await client.submit(
                object="car", limit=5, pause_after=50
            )
            with pytest.raises(ServerOverloadedError, match="queue full"):
                await client.submit(object="car", limit=1, run_seed=1)
            first_state = await first.wait()
            assert first_state in ("finished", "paused")

        asyncio.run(_with_server(go, config=config))


class TestDrainOverWire:
    def test_draining_server_refuses_submits_with_typed_error(self):
        async def go(server, client):
            running = await client.submit(object="car", limit=3)
            await client.drain()
            assert (await client.ping())["draining"] is True
            # The accepted session settled during the drain...
            assert await running.wait() == "finished"
            # ...and new work is refused without dropping the connection.
            with pytest.raises(ServerDrainingError):
                await client.submit(object="car", limit=1, run_seed=1)
            assert (await client.ping())["ok"] is True

        asyncio.run(_with_server(go))

    def test_drain_with_checkpoint_pauses_in_flight_sessions(self):
        async def go(server, client):
            session = await client.submit(object="car", limit=50)
            await client.drain(checkpoint=True)
            assert await session.wait() == "paused"
            blob = await session.checkpoint()
            assert peek_checkpoint(blob).method == "exsample"

        asyncio.run(_with_server(go))


class TestCheckpointOverWire:
    def test_checkpoint_requires_terminal_session(self):
        async def go(server, client):
            session = await client.submit(object="car", limit=50)
            with pytest.raises(QueryError, match="pause"):
                await session.checkpoint()
            await session.pause()
            await session.wait()

        asyncio.run(_with_server(go))

    def test_pause_checkpoint_restore_trace_identical(self, solo_engine):
        """The live-migration primitive: split a run across two servers."""

        async def first_half():
            async with NetServer(fresh_engine()) as server:
                client = await FleetClient.connect("127.0.0.1", server.port)
                try:
                    session = await client.submit(
                        object="car", limit=5, run_seed=2, pause_after=2
                    )
                    assert await session.wait() == "paused"
                    blob = await session.checkpoint()
                    meta = peek_checkpoint(blob)
                    assert meta.version == CHECKPOINT_VERSION
                    assert meta.num_samples > 0
                    return blob
                finally:
                    await client.close()

        async def second_half(blob):
            async with NetServer(fresh_engine()) as server:
                client = await FleetClient.connect("127.0.0.1", server.port)
                try:
                    session = await client.restore(blob, tenant="moved")
                    return await session.result()
                finally:
                    await client.close()

        blob = asyncio.run(first_half())
        outcome = asyncio.run(second_half(blob))
        solo = solo_engine.run(QUERY, method="exsample", run_seed=2)
        assert_traces_identical(outcome.trace, solo.trace)

    def test_corrupt_checkpoint_is_rejected_typed(self):
        async def go(server, client):
            session = await client.submit(
                object="car", limit=5, pause_after=1
            )
            await session.wait()
            blob = bytearray(await session.checkpoint())
            # Flip a byte mid-blob: inside the pickled payload bytes, so
            # the outer envelope still decodes and the digest must catch it.
            blob[len(blob) // 2] ^= 0xFF
            with pytest.raises(QueryError, match="digest mismatch"):
                await client.restore(bytes(blob))

        asyncio.run(_with_server(go))


class TestEvictOverWire:
    def test_evict_drops_a_terminal_session_from_stats(self):
        """The checkpoint-cycle ghost case: a superseded incarnation is
        evicted and its sid stops resolving, without touching neighbours."""

        async def go(server, client):
            keeper = await client.submit(object="car", limit=2, run_seed=1)
            ghost = await client.submit(
                object="car", limit=5, run_seed=2, pause_after=1
            )
            await keeper.result()
            assert await ghost.wait() == "paused"
            before = (await client.stats())["submitted"]
            await ghost.evict()
            after = await client.stats()
            assert after["submitted"] == before - 1
            assert after["finished"] == 1  # the keeper's history survives
            with pytest.raises(ProtocolError, match="unknown sid"):
                await ghost.checkpoint()

        asyncio.run(_with_server(go))

    def test_evict_refuses_a_running_session(self):
        async def go(server, client):
            session = await client.submit(object="car", limit=50)
            with pytest.raises(QueryError, match="still running"):
                await session.evict()
            await session.pause()
            await session.wait()
            await session.evict()  # paused is terminal: now allowed

        asyncio.run(_with_server(go))


class TestServerShutdownOp:
    def test_shutdown_op_stops_the_server(self):
        async def go():
            server = NetServer(fresh_engine())
            await server.start()
            client = await FleetClient.connect("127.0.0.1", server.port)
            session = await client.submit(object="car", limit=2)
            await client.shutdown_server()
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            # Graceful: the accepted session finished before the stop.
            assert await session.wait() == "finished"
            await client.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Wire resilience: hostile frames, timeouts, retry/backoff, reconnect.
# ---------------------------------------------------------------------------


class TestWireResilience:
    def test_oversized_line_typed_error_not_disconnect(self):
        """A line past the limit gets an error frame; the stream stays
        framed and the next (well-formed) op on the same socket works."""

        async def go():
            async with NetServer(fresh_engine(), line_limit=1024) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    writer.write(b"x" * 4096 + b"\n")
                    writer.write(
                        json.dumps({"op": "ping", "rid": "after"}).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    first = json.loads(await reader.readline())
                    second = json.loads(await reader.readline())
                finally:
                    writer.close()
                return first, second, server.wire_errors

        first, second, wire_errors = asyncio.run(go())
        assert first["error"] == "ProtocolError"
        assert "line limit" in first["message"]
        assert second == {
            "rid": "after", "ok": True, "op": "ping",
            "protocol": PROTOCOL_VERSION, "draining": False,
        }
        assert wire_errors == 1

    def test_op_timeout_is_typed_and_retries_are_counted(self):
        """A server that never answers trips the per-op timeout; the
        retrying path re-issues the op per the policy, then gives up."""

        async def go():
            async def mute(reader, writer):
                await reader.read()  # swallow everything, answer nothing

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = await FleetClient.connect(
                    "127.0.0.1", port, op_timeout=0.05,
                    retry=RetryPolicy(attempts=3, base_delay=0.01,
                                      max_delay=0.02, jitter=0.0),
                )
                with pytest.raises(WireTimeoutError, match="timed out"):
                    await client.ping(retrying=False)
                with pytest.raises(WireTimeoutError):
                    await client.ping()  # retried, then surfaced
                retries = client.retries
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
            return retries

        # One non-retrying probe plus a 3-attempt retrying one: the two
        # re-issues after the first retried attempt are the retries.
        assert asyncio.run(go()) == 2

    def test_retrying_op_survives_a_dropped_connection(self):
        """An aborted transport fails in-flight ops, but an idempotent op
        reconnects under the retry policy and succeeds."""

        async def go(server, client):
            client._writer.transport.abort()
            stats = await client.stats()
            return stats, client.retries

        stats, retries = asyncio.run(_with_server(go))
        assert stats["submitted"] == 0
        assert retries >= 1

    def test_attach_resumes_a_session_after_reconnect(self, solo_engine):
        """A session survives its connection: reconnect + attach by gid
        delivers the terminal frame, outcome identical to solo."""

        async def go(server, client):
            session = await client.submit(
                object="car", limit=5, run_seed=3, wait=True
            )
            gid = session.gid
            assert gid is not None
            await client.reconnect()
            attached = await client.attach(gid)
            return await attached.result()

        outcome = asyncio.run(_with_server(go))
        solo = solo_engine.run(QUERY, method="exsample", run_seed=3)
        assert_traces_identical(outcome.trace, solo.trace)

    def test_attach_unknown_gid_is_typed(self):
        async def go(server, client):
            with pytest.raises(ProtocolError, match="unknown session gid"):
                await client.attach("g999")

        asyncio.run(_with_server(go))

    def test_corrupt_frame_fault_is_retried_through(self):
        """A scripted corrupt reply is skipped (counted) by the client's
        read loop and the op succeeds on retry."""

        async def go():
            async with NetServer(
                fresh_engine(),
                faults=[FaultSpec(kind="corrupt_frame", op="ping")],
            ) as server:
                client = await FleetClient.connect(
                    "127.0.0.1", server.port, op_timeout=0.2,
                    retry=RetryPolicy(attempts=3, base_delay=0.01,
                                      max_delay=0.02, jitter=0.0),
                )
                try:
                    response = await client.ping()
                    return response, client.wire_errors, client.retries

                finally:
                    await client.close()

        response, wire_errors, retries = asyncio.run(go())
        assert response["ok"] is True
        assert wire_errors >= 1
        assert retries >= 1
