"""Allocation-server contracts: admission, deadlines, degradation, batching.

The resilience contract under chaos is the headline: with faults injected
into server-side solves, **every** client gets a response — an exact
answer, a degraded safe-baseline answer, or a structured error — with zero
client-visible hangs and zero transport errors.  The correctness contract
rides along: coalesced (micro-batched) responses are bitwise-equal to solo
solves, and degraded responses are still feasible allocations.
"""

from __future__ import annotations

import asyncio
import collections
import json
import logging
import math
import socket
import sys
import threading
import time

import pytest

import repro.io.serialization as serialization
import repro.serve.registry as registry_mod
import repro.serve.server as server_mod
from repro.algo.general_solver import LocalMaxMinSolver
from repro.core.instance import MaxMinInstance
from repro.engine.resilience import call_with_timeout, leaked_timeout_threads
from repro.exceptions import JobTimeoutError
from repro.faults import FaultPlan
from repro.faults.plan import hang, transient
from repro.generators import random_special_form_instance
from repro.io.serialization import instance_digest, instance_to_json
from repro.serve import (
    CircuitBreaker,
    InstanceRegistry,
    ServeConfig,
    ServeError,
    ServerHandle,
    chaos_barrage,
    classify_response,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import ERROR_STATUS, parse_body

from conftest import invalid_instance_documents, repeated_edge_documents, spy_view_builds


def make_instances(count, *, size=10, seed0=100):
    return [
        random_special_form_instance(size, seed=seed0 + i) for i in range(count)
    ]


def relabel_agents(instance, agent_id):
    """The same instance with agent ``j`` (canonical order) renamed ``agent_id(j)``."""
    name = {v: agent_id(j) for j, v in enumerate(instance.agents)}
    return MaxMinInstance(
        agents=[name[v] for v in instance.agents],
        constraints=instance.constraints,
        objectives=instance.objectives,
        a={(i, name[v]): x for (i, v), x in instance.a_coefficients.items()},
        c={(k, name[v]): x for (k, v), x in instance.c_coefficients.items()},
        name=instance.name,
    )


def spy_serialization(monkeypatch):
    """Count calls to ``instance_from_json`` / ``instance_to_json``, wherever
    the serve modules imported them from."""
    calls = []
    for fname in ("instance_from_json", "instance_to_json"):
        real = getattr(serialization, fname)

        def spy(*args, _real=real, _name=fname, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in (serialization, registry_mod, server_mod):
            if getattr(module, fname, None) is real:
                monkeypatch.setattr(module, fname, spy)
    return calls


class _UnhandledConnectionErrors(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "client_connected_cb" in message:
            self.messages.append(message)


@pytest.fixture(autouse=True)
def no_unhandled_connection_errors():
    """Fail a test during which an exception escaped the server's connection
    handler: asyncio logs it, and the client got no structured answer."""
    handler = _UnhandledConnectionErrors()
    asyncio_logger = logging.getLogger("asyncio")
    asyncio_logger.addHandler(handler)
    try:
        yield
    finally:
        asyncio_logger.removeHandler(handler)
    assert handler.messages == []


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_error_codes_are_a_closed_vocabulary(self):
        assert set(ERROR_STATUS) == {
            "bad_request",
            "not_found",
            "overloaded",
            "draining",
            "deadline_exceeded",
            "internal",
        }
        with pytest.raises(ValueError):
            ServeError("nonsense", "nope")

    def test_parse_body(self):
        assert parse_body(b"") == {}
        assert parse_body(b'{"a": 1}') == {"a": 1}
        with pytest.raises(ServeError) as excinfo:
            parse_body(b"{not json")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServeError):
            parse_body(b"[1, 2]")


# ----------------------------------------------------------------------
# Instance registry (hot tier)
# ----------------------------------------------------------------------


class TestInstanceRegistry:
    def test_lru_eviction_and_not_found(self):
        registry = InstanceRegistry(capacity=2)
        a, b, c = make_instances(3, size=6)
        ea = registry.admit_instance(a)
        registry.admit_instance(b)
        registry.get(ea.digest)  # touch a: b becomes least-recently used
        registry.admit_instance(c)  # evicts b
        assert len(registry) == 2
        assert registry.evictions == 1
        digest_b = instance_digest(instance_to_json(b))
        with pytest.raises(ServeError) as excinfo:
            registry.get(digest_b)
        assert excinfo.value.code == "not_found"
        assert "re-send" in str(excinfo.value)

    def test_admit_is_idempotent_and_canonical(self):
        registry = InstanceRegistry(capacity=4)
        (inst,) = make_instances(1, size=6)
        entry = registry.admit_instance(inst)
        # Client-side formatting must not split one instance into two
        # digests: a re-indented document admits to the same entry.
        doc = json.loads(instance_to_json(inst))
        again = registry.admit_json(json.dumps(doc))
        assert again is entry
        assert registry.digests() == [entry.digest]

    def test_first_admit_of_any_formatting_is_canonical(self):
        (inst,) = make_instances(1, size=6)
        text = instance_to_json(inst)
        for variant in (json.dumps(json.loads(text)), json.dumps(json.loads(text), indent=4)):
            registry = InstanceRegistry(capacity=4)
            entry = registry.admit_json(variant)
            assert entry.digest == instance_digest(text)
            assert entry.json_text == text
            # The canonical text now hits the same entry.
            assert registry.admit_json(text) is entry
            assert registry.digests() == [entry.digest]

    def test_resident_text_is_one_hash(self, monkeypatch):
        registry = InstanceRegistry(capacity=4)
        (inst,) = make_instances(1, size=6)
        entry = registry.admit_json(instance_to_json(inst))
        calls = spy_serialization(monkeypatch)
        views = spy_view_builds(monkeypatch)
        assert registry.admit_json(entry.json_text) is entry
        assert calls == [] and views == []

    def test_concurrent_admits_leave_one_resident_per_instance(self):
        instances = make_instances(3, size=6)
        canonical = [instance_to_json(inst) for inst in instances]
        texts = [t for text in canonical for t in (text, json.dumps(json.loads(text)))]
        registry = InstanceRegistry(capacity=8)
        entries = [None] * 48

        def work(slot):
            entries[slot] = registry.admit_json(texts[slot % len(texts)])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(entries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(registry) == len(instances)
        for slot, entry in enumerate(entries):
            text = canonical[(slot % len(texts)) // 2]
            assert entry is registry.get(instance_digest(text))

    def test_malformed_text_is_a_bad_request(self):
        registry = InstanceRegistry(capacity=4)
        for text in ("{not json", json.dumps({"format": "something-else"})):
            with pytest.raises(ServeError) as excinfo:
                registry.admit_json(text)
            assert excinfo.value.code == "bad_request"
            assert str(excinfo.value).startswith("invalid instance document")
        assert len(registry) == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_open_halfopen_cycle(self):
        now = [0.0]
        breaker = CircuitBreaker(
            "vectorized", failure_threshold=2, cooldown_s=5.0, clock=lambda: now[0]
        )
        assert breaker.state() == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state() == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state() == "open" and breaker.opens == 1
        assert not breaker.allow()
        now[0] = 5.1  # cooldown elapsed: one trial passes
        assert breaker.state() == "half-open"
        assert breaker.allow()
        assert not breaker.allow()  # only one trial at a time
        breaker.record_failure()  # failed trial re-opens
        assert breaker.state() == "open" and breaker.opens == 2
        now[0] = 10.3
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state() == "closed" and breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker("reference", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() == "closed"
        snap = breaker.snapshot()
        assert snap["state"] == "closed" and snap["consecutive_failures"] == 2


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------


class TestMicroBatcher:
    def test_window_coalesces_concurrent_submits(self):
        async def run():
            calls = []

            async def flush(key, items):
                calls.append((key, list(items)))
                return [item * 10 for item in items]

            batcher = MicroBatcher(flush, window_s=0.05, max_batch=16)
            results = await asyncio.gather(*(batcher.submit("k", i) for i in range(5)))
            assert results == [0, 10, 20, 30, 40]
            assert len(calls) == 1 and calls[0][1] == [0, 1, 2, 3, 4]

        asyncio.run(run())

    def test_max_batch_splits_and_keys_separate(self):
        async def run():
            calls = []

            async def flush(key, items):
                calls.append((key, len(items)))
                return items

            batcher = MicroBatcher(flush, window_s=0.05, max_batch=3)
            await asyncio.gather(
                *(batcher.submit("a", i) for i in range(7)),
                *(batcher.submit("b", i) for i in range(2)),
            )
            sizes = collections.Counter(calls)
            assert sum(n for (k, n) in calls if k == "a") == 7
            assert all(n <= 3 for (_, n) in calls)
            assert sum(n for (k, n) in calls if k == "b") == 2
            assert sizes  # flushed at least once per key

        asyncio.run(run())

    def test_flush_failure_reaches_every_waiter(self):
        async def run():
            async def flush(key, items):
                raise RuntimeError("kernel exploded")

            batcher = MicroBatcher(flush, window_s=0.01, max_batch=8)
            outcomes = await asyncio.gather(
                *(batcher.submit("k", i) for i in range(4)), return_exceptions=True
            )
            assert len(outcomes) == 4
            assert all(isinstance(o, RuntimeError) for o in outcomes)

        asyncio.run(run())


# ----------------------------------------------------------------------
# Leaked-timeout-thread accounting (the call_with_timeout leak, surfaced)
# ----------------------------------------------------------------------


class TestLeakedThreadGauge:
    def test_abandoned_thread_is_counted_then_pruned(self):
        before = leaked_timeout_threads()
        with pytest.raises(JobTimeoutError):
            call_with_timeout(lambda: time.sleep(0.4), 0.05)
        assert leaked_timeout_threads() >= before + 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if leaked_timeout_threads() <= before:
                break
            time.sleep(0.05)
        # The abandoned sleeper finished and was pruned from the gauge.
        assert leaked_timeout_threads() <= before


# ----------------------------------------------------------------------
# The server, end to end (in-process, real sockets)
# ----------------------------------------------------------------------


class TestServerBasics:
    def test_ops_and_admin_endpoints(self, tmp_path):
        (inst,) = make_instances(1)
        config = ServeConfig(workers=2, cache_dir=str(tmp_path / "cache"))
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            status, health = client.healthz()
            assert status == 200 and health["ok"] and health["status"] == "serving"
            assert client.readyz()[0] == 200

            status, payload = client.solve(instance=inst, include_values=True)
            assert status == 200 and payload["ok"] and not payload["degraded"]
            assert payload["result"]["feasible"]
            digest = payload["digest"]

            # Digest addressing hits the resident entry.
            status, again = client.solve(digest=digest, include_values=True)
            assert status == 200
            assert again["result"]["utility"] == payload["result"]["utility"]

            # Identical parameters now come from the persistent cache tier.
            status, cached = client.solve(digest=digest, include_values=True)
            assert status == 200 and cached["cached"]
            assert cached["result"] == payload["result"]

            status, ratio = client.ratio(digest=digest)
            assert status == 200 and ratio["result"]["measured_ratio"] >= 1.0
            assert ratio["result"]["optimum"] is not None

            values = payload["result"]["values"]
            status, util = client.utility(values, digest=digest)
            assert status == 200
            assert util["result"]["utility"] == payload["result"]["utility"]
            # The list form (canonical agent order) must agree with the dict.
            listed = [values[a] for a in inst.agents]
            status, util_list = client.utility(listed, digest=digest)
            assert status == 200
            assert util_list["result"]["utility"] == util["result"]["utility"]

            status, info = client.info(digest=digest)
            assert status == 200 and info["result"]["agents"] == inst.num_agents

            status, metrics = client.metrics()
            assert status == 200
            counters = metrics["counters"]
            assert counters["serve.requests"] >= 6
            assert counters["serve.admitted"] >= 6
            assert counters["serve.cache_stores"] >= 1
            assert counters["serve.cache_hits"] >= 1
            assert metrics["cache"]["entries"] >= 1
            assert set(metrics["breakers"]) == {"local"}
            assert metrics["registry"]["capacity"] == config.registry_capacity
            assert isinstance(metrics["leaked_timeout_threads"], int)

    def test_structured_bad_requests(self):
        (inst,) = make_instances(1)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=10)
            status, payload = client.solve(digest="0000")
            assert status == 404 and payload["error"]["code"] == "not_found"
            status, payload = client.op("solve", {"instance": {"nonsense": 1}})
            assert status == 400 and payload["error"]["code"] == "bad_request"
            status, payload = client.solve(instance=inst, R=1)
            assert status == 400 and "R" in payload["error"]["message"]
            status, payload = client.solve(instance=inst, algorithm="quantum")
            assert status == 400
            status, payload = client.request("POST", "/v1/frobnicate", {})
            assert status == 404 and payload["error"]["code"] == "not_found"
            status, payload = client.request("GET", "/nope")
            assert status == 404
            status, payload = client.utility("nope", instance=inst)
            assert status == 400

    def test_invalid_instance_documents_are_bad_requests(self):
        """Valid JSON describing no valid instance is the client's error."""
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=10)
            for case, text in invalid_instance_documents():
                status, payload = client.op("solve", {"instance": json.loads(text)})
                assert status == 400 and payload["error"]["code"] == "bad_request", case
                assert payload["error"]["message"].startswith("invalid instance document"), case
            status, metrics = client.metrics()
            assert status == 200
            assert metrics["counters"].get("serve.internal_errors", 0) == 0

    def test_repeated_edge_upload_is_a_bad_request(self):
        """An upload that lists an edge twice is refused, not admitted with
        the later row's coefficient."""
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=10)
            for family, text, message in repeated_edge_documents():
                status, payload = client.info(instance=text)
                assert status == 400 and payload["error"]["code"] == "bad_request", family
                assert payload["error"]["message"] == f"invalid instance document: {message}"

    def test_cache_tier_survives_restart(self, tmp_path):
        (inst,) = make_instances(1)
        cache_dir = str(tmp_path / "cache")
        with ServerHandle(ServeConfig(workers=1, cache_dir=cache_dir)) as handle:
            client = handle.client(timeout_s=10)
            status, first = client.solve(instance=inst)
            assert status == 200 and not first["cached"]
        with ServerHandle(ServeConfig(workers=1, cache_dir=cache_dir)) as handle:
            client = handle.client(timeout_s=10)
            status, second = client.solve(instance=inst)
            assert status == 200 and second["cached"]
            assert second["result"] == first["result"]

    def test_objectiveless_instance_answers_strict_json(self):
        """Utility inf, optimum inf and ratio NaN go out as null; the client
        parses strictly, so any NaN or Infinity on the wire fails it."""
        inst = MaxMinInstance(
            ["u", "v"], ["i"], [], {("i", "u"): 1.0, ("i", "v"): 1.0}, {}, name="no-objectives"
        )
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            status, solved = client.solve(instance=inst, include_values=True)
            assert status == 200 and solved["result"]["utility"] is None
            assert solved["result"]["values"] == {"u": 0.0, "v": 0.0}
            status, ratio = client.ratio(digest=solved["digest"])
            assert status == 200 and ratio["result"]["utility"] is None
            assert ratio["result"]["optimum"] is None
            assert ratio["result"]["measured_ratio"] is None
            status, util = client.utility([0.25, 0.5], digest=solved["digest"])
            assert status == 200 and util["result"]["utility"] is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_utility_rejects_non_finite_values(self, bad):
        (inst,) = make_instances(1)
        listed = [0.01] * (inst.num_agents - 1) + [bad]
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            for values in (listed, dict(zip(inst.agents, listed))):
                status, payload = client.utility(values, instance=inst)
                assert status == 400 and payload["error"]["code"] == "bad_request"
                assert "finite" in payload["error"]["message"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300], ids=["nan", "inf", "1e300"])
    def test_unusable_deadline_is_a_bad_request(self, bad):
        """A deadline no wait can use is refused before any rung runs, so
        the shared breaker counts no failure and stays closed for others."""
        (inst,) = make_instances(1)
        config = ServeConfig(workers=2)
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            for _ in range(config.breaker_failure_threshold):
                status, payload = client.solve(instance=inst, deadline_s=bad)
                assert status == 400 and payload["error"]["code"] == "bad_request"
                assert "'deadline_s'" in payload["error"]["message"]
            status, metrics = client.metrics()
            assert metrics["breakers"]["local"]["consecutive_failures"] == 0
            status, payload = client.solve(instance=inst)
            assert status == 200 and not payload["degraded"]

    def test_drain_stops_serving(self):
        handle = ServerHandle(ServeConfig(workers=1))
        handle.start()
        client = handle.client(timeout_s=5)
        assert client.healthz()[0] == 200
        handle.stop()
        with pytest.raises(OSError):
            client.healthz()

    def test_drain_is_idempotent(self):
        async def run():
            from repro.serve import AllocationServer

            server = AllocationServer(ServeConfig(workers=1))
            await server.start()
            await server.drain()
            await server.drain()
            await server.wait_closed()

        asyncio.run(run())

    def test_malformed_request_line_is_a_structured_error(self):
        with ServerHandle(ServeConfig(workers=1)) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_unencodable_payload_is_a_structured_internal_error(self, monkeypatch):
        (inst,) = make_instances(1)
        real = server_mod.ok_response
        monkeypatch.setattr(
            server_mod, "ok_response", lambda *a, **kw: {**real(*a, **kw), "bad": object()}
        )
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=10)
            status, payload = client.info(instance=inst)
            assert status == 500 and payload["error"]["code"] == "internal"
            assert "TypeError" in payload["error"]["message"]
            status, metrics = client.metrics()
            assert metrics["counters"]["serve.internal_errors"] == 1


class TestUploads:
    """Inline uploads: a resident re-upload costs one hash, and any other
    formatting is parsed, validated and admitted under the canonical digest."""

    @pytest.mark.parametrize("op", ["solve", "info"])
    def test_resident_reupload_skips_parse_and_serialize(self, op, monkeypatch):
        (inst,) = make_instances(1)
        text = instance_to_json(inst)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            status, first = client.op(op, {"instance": text})
            assert status == 200
            calls = spy_serialization(monkeypatch)
            views = spy_view_builds(monkeypatch)
            status, again = client.op(op, {"instance": text, "include_values": True})
            assert status == 200 and again["ok"]
            assert again["digest"] == first["digest"] == instance_digest(text)
            assert calls == [] and views == []
            assert handle.server.registry.digests() == [first["digest"]]

    def test_reformatted_and_dict_documents_resolve_to_the_canonical_digest(self):
        (inst,) = make_instances(1)
        text = instance_to_json(inst)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            for doc in (json.dumps(json.loads(text), indent=1), json.loads(text), text):
                status, payload = client.info(instance=doc)
                assert status == 200 and payload["digest"] == instance_digest(text)
            status, metrics = client.metrics()
            assert metrics["registry"]["resident"] == 1

    def test_client_sends_a_live_instance_as_canonical_text(self, monkeypatch):
        (inst,) = make_instances(1)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            status, first = client.info(instance=inst)
            assert status == 200
            calls = spy_serialization(monkeypatch)
            status, again = client.info(instance=inst)
            assert status == 200 and again["digest"] == first["digest"]
            assert calls == []  # the server neither parsed nor re-serialized it

    @pytest.mark.parametrize(
        "agent_id", [lambda j: ("agent", j), lambda j: j], ids=["tuple", "int"]
    )
    def test_values_of_non_string_agent_ids_round_trip(self, agent_id):
        inst = relabel_agents(make_instances(1)[0], agent_id)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            client = handle.client(timeout_s=20)
            for algorithm in ("local", "safe"):
                status, payload = client.solve(
                    instance=inst, algorithm=algorithm, include_values=True
                )
                assert status == 200, payload
                values = payload["result"]["values"]
                assert isinstance(values, list) and len(values) == inst.num_agents
                status, util = client.utility(values, digest=payload["digest"])
                assert status == 200, util
                assert util["result"]["utility"] == payload["result"]["utility"]
            status, ratio = client.ratio(instance=inst, include_values=True)
            assert status == 200 and isinstance(ratio["result"]["values"], list)


class TestCoalescing:
    def test_coalesced_responses_bitwise_equal_solo(self):
        instances = make_instances(12, size=10)
        config = ServeConfig(workers=4, coalesce_window_s=0.05)
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=30)
            solo = {}
            for inst in instances:
                status, payload = client.solve(instance=inst, include_values=True)
                assert status == 200 and not payload["coalesced"]
                solo[payload["digest"]] = payload["result"]

            doc_requests = [
                (
                    "solve",
                    {
                        "instance": json.loads(instance_to_json(inst)),
                        "include_values": True,
                    },
                )
                for inst in instances
            ]
            outcomes = chaos_barrage(client, doc_requests, concurrency=12)
            statuses = [classify_response(o) for o in outcomes]
            assert statuses == ["ok"] * 12
            coalesced_flags = []
            for status, payload in outcomes:
                assert status == 200
                # Bitwise equality: coalescing must be invisible in the result.
                assert payload["result"] == solo[payload["digest"]]
                coalesced_flags.append(payload["coalesced"])
            assert any(coalesced_flags), "no request coalesced despite the window"

            status, metrics = client.metrics()
            assert metrics["counters"].get("serve.coalesced_batches", 0) >= 1
            assert metrics["counters"].get("serve.coalesced_requests", 0) >= 2

    def test_coalesce_field_is_ignored(self):
        """Serve reads no ``coalesce`` field, so any value of it is fine."""
        (inst,) = make_instances(1)
        with ServerHandle(ServeConfig(workers=1)) as handle:
            status, payload = handle.client(timeout_s=20).solve(instance=inst, coalesce="x")
            assert status == 200 and not payload["degraded"]

    def test_lone_solve_skips_the_window(self):
        (inst,) = make_instances(1)
        config = ServeConfig(workers=1, coalesce_window_s=1.0)
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            status, payload = client.info(instance=inst)
            assert status == 200
            for _ in range(2):
                status, payload = client.solve(digest=payload["digest"])
                assert status == 200 and not payload["coalesced"]
                assert payload["elapsed_ms"] < 500.0

    def test_solo_matches_direct_solver_bitwise(self):
        (inst,) = make_instances(1, size=12)
        direct = LocalMaxMinSolver(R=3).solve(inst)
        with ServerHandle(ServeConfig(workers=2)) as handle:
            client = handle.client(timeout_s=20)
            status, payload = client.solve(instance=inst, include_values=True)
            assert status == 200
            assert payload["result"]["utility"] == direct.utility()
            assert payload["result"]["values"] == {
                k: float(v) for k, v in direct.solution.as_dict().items()
            }


class TestDegradationLadder:
    def test_transient_on_local_degrades_to_safe(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(seed=7, job_faults=(transient(algorithm="local"),))
        with ServerHandle(ServeConfig(workers=2, faults=plan)) as handle:
            client = handle.client(timeout_s=20)
            status, payload = client.solve(instance=inst)
            assert status == 200 and payload["degraded"]
            assert payload["algorithm"] == "safe-degree"
            assert payload["degraded_reason"] == "error:local:FaultInjectionError"
            assert payload["result"]["feasible"]
            assert "backend" not in payload

    def test_too_large_R_degrades_and_the_server_stays_up(self, monkeypatch):
        """A refused tree build answers from the safe rung; the next solve is exact."""
        import repro.algo.kernels as kernels_mod
        from repro.generators import random_instance

        inst = random_instance(50, delta_I=3, delta_K=3, seed=1)
        direct = LocalMaxMinSolver(R=3).solve(inst)
        monkeypatch.setattr(kernels_mod, "MAX_TREE_NODES", 10_000)
        with ServerHandle(ServeConfig(workers=2)) as handle:
            client = handle.client(timeout_s=20)
            status, payload = client.solve(instance=inst, R=40)
            assert status == 200 and payload["degraded"]
            assert payload["algorithm"] == "safe-degree"
            assert payload["degraded_reason"] == "error:local:SolverError"
            assert payload["result"]["feasible"]
            status, payload = client.solve(instance=inst, R=3, include_values=True)
            assert status == 200 and not payload["degraded"]
            assert payload["result"]["utility"] == direct.utility()
            assert payload["result"]["values"] == {
                k: float(v) for k, v in direct.solution.as_dict().items()
            }

    def test_hang_degrades_to_safe_within_deadline(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(
            seed=7, job_faults=(hang(2.0, algorithm="local", attempts=None),)
        )
        config = ServeConfig(
            workers=2,
            faults=plan,
            coalesce_window_s=0,
            default_deadline_s=0.4,
            safe_grace_s=3.0,
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            started = time.monotonic()
            status, payload = client.solve(instance=inst)
            elapsed = time.monotonic() - started
            assert status == 200 and payload["degraded"]
            assert payload["algorithm"].startswith("safe")
            assert payload["result"]["feasible"]
            assert "timeout" in payload["degraded_reason"]
            assert elapsed < 10.0  # bounded by deadline + grace, not by the hang

    def test_deadline_exceeded_without_degradation(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(
            seed=7, job_faults=(hang(2.0, algorithm="local", attempts=None),)
        )
        config = ServeConfig(
            workers=2, faults=plan, coalesce_window_s=0, default_deadline_s=0.3
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            status, payload = client.solve(instance=inst, degrade=False)
            assert status == 504
            assert payload["error"]["code"] == "deadline_exceeded"
            status, metrics = client.metrics()
            assert metrics["counters"]["serve.deadline_exceeded"] == 1

    def test_breaker_opens_after_consecutive_failures(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(
            seed=7,
            job_faults=(
                transient(algorithm="local", attempts=None),  # poison: every §5 attempt fails
            ),
        )
        config = ServeConfig(
            workers=1,
            faults=plan,
            coalesce_window_s=0,
            breaker_failure_threshold=2,
            breaker_cooldown_s=60.0,
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            for _ in range(3):
                status, payload = client.solve(instance=inst)
                assert status == 200 and payload["degraded"]
            status, metrics = client.metrics()
            assert metrics["breakers"]["local"]["state"] == "open"
            assert metrics["breakers"]["local"]["opens"] >= 1
            # With the breaker open the ladder skips the rung outright.
            status, payload = client.solve(instance=inst)
            assert status == 200 and payload["degraded"]
            assert payload["degraded_reason"] == "breaker_open:local"

    def test_safe_requests_are_not_gated_by_the_local_breaker(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(seed=7, job_faults=(transient(algorithm="local", attempts=None),))
        config = ServeConfig(
            workers=1,
            faults=plan,
            coalesce_window_s=0,
            breaker_failure_threshold=2,
            breaker_cooldown_s=60.0,
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=20)
            for _ in range(3):
                status, payload = client.solve(instance=inst)
                assert status == 200 and payload["degraded"]
            status, metrics = client.metrics()
            assert metrics["breakers"]["local"]["state"] == "open"
            # The safe baseline never failed, so the open §5 breaker must
            # neither degrade nor fail a safe request.
            for degrade in (True, False):
                status, payload = client.solve(instance=inst, algorithm="safe", degrade=degrade)
                assert status == 200, payload
                assert payload["degraded"] is False
                assert payload["degraded_reason"] is None
                assert payload["algorithm"] == "safe-degree"
                assert payload["result"]["feasible"]


class TestAdmissionControl:
    def test_overload_sheds_with_structured_error(self):
        (inst,) = make_instances(1)
        plan = FaultPlan(
            seed=7, job_faults=(hang(0.5, algorithm="local", attempts=None),)
        )
        config = ServeConfig(
            workers=1,
            max_pending=2,
            faults=plan,
            coalesce_window_s=0,
            default_deadline_s=0.6,
            safe_grace_s=1.0,
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=30)
            # Make the instance resident first so shed requests are cheap.
            status, payload = client.solve(instance=inst)
            assert status == 200
            digest = payload["digest"]
            requests = [("solve", {"digest": digest}) for _ in range(10)]
            outcomes = chaos_barrage(client, requests, concurrency=10)
            labels = collections.Counter(classify_response(o) for o in outcomes)
            assert labels.get("transport_error", 0) == 0
            assert labels.get("overloaded", 0) >= 1, labels
            assert set(labels) <= {"ok", "degraded", "overloaded", "deadline_exceeded"}
            status, metrics = client.metrics()
            assert metrics["counters"]["serve.shed"] >= 1
            assert client.healthz()[1]["ok"]


class TestChaosBarrage:
    """The acceptance criterion: >= 64 concurrent requests under faults."""

    def test_barrage_under_faults_every_client_gets_a_response(self):
        instances = make_instances(8, size=8)
        plan = FaultPlan(
            seed=11,
            job_faults=(
                transient(algorithm="local", params=(("R", 2),)),
                hang(0.2, algorithm="local", params=(("R", 3),)),
            ),
        )
        config = ServeConfig(
            workers=4,
            max_pending=96,
            faults=plan,
            coalesce_window_s=0.005,
            default_deadline_s=8.0,
            safe_grace_s=2.0,
        )
        with ServerHandle(config) as handle:
            client = handle.client(timeout_s=60)
            docs = [json.loads(instance_to_json(inst)) for inst in instances]
            digests = []
            for doc in docs[:2]:
                status, payload = client.op("info", {"instance": doc})
                assert status == 200
                digests.append(payload["digest"])

            requests = []
            for i in range(64):
                doc = docs[i % len(docs)]
                kind = i % 4
                if kind == 0:
                    requests.append(("solve", {"instance": doc, "R": 2}))
                elif kind == 1:
                    requests.append(("solve", {"instance": doc, "deadline_s": 0.75}))
                elif kind == 2:
                    requests.append(("ratio", {"instance": doc}))
                else:
                    requests.append(("info", {"digest": digests[i % 2]}))

            started = time.monotonic()
            outcomes = chaos_barrage(client, requests, concurrency=64)
            elapsed = time.monotonic() - started
            assert len(outcomes) == 64
            labels = collections.Counter(classify_response(o) for o in outcomes)
            # The contract: no hangs, no transport errors — every request is
            # answered exactly, degraded, or with a structured error.
            assert labels.get("transport_error", 0) == 0, labels
            assert set(labels) <= {
                "ok",
                "degraded",
                "overloaded",
                "deadline_exceeded",
            }, labels
            assert labels.get("degraded", 0) >= 1, labels  # the faults really fired
            assert elapsed < 60.0

            status, health = client.healthz()
            assert status == 200 and health["ok"]
            status, metrics = client.metrics()
            assert metrics["counters"]["serve.requests"] >= 66
            assert metrics["counters"]["serve.admitted"] >= 1
            assert client.readyz()[0] == 200


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestServeCLI:
    def test_serve_config_from_args(self):
        from repro.cli import _serve_config_from_args, build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--workers",
                "3",
                "--max-pending",
                "17",
                "--deadline-s",
                "5.5",
                "--coalesce-window-ms",
                "4",
                "--registry-capacity",
                "9",
            ]
        )
        config = _serve_config_from_args(args)
        assert config.port == 0 and config.workers == 3
        assert config.max_pending == 17
        assert config.default_deadline_s == 5.5
        assert config.coalesce_window_s == pytest.approx(0.004)
        assert config.registry_capacity == 9

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e300", "0", "-1"])
    def test_serve_rejects_unusable_deadline(self, bad):
        """No config comes out: argparse or the CLI check refuses it."""
        from repro.cli import _CliError, _serve_config_from_args, build_parser

        try:
            config = _serve_config_from_args(
                build_parser().parse_args(["serve", "--deadline-s", bad])
            )
        except SystemExit as exc:
            assert exc.code == 2
        except _CliError as exc:
            assert "--deadline-s" in str(exc)
        else:
            pytest.fail(f"--deadline-s {bad} built {config}")

    def test_serve_rejects_bad_flags(self, capsys):
        from repro.cli import main

        assert main(["serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--workers" in err

    def test_serve_preload_missing_file_exits_2(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--preload", "/nope/missing.json"]) == 2
        assert "instance file not found" in capsys.readouterr().err
