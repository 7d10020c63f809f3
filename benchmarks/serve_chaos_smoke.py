"""Serve chaos smoke: a concurrent barrage against a deliberately faulty server.

The CI guard for the serving layer.  One in-process server runs with an
injected :class:`~repro.faults.FaultPlan` (transient errors on the §5 rung
of ``R=2`` solves, a hang on the §5 rung of ``R=3`` solves) and a tight
deadline,
and a ≥64-request concurrent barrage — solves, ratios, utilities, info,
plus malformed and unknown-digest requests — is fired at it.  The
resilience contract asserted here:

* **every** client gets an answer: exact, ``degraded: true`` with a reason,
  or a structured error from the closed vocabulary — no socket errors, no
  hangs past the client timeout;
* at least one response is degraded, and both the transient and the hang
  fired (``faults.transient`` / ``faults.hangs`` on ``/metrics``): a chaos
  harness that stops injecting is itself a bug;
* every exact or degraded inline upload answers with its instance's
  resident digest, whether it was sent as the canonical text (the one-hash
  hit path) or as a parsed object (the parse-and-canonicalize path), and
  the registry still holds exactly the 8 residents afterwards;
* the server is still healthy and ready afterwards, with breaker and
  counter state visible on ``/metrics``.

Usage::

    PYTHONPATH=src python benchmarks/serve_chaos_smoke.py
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from repro import obs
from repro.faults import FaultPlan, hang, transient
from repro.generators import random_special_form_instance
from repro.serve import ServeConfig, ServerHandle, chaos_barrage, classify_response

#: Outcomes a chaotic-but-resilient server is allowed to produce.
ACCEPTABLE = {"ok", "degraded", "overloaded", "deadline_exceeded", "bad_request", "not_found"}


def main() -> int:
    instances = [
        random_special_form_instance(10 + (i % 4) * 2, delta_K=3, constraint_rounds=1, seed=50 + i)
        for i in range(8)
    ]
    plan = FaultPlan(
        seed=11,
        job_faults=(
            transient(algorithm="local", params=(("R", 2),)),
            hang(0.4, algorithm="local", params=(("R", 3),)),
        ),
    )
    config = ServeConfig(
        workers=4,
        max_pending=48,
        default_deadline_s=5.0,
        safe_grace_s=2.0,
        breaker_cooldown_s=0.2,
        faults=plan,
    )
    print(f"injecting: {plan.describe()}")
    obs.configure(enabled=True)  # the fault counters surface on /metrics

    failures: List[str] = []
    with ServerHandle(config) as handle:
        entries = [handle.server.registry.admit_instance(i) for i in instances]
        requests: List[Tuple[str, dict]] = []
        uploads = {}  # request index -> the digest its answer must carry
        for i in range(64):
            entry = entries[i % len(entries)]
            digest = entry.digest
            kind = i % 8
            if kind < 4:
                requests.append(("solve", {"digest": digest, "R": 2 + (i % 2)}))
            elif kind == 4:
                # Half the uploads are the canonical text, half a parsed object.
                doc = entry.json_text if (i // 8) % 2 else json.loads(entry.json_text)
                requests.append(("ratio", {"instance": doc, "R": 2}))
                uploads[i] = digest
            elif kind == 5:
                requests.append(("info", {"digest": digest}))
            elif kind == 6:
                requests.append(("utility", {"digest": digest, "values": "not-a-vector"}))
            else:
                requests.append(("solve", {"digest": "0" * 64}))

        client = handle.client(timeout_s=30.0)
        outcomes = chaos_barrage(client, requests, concurrency=32)
        labels = [classify_response(o) for o in outcomes]

        histogram = {label: labels.count(label) for label in sorted(set(labels))}
        print(f"outcomes over {len(labels)} requests: {json.dumps(histogram)}")

        if len(labels) != len(requests):
            failures.append(f"{len(requests) - len(labels)} requests got no outcome")
        if "transport_error" in histogram:
            failures.append(
                f"{histogram['transport_error']} client-visible transport errors/hangs"
            )
        unexpected = set(histogram) - ACCEPTABLE
        if unexpected:
            failures.append(f"outcomes outside the structured vocabulary: {sorted(unexpected)}")
        if histogram.get("degraded", 0) == 0:
            failures.append("fault plan never degraded a response; injection is not firing")
        if histogram.get("bad_request", 0) == 0 or histogram.get("not_found", 0) == 0:
            failures.append("malformed/unknown-digest probes did not produce structured errors")
        for i, digest in uploads.items():
            if labels[i] in ("ok", "degraded") and outcomes[i][1].get("digest") != digest:
                failures.append(
                    f"inline upload {i} answered digest {outcomes[i][1].get('digest')!r}, "
                    f"not its resident {digest[:12]}…"
                )

        status, health = client.healthz()
        if status != 200 or not health.get("ok"):
            failures.append(f"server unhealthy after the barrage: {status} {health}")
        status, ready = client.readyz()
        if status != 200:
            failures.append(f"server not ready after the barrage: {status} {ready}")
        status, metrics = client.metrics()
        if status != 200:
            failures.append(f"/metrics failed: {status}")
        else:
            counters = metrics.get("counters", {})
            resident = metrics.get("registry", {}).get("resident")
            if resident != len(entries):
                failures.append(f"{resident} residents after the barrage, expected {len(entries)}")
            if counters.get("serve.admitted", 0) < len(requests) - counters.get("serve.shed", 0):
                failures.append(f"admission accounting does not add up: {counters}")
            print(
                "server counters:",
                json.dumps({k: v for k, v in counters.items() if k.startswith("serve.")}),
            )
            print("breakers:", json.dumps(metrics.get("breakers", {})))
            fired = metrics.get("resilience", {})
            print("faults fired:", json.dumps(fired))
            for name in ("faults.transient", "faults.hangs"):
                if fired.get(name, 0) <= 0:
                    failures.append(f"{name} never fired; the fault plan missed the §5 rung")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve chaos smoke OK: every request answered; degradation and shedding structured")
    return 0


if __name__ == "__main__":
    sys.exit(main())
