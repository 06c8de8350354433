"""``svc_image_rank``: the paper's Section 5 content ranking over TCP.

Who waits: a remote client on a service round trip.  A
``MirrorService`` runs in a child process; two blocking
``ServiceClient`` connections drive it in a closed loop (the shipped
client blocks per reply, so two callers is two connections).  The plan
is small, so ``service.protocol`` encode/decode of a 5 000-value
result, the guard, admission and the event-loop hops are a large share
of the round trip -- the layers ``text_rank`` bypasses.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
import loadgen
from harness import (
    ALL_CPUS,
    WARMUP_OPS,
    Phase,
    Workload,
    closed_loop,
    dissect_items,
)
from measure import median_or_zero, per_request_ms

from repro.core.mirror import MirrorDBMS
from repro.service import QueryGuard, ServiceClient, ServiceConfig, session_ref
from repro.workloads import INTERNAL_DDL, SECTION5_QUERY

COLLECTION = "ImageLibraryInternal"
ATTRIBUTE = "image"
IMAGES = 5_000
CLUSTERS = 40
CLIENTS = 2
QUERY_POOL = 8_000
STATS_BINDING = "image_stats"
PINGS = 50
#: Wire results kept per client for the post-run equality gate.
KEPT_RESULTS = 3
CHILD_TIMEOUT_S = 60


def service_config() -> ServiceConfig:
    """The one service configuration this workload runs: two executor
    slots for two clients, rate limiting off (the default)."""
    return ServiceConfig(max_inflight=CLIENTS)


class SvcImageRank(Workload):
    name = "svc_image_rank"

    #: The server child takes the last CPU (``--cpu``); the clients
    #: keep off it, so the load generator never competes with the
    #: server it measures.
    CPUS = "not-last"

    def __init__(self, seed, tmp, rec):
        super().__init__(seed, tmp, rec)
        queries = loadgen.image_queries(seed, QUERY_POOL, CLUSTERS)
        self.ops_hash = loadgen.ops_hash(queries)
        self.first_query = queries[0]
        # One op stream per client, interleaved from the one seeded list.
        self.streams = [
            itertools.cycle(queries[i::CLIENTS]) for i in range(CLIENTS)
        ]
        self.kept: List[tuple] = []
        self.child: Optional[subprocess.Popen] = None
        self.clients: List[ServiceClient] = []
        self.child_report: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        self.child = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("server_child.py")),
                "--seed", str(self.seed), "--images", str(IMAGES),
                "--clusters", str(CLUSTERS),
                *(["--cpu", str(ALL_CPUS[-1])] if len(ALL_CPUS) > 1 else []),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # The child's temp files stay inside the checkout too.
            env={**os.environ, "TMPDIR": str(self.tmp)},
        )
        # The same-seed local database (the equality gate's reference
        # and the traced run's in-process twin) loads while the child
        # loads its own.
        self.db = MirrorDBMS()
        self.db.define(INTERNAL_DDL)
        rows = loadgen.image_rows(self.seed, IMAGES, CLUSTERS)
        with self.rec.span("mapping.load"):
            self.db.replace(COLLECTION, rows)
        with self.rec.span("ir.stats"):
            self.stats = self.db.stats(COLLECTION, ATTRIBUTE)
        ready = json.loads(self.child.stdout.readline())
        self.address = ("127.0.0.1", ready["port"])
        for _ in range(CLIENTS):
            client = ServiceClient(*self.address, timeout=CHILD_TIMEOUT_S)
            client.bind_stats(COLLECTION, ATTRIBUTE, STATS_BINDING)
            self.clients.append(client)

    def teardown(self) -> List[str]:
        problems: List[str] = []
        for client in self.clients:
            client.close()
        self.clients = []
        if self.child is None:
            return problems
        try:
            stopped, _ = self.child.communicate("stop\n", timeout=CHILD_TIMEOUT_S)
            self.child_report = json.loads(stopped.strip().splitlines()[-1])
            self.child_rss_kb = self.child_report["rss_kb"]
            if self.child_report["leaked_threads"]:
                problems.append(
                    f"server child leaked threads: "
                    f"{self.child_report['leaked_threads']}"
                )
            if self.child.returncode != 0:
                problems.append(f"server child exited {self.child.returncode}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            self.child.kill()
            self.child.wait()
            problems.append(f"server child did not stop cleanly: {exc!r}")
        self.child = None
        return problems

    # -- ops -------------------------------------------------------------
    def _wire_params(self, query: List[str]) -> Dict[str, Any]:
        return {"query": query, "stats": session_ref(STATS_BINDING)}

    def _make_op(self, client: ServiceClient):
        kept = 0

        def op(query: List[str]) -> bool:
            nonlocal kept
            value = client.moa(SECTION5_QUERY, self._wire_params(query))
            if kept < KEPT_RESULTS:
                kept += 1
                self.kept.append((query, value))
            return isinstance(value, list) and len(value) == IMAGES

        return op

    def warmup(self) -> None:
        for client, stream in zip(self.clients, self.streams):
            op = self._make_op(client)
            for _ in range(WARMUP_OPS):
                op(next(stream))
        self.kept.clear()

    def run(self, seconds: float, traced: bool = False) -> Phase:
        phases: List[Phase] = []

        def drive(client, stream):
            phases.append(
                closed_loop(
                    self._make_op(client), stream, seconds,
                    self.rec if traced else None, self.request_ids,
                )
            )

        threads = [
            threading.Thread(target=drive, args=pair, name=f"client-{i}")
            for i, pair in enumerate(zip(self.clients, self.streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = phases[0]
        for phase in phases[1:]:
            merged = merged.beside(phase)
        return merged

    # -- traced dissection -----------------------------------------------
    def dissect(self, seconds: float) -> None:
        rec = self.rec
        client, stream = self.clients[0], self.streams[0]
        guard = QueryGuard(service_config().guard)
        params_of = lambda q: {"query": q, "stats": self.stats}  # noqa: E731
        counts: Dict[str, int] = {}
        for query in dissect_items(self.first_query, stream, seconds * 0.8):
            request = next(self.request_ids)
            with rec.span("client.roundtrip", request):
                client.moa(SECTION5_QUERY, self._wire_params(query))
            value, plan = layers.dissect_moa(
                rec, self.db, SECTION5_QUERY, params_of(query), request
            )
            size = layers.dissect_wire(
                rec, guard, self.db, SECTION5_QUERY,
                self._wire_params(query), value, request,
            )
            counts = counts or {**plan, "response_bytes": size}
        layers.run_cases(rec, {"server.ping": client.ping}, repeats=PINGS)
        layers.run_cases(
            rec,
            layers.kernel_cases(
                *layers.contrep_probe_bats(self.db.pool, COLLECTION, ATTRIBUTE),
                bounds=(1, 2), groups=IMAGES,
            ),
        )
        status = client.status()
        # What the server adds beyond the calls replayed in process:
        # event-loop hops, admission, executor hand-off, socket I/O.
        ms = per_request_ms(rec.spans)
        accounted = (
            "moa.prepare", "executor.run_compiled", "guard.check",
            "protocol.request_pack", "protocol.request_read",
            "protocol.encode", "protocol.decode",
        )
        server_self = [
            total - sum(ms[name][request] for name in accounted)
            for request, total in ms["client.roundtrip"].items()
        ]
        self.counts.update(
            {
                "moa.plan_statements": counts["statements"],
                "mil.op_calls": counts["op_calls"],
                "protocol.response_bytes": counts["response_bytes"],
                "server.roundtrip_ms": median_or_zero(
                    list(ms["client.roundtrip"].values())
                ),
                "server.self_ms": median_or_zero(server_self),
                "server.queries_served": status["queries_served"],
                "admission.rejected": (
                    status["rejected_busy"] + status["rejected_deadline"]
                ),
                "admission.peak_inflight": status["peak_inflight"],
            }
        )

    # -- gate --------------------------------------------------------------
    def verify(self) -> List[str]:
        failures = []
        if not self.kept:
            failures.append("no wire result was kept for the equality gate")
        for query, wire_value in self.kept:
            local = self.db.query(
                SECTION5_QUERY, {"query": query, "stats": self.stats}
            ).value
            if wire_value != local:
                failures.append(
                    f"{query}: wire result differs from in-process db.query"
                )
        return failures
