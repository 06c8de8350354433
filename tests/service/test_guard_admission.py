"""Unit tests for the token bucket, admission controller and query
guard (no sockets involved)."""

from __future__ import annotations

import asyncio

import pytest

from repro.monet.bbp import BATBufferPool
from repro.monet.bat import dense_bat
from repro.service.admission import (
    AdmissionController,
    AdmissionReject,
    TokenBucket,
)
from repro.service.guard import GuardLimits, GuardRejection, QueryGuard


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire(), bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_burst_caps_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(60)
        assert bucket.available == 2.0

    def test_disabled(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_acquire() for _ in range(1000))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)


class TestAdmissionController:
    def run(self, coro):
        return asyncio.run(coro)

    def test_inflight_bound(self):
        async def scenario():
            ctl = AdmissionController(max_inflight=2, max_queue=0)
            await ctl.acquire()
            await ctl.acquire()
            with pytest.raises(AdmissionReject) as info:
                await ctl.acquire()
            assert info.value.code == "busy"
            assert ctl.inflight == 2
            ctl.release()
            await ctl.acquire()  # slot freed
            assert ctl.rejected_busy == 1

        self.run(scenario())

    def test_queue_grants_fifo(self):
        async def scenario():
            ctl = AdmissionController(max_inflight=1, max_queue=2, queue_timeout=5)
            await ctl.acquire()
            order = []

            async def waiter(tag):
                await ctl.acquire()
                order.append(tag)

            tasks = [asyncio.create_task(waiter(i)) for i in range(2)]
            await asyncio.sleep(0)  # let both enqueue
            assert ctl.queued == 2
            ctl.release()
            await asyncio.sleep(0)
            ctl.release()
            await asyncio.gather(*tasks)
            assert order == [0, 1]

        self.run(scenario())

    def test_queue_timeout_rejects_with_deadline(self):
        async def scenario():
            ctl = AdmissionController(
                max_inflight=1, max_queue=2, queue_timeout=0.02
            )
            await ctl.acquire()
            with pytest.raises(AdmissionReject) as info:
                await ctl.acquire()
            assert info.value.code == "deadline"
            assert ctl.rejected_deadline == 1
            # The slot is still held by the first query; releasing it
            # leaves a clean controller (no leaked waiters).
            ctl.release()
            assert ctl.inflight == 0
            assert ctl.queued == 0

        self.run(scenario())

    def test_peak_tracking(self):
        async def scenario():
            ctl = AdmissionController(max_inflight=4)
            for _ in range(3):
                await ctl.acquire()
            for _ in range(3):
                ctl.release()
            assert ctl.peak_inflight == 3
            assert ctl.inflight == 0

        self.run(scenario())


@pytest.fixture
def pool():
    p = BATBufferPool()
    p.register("nums", dense_bat("int", list(range(50))))
    return p


class TestQueryGuard:
    def test_accepts_wellformed(self, pool):
        QueryGuard().check_mil('bat("nums").select(1, 5);', pool)

    def test_malformed_mil(self, pool):
        with pytest.raises(GuardRejection) as info:
            QueryGuard().check_mil("x := ;;; nope(", pool)
        assert info.value.code == "malformed"

    def test_unknown_operator(self, pool):
        with pytest.raises(GuardRejection) as info:
            QueryGuard().check_mil('frobnicate(bat("nums"));', pool)
        assert info.value.code == "malformed"
        assert "frobnicate" in str(info.value)

    @pytest.mark.parametrize(
        "source, unknown",
        [
            ('{nope}(bat("nums"), bat("nums"));', "{nope}"),
            ('[nope](bat("nums"));', "[nope]"),
            ('x := bat("nums").sort; {sum}(x, [frob](x, 2));', "[frob]"),
        ],
    )
    def test_unknown_pump_and_multiplex_are_malformed(self, pool, source, unknown):
        """Like an unknown call: the plan costs a parse, never an
        admission slot or an executor thread."""
        with pytest.raises(GuardRejection) as info:
            QueryGuard().check_mil(source, pool)
        assert info.value.code == "malformed"
        assert unknown in str(info.value)

    def test_every_operator_the_interpreter_knows_is_admitted(self, pool):
        """The guard asks the interpreter's own tables: builtin rows
        (pumps included), the catalog specials, and the multiplex
        operators with their aliases and ``ifthenelse``."""
        QueryGuard().check_mil(
            'b := bat("nums"); g := group(b); print({sum}(b, g)); '
            "{prod}(b, g, newoid(1)); [+](b, 1); [add](b, 1); [log10](b); "
            "[ifthenelse]([lt](b, 3), b, 0);",
            pool,
        )

    def test_op_budget(self, pool):
        guard = QueryGuard(GuardLimits(max_ops=3))
        with pytest.raises(GuardRejection) as info:
            guard.check_mil('bat("nums").sort.reverse.mirror;', pool)
        assert info.value.code == "guard"

    def test_input_bun_budget(self, pool):
        guard = QueryGuard(GuardLimits(max_input_buns=60))
        guard.check_mil('bat("nums");', pool)  # 50 <= 60
        with pytest.raises(GuardRejection) as info:
            # Two references: 100 estimated BUNs.
            guard.check_mil('kunion(bat("nums"), bat("nums"));', pool)
        assert info.value.code == "guard"

    def test_source_size_budget(self, pool):
        guard = QueryGuard(GuardLimits(max_source_bytes=10))
        with pytest.raises(GuardRejection) as info:
            guard.check_mil('bat("nums").sort;', pool)
        assert info.value.code == "guard"

    def test_unknown_names_count_zero(self, pool):
        guard = QueryGuard(GuardLimits(max_input_buns=1))
        # Not in the pool: the estimate is 0, the runtime's problem.
        guard.check_mil('bat("ghost");', pool)

    def test_malformed_moa(self):
        with pytest.raises(GuardRejection) as info:
            QueryGuard().check_moa("map[(((;")
        assert info.value.code == "malformed"

    def test_moa_extent_budget(self, pool):
        pool.register("Lib.__extent__", dense_bat("oid", list(range(40))))
        guard = QueryGuard(GuardLimits(max_input_buns=30))
        schema = {"Lib": object()}
        with pytest.raises(GuardRejection) as info:
            guard.check_moa("count(Lib);", pool, schema)
        assert info.value.code == "guard"
        # A generous budget admits the same query.
        QueryGuard(GuardLimits(max_input_buns=100)).check_moa(
            "count(Lib);", pool, schema
        )

    def test_disabled_limits(self, pool):
        guard = QueryGuard(
            GuardLimits(max_ops=None, max_source_bytes=None, max_input_buns=None)
        )
        guard.check_mil("x := " + ".sort".join(['bat("nums")'] * 1) + ";", pool)
