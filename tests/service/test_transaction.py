"""The unified mutation API: transactions from ``MirrorDBMS.begin()``
to the wire.

In-process: one :class:`~repro.core.mirror.Transaction` pins one
catalog epoch for every statement between ``begin`` and
``commit``/``abort``, stages insert/update/delete with one signature
shape, re-evaluates where-predicates against the live state at commit,
and leaves nothing behind on abort.  Over the wire: the ``begin``/
``commit``/``abort``/``update``/``delete`` ops of protocol v2, staged
vs auto-commit behaviour, the ``mutation`` error code, and sync/async
client parity.  The DDL arm covers ``delete from`` / ``update ... set``
through ``MirrorDBMS.execute``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.mirror import MirrorDBMS, MutationResult
from repro.monet.errors import (
    InvalidMutationBatch,
    MutationError,
    TransactionError,
)
from repro.service import AsyncServiceClient, ServiceClient, ServiceError


def _people_db() -> MirrorDBMS:
    db = MirrorDBMS()
    db.execute(
        """
        define People as SET<TUPLE<Atomic<str>: name, Atomic<int>: age>>;
        insert into People values ("ann", 34), ("bob", 27), ("cyd", 34);
        """
    )
    return db


# ----------------------------------------------------------------------
# In-process: epoch pinning, commit, abort
# ----------------------------------------------------------------------


class TestTransaction:
    def test_begin_pins_one_epoch_across_statements(self):
        db = MirrorDBMS()
        db.define("define Nums as SET<Atomic<int>>;")
        db.insert("Nums", [3, 1, 2])
        txn = db.begin()
        assert txn.count("Nums") == 3
        # A concurrent writer lands between the transaction's reads...
        db.insert("Nums", [9, 9])
        # ...and every statement keeps reading the begin-time epoch.
        assert txn.count("Nums") == 3
        result = txn.query("count(Nums);")
        assert result.value == 3
        assert result.epoch == txn.epoch
        assert db.count("Nums") == 5
        txn.abort()

    def test_commit_publishes_all_staged_mutations_atomically(self):
        db = _people_db()
        txn = db.begin()
        txn.insert("People", [{"name": "dee", "age": 41}])
        txn.update("People", {"age": 35}, where={"name": "ann"})
        txn.delete("People", where={"name": "bob"})
        # Nothing is visible before commit -- not even to the
        # transaction's own reads (begin-time snapshot isolation).
        assert txn.count("People") == 3
        assert db.count("People") == 3
        summary = txn.commit()
        assert isinstance(summary, MutationResult)
        assert [r.kind for r in summary.applied] == [
            "insert",
            "update",
            "delete",
        ]
        assert db.count("People") == 3  # +1 insert, -1 delete
        rows = {(row["name"], row["age"]) for row in db.contents("People")}
        assert rows == {("ann", 35), ("cyd", 34), ("dee", 41)}

    def test_abort_leaves_no_visible_state(self):
        db = _people_db()
        txn = db.begin()
        txn.insert("People", [{"name": "eve", "age": 50}])
        txn.delete("People")  # all rows
        result = txn.abort()
        assert result.count == 2  # both staged ops dropped
        assert {(r["name"], r["age"]) for r in db.contents("People")} == {
            ("ann", 34),
            ("bob", 27),
            ("cyd", 34),
        }
        with pytest.raises(TransactionError):
            txn.insert("People", [{"name": "fay", "age": 1}])
        with pytest.raises(TransactionError):
            txn.commit()

    def test_context_manager_commits_on_clean_exit(self):
        db = _people_db()
        with db.begin() as txn:
            txn.delete("People", where={"age": 34})
        assert db.count("People") == 1

    def test_context_manager_aborts_on_exception(self):
        db = _people_db()
        with pytest.raises(RuntimeError, match="boom"):
            with db.begin() as txn:
                txn.delete("People")
                raise RuntimeError("boom")
        assert db.count("People") == 3

    def test_commit_reevaluates_where_against_live_state(self):
        # The stage-time preview counts against the pinned snapshot;
        # commit re-matches against what is actually live, so a row
        # arriving between stage and commit is still caught.
        db = MirrorDBMS()
        db.define("define Nums as SET<Atomic<int>>;")
        db.insert("Nums", [1, 2])
        txn = db.begin()
        preview = txn.delete("Nums", where=42)
        assert preview.count == 0
        db.insert("Nums", [42])
        summary = txn.commit()
        assert summary.applied[0].count == 1
        assert sorted(db.contents("Nums")) == [1, 2]

    def test_where_shapes(self):
        db = _people_db()
        assert db.delete("People", where={"age": 34, "name": "cyd"}) == 1
        bob = lambda row: row["name"] == "bob"
        assert db.update("People", {"age": 28}, where=bob) == 1
        assert {(r["name"], r["age"]) for r in db.contents("People")} == {
            ("ann", 34),
            ("bob", 28),
        }
        assert db.delete("People") == 2  # None: all rows

    def test_nil_literal_matches_nothing(self):
        # The kernel comparison rule: NIL = NIL is false, so a NIL
        # where-literal selects no rows rather than the NIL rows.
        db = MirrorDBMS()
        db.define("define Nums as SET<Atomic<int>>;")
        db.insert("Nums", [1, None, 2])
        assert db.delete("Nums", where=None_literal()) == 0
        assert db.count("Nums") == 3

    def test_unknown_field_rejected_at_stage_time(self):
        db = _people_db()
        txn = db.begin()
        with pytest.raises(InvalidMutationBatch):
            txn.update("People", {"salary": 1}, where={"name": "ann"})
        with pytest.raises(InvalidMutationBatch):
            txn.delete("People", where={"salary": 1})
        txn.abort()

    def test_moa_string_delete_is_gone_use_where(self):
        db = MirrorDBMS()
        db.define("define Nums as SET<Atomic<int>>;")
        db.insert("Nums", [1, 5, 9])
        with pytest.raises(InvalidMutationBatch, match="where="):
            db.delete("Nums", "THIS > 4")
        assert db.contents("Nums") == [1, 5, 9]
        assert db.delete("Nums", where=lambda v: v > 4) == 2
        assert db.contents("Nums") == [1]


def None_literal():
    """A bare NIL where-literal (spelled as a helper so the dict-vs-
    literal dispatch in ``_where_positions`` sees an explicit value)."""
    return {"value": None}


# ----------------------------------------------------------------------
# DDL: delete from / update ... set through execute()
# ----------------------------------------------------------------------


class TestMutationDDL:
    def test_delete_and_update_statements(self):
        db = _people_db()
        outcomes = db.execute(
            """
            update People set age = 40 where name = "ann";
            delete from People where age = 34;
            """
        )
        assert len(outcomes) == 2
        assert {(r["name"], r["age"]) for r in db.contents("People")} == {
            ("ann", 40),
            ("bob", 27),
        }

    def test_delete_without_where_clears_collection(self):
        db = _people_db()
        db.execute("delete from People;")
        assert db.count("People") == 0

    def test_atomic_set_value_assignment(self):
        db = MirrorDBMS()
        db.execute(
            """
            define Nums as SET<Atomic<int>>;
            insert into Nums values (1), (2), (1);
            update Nums set value = 7 where value = 1;
            """
        )
        assert sorted(db.contents("Nums")) == [2, 7, 7]


# ----------------------------------------------------------------------
# Over the wire: begin/commit/abort/update/delete ops
# ----------------------------------------------------------------------


class TestWireTransactions:
    def test_epoch_pinned_across_wire_statements(self, service):
        with ServiceClient(*service.address) as writer, ServiceClient(
            *service.address
        ) as reader:
            epoch = reader.begin()
            assert isinstance(epoch, int)
            assert reader.moa("count(Nums);") == 6
            writer.insert("Nums", [100, 200])
            # The reader's transaction keeps its begin-time epoch.
            assert reader.moa("count(Nums);") == 6
            reader.abort()
            assert reader.moa("count(Nums);") == 8

    def test_staged_mutations_commit_together(self, service):
        with ServiceClient(*service.address) as c:
            c.begin()
            assert c.insert("Nums", [50]) == 1  # staged row count
            removed = c.delete("Nums", where=3)
            assert removed["staged"] and removed["op"] == "delete"
            assert c.count("Nums") == 6  # nothing visible yet
            result = c.commit()
            assert result["kind"] == "committed"
            assert [op["op"] for op in result["applied"]] == [
                "insert",
                "delete",
            ]
            assert c.count("Nums") == 6  # +1 insert, -1 delete

    def test_abort_drops_staged_wire_mutations(self, service):
        with ServiceClient(*service.address) as c:
            c.begin()
            c.insert("Nums", [70])
            c.delete("Nums")
            aborted = c.abort()
            assert aborted["kind"] == "aborted" and aborted["count"] == 2
            assert c.count("Nums") == 6

    def test_autocommit_update_delete_outside_transaction(self, service):
        with ServiceClient(*service.address) as c:
            patched = c.update("Nums", 9, where=1)
            assert patched["op"] == "update" and not patched["staged"]
            assert patched["count"] == 1
            removed = c.delete("Nums", where=9)
            assert removed["count"] == 1 and "epoch" in removed
            assert c.count("Nums") == 5

    def test_mutation_error_code(self, service):
        with ServiceClient(*service.address) as c:
            with pytest.raises(ServiceError) as info:
                c.delete("NoSuchCollection")
            assert info.value.code == "mutation"
            with pytest.raises(ServiceError) as info:
                c.commit()  # no open transaction
            assert info.value.code == "mutation"
            # The connection survives the rejections.
            assert c.count("Nums") == 6

    def test_double_begin_rejected(self, service):
        with ServiceClient(*service.address) as c:
            c.begin()
            with pytest.raises(ServiceError) as info:
                c.begin()
            assert info.value.code == "mutation"
            c.abort()

    def test_async_client_parity(self, service):
        async def scenario():
            async with AsyncServiceClient(*service.address) as c:
                epoch = await c.begin()
                assert isinstance(epoch, int)
                await c.insert("Nums", [31])
                staged = await c.update("Nums", 4, where=3)
                assert staged["staged"]
                result = await c.commit()
                assert result["kind"] == "committed"
                removed = await c.delete("Nums", where=31)
                assert removed["count"] == 1
                return await c.count("Nums")

        assert asyncio.run(scenario()) == 6

    def test_session_close_aborts_open_transaction(self, service, db):
        c = ServiceClient(*service.address)
        c.begin()
        c.insert("Nums", [500])
        c.close()
        assert db.count("Nums") == 6


def test_mutation_error_is_one_vocabulary():
    """Satellite contract: every mutation failure -- pool, kernel or
    transaction layer -- is a :class:`MutationError` and nothing else;
    no subclass also derives from ``BBPError``/``KernelError``."""
    from repro.monet.errors import (
        BBPError,
        KernelError,
        InvalidPositions,
        UnknownMutationTarget,
    )

    for error in (
        UnknownMutationTarget, InvalidMutationBatch, InvalidPositions,
        TransactionError,
    ):
        assert error.__bases__ == (MutationError,), error
        assert not issubclass(error, (BBPError, KernelError)), error
