"""Session temp-namespace semantics over one shared pool.

A plan writes through its pinned view (``read_snapshot()``, what MIL
``persists``/``unpersists`` use); the namespace itself only reads."""

from __future__ import annotations

import pytest

from repro.monet.bat import dense_bat
from repro.monet.errors import BBPError, MILRuntimeError
from repro.service.session import Session, SessionNamespace


def test_private_write_reads_back(db):
    ns = SessionNamespace(db.pool, "sA")
    ns.read_snapshot().register("temp", dense_bat("int", [1, 2]))
    assert ns.exists("temp")
    assert ns.lookup("temp").tail_list() == [1, 2]
    # The shared catalog holds it under the mangled name only.
    assert db.pool.exists("@sA:temp")
    assert not db.pool.exists("temp")


def test_reads_fall_through_to_shared(db):
    ns = SessionNamespace(db.pool, "sA")
    assert ns.exists("Nums.__value__")
    assert len(ns.lookup("Nums.__value__")) == 6


def test_private_shadows_shared(db):
    ns = SessionNamespace(db.pool, "sA")
    ns.read_snapshot().register("Nums.__value__", dense_bat("int", [99]))
    assert ns.lookup("Nums.__value__").tail_list() == [99]
    assert ns.read_snapshot().lookup("Nums.__value__").tail_list() == [99]
    # The shared BAT is untouched.
    assert len(db.pool.lookup("Nums.__value__")) == 6


def test_sessions_cannot_see_each_other(db):
    a = SessionNamespace(db.pool, "sA")
    b = SessionNamespace(db.pool, "sB")
    a.read_snapshot().register("temp", dense_bat("int", [1]))
    assert not b.exists("temp")
    b.read_snapshot().register("temp", dense_bat("int", [2, 2]))
    assert a.lookup("temp").tail_list() == [1]
    assert b.lookup("temp").tail_list() == [2, 2]


def test_cannot_drop_shared(db):
    view = SessionNamespace(db.pool, "sA").read_snapshot()
    with pytest.raises(BBPError, match="shared"):
        view.drop("Nums.__value__")
    with pytest.raises(BBPError, match="unknown"):
        view.drop("no-such-name")
    assert db.pool.exists("Nums.__value__")


def test_cleanup_drops_only_this_session(db):
    a = SessionNamespace(db.pool, "sA")
    b = SessionNamespace(db.pool, "sB")
    a.read_snapshot().register("t1", dense_bat("int", [1]))
    a.read_snapshot().register("t2", dense_bat("int", [2]))
    b.read_snapshot().register("t1", dense_bat("int", [3]))
    assert a.cleanup() == 2
    assert not db.pool.exists("@sA:t1")
    assert db.pool.exists("@sB:t1")
    assert b.lookup("t1").tail_list() == [3]


def test_session_mil_persists_into_namespace(db):
    session = Session("sX", db)
    session.mil.run('persists("scratch", bat("Nums.__value__").sort);')
    assert db.pool.exists("@sX:scratch")
    result = session.mil.run('bat("scratch");')
    assert len(result.value) == 6
    dropped = session.close()
    assert dropped == 1
    assert not db.pool.exists("@sX:scratch")
    assert session.disconnected.is_set()


def test_session_cannot_unpersist_shared(db):
    session = Session("sX", db)
    with pytest.raises((BBPError, MILRuntimeError)):
        session.mil.run('unpersists("Nums.__value__");')
    assert db.pool.exists("Nums.__value__")
