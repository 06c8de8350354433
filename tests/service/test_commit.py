"""Commit-to-shared: promoting session temps into the shared catalog.

A session builds state privately (mangled ``@<sid>:<name>`` entries)
and publishes it with ``Session.commit`` -- atomically under the DBMS
write lock, optionally renamed, with an explicit ``replace`` flag
guarding overwrites.  Also covered here: the namespace ``append`` hook
(private temps only -- shared BATs take the pool write path) and the
``commit`` wire op plus the epoch tag on MIL responses.
"""

from __future__ import annotations

import pytest

from repro.monet.bat import dense_bat
from repro.monet.errors import BBPError
from repro.service.client import ServiceClient, ServiceError
from repro.service.session import Session, SessionNamespace


# ----------------------------------------------------------------------
# Session.commit
# ----------------------------------------------------------------------


def test_commit_promotes_temp_to_shared(db):
    a = Session("sA", db)
    b = Session("sB", db)
    a.mil.run('persists("mine", bat("Nums.__value__").sort);')
    assert not b.namespace.exists("mine")
    assert a.commit("mine") == "mine"
    # Promoted: visible to every session, gone from the temp namespace.
    assert b.namespace.exists("mine")
    assert db.pool.exists("mine")
    assert not db.pool.exists("@sA:mine")
    assert a.close() == 0  # nothing left to clean up


def test_commit_under_new_name(db):
    session = Session("sA", db)
    session.namespace.register("scratch", dense_bat("int", [4, 5]))
    assert session.commit("scratch", "published") == "published"
    assert db.pool.lookup("published").tail_list() == [4, 5]
    assert not db.pool.exists("scratch")


def test_commit_requires_replace_for_existing_target(db):
    session = Session("sA", db)
    session.namespace.register("t", dense_bat("int", [1]))
    with pytest.raises(BBPError):
        session.commit("t", "Nums.__value__")
    # The temp survives a failed commit.
    assert session.namespace.exists("t")
    session.commit("t", "Nums.__value__", replace=True)
    assert db.pool.lookup("Nums.__value__").tail_list() == [1]


def test_commit_rejects_reserved_target(db):
    session = Session("sA", db)
    session.namespace.register("t", dense_bat("int", [1]))
    with pytest.raises(BBPError, match="reserved"):
        session.commit("t", "@sB:stolen")


def test_commit_rejects_non_private_source(db):
    session = Session("sA", db)
    with pytest.raises(BBPError):
        session.commit("Nums.__value__")
    with pytest.raises(BBPError):
        session.commit("never-registered")


def test_commit_preserves_fragmentation(db):
    from repro.monet.fragments import FragmentationPolicy, fragment_bat

    session = Session("sA", db)
    policy = FragmentationPolicy(target_size=2)
    session.namespace.register_fragmented(
        "t", fragment_bat(dense_bat("int", [1, 2, 3, 4, 5]), policy)
    )
    session.commit("t")
    assert db.pool.is_fragmented("t")
    assert db.pool.lookup("t").tail_list() == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Namespace append privacy
# ----------------------------------------------------------------------


def test_namespace_append_private_only(db):
    ns = SessionNamespace(db.pool, "sA")
    ns.register("t", dense_bat("int", [1]))
    ns.append("t", tails=[2, 3])
    assert ns.lookup("t").tail_list() == [1, 2, 3]
    # Shared BATs are not appendable from a session namespace.
    with pytest.raises(BBPError, match="shared"):
        ns.append("Nums.__value__", tails=[99])
    with pytest.raises(BBPError):
        ns.append("no-such", tails=[1])
    assert len(db.pool.lookup("Nums.__value__")) == 6


# ----------------------------------------------------------------------
# The wire: commit op and epoch tags
# ----------------------------------------------------------------------


def test_commit_over_the_wire(service, db):
    with ServiceClient(*service.address) as alice, ServiceClient(
        *service.address
    ) as bob:
        alice.mil('persists("shared_out", bat("Nums.__value__").tsort);')
        assert alice.commit("shared_out") == "shared_out"
        result = bob.mil('bat("shared_out");')
        assert sorted(v for v in result.tail if v is not None) == [1, 2, 3, 5, 7]
        assert db.pool.exists("shared_out")


def test_commit_over_the_wire_renamed_and_replace(service, db):
    with ServiceClient(*service.address) as client:
        client.mil('persists("x", bat("Nums.__value__").select(1, 3));')
        assert client.commit("x", "picked") == "picked"
        client.mil('persists("x", bat("Nums.__value__").select(5, 9));')
        with pytest.raises(ServiceError):
            client.commit("x", "picked")
        assert client.commit("x", "picked", replace=True) == "picked"
    assert sorted(db.pool.lookup("picked").tail_list()) == [5, 7]


def test_mil_response_carries_epoch(service, db):
    with ServiceClient(*service.address) as client:
        first = client.mil('bat("Nums.__value__");')
        assert first.epoch is not None
        db.pool.append("Nums.__value__", tails=[11])
        second = client.mil('bat("Nums.__value__");')
        assert second.epoch > first.epoch
        assert second.tail[-1] == 11
