"""The buffer pool as a state machine against a model that is a dict of
lists: register, append, delete, update, merge, save, load and
read_snapshot in any order, over int, dbl and NIL-heavy str tails,
monolithic and fragmented.  After every step:

* every registration holds exactly the model's BUNs;
* every pinned snapshot still reads exactly what it read when pinned
  (values, and a str column's codes);
* a stored str column has one heap across its fragments;
* a pinned str column holds only codes below the heap length it saw;
* a held join index (built by a join against a stored str column)
  answers exactly its own column version's codes, however far the
  shared heap has grown since.

``POOL_STATE_MACHINE_EXAMPLES`` raises the example count (CI's
write-path job runs more than tier-1 does).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.monet import kernel
from repro.monet.bat import StrColumn, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from tests.conftest import assert_codes_decode

#: Registration name -> tail atom.
NAMES = {"ints": "int", "dbls": "dbl", "words": "str", "tags": "str"}
#: NIL-heavy values per atom; the str words are the ones the string heap
#: keeps apart from NIL and from each other.
VALUES = {
    "int": st.one_of(st.none(), st.integers(-5, 5)),
    "dbl": st.one_of(st.none(), st.floats(-2, 2, allow_nan=False, width=32)),
    "str": st.one_of(
        st.none(),
        st.none(),
        st.sampled_from(["ape", "", "\x00NIL", "\ud800x", "\U0001f600", "caf\xe9"]),
    ),
}
POLICY = FragmentationPolicy(target_size=3)
EXAMPLES = int(os.environ.get("POOL_STATE_MACHINE_EXAMPLES", "50"))


def _str_columns(value):
    """The str tail columns of a pool value (one per fragment)."""
    fragments = getattr(value, "fragments", [value])
    return [f.tail for f in fragments if isinstance(f.tail, StrColumn)]


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = BATBufferPool()
        self.model: dict = {}
        self.pinned: list = []
        self.directory = tempfile.mkdtemp(prefix="pool-state-machine-")
        self.saved = False

    def teardown(self):
        self.pool.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _draw_name(self, data):
        return data.draw(st.sampled_from(sorted(self.model)))

    # A registration is not a logged mutation: a load restores the last
    # save plus the appends, deletes and updates logged since, so
    # registrations come before the first save.
    @precondition(lambda self: not self.saved)
    @rule(
        name=st.sampled_from(sorted(NAMES)),
        data=st.data(),
        fragmented=st.booleans(),
    )
    def register(self, name, data, fragmented):
        values = data.draw(st.lists(VALUES[NAMES[name]], max_size=8))
        bat = dense_bat(NAMES[name], values)
        if fragmented:
            self.pool.register_fragmented(name, fragment_bat(bat, POLICY), replace=True)
        else:
            self.pool.register(name, bat, replace=True)
        self.model[name] = list(values)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def append(self, data):
        name = self._draw_name(data)
        values = data.draw(st.lists(VALUES[NAMES[name]], max_size=6))
        self.pool.append(name, tails=values)
        self.model[name] += values

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        name = self._draw_name(data)
        rows = self.model[name]
        if not rows:
            return
        positions = data.draw(
            st.lists(st.integers(0, len(rows) - 1), max_size=3, unique=True)
        )
        self.pool.delete(name, positions)
        self.model[name] = [v for i, v in enumerate(rows) if i not in set(positions)]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def update(self, data):
        name = self._draw_name(data)
        rows = self.model[name]
        if not rows:
            return
        positions = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        values = [data.draw(VALUES[NAMES[name]]) for _ in positions]
        self.pool.update(name, positions, values)
        for position, value in zip(positions, values):
            rows[position] = value

    @rule()
    def merge(self):
        self.pool.merge_deltas(POLICY)

    @rule()
    def save(self):
        self.pool.save(self.directory)
        self.saved = True

    @precondition(lambda self: self.saved)
    @rule()
    def load(self):
        self.pool.close()
        self.pool = BATBufferPool.load(self.directory)

    @rule()
    def read_snapshot(self):
        snapshot = self.pool.read_snapshot()
        seen = {}
        for name in self.model:
            columns = _str_columns(snapshot.lookup_fragments(name))
            seen[name] = (
                snapshot.lookup(name).tail_list(),
                [(c.codes.copy(), len(c.heap)) for c in columns],
            )
        self.pinned.append((snapshot, seen))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def join_against(self, data):
        """Probe a str registration as a join build side, which builds
        (or reuses) its fragments' held indexes; the matches are the
        model's."""
        name = data.draw(st.sampled_from(sorted(self.model)))
        if NAMES[name] != "str":
            return
        probe = dense_bat("str", data.draw(st.lists(VALUES["str"], max_size=4)))
        value = self.pool.lookup_fragments(name)
        heads = [frag.tail for frag in value.fragments]
        pairs = kernel.probe_match_index(probe.tail, kernel.build_match_index(heads))
        rows = self.model[name]
        assert list(zip(*(p.tolist() for p in pairs))) == [
            (i, j)
            for i, needle in enumerate(probe.tail_list())
            for j, row in enumerate(rows)
            if needle is not None and row == needle
        ], name

    @invariant()
    def held_indexes_answer_their_own_codes(self):
        readers = [(self.pool, self.model)] + self.pinned
        for reader, names in readers:
            for name in names:
                for column in _str_columns(reader.lookup_fragments(name)):
                    index = column.match_index
                    if index is None:
                        continue
                    every_value = StrColumn(np.arange(len(column.heap)), column.heap)
                    probe_positions, build_positions = kernel.probe_match_index(
                        every_value, index
                    )
                    codes = column.codes
                    expected = np.flatnonzero(codes >= 0)
                    expected = expected[kernel.stable_order(codes[expected])]
                    assert probe_positions.tolist() == codes[expected].tolist(), name
                    assert build_positions.tolist() == expected.tolist(), name

    @invariant()
    def buns_equal_the_model(self):
        for name, rows in self.model.items():
            assert self.pool.lookup(name).tail_list() == rows, name

    @invariant()
    def snapshots_read_what_they_pinned(self):
        for snapshot, seen in self.pinned:
            for name, (rows, coded) in seen.items():
                assert snapshot.lookup(name).tail_list() == rows, name
                columns = _str_columns(snapshot.lookup_fragments(name))
                assert len(columns) == len(coded), name
                for column, (codes, heap_length) in zip(columns, coded):
                    assert column.codes.tolist() == codes.tolist(), name
                    assert codes.max(initial=-1) < heap_length <= len(column.heap), name
                    assert_codes_decode(column, name)

    @invariant()
    def one_heap_per_stored_str_column(self):
        for name in self.model:
            columns = _str_columns(self.pool.lookup_fragments(name))
            assert len({id(column.heap) for column in columns}) <= 1, name
            for column in columns:
                assert_codes_decode(column, name)


PoolMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=12, deadline=None
)
test_pool_state_machine = PoolMachine.TestCase
