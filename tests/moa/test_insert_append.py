"""The Moa write path: in-place delta mutations vs independent models.

Every insert, delete and update of every type tree goes through the
mapper hooks and the pool's logged delta path, and a load is an append
to an empty collection.  The references share no code with that path:
a plain-Python model of the collection mutated alongside, and the
tuple-at-a-time interpreter over the reconstructed values.  Whatever
the delta path produces must equal the model, a ``replace`` of the
model, and however the rows were split into batches -- same contents,
same physical names, the same Section 3 ranking -- across flat tuples,
nested SETs/LISTs, doubly nested tuples, CONTREP, and fragmentation
promotion.  Plus the ``insert into ... values (...)`` DDL statement
that rides on top.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mirror import MirrorDBMS
from repro.moa.ddl import parse_insert, parse_script, InsertStatement
from repro.moa.errors import MoaParseError, MoaTypeError
from repro.moa.structures.contrep import ContentRepresentation
from repro.monet.fragments import FragmentationPolicy
from repro.workloads import SECTION3_QUERY
from tests.conftest import CRASH_SHAPES

NESTED_DDL = (
    "define Lib as SET<TUPLE<Atomic<str>: source, Atomic<int>: size, "
    "SET<Atomic<str>>: tags, LIST<Atomic<int>>: seq>>;"
)


def _rows(start, stop):
    return [
        {
            "source": f"s{i}",
            "size": i,
            "tags": [f"t{i}", "common"],
            "seq": [i, i + 1, i + 2],
        }
        for i in range(start, stop)
    ]


def _reload_reference(threshold, rows_a, rows_b):
    """The pre-append behaviour: load everything in one shot."""
    db = MirrorDBMS(fragment_threshold=threshold)
    db.define(NESTED_DDL)
    db.replace("Lib", rows_a + rows_b)
    return db


@pytest.mark.parametrize("threshold", [None, 4])
def test_insert_append_matches_reload(threshold):
    db = MirrorDBMS(fragment_threshold=threshold)
    db.define(NESTED_DDL)
    db.insert("Lib", _rows(0, 3))
    assert db.insert("Lib", _rows(3, 9)) == 9
    reference = _reload_reference(threshold, _rows(0, 3), _rows(3, 9))
    assert db.contents("Lib") == reference.contents("Lib")
    assert db.count("Lib") == reference.count("Lib")
    assert sorted(db.bat_names("Lib")) == sorted(reference.bat_names("Lib"))
    # Queries over the appended state agree too.
    query = "map[THIS.size](select[THIS.size > 4](Lib));"
    assert sorted(db.query(query).value) == sorted(reference.query(query).value)


def test_append_preserves_extent_flags():
    db = MirrorDBMS()
    db.define(NESTED_DDL)
    db.insert("Lib", _rows(0, 3))
    db.insert("Lib", _rows(3, 6))
    extent = db.pool.lookup("Lib.__extent__")
    assert extent.tkey and extent.tsorted
    assert extent.tail_list() == list(range(6))


def test_append_promotes_to_fragments_across_threshold():
    db = MirrorDBMS(fragment_threshold=5)
    db.define(NESTED_DDL)
    db.insert("Lib", _rows(0, 3))
    assert not db.pool.is_fragmented("Lib.source")
    db.insert("Lib", _rows(3, 9))
    assert db.pool.is_fragmented("Lib.source")
    # The extent stays monolithic by design.
    assert not db.pool.is_fragmented("Lib.__extent__")
    assert db.contents("Lib") == _rows(0, 9)


def test_append_is_snapshot_isolated():
    db = MirrorDBMS()
    db.define(NESTED_DDL)
    db.insert("Lib", _rows(0, 3))
    snapshot = db.pool.read_snapshot()
    db.insert("Lib", _rows(3, 6))
    assert len(snapshot.lookup("Lib.__extent__")) == 3
    assert db.count("Lib") == 6


def test_atomic_element_append():
    db = MirrorDBMS()
    db.define("define Words as SET<Atomic<str>>;")
    db.insert("Words", ["alpha"])
    db.insert("Words", ["beta", None])
    assert db.contents("Words") == ["alpha", "beta", None]


# ----------------------------------------------------------------------
# Differential: the delta path vs the reconstruct+reload oracle
# ----------------------------------------------------------------------

COLLECTION = "TraditionalImgLib"
#: Every mapper in one type tree: the CONTREP attribute the Section 3
#: ranking reads, a SET and a LIST of atomics, and a doubly nested SET.
MIXED_DDL = (
    f"define {COLLECTION} as SET<TUPLE<Atomic<URL>: source, Atomic<int>: n, "
    "CONTREP<Text>: annotation, SET<Atomic<str>>: tags, "
    "LIST<Atomic<int>>: seq, "
    "SET<TUPLE<Atomic<str>: k, SET<TUPLE<Atomic<int>: v>>: inner>>: parts>>;"
)
MIXED_FIELDS = ("source", "n", "annotation", "tags", "seq", "parts")
WORDS = ["sunset", "beach", "sea", "wave", "sand", "storm"]
QUERY = ["sunset", "sea", "storm"]


def _maybe(rng, value):
    return None if rng.random() < 0.3 else value


def _collection(rng, item):
    """NIL, empty, or a few items."""
    if rng.random() < 0.15:
        return None
    return [item() for _ in range(rng.randint(0, 3))]


def _text(rng):
    """NIL, empty, or a few words with repeats (tf > 1)."""
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return ""
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))


def _row(rng, i):
    return {
        "source": _maybe(rng, f"u{i}"),
        "n": _maybe(rng, rng.randint(0, 3)),
        "annotation": _text(rng),
        "tags": _collection(rng, lambda: _maybe(rng, rng.choice(WORDS))),
        "seq": _collection(rng, lambda: _maybe(rng, rng.randint(-5, 5))),
        "parts": _collection(
            rng,
            lambda: {
                "k": _maybe(rng, rng.choice(WORDS)),
                "inner": _collection(
                    rng, lambda: {"v": _maybe(rng, rng.randint(0, 9))}
                ),
            },
        ),
    }


def _where(rng, values):
    """Everything, nothing, a field literal (possibly NIL, which
    matches nothing), or a Python predicate."""
    roll = rng.randrange(5)
    if roll == 0:
        return None
    if roll == 1:
        return {"n": 99}
    if roll == 2:
        return {"n": rng.randint(0, 3)}
    if roll == 3:
        return {"source": rng.choice([v["source"] for v in values] or [None])}
    parity = rng.randrange(2)
    return lambda v: v["n"] is not None and v["n"] % 2 == parity


def _matches(values, where):
    if where is None:
        return list(range(len(values)))
    if callable(where):
        return [i for i, v in enumerate(values) if where(v)]
    return [
        i
        for i, v in enumerate(values)
        if all(lit is not None and v[f] == lit for f, lit in where.items())
    ]


def _modelled(row):
    """The fields of *row* as ``contents`` reads them back: a NIL
    collection is empty and an annotation is its content
    representation."""
    out = dict(row)
    for name in ("tags", "seq"):
        if name in out:
            out[name] = out[name] or []
    if "parts" in out:
        out["parts"] = [
            {"k": part["k"], "inner": part["inner"] or []}
            for part in out["parts"] or []
        ]
    if "annotation" in out:
        out["annotation"] = ContentRepresentation.from_value(
            out["annotation"], "Text"
        )
    return out


def _reload_oracle(oracle, model, kind, payload, where):
    """The reference: mutate the plain-Python *model* in place, then
    reload it whole into *oracle* with ``replace`` (delete-all +
    insert).  Returns how many rows the mutation touches."""
    matched = _matches(model, where)
    if kind == "insert":
        model += [_modelled(row) for row in payload]
        matched = payload
    elif kind == "delete":
        doomed = set(matched)
        model[:] = [v for i, v in enumerate(model) if i not in doomed]
    else:
        for i in matched:
            model[i] = {**model[i], **_modelled(payload)}
    oracle.replace(COLLECTION, model)
    return len(matched)


def _mixed_db(threshold):
    """A MIXED_DDL database; with a threshold, attribute BATs split into
    fragments of 4 BUNs, so mutations cross fragment boundaries."""
    policy = FragmentationPolicy(target_size=4) if threshold else None
    db = MirrorDBMS(fragment_threshold=threshold, fragment_policy=policy)
    db.define(MIXED_DDL)
    return db


def _ranking(db):
    """The compiled Section 3 ranking, with statistics of *db*'s state."""
    stats = db.stats(COLLECTION, "annotation")
    return db.query(SECTION3_QUERY, {"query": QUERY, "stats": stats}).value


@pytest.mark.parametrize("threshold", [None, 4])
@pytest.mark.parametrize("seed", range(4))
def test_delta_path_matches_reload_oracle(seed, threshold):
    rng = random.Random(seed)
    db, oracle = _mixed_db(threshold), _mixed_db(threshold)
    rows = [_row(rng, i) for i in range(8)]
    db.insert(COLLECTION, rows)
    oracle.insert(COLLECTION, rows)
    model = [_modelled(row) for row in rows]
    for step in range(14):
        kind = rng.choice(["insert", "delete", "update", "update"])
        where = None if kind == "insert" else _where(rng, model)
        if kind == "insert":
            payload = [_row(rng, 100 * step + j) for j in range(rng.randint(0, 3))]
        elif kind == "update":
            fields = rng.sample(MIXED_FIELDS, rng.randint(1, 3))
            fresh = _row(rng, 100 * step)
            payload = {f: fresh[f] for f in fields}
        else:
            payload = None

        pinned = db.begin()
        stats_before = db.stats(COLLECTION, "annotation")
        old_params = {"query": QUERY, "stats": stats_before}
        before = (db.count(COLLECTION), db.query(SECTION3_QUERY, old_params).value)

        expected = _reload_oracle(oracle, model, kind, payload, where)
        if kind == "insert":
            db.insert(COLLECTION, payload)
            got = len(payload)
        elif kind == "delete":
            got = db.delete(COLLECTION, where=where)
        else:
            got = db.update(COLLECTION, payload, where=where)
        context = f"seed {seed} step {step}: {kind} {payload!r} where {where!r}"
        assert got == expected, context
        assert db.contents(COLLECTION) == model, context
        assert oracle.contents(COLLECTION) == model, context

        params = {"query": QUERY, "stats": db.stats(COLLECTION, "annotation")}
        ranking = db.query(SECTION3_QUERY, params).value
        assert ranking == pytest.approx(
            db.query_interpreted(SECTION3_QUERY, params), abs=1e-9
        ), context
        assert ranking == pytest.approx(_ranking(oracle), abs=1e-9), context

        # The snapshot pinned before the step still answers the old state.
        assert pinned.count(COLLECTION) == before[0], context
        assert pinned.query(SECTION3_QUERY, old_params).value == before[1], context
        pinned.abort()


@pytest.mark.parametrize("threshold", [None, 4], ids=["monolithic", "fragmented"])
@pytest.mark.parametrize("shape", sorted(CRASH_SHAPES))
def test_batch_split_and_replace_match_one_insert(shape, threshold):
    """One insert of N NIL-heavy rows, the same rows in k random
    batches, and a ``replace`` over a garbage state all write the same
    collection: equal contents and equal compiled answers (the Section 3
    ranking for CONTREP, within 1e-9)."""
    element, value = CRASH_SHAPES[shape]
    rng = random.Random(f"{shape}-{threshold}")
    policy = FragmentationPolicy(target_size=4) if threshold else None
    rows = [
        {"k": None if i % 3 == 2 else f"k{i % 5}", "s": value(i)}
        for i in range(13)
    ]

    def fresh():
        db = MirrorDBMS(fragment_threshold=threshold, fragment_policy=policy)
        db.define(f"define C as SET<TUPLE<Atomic<str>: k, {element}: s>>;")
        return db

    one = fresh()
    one.insert("C", rows)
    split = fresh()
    cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(1, 5)))
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        split.insert("C", rows[lo:hi])
    split.insert("C", [])
    replaced = fresh()
    replaced.insert("C", [{"k": "junk", "s": value(i)} for i in range(20, 29)])
    replaced.delete("C", where={"k": "junk"})
    replaced.insert("C", [{"k": None, "s": value(i)} for i in range(30, 35)])
    replaced.update("C", {"s": value(1)}, where=lambda v: v["k"] is None)
    assert replaced.replace("C", rows) == len(rows)

    def ranking(db):
        params = {"query": ["sea", "sunset"], "stats": db.stats("C", "s")}
        return db.query(
            "map[sum(THIS)](map[getBL(THIS.s, query, stats)](C));", params
        ).value

    # The compiler does not reach into a doubly nested SET.
    probe = "map[THIS.k](C);" if shape == "set-of-set" else (
        "map[THIS.s](select[THIS.k = 'k1'](C));"
    )
    assert len(one.contents("C")) == len(rows)
    for db in (split, replaced):
        assert db.contents("C") == one.contents("C")
        assert db.query(probe).value == one.query(probe).value
        if shape == "contrep":
            assert ranking(db) == pytest.approx(ranking(one), abs=1e-9)


def _registration(pool, name):
    if pool.is_fragmented(name):
        return pool.lookup_fragments(name)
    return pool.lookup(name)


def test_contrep_mutations_extend_in_place():
    """No reload: a CONTREP insert shares every committed fragment of
    the posting BATs, and an update of the CONTREP attribute alone
    leaves every other attribute BAT the very same object."""
    rng = random.Random(7)
    db = _mixed_db(4)
    rows = [_row(rng, i) for i in range(12)]
    rows[3]["source"] = "target"
    db.insert(COLLECTION, rows)
    term = f"{COLLECTION}.annotation.term"
    first = db.pool.lookup_fragments(term).fragments[0]
    db.insert(COLLECTION, [{**_row(rng, 99), "annotation": "sea storm sea"}])
    assert db.pool.lookup_fragments(term).fragments[0] is first

    names = db.bat_names(COLLECTION)
    before = {name: _registration(db.pool, name) for name in names}
    assert db.update(
        COLLECTION, {"annotation": "storm sea sea"}, where={"source": "target"}
    ) == 1
    contrep = f"{COLLECTION}.annotation."
    for name in names:
        if not name.startswith(contrep):
            assert _registration(db.pool, name) is before[name], name
    assert db.contents(COLLECTION)[3]["annotation"].terms == {"storm": 1, "sea": 2}


def test_update_promotes_across_threshold_like_insert():
    """An update that grows the posting BATs past the threshold promotes
    them to fragments exactly as an insert of the same rows does."""
    threshold = 8
    ddl = "define Docs as SET<TUPLE<Atomic<str>: id, CONTREP<Text>: body>>;"
    wide = " ".join(WORDS + ["river", "valley", "bridge"])
    grown = {}
    for how in ("insert", "update"):
        db = MirrorDBMS(fragment_threshold=threshold)
        db.define(ddl)
        db.insert("Docs", [{"id": "a", "body": "sea"}, {"id": "b", "body": "sand"}])
        assert not db.pool.is_fragmented("Docs.body.owner")
        if how == "insert":
            db.insert("Docs", [{"id": "c", "body": wide}])
            db.delete("Docs", where={"id": "a"})
        else:
            db.update("Docs", {"body": wide}, where={"id": "a"})
            db.update("Docs", {"id": "c"}, where={"id": "a"})
        grown[how] = {
            name: db.pool.is_fragmented(name) for name in db.bat_names("Docs")
        }
        assert sorted(db.contents("Docs"), key=lambda d: d["id"])[1]["id"] == "c"
    assert grown["update"] == grown["insert"]
    for suffix in ("owner", "term", "tf"):
        assert grown["update"][f"Docs.body.{suffix}"], suffix


# ----------------------------------------------------------------------
# insert-into DDL statements
# ----------------------------------------------------------------------


def test_parse_insert_literals():
    statement = parse_insert(
        'insert into Nums values (1, "a", 2.5, nil, true, -3, -4.5);'
    )
    assert statement.name == "Nums"
    assert statement.rows == [[1, "a", 2.5, None, True, -3, -4.5]]


def test_parse_insert_multiple_rows():
    statement = parse_insert("insert into T values (1), (2), (3);")
    assert statement.rows == [[1], [2], [3]]


def test_parse_script_mixed_statements():
    statements = parse_script(
        "define A as SET<Atomic<int>>;\ninsert into A values (1), (2);"
    )
    assert len(statements) == 2
    assert isinstance(statements[1], InsertStatement)


@pytest.mark.parametrize(
    "bad",
    [
        "insert into T values;",
        "insert T values (1);",
        "insert into T values (1,);",
        "insert into T values (-);",
        "insert into T values (foo);",
    ],
)
def test_parse_insert_rejects_malformed(bad):
    with pytest.raises(MoaParseError):
        parse_insert(bad)


def test_execute_script_end_to_end():
    db = MirrorDBMS()
    outcomes = db.execute(
        "define Nums as SET<TUPLE<Atomic<int>: v, Atomic<str>: s>>;\n"
        'insert into Nums values (1, "a"), (2, "b");\n'
        "insert into Nums values (3, nil);"
    )
    assert len(outcomes) == 3
    assert db.count("Nums") == 3
    contents = db.contents("Nums")
    assert contents[0] == {"v": 1, "s": "a"}
    assert contents[2] == {"v": 3, "s": None}


def test_execute_arity_mismatch_rejected():
    db = MirrorDBMS()
    db.define("define Nums as SET<TUPLE<Atomic<int>: v, Atomic<str>: s>>;")
    with pytest.raises(MoaTypeError, match="expected 2 literals"):
        db.execute("insert into Nums values (1);")
