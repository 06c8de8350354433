"""The CI regression gate compares rows by key and tolerates rows that
only one side has: a benchmark added in this run (no previous median)
or one the previous artifact had but this run dropped."""

import json

import check_regression


def _artifact(path, rows):
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def _row(op, median_ms, dtype="oid"):
    return {"op": op, "n": 50_000, "backend": "thread", "dtype": dtype,
            "mode": "smoke", "median_ms": median_ms}


def test_gate_passes_a_row_missing_from_the_previous_artifact(tmp_path, capsys):
    previous = _artifact(tmp_path / "previous.json", [_row("join(oid)", 10.0)])
    current = _artifact(
        tmp_path / "current.json",
        [_row("join(oid)", 11.0), _row("join(oid,sparse)", 500.0)],
    )
    assert check_regression.main([current, previous]) == 0
    assert "new       join(oid,sparse)" in capsys.readouterr().out


def test_gate_still_fails_a_matched_regression(tmp_path):
    previous = _artifact(tmp_path / "previous.json", [_row("join(oid)", 10.0)])
    current = _artifact(
        tmp_path / "current.json",
        [_row("join(oid)", 30.0), _row("join(oid,sparse)", 1.0)],
    )
    assert check_regression.main([current, previous]) == 1


def test_gate_passes_a_row_the_current_run_dropped(tmp_path):
    previous = _artifact(
        tmp_path / "previous.json", [_row("join(oid)", 10.0), _row("gone", 1.0)]
    )
    current = _artifact(tmp_path / "current.json", [_row("join(oid)", 9.0)])
    assert check_regression.main([current, previous]) == 0
