"""Tests for the benchmark's own helpers (no workload is run).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from spans import Patcher, SpanRecorder, Tracing
from timing import percentile, tail_percentile, valid_metric_name
from workloads import compare_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (125, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "name", ["setup_s", "run_p90_ms", "schedulers.decide_us_p50.lc-first", "9lives"]
)
def test_metric_name_pattern_accepts(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", "wall s", "-leading", ".leading", "µs", "a/b", "x" * 65]
)
def test_metric_name_pattern_rejects(name):
    assert not valid_metric_name(name)


def test_every_declared_name_and_unit_is_legal():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for key in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[key]]
        for metric in spec[key]:
            assert metric["better"] in ("higher", "lower")
            assert all(c.isalnum() or c in "_/%.-" for c in metric["unit"])
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_output_check_fails_on_a_one_byte_change():
    committed = ROOT / "benchmarks" / "output" / "fig10.txt"
    data = committed.read_bytes()
    assert compare_text(data.decode("utf-8"), committed) is None
    offset = len(data) // 2
    while not data[offset:offset + 1].isdigit():
        offset += 1
    digit = b"1" if data[offset:offset + 1] != b"1" else b"2"
    changed = data[:offset] + digit + data[offset + 1:]
    problem = compare_text(changed.decode("utf-8"), committed)
    assert problem is not None and f"byte {offset}" in problem
    assert compare_text(data[:-1].decode("utf-8"), committed) is not None


def test_self_time_is_never_negative_even_if_children_overrun():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 1.0)
    rec.add("child", 0.2, 0.7, parent=root)
    rec.add("child", 0.5, 1.4, parent=root)  # overlaps and overruns
    rec.add("child", -0.5, 0.1, parent=root)  # starts early
    selfs = rec.self_times()
    assert all(value >= 0.0 for value in selfs)
    assert selfs[root] == pytest.approx(0.1)


def test_self_times_of_nested_wrapped_calls_sum_to_the_root():
    tracing = Tracing()
    rec = tracing.recorder = SpanRecorder()
    leaf = tracing.span(lambda: sum(range(2000)), "leaf")
    middle = tracing.span(lambda: [leaf() for _ in range(3)], "middle")
    top = tracing.span(lambda: [middle() for _ in range(2)], "top")
    top()
    assert rec.parent[rec.indices("middle")[0]] == rec.indices("top")[0]
    assert len(rec.durations("leaf")) == 6
    selfs = rec.self_times()
    assert all(value >= 0.0 for value in selfs)
    assert sum(selfs) == pytest.approx(rec.total("top"), rel=1e-9, abs=1e-12)
    assert rec.outermost_total("leaf") == pytest.approx(rec.total("leaf"))
    assert rec.total_within("leaf", "middle") == pytest.approx(rec.total("leaf"))


def test_patcher_rebinds_every_import_and_restores(monkeypatch):
    def original():
        return "plain"

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    outsider = types.ModuleType("elsewhere")
    for module in (home, user, outsider):
        module.fn = original
        monkeypatch.setitem(sys.modules, module.__name__, module)
    patcher = Patcher(package="fakepkg")
    patcher.function("fakepkg.home", "fn", lambda fn: lambda: "wrapped " + fn())
    assert home.fn() == user.fn() == "wrapped plain"
    assert outsider.fn() == "plain"
    patcher.restore()
    assert home.fn is original and user.fn is original


def test_traced_json_carries_exactly_the_declared_per_layer_metrics():
    from layers import REPORTED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(REPORTED)
