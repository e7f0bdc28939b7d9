"""Tests of the benchmark's own logic: inputs, span arithmetic, wrappers, checks.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import inputs
import layers
from inputs import Table
from spans import Span, Tracer, covered_length, layer_seconds, self_times
from speed import REFERENCE_PROBE_S, SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (needs the library source on the path)
import treefit  # noqa: E402
import treefit.io  # noqa: E402


def _digest(tables) -> str:
    return hashlib.sha256("".join(t.csv() for t in tables).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

GENERATORS = (inputs.desk_tables, inputs.tree_tables, inputs.planted_tables)


@pytest.mark.parametrize("make", GENERATORS)
def test_same_seed_gives_identical_tables(make):
    assert make(7) == make(7)
    assert _digest(make(7)) == _digest(make(7))
    assert _digest(make(7)) != _digest(make(8))


def test_tables_are_pinned():
    # a change here silently changes every workload's inputs
    assert _digest(inputs.desk_tables(0)) == "3d0a317735e2b973"
    assert _digest(inputs.tree_tables(0)) == "8c6469139241007b"
    assert _digest(inputs.planted_tables(0)) == "98365736e6332da4"


def test_same_seed_writes_identical_csv_files(tmp_path):
    api = layers.public_api(treefit)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run.prepare("planted-large", 3, tmp_path / sub, api, treefit)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["planted0.csv", "warmup.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_reorders_the_same_tables():
    # the seed moves the order of the batch, never a table
    for make in (inputs.desk_tables, inputs.tree_tables):
        a, b = make(1), make(2)
        assert a != b
        assert sorted(a, key=Table.csv) == sorted(b, key=Table.csv)


def test_workload_shapes():
    desk = inputs.desk_tables(1)
    assert len(desk) == inputs.DESK_TABLES
    assert {len(t.labels) for t in desk} == set(inputs.DESK_SIZES)
    assert all(1 <= v <= inputs.DESK_MAX_VALUE
               for t in desk for a, row in enumerate(t.rows) for b, v in enumerate(row)
               if a != b)
    (planted,) = inputs.planted_tables(1)
    d = treefit.DistanceMatrix.from_pairs(planted.labels, planted.pair_values())
    assert len(planted.labels) == inputs.PLANTED_N
    assert treefit.is_ultrametric(d.d)
    assert len(d.distinct_values()) == inputs.PLANTED_VALUES


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 4), (3, 6), (8, 12)]) == 7  # [1,6] + [8,10]
    assert covered_length(0, 10, [(-5, -1), (2, 2)]) == 0


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),   # overlaps a: the overlap is covered once
        Span("c", 8.0, 12.0, 0),  # runs past the parent: clipped at 10
        Span("d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_layer_seconds_counts_reentered_layer_once():
    spans = [
        Span("fit", 0.0, 10.0, None),
        Span("fit", 2.0, 6.0, 0),
        Span("lp", 3.0, 5.0, 1),
        Span("fit", 20.0, 21.0, None),
    ]
    inclusive, own = layer_seconds(spans)
    assert inclusive == {"fit": 11.0, "lp": 2.0}
    assert own == {"fit": 6.0 + 2.0 + 1.0, "lp": 2.0}


def test_tracer_records_nesting_counts_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)

    def count(counts, result):
        counts["inner.results"] += result

    tracer.wrap(ns, "inner", "inner", count)
    tracer.wrap(ns, "outer", "outer")
    assert ns.outer(1) == 4
    tracer.restore()
    assert (ns.inner, ns.outer) == originals
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, None), ("inner", 1.0, 2.0, 0)]
    assert tracer.counts == {"inner.results": 2}


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    ns = SimpleNamespace(boom=lambda: 1 / 0)
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    tracer.restore()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._open == []


def test_quantile_moves_smoothly_across_a_gap():
    before = [1.0] * 50 + [2.0] * 49
    after = [1.0] * 49 + [2.0] * 50  # one fit crosses the gap
    assert (statistics.median(before), statistics.median(after)) == (1.0, 2.0)
    assert 1.0 < run.quantile(before, 0.5) < run.quantile(after, 0.5) < 2.0
    assert run.quantile(after, 0.5) - run.quantile(before, 0.5) < 0.1
    assert run.quantile([3.0], 0.9) == 3.0


# ---------------------------------------------------------------------------
# Speed adjustment
# ---------------------------------------------------------------------------

def _meter(probes):
    """A meter holding hand-made probes: (start, seconds the probe took)."""
    meter = SpeedMeter()
    meter.starts = [start for start, _ in probes]
    meter.speeds = [REFERENCE_PROBE_S / took for _, took in probes]
    return meter


def test_adjusted_averages_speed_and_removes_probe_time():
    # full speed, then half speed: the mean speed is 3/4, not 1 / (3/2)
    meter = _meter([(1.0, REFERENCE_PROBE_S), (2.0, 2 * REFERENCE_PROBE_S)])
    assert meter.speed(0.5, 2.5) == 0.75
    # 4 s measured, 1 s of it in probes: 3 s at 3/4 speed
    assert meter.adjusted((0.5, 10.0), (4.5, 11.0)) == 3 * 0.75


def test_speed_of_a_span_without_probes_uses_its_neighbours():
    meter = _meter([(1.0, REFERENCE_PROBE_S), (5.0, 4 * REFERENCE_PROBE_S)])
    assert meter.speed(2.0, 3.0) == (1.0 + 0.25) / 2
    assert meter.speed(9.0, 9.5) == 0.25
    with pytest.raises(RuntimeError):
        _meter([]).speed(0.0, 1.0)


def test_meter_probes_while_running_and_stops():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter() as meter:
        begin = meter.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        finish = meter.mark()
    count = len(meter.speeds)
    time.sleep(0.05)
    assert count >= 5 and len(meter.speeds) == count
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < meter.adjusted(begin, finish) < 0.2 * max(meter.speeds)


# ---------------------------------------------------------------------------
# Wrappers on the library
# ---------------------------------------------------------------------------

def _wrapped_attributes(api):
    import scipy.optimize
    from treefit import hca, hcc, lp, treemetric, ultrametric

    owners = (api, treemetric, ultrametric, hcc, hca, lp, lp.LinearProgram,
              lp.LpSolution, scipy.optimize)
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_install_wraps_in_callers_and_restore_undoes_it():
    api = layers.public_api(treefit)
    before = _wrapped_attributes(api)
    tracer = Tracer()
    layers.install(tracer, api)
    try:
        from treefit import hca, hcc

        assert hca.build_lp is not hcc.build_lp  # one wrapper per caller
        table = inputs.random_table(inputs._rng("test", 0), 7, 3)
        d = treefit.DistanceMatrix.from_pairs(table.labels, table.pair_values())
        traced = api.fit_ultrametric(d)
    finally:
        tracer.restore()
    after = _wrapped_attributes(api)
    assert all(after[key] is value for key, value in before.items())
    plain = treefit.fit_ultrametric(d)
    assert (traced.l1_error, traced.lp_lower_bound) == (plain.l1_error, plain.lp_lower_bound)
    assert treefit.io.newick_string(traced) == treefit.io.newick_string(plain)
    names = {s.name for s in tracer.spans}
    assert {"api.fit_ultrametric", "hcc.fit_hcc", "corrclust.corr_cluster",
            "lp.build_lp.bound", "lp.solve_lp.bound", "simplex.solve_dense"} <= names
    values = layers.layer_values(tracer.spans, tracer.counts)
    assert values["lp.solves.simplex"] >= 1 and values["simplex.iterations"] >= 1


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def _fit_case(kind: str):
    table = inputs.random_table(inputs._rng("test", 1), 6, 3)
    d = treefit.DistanceMatrix.from_pairs(table.labels, table.pair_values())
    fit = treefit.fit_ultrametric if kind == "ultrametric" else treefit.fit_tree_metric
    return run.Case(table, kind, False, lambda: (fit(d), None))


@pytest.mark.parametrize("kind", ["ultrametric", "tree"])
def test_check_accepts_a_true_fit_and_rejects_a_wrong_error(kind):
    case = _fit_case(kind)
    fitted, newick = case.call()
    assert run.check_fit(case, (fitted, newick)) == []
    wrong = dataclasses.replace(fitted, l1_error=fitted.l1_error + 1.0)
    assert any("l1_error" in p for p in run.check_fit(case, (wrong, newick)))


def test_check_rejects_a_bound_above_the_error():
    case = _fit_case("ultrametric")
    fitted, newick = case.call()
    wrong = dataclasses.replace(fitted, lp_lower_bound=fitted.l1_error + 1.0)
    assert any("lp_lower_bound" in p for p in run.check_fit(case, (wrong, newick)))


def test_check_rejects_a_planted_fit_with_other_distances():
    planted = inputs.planted_table(inputs._rng("test", 2), 12, 4)
    other = inputs.planted_table(inputs._rng("test", 3), 12, 4)
    d = treefit.DistanceMatrix.from_pairs(other.labels, other.pair_values())
    case = run.Case(planted, "ultrametric", True, lambda: None)
    problems = run.check_fit(case, (treefit.fit_ultrametric(d), None))
    assert any("planted" in p for p in problems)


def test_check_counts_a_raised_fit():
    case = _fit_case("ultrametric")
    assert run.check_fit(case, ValueError("boom"))[0].startswith("raised")


def test_check_rejects_a_negative_or_disconnected_tree():
    labels = ("a", "b", "c")
    assert run.tree_problems(SimpleNamespace(edges=(("a", "b", 1.0), ("b", "c", -1.0))), labels)
    assert run.tree_problems(
        SimpleNamespace(edges=(("a", "b", 1.0), ("c", "x", 1.0), ("x", "y", 1.0))), labels)


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
