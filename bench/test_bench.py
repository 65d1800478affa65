"""Tests of the benchmark itself: seeded generators and correctness gates.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json

import pytest

import run
import workloads
from tracing import COUNTED, SPANNED, Tracer, owner_of

CC = run.load_cctab()
Mode = CC["translate"].Mode

# Tiny instances of each workload, small enough to run in a test.
TINY = {
    "chain": lambda seed: workloads.chain(seed, n=5),
    "mixed": lambda seed: workloads.mixed(seed, k=2, v=5),
    "modules": lambda seed: workloads.modules(seed, m=4, s=4, queries=40, ground_share=0.3),
}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert (a.program, a.queries, a.expected) == (b.program, b.queries, b.expected)
    if name != "chain":  # the chain has no free choice
        assert workloads.build(name, 8).program != a.program


@pytest.mark.parametrize("name", sorted(TINY))
def test_gate_rejects_one_dropped_answer(name):
    wl = TINY[name](3)
    facts = run.oracle_reference(CC, wl)[0] if name == "mixed" else None
    rep = run.checked_rep(CC, wl, Mode.GENERAL, facts=facts)
    assert rep.failures == []
    assert rep.attempted == len(wl.queries) + 1 + (name == "mixed")

    rep = run.run_rep(CC, wl, Mode.GENERAL, facts=facts)
    victim = next(q for q in rep.queries if q.answers)
    del victim.answers[len(victim.answers) // 2]
    run.check_answers(wl, rep)
    assert len(rep.failures) == 1
    assert "missing 1" in rep.failures[0]


def test_gate_rejects_a_repeated_answer():
    got = [(1, 2), (1, 3), (1, 2)]
    assert "1 repeated" in workloads.gate(got, {(1, 2), (1, 3)})
    assert workloads.gate(got[:2], {(1, 2), (1, 3)}) == ""


def test_modules_reference_follows_links_only_onward():
    # 0 -> 1 by an edge, 1 ~> 5 by a link, 5 -> 6 by an edge: 5 itself is not
    # an answer, because the link rule needs one more step after the link.
    edges = {0: [1], 5: [6]}
    links = {1: [5]}
    assert workloads.reachable(0, edges, links) == {1, 6}


def test_clock_scales_by_the_calibrations_around_an_interval():
    clock = run.Clock()
    clock.times, clock.cals = [0.0, 10.0, 20.0], [0.01, 0.03, 0.01]
    # Between the marks at 10 s and 20 s the calibration took 0.03 and 0.01 s,
    # so the host ran at half the reference speed and 1 s counts as 0.5.
    assert clock.ref_s(11.0, 12.0) == pytest.approx(0.5 * 2 * run.CALIB_REF_S / 0.02)
    # Before the first mark and after the last, the nearest one stands for both sides.
    assert clock.ref_s(21.0, 22.0) == pytest.approx(run.CALIB_REF_S / 0.01)


def test_differing_counters_between_repetitions_are_flagged():
    wl = TINY["chain"](1)
    reps = [run.run_rep(CC, wl, Mode.GENERAL) for _ in range(2)]
    reps[1].counters.resumptions += 1
    problems = run.check_fingerprints(wl, reps, "test")
    assert problems and "differ between repetitions" in problems[0]


def test_traced_repetition_reports_every_listed_layer_metric():
    places = [(m, p) for m, p, _ in SPANNED] + [p for group in COUNTED for p in group]
    originals = [getattr(*owner_of(m, p)) for m, p in places]
    wl = TINY["mixed"](1)
    facts, _ = run.oracle_reference(CC, wl)
    tracer = Tracer()
    tracer.install()
    try:
        rep = run.checked_rep(CC, wl, Mode.GENERAL, facts=facts, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [getattr(*owner_of(m, p)) for m, p in places] == originals
    assert rep.failures == []

    metrics = run.per_layer(tracer, rep, wl)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert listed <= metrics.keys()
    for name in ("engine.run_self_s", "tabling.on_answer_s", "oracle.compare_s"):
        assert metrics[name][0] > 0
    assert metrics["engine.unify_calls"][0] > 0
    assert metrics["tabling.answers"][0] == rep.counters.answers
    # Every span is closed and has its parent open around it.
    for _name, start, end, parent, _qid in tracer.spans:
        assert end >= start
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_counters_are_compared_with_an_earlier_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = TINY["chain"](1)
    assert run.check_fingerprints(wl, [run.run_rep(CC, wl, Mode.GENERAL)], "code") == []
    assert run.check_fingerprints(wl, [run.run_rep(CC, wl, Mode.GENERAL)], "code") == []
    rep = run.run_rep(CC, wl, Mode.GENERAL)
    rep.counters.suspensions += 1
    problems = run.check_fingerprints(wl, [rep], "code")
    assert problems and "earlier run" in problems[0]
    # Other code is another key: nothing to compare with yet.
    assert run.check_fingerprints(wl, [rep], "other code") == []
