#!/usr/bin/env python3
"""cctab benchmark: seeded workloads through the public pipeline, checked.

    python3 bench/run.py --workload chain|mixed|modules --seed N --seconds S --trace 0|1

Run from a checkout of the repository: cctab is imported from its src/ and
nothing is installed.  One repetition runs

    parse_program -> find_bridges -> translate -> Engine(...) -> Engine.solve

on the workload's program and queries (plus compare_answer_sets on `mixed`),
in one process and one thread.  Queries form a closed loop with one client:
each is sent after the previous one is exhausted.  A run first sets up alone
for a share of --seconds, then repeats until the next repetition would end
after --seconds (at least MIN_REPS of them); metrics are medians over the
set-ups, over the repetitions for each place in the order of queries, or
over the pooled queries.  On `mixed` the bottom-up oracle
is evaluated once per run, before the repetitions, because its fixpoint
depends only on the program.

Times are reported in reference seconds (see Clock): each measured interval
is scaled by how fast the host ran a fixed calibration loop just before and
just after it, so that the host's own changes of speed cancel.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced repetitions and reports per-layer metrics,
self times and the tracing overhead; on `chain` it also runs the legacy
translation.  Every answer is checked against a reference that does not come
from the engine, and the tabling counters must repeat exactly between
repetitions and between runs of the same code and seed.

Human-readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists for the chosen --trace.  A fuller record, and with
--trace 1 the spans of the first traced repetition, go to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPS = 3  # untraced repetitions, at least, for the medians
SETUP_SHARE = 0.15  # of --seconds spent on set-ups timed alone, before the repetitions
MIN_SETUPS = 5  # set-ups timed alone, at least
MIN_TRACED_CYCLES = 2  # (untraced, [legacy,] traced) cycles in a traced run
HARD_LIMIT_S = 120.0  # never start a repetition expected to end later than this
MARK_EVERY_S = 0.05  # calibrate between operations at most this often
CALIB_REF_S = 0.005  # what calibrate() takes at the reference speed

perf_counter = time.perf_counter


def load_cctab():
    """Import cctab from this checkout's src/, never from anywhere else."""
    if not (SRC / "cctab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cctab sources in {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    cc = importlib.import_module("cctab")
    if Path(cc.__file__).resolve().parent != (SRC / "cctab").resolve():
        raise SystemExit(f"bench: imported cctab from {cc.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"cctab.{name}")
            for name in ("syntax", "bridges", "translate", "tabling", "oracle", "terms")}


# -- reference seconds ---------------------------------------------------------------


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that touches no cctab code:
    calls, tuples, dict lookups and list appends, as an interpreter-bound
    program does.  The collector is off, so the size of cctab's heap does not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        buckets: dict = {}
        for i in range(20000):
            key = (i * 31) % 97
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
            bucket.append((i, i & 7, key))

        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        fib(16)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Turns a measured (start, end) interval into reference seconds.

    The host's speed drifts: on a shared 2-vCPU VM the same cold chain query
    took from 0.74 s to 1.36 s within one minute, with CPU time equal to wall
    time.  So the clock times calibrate() between operations, at most every
    MARK_EVERY_S, and scales an interval by CALIB_REF_S over the mean of the
    calibrations just before and just after it.  The calibration runs no cctab
    code, so a change to cctab moves reference seconds as it moves seconds.
    """

    def __init__(self):
        self.times: list = []  # when each calibration ended
        self.cals: list = []  # what each took
        self.mark()

    def mark(self, every: float = 0.0):
        """Calibrate, unless the last calibration ended less than `every` seconds ago."""
        if self.times and perf_counter() - self.times[-1] < every:
            return
        self.cals.append(calibrate())
        self.times.append(perf_counter())

    def ref_s(self, start: float, end: float) -> float:
        before = self.cals[max(bisect.bisect_right(self.times, start) - 1, 0)]
        after = self.cals[min(bisect.bisect_left(self.times, end), len(self.cals) - 1)]
        return (end - start) * 2 * CALIB_REF_S / (before + after)


# -- one repetition ------------------------------------------------------------------


@dataclass
class Query:
    text: str
    # perf_counter() at parse_query, at the first answer (None when there is
    # none) and at the exhaustion of Engine.solve
    start: float = 0.0
    first: float = None
    end: float = 0.0
    wrote: bool = False  # created at least one generator
    answers: list = field(default_factory=list)  # answer terms; dropped once checked
    count: int = 0  # number of answers
    digest: str = ""  # of the sorted answer set
    goal: object = None
    error: str = ""


@dataclass
class Rep:
    mode: str
    setup: tuple = None  # (start, end) of set-up
    compare: tuple = None  # (start, end) of compare_answer_sets, on mixed
    queries: list = field(default_factory=list)
    counters: object = None
    ir: dict = field(default_factory=dict)  # sizes before and after translate
    attempted: int = 0
    failures: list = field(default_factory=list)

    def cold_s(self, clock) -> float:
        """Reference seconds of the first query."""
        return clock.ref_s(self.queries[0].start, self.queries[0].end)

    def total_s(self, clock) -> float:
        """Set-up plus every query, in reference seconds; calibrations in between are left out."""
        return clock.ref_s(*self.setup) + sum(clock.ref_s(q.start, q.end) for q in self.queries)

    def fingerprint(self) -> list:
        """What must repeat exactly: tabling counters and each query's answer set,
        in the form it takes after a round trip through JSON."""
        return [dataclasses.asdict(self.counters) if self.counters else None,
                [[q.count, q.digest] for q in self.queries]]


def run_query(cc, engine, text: str) -> Query:
    q = Query(text)
    generators = engine.counters.generators
    q.start = perf_counter()
    try:
        q.goal = cc["syntax"].parse_query(text)[0]
        for solution in engine.solve([q.goal]):
            if q.first is None:
                q.first = perf_counter()
            q.answers.append(solution.goals[0])
    except Exception:
        q.error = traceback.format_exc(limit=3)
    q.end = perf_counter()
    q.wrote = engine.counters.generators > generators
    return q


def setup(cc, wl, mode):
    """(program, bridges found, translated program, engine): everything before the first query."""
    program = cc["syntax"].parse_program(wl.program)
    found = cc["bridges"].find_bridges(program)
    analyzed = cc["terms"].Program(program.clauses, program.tabled, program.bridges | found)
    translated = cc["translate"].translate(analyzed, mode)
    return program, found, translated, cc["tabling"].Engine(translated, mode=mode)


def oracle_reference(cc, wl, clock=None):
    """Evaluate the bottom-up oracle once and fill in the workload's reference
    answers from it.  Returns (facts, reference seconds of bottom_up_eval)."""
    clock = clock or Clock()
    program = cc["syntax"].parse_program(wl.program)
    clock.mark()
    start = perf_counter()
    facts = cc["oracle"].bottom_up_eval(program)
    end = perf_counter()
    clock.mark()
    for text, expected in wl.expected.items():
        if expected is None:
            goal = cc["syntax"].parse_query(text)[0]
            wl.expected[text] = workloads.oracle_expected(facts, goal)
    return facts, clock.ref_s(start, end)


def run_rep(cc, wl, mode, clock=None, facts=None, tracer=None) -> Rep:
    """Set up and run every query of the workload once; check_answers checks them.

    On mixed, `facts` is the oracle's fixpoint, which compare_answer_sets
    checks the engine's completed table against."""
    terms = cc["terms"]
    clock = clock or Clock()
    rep = Rep(mode.value)
    rep.attempted += 1
    clock.mark(MARK_EVERY_S)
    start = perf_counter()
    try:
        program, found, translated, engine = setup(cc, wl, mode)
    except Exception:
        rep.failures.append("set-up raised:\n" + traceback.format_exc(limit=3))
        return rep
    rep.setup = (start, perf_counter())
    for i, text in enumerate(wl.queries):
        clock.mark(MARK_EVERY_S)
        if tracer is not None:
            tracer.qid = i
        rep.queries.append(run_query(cc, engine, text))
    if tracer is not None:
        tracer.qid = -1
    if facts is not None:
        goal = rep.queries[0].goal
        rep.attempted += 1
        clock.mark(MARK_EVERY_S)
        start = perf_counter()
        try:
            equal, missing, extra = cc["oracle"].compare_answer_sets(
                engine.space, facts, terms.pred_of(goal), call=goal)
        except Exception:
            rep.failures.append("oracle raised:\n" + traceback.format_exc(limit=3))
        else:
            if not equal:
                rep.failures.append(
                    f"compare_answer_sets: {len(missing)} missing, {len(extra)} extra")
        rep.compare = (start, perf_counter())
    clock.mark()

    # Untimed from here on.
    rep.counters = engine.counters.snapshot()
    rep.ir = {
        "clauses_in": len(program.clauses),
        "bridges": len(found),
        "clauses_out": len(translated.clauses),
        "cells_out": sum(terms.term_size(c.head) + sum(terms.term_size(g) for g in c.body)
                         for c in translated.clauses),
    }
    return rep


def check_answers(wl, rep) -> Rep:
    """Count each query as attempted, fail the ones whose answers differ from the
    reference, and drop the answers so that repetitions do not pile up memory."""
    for q in rep.queries:
        rep.attempted += 1
        got = [workloads.answer_tuple(t) for t in q.answers]
        q.count = len(got)
        q.digest = hashlib.sha256(repr(sorted(got)).encode()).hexdigest()[:16]
        q.answers = q.goal = None
        if q.error:
            rep.failures.append(f"{q.text} raised:\n{q.error}")
            continue
        expected = wl.expected[q.text]
        if expected is None:
            rep.failures.append(f"{q.text}: no oracle reference")
            continue
        verdict = workloads.gate(got, expected)
        if verdict:
            rep.failures.append(f"{q.text}: {verdict}")
    return rep


def checked_rep(cc, wl, mode, clock=None, facts=None, tracer=None) -> Rep:
    return check_answers(wl, run_rep(cc, wl, mode, clock, facts, tracer))


# -- repetition loops ----------------------------------------------------------------


def repeat(one, seconds: float, min_reps: int) -> list:
    """Call one() until the next call would end after `seconds` (at least min_reps times)."""
    out = []
    start = perf_counter()
    while True:
        gc.collect()
        t = perf_counter()
        out.append(one())
        last = perf_counter() - t
        projected = perf_counter() - start + last
        if projected > HARD_LIMIT_S or (len(out) >= min_reps and projected > seconds):
            return out


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def percentile(values, p: int):
    """The p-th percentile, or nan when fewer than 10 samples lie beyond it."""
    if len(values) * (100 - p) / 100 < 10:
        return float("nan")
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(wl, reps, clock, setups: list, peak_rss_mb: float) -> dict:
    """Every end-to-end metric, by name: (value, unit).  Times are reference seconds.

    A query's latency runs from parse_query to the exhaustion of Engine.solve;
    it is a write when it created a generator and a read otherwise.  On chain
    and mixed the cold query is the one write and its re-query the one read
    of a repetition, so solve_s and write_p50_ms measure the same query there.
    Every repetition sends the same queries in the same order, so the median
    latency of each place in that order is taken across repetitions; a slow
    spell of the host then spoils one sample of many places, not the median.

    setup_s         parse_program + find_bridges + translate + Engine(...), over
                    the set-ups alone and those of the repetitions
    solve_s         the cold query; on modules, the whole stream: the sum of the
                    median latencies of its places
    first_answer_s  parse_query to the first answer: of the cold query, or the
                    median over the stream's queries on modules
    read_p50_ms, write_p50_ms  median latency of reads, of writes
    total_s         setup_s plus the median latencies of every place; the oracle
                    is timed apart (oracle_s)
    peak_rss_mb     peak resident memory of the process, read after the first
                    repetition, so that it does not grow with the number of
                    repetitions the host's speed allows
    The rest are printed but not listed in BENCHMARK.json, which lists only
    metrics that every workload has.
    """
    ref = clock.ref_s
    done = [r for r in reps if r.queries]
    places = [median(ref(q.start, q.end) for q in col if not q.error)
              for col in zip(*(r.queries for r in done))]
    ok = [q for r in done for q in r.queries if not q.error]
    latencies = [ref(q.start, q.end) for q in ok]
    reads = [t for q, t in zip(ok, latencies) if not q.wrote]
    writes = [t for q, t in zip(ok, latencies) if q.wrote]
    cold = ok if wl.stream else [r.queries[0] for r in done]
    solve_s = sum(places) if wl.stream else places[0]
    setup_s = median([ref(*s) for s in setups] + [ref(*r.setup) for r in done])
    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failures) for r in reps)
    m = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "first_answer_s": (median(ref(q.start, q.first) for q in cold if q.first), "s"),
        "read_p50_ms": (median(reads) * 1e3, "ms"),
        "write_p50_ms": (median(writes) * 1e3, "ms"),
        "total_s": (setup_s + sum(places), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    if wl.stream:
        m["query_p50_ms"] = (median(latencies) * 1e3, "ms")
        m["query_p99_ms"] = (percentile(latencies, 99) * 1e3, "ms")
        m["queries_per_s"] = (len(places) / solve_s, "1/s")
    return m


def per_layer(tracer, rep, wl) -> dict:
    """Per-layer metrics of one traced repetition, by name: (value, unit).

    Times are self times in seconds as measured: a span's duration minus its
    child spans.  What each should move, written down before any change that
    claims a gain:
    syntax.*, bridges.*, translate.*, engine.index_s -> setup_s, mostly on
    modules, where translate is most of set-up; engine.run_self_s and the
    unify/instantiate/resolve counts -> solve_s on chain and write_p50_ms on
    modules (first-argument indexing raises unify_success_ratio);
    engine.stored_iter_s and tabling.on_slg_s -> read_p50_ms;
    tabling.driver_self_s, on_slgcall_s, on_answer_s -> solve_s on chain and
    mixed; the tabling counters -> solve_s and peak_rss_mb on chain;
    oracle.* -> oracle_s on mixed only.  tabling.read_share is a property of
    the workload and must not move.
    """
    self_s, spans = tracer.self_times()
    c = rep.counters
    reads = sum(1 for q in rep.queries if not q.wrote)
    unify_calls = tracer.calls["unify"]
    m = {
        "syntax.parse_s": (self_s.get("syntax.parse_program", 0.0), "s"),
        "syntax.query_parse_s": (self_s.get("syntax.parse_query", 0.0), "s"),
        "syntax.clauses": (rep.ir["clauses_in"], "count"),
        "bridges.call_graph_s": (self_s.get("bridges.build_call_graph", 0.0), "s"),
        "bridges.find_s": (self_s.get("bridges.find_bridges", 0.0), "s"),
        "bridges.count": (rep.ir["bridges"], "count"),
        "translate.s": (self_s.get("translate.translate", 0.0), "s"),
        "translate.clauses_out": (rep.ir["clauses_out"], "count"),
        "translate.cells_out": (rep.ir["cells_out"], "count"),
        "translate.blowup": (rep.ir["clauses_out"] / rep.ir["clauses_in"], "ratio"),
        "engine.index_s": (self_s.get("engine.compile_index", 0.0), "s"),
        "engine.run_self_s": (self_s.get("engine.Machine.run", 0.0), "s"),
        "engine.stored_iter_s": (self_s.get("engine.StoredIterCP.try_next", 0.0), "s"),
        "engine.unify_calls": (unify_calls, "count"),
        "engine.unify_success_ratio": (tracer.successes["unify"] / max(unify_calls, 1), "ratio"),
        "engine.instantiate_calls": (tracer.calls["instantiate"], "count"),
        "engine.resolve_calls": (tracer.calls["resolve"], "count"),
        "tabling.driver_self_s": (self_s.get("tabling.Engine.solve", 0.0), "s"),
        "tabling.on_slg_s": (self_s.get("tabling.on_slg", 0.0), "s"),
        "tabling.on_slgcall_s": (self_s.get("tabling.on_slgcall", 0.0), "s"),
        "tabling.on_answer_s": (self_s.get("tabling.on_answer", 0.0), "s"),
        "tabling.answer_new_ratio": (c.answers / max(spans.get("tabling.on_answer", 0), 1),
                                     "ratio"),
    }
    for name in ("suspensions", "resumptions", "generators", "answers", "slg_resolutions",
                 "e_cells", "h_cells"):
        m[f"tabling.{name}"] = (getattr(c, name), "count")
    m["tabling.read_share"] = (reads / len(rep.queries), "ratio")
    if rep.compare is not None:
        m["oracle.compare_s"] = (self_s.get("oracle.compare_answer_sets", 0.0), "s")
    return m


def medians_of(dicts: list) -> dict:
    """Per name, the lower median of the values, so that exact counts stay integers."""
    return {k: (statistics.median_low([d[k][0] for d in dicts]), dicts[0][k][1])
            for k in dicts[0]}


# -- determinism across runs ---------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cctab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" when it is not one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_fingerprints(wl, reps, digest) -> list:
    """Problems found: repetitions that differ, or a differing earlier run."""
    problems = []
    by_mode: dict = {}
    for r in reps:
        if r.counters is not None:
            by_mode.setdefault(r.mode, []).append(r.fingerprint())
    for mode, prints in by_mode.items():
        if any(p != prints[0] for p in prints):
            problems.append(f"{mode}: tabling counters differ between repetitions of one run")
            continue
        key = hashlib.sha256(json.dumps(
            [digest, wl.name, wl.seed, wl.params, wl.program, wl.queries, mode]).encode())
        path = OUT / "counters" / f"{key.hexdigest()[:32]}.json"
        if path.is_file():
            if json.loads(path.read_text()) != prints[0]:
                problems.append(f"{mode}: tabling counters differ from an earlier run of the "
                                f"same code and seed ({path})")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(prints[0]))
            os.replace(tmp, path)
    return problems


# -- main ------------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def untraced_run(cc, wl, seconds):
    """(repetitions, metrics, problems, report lines) with tracing off."""
    mode = cc["translate"].Mode.GENERAL
    begin = perf_counter()
    clock = Clock()
    facts, eval_s = oracle_reference(cc, wl, clock) if wl.name == "mixed" else (None, None)
    reps = [checked_rep(cc, wl, mode, clock, facts)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = []
    while len(setups) < MIN_SETUPS or perf_counter() - begin < SETUP_SHARE * seconds:
        gc.collect()
        clock.mark(MARK_EVERY_S)
        start = perf_counter()
        setup(cc, wl, mode)
        setups.append((start, perf_counter()))
    clock.mark()
    reps += repeat(lambda: checked_rep(cc, wl, mode, clock, facts),
                   seconds - (perf_counter() - begin), MIN_REPS - 1)
    metrics = end_to_end(wl, reps, clock, setups, peak_rss_mb)
    if facts is not None:
        metrics["oracle_s"] = (eval_s + median(clock.ref_s(*r.compare) for r in reps
                                               if r.compare), "s")
    raw = sorted(clock.cals)
    lines = [f"# {len(reps)} repetitions and {len(setups)} set-ups alone, "
             f"{sum(len(r.queries) for r in reps)} queries",
             f"# calibration: {len(raw)} timings, median {median(raw):.6f} s, "
             f"quartiles {raw[len(raw) // 4]:.6f}..{raw[3 * len(raw) // 4]:.6f} s; "
             f"reference {CALIB_REF_S} s"]
    return reps, metrics, [], lines


def traced_run(cc, wl, seconds):
    """(repetitions, metrics, problems, report lines) from alternating untraced,
    legacy (chain only) and traced repetitions."""
    Mode = cc["translate"].Mode
    clock = Clock()
    tracer = Tracer()
    untraced, traced, legacy, layers = [], [], [], []
    first = {}
    facts = eval_self_s = None
    if wl.name == "mixed":
        tracer.install()
        try:
            facts, _ = oracle_reference(cc, wl, clock)
        finally:
            tracer.uninstall()
        eval_self_s = tracer.self_times()[0]["oracle.bottom_up_eval"]
        tracer.reset()

    def cycle():
        untraced.append(checked_rep(cc, wl, Mode.GENERAL, clock, facts))
        if wl.name == "chain":
            gc.collect()
            legacy.append(checked_rep(cc, wl, Mode.LEGACY, clock))
        gc.collect()
        tracer.reset()
        tracer.install()
        try:
            rep = checked_rep(cc, wl, Mode.GENERAL, clock, facts, tracer)
        finally:
            tracer.uninstall()
        traced.append(rep)
        layers.append(per_layer(tracer, rep, wl))
        if not first:
            first["self"], first["count"] = tracer.self_times()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.tsv.gz")
        tracer.reset()

    repeat(cycle, seconds, MIN_TRACED_CYCLES)
    # Differences and ratios are taken within each cycle, whose repetitions run
    # back to back, so that a change of machine speed between cycles cancels.
    metrics = medians_of(layers)
    if facts is not None:
        metrics["oracle.eval_s"] = (eval_self_s, "s")
        metrics["oracle.facts"] = (sum(len(v) for v in facts.values()), "count")
    metrics["trace.overhead_s"] = (
        median(t.total_s(clock) - u.total_s(clock) for t, u in zip(traced, untraced)), "s")
    metrics["trace.untraced_total_s"] = (median(r.total_s(clock) for r in untraced), "s")
    metrics["trace.traced_total_s"] = (median(r.total_s(clock) for r in traced), "s")
    problems = []
    if legacy:
        metrics["translate.legacy_solve_ratio"] = (
            median(gen.cold_s(clock) / leg.cold_s(clock)
                   for gen, leg in zip(untraced, legacy)), "ratio")
        general = [q.digest for q in untraced[0].queries]
        if any([q.digest for q in r.queries] != general for r in legacy):
            problems.append("legacy and general answer sets differ on chain")
    lines = [f"# {len(untraced)} untraced, {len(traced)} traced, {len(legacy)} legacy "
             f"repetitions; {sum(first['count'].values())} spans in the first traced one",
             "# trace.* totals are reference seconds; other times are self times in seconds",
             "# self time by span (first traced repetition):"]
    for name in sorted(first["self"], key=first["self"].get, reverse=True):
        lines.append(f"#   {name:32s} {first['self'][name]:10.6f} s  "
                     f"{first['count'][name]:8d} spans")
    return untraced + traced + legacy, metrics, problems, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args(argv)

    cc = load_cctab()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    wl = workloads.build(args.workload, args.seed)
    digest = source_digest()
    print(f"# cctab benchmark: workload={wl.name} seed={wl.seed} seconds={args.seconds:g} "
          f"trace={args.trace}\n"
          f"# python {platform.python_version()}  commit {commit()}  src sha256 {digest[:16]}\n"
          f"# params {json.dumps(wl.params)}\n"
          f"# why: {why}", flush=True)

    runs, metrics, problems, lines = (traced_run if args.trace else untraced_run)(
        cc, wl, args.seconds)
    problems += check_fingerprints(wl, runs, digest)
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    for r in runs:
        for f in r.failures[:3]:
            print(f"FAILED ({r.mode}): {f}", file=sys.stderr)
    for p in problems:
        print(f"INVALID: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {fmt(value):>14s} {unit}")
    print(f"# {failed} of {attempted} operations failed; correct={correct}")

    unmeasured = [n for n in listed if not math.isfinite(metrics.get(n, (math.nan,))[0])]
    if unmeasured:
        raise SystemExit(f"bench: no value for {unmeasured}, which BENCHMARK.json lists")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in listed},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "params": wl.params, "why": why,
        "python": platform.python_version(), "commit": commit(), "src_sha256": digest,
        "problems": problems, "result": result,
        "all_metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    (OUT / f"BENCH_{wl.name}_seed{wl.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
