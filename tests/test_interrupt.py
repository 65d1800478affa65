"""The table space survives an interruption at any line of its writes.

A query can be cut short anywhere: a KeyboardInterrupt, a MemoryError or an
exception from a caller's code.  Engine.solve then purges the evaluations
in progress, and every multi-step write of the table space is ordered so
that any prefix of it is either invisible to later queries or reached by
that purge.  The sweep below raises an exception of its own at the k-th
line event inside the methods that write tables, for every k, on a few
small programs in both modes.  Each time only that exception or a
cctab.Error may escape, invariants.check must pass, and a second query on
the same engine must give a fresh engine's solutions, in order.
"""

import sys
from contextlib import contextmanager
from itertools import count

import pytest

from cctab import Error, Mode, gen_fixture, parse_query
from cctab.tabling import DROPPED, Engine, TableSpace

from conftest import answers, make_engine, read_fixture
from invariants import check
from test_resume_plan import CLEARED_UNDER_QUEUED


class Interrupt(BaseException):
    """Raised by the sweep at one line of a table-writing method."""


WRITERS = (TableSpace.new_generator, Engine._variant, Engine.on_answer, Engine._put_answer,
           Engine._suspend, TableSpace.complete, Engine._finish_group)
CODES = {f.__code__ for f in WRITERS}

# (program, query): bridges, a ground call, a table that gets no answer, a
# non-ground answer stored as a term beside tuples, and a term record
# stored while tuples are queued for resumption
PROGRAMS = {
    "bridges": (read_fixture("mixed_loop.pl"), "t(A)"),
    "ground_call": (gen_fixture("chain", 3), "path(1, 4)"),
    "no_answer": (":- table p/1.\n:- table q/1.\np(X) :- q(X).\np(1).\nq(X) :- q(X).\n", "p(X)"),
    "nonground": (":- table p/2.\np(b, c).\np(a, X).\np(X, Y) :- p(Y, X).\n", "p(Z, Y)"),
    "cleared_under_queued": (CLEARED_UNDER_QUEUED, "p(X, Y)"),
}


@contextmanager
def interrupt_at(k: int, codes=CODES):
    """Raise Interrupt at the k-th line event inside the code objects codes,
    WRITERS' by default.  A tracer installed before, as the statement
    check's, goes on seeing every event; an exception from a trace function
    unsets it, so it is put back before the purge runs."""
    outer = sys.gettrace()
    lines = 0

    def call(frame, event, arg):
        inner = outer(frame, event, arg) if outer is not None else None
        if frame.f_code not in codes:
            return inner

        def line(frame, event, arg):
            nonlocal inner, lines
            if inner is not None:
                inner = inner(frame, event, arg)
            if event == "line":
                lines += 1
                if lines == k:
                    raise Interrupt
            return line

        return line

    purge = Engine._purge_incomplete

    def purge_traced(self):
        sys.settrace(outer)
        purge(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_purge_incomplete", purge_traced)
        sys.settrace(call)
        try:
            yield
        finally:
            sys.settrace(outer)


def outcome(eng, query) -> list:
    """The printed solutions of query, ended by the error it raised, if any."""
    try:
        return answers(eng, query)
    except Error as e:
        return [f"{type(e).__name__}: {e}"]


def sweep(program, mode, codes=CODES) -> int:
    """Interrupt the query of PROGRAMS' program at the k-th line event
    inside codes, for k = 1, 2, ... until a run ends uncut, each on a new
    engine; after each, the table space must pass check, and a second query
    must give a fresh engine's solutions.  The number of runs."""
    src, query = PROGRAMS[program]
    want = outcome(make_engine(src, mode), query)
    for k in count(1):
        eng = make_engine(src, mode)
        try:
            with interrupt_at(k, codes):
                outcome(eng, query)
        except Interrupt:
            cut = True
        else:
            cut = False
        check(eng.space)
        assert outcome(eng, query) == want, k
        if not cut:
            return k


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_an_interrupt_at_any_line_leaves_the_tables_usable(program, mode):
    assert sweep(program, mode) > 50  # the sweep reached past every line of the writes


def test_a_purge_drops_the_key_of_an_answer_cut_between_its_writes():
    # on_answer writes the index before the answers: a query cut between the
    # two leaves one key more, which the purge drops with the generator
    eng = make_engine(":- table p/1.\np(1).\np(2).\n")
    entry = eng.space.new_generator(parse_query("p(X)")[0])
    eng.space.arenas.append([])
    entry.index[(1,)] = 0
    eng._purge_incomplete()
    assert entry.status == DROPPED and entry.index == {} and entry.answers == []
    check(eng.space)
    assert answers(eng, "p(X)") == ["p(1)", "p(2)"]
