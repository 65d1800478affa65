"""Continuation-call tabling runtime.

Executes programs produced by the translator.  slg/1 runs a tabled call to
completion and enumerates its answers; slgcall/1 suspends a consumer by
copying its continuation into table-owned storage, once per variant and
generator; answer/2 records answers and schedules resumptions; completion is
detected with a generator stack and dependency links, and uses local
scheduling: no answer escapes a generator before its whole dependency group
is complete.  Engine._generator alone reads the generator Id that slgcall/1
and answer/2 carry; past it, stack and continuations hold GeneratorEntries.
The program's reads_incomplete, set by the legacy translation, is its one
policy: a tabled call may then read an incomplete table.

One machine runs each query.  A new generator is evaluated on the machine of
its caller, as in Ramesh and Chen's runtime: a GeneratorCP below its clauses
holds the caller's goals, which run again, against the table, once the
generator is done.  Resumption is a failure-driven loop over the table: a
generator called by slg/1 owns its group's FIFO worklist of (continuation,
answer) pairs, and its GeneratorCP resumes the next pair each time the
machine backtracks into it.
A table keeps one record per answer, listed in insertion order and mapped
to its answer's number of variables by the index, and one per continuation,
its StoredCont, keyed by its frozen term.  It decides substitution factoring
(Ramakrishnan et al., JLP 1999) once, when it is made: its call pattern says
where the call's variables are.  An answer that is a ground instance of the
call is recorded as the tuple of its values at those places, which is its
own key: it is hashed and compared in C, and no answer term is built for
it.  Any other answer is recorded as its frozen term, beside the tuples.  A
record is written once; GeneratorEntry.term_of gives any record's term.  A
read binds the live call's variables to a tuple's values, and a resumption
by a tuple follows the resume plan its continuation gets at its first
resumption: the answer's values, ground subterms and new variables fill the
head map of each clause it runs in place, and its guards, call(Cont) chain,
fact join and answer/2 run from the map, with no unification (see
Engine._resume).  A term record, or any record for a continuation with no
plan, is unified with the live or pending call, and the machine resolves
the stored term against its predicate's one clause.  When a read of a
complete table ends the query, its tuples become solutions straight from
the table (see Engine.solve).

Suspended continuations are frozen at capture time: copied with their
bindings applied, except for ground subterms, which no binding reaches and
which are kept as they are.  So no binding in them can be undone by
backtracking; every resumption starts from the identical stored copy.
Counter units are interpreter term cells and steps, which are deliberate,
documented approximations: they are not comparable to abstract-machine
instruction or cell counts.
"""

from __future__ import annotations

import mmap
from collections import deque, namedtuple
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .engine import (
    BUILTINS,
    DEFAULT_BUDGET,
    ENGINE_PREDS,
    SOLUTION,
    Budget,
    Machine,
    StoredIterCP,
    compile_index,
    instantiate,
    unify,  # not called here; bench/tracing.py patches this name to count calls
    unify_stored,
)
from .errors import InstantiationError, ResourceLimitError, TablingError, TypeMismatchError
from .syntax import print_term
from .terms import (Atom, Int, Program, Struct, Term, Var, canonical_variant, pred_key, pred_of,
                    vars_of, walk_subterms)
from .translate import Mode

EVALUATING = "evaluating"
COMPLETE = "complete"
DROPPED = "dropped"  # by a failed query, whose evaluation was left half done
# What lets a general-mode tabled call escape slgcall/1: bridges cannot cover it.
UNINSTRUMENTED = ("a call the translation does not instrument (call/1 of a goal bound at "
                  "run time, or a hand-written slg/1)")
# Address space that Engine.solve's out-of-memory handler unmaps before it
# purges the tables, so that it has room to run: an anonymous mapping that
# nothing touches, so it costs no resident memory.  One per process, whose
# address space it stands for, shared by every engine.
_reserve: list = []


@dataclass
class Counters:
    suspensions: int = 0
    resumptions: int = 0
    e_cells: int = 0
    h_cells: int = 0
    trail_at_suspend: int = 0
    generators: int = 0
    answers: int = 0
    slg_resolutions: int = 0

    def snapshot(self) -> "Counters":
        return replace(self)

    def stats_line(self) -> str:
        return (
            f"suspensions={self.suspensions} resumptions={self.resumptions} "
            f"e_cells={self.e_cells} h_cells={self.h_cells} "
            f"trail_at_suspend={self.trail_at_suspend} "
            f"generators={self.generators} answers={self.answers}"
        )


@dataclass(eq=False)
class StoredCont:
    """A suspended consumer, dereferenced and copied into table storage."""

    term: Term  # NameCont(Id, Bindings, Pending, [Prev]) with vars 0..nvars-1
    nvars: int
    owner: "GeneratorEntry"  # the generator this continuation delivers answers to
    table: "GeneratorEntry"  # the table of Pending's variant, whose answers resume it
    plan: tuple = None  # Engine._resume_plan's, built at the first resumption; False for none


@dataclass
class GeneratorEntry:
    id: int
    call: Term  # frozen call; its variant key
    # one record per answer, in insertion order: a ground instance of the
    # call's pattern as the tuple of its values at its places, any other
    # answer as its frozen term
    answers: list = field(default_factory=list)
    index: dict = field(default_factory=dict)  # record, as its answer's variant key -> its nvars
    continuations: dict = field(default_factory=dict)  # frozen term, as variant key -> StoredCont
    status: str = EVALUATING  # then COMPLETE, or DROPPED
    pos: int = None  # completion stack index while EVALUATING
    deplink: int = None  # lowest stack position this generator depends on
    suspension_total: int = 0  # cumulative; survives completion
    pattern: CallPattern = None  # call_pattern(call), fixed when the table is made

    def term_of(self, rec) -> Term:
        """The answer term of one of answers' records: a tuple's values put
        into the call at the pattern's places; a term record is itself."""
        if type(rec) is not tuple:
            return rec
        args = list(self.call.args)
        for k, v in zip(self.pattern.places, rec):
            args[k] = v
        return Struct(self.call.functor, tuple(args))


# key takes an answer's argument tuple to its record, the values at places
CallPattern = namedtuple("CallPattern", "functor arity ground values places key")


def call_pattern(call: Term) -> CallPattern | None:
    """A frozen call's functor and arity, a getter of its ground arguments
    or None, their values, and the positions of its variables, in the order
    the call numbers them; None when it is not a compound, repeats a
    variable or holds one inside a compound argument, and every answer is
    then unified."""
    if type(call) is not Struct:
        return None
    args = call.args
    places, fixed = [], []  # one loop: a table is made per new call
    for i, a in enumerate(args):
        if type(a) is Var:
            places.append(i)
        elif type(a) is Struct and vars_of(a):
            return None
        else:
            fixed.append(i)
    if len({args[i].id for i in places}) < len(places):
        return None
    ground = itemgetter(*fixed) if fixed else None
    first = places[0] if places else 0
    if places == list(range(first, first + len(places))):
        # a slice, also for one place or none; all the arguments slice to their tuple itself
        key = itemgetter(slice(first, first + len(places)))
    else:
        key = itemgetter(*places)
    return CallPattern(call.functor, len(args), ground, ground and ground(args), tuple(places),
                       key)


class TableSpace:
    """Call-variant table: generators, answers, continuations, completion stack.
    While the stack holds an entry, an arena is open."""

    def __init__(self):
        self.entries: list = []
        self.variant_index: dict = {}  # frozen call -> its GeneratorEntry
        self.stack: list = []  # the EVALUATING generators' entries, oldest first
        self.arenas: list = []  # active resumption worklists, innermost last
        self.counters = Counters()

    def new_generator(self, call: Term, creator=None) -> GeneratorEntry:
        """Open the generator of a frozen call.  It is on the stack before it
        is published anywhere else, so that a query cut short at any point
        here leaves it unpublished or reached by Engine._purge_incomplete."""
        entry = GeneratorEntry(id=len(self.entries), call=call, pattern=call_pattern(call))
        entry.pos = entry.deplink = len(self.stack)
        if creator is not None:  # evaluating, as Engine._generator found it
            entry.deplink = min(entry.deplink, creator.deplink)
        self.stack.append(entry)
        self.variant_index[call] = entry
        self.entries.append(entry)
        self.counters.generators += 1
        return entry

    def complete(self, leader: GeneratorEntry):
        """Mark the evaluating leader's whole group complete and erase its
        continuations; a TablingError while an arena holds a resumption for
        the group."""
        pos = leader.pos  # the loop clears it
        for arena in self.arenas:
            for stored, _ans in arena:
                if stored.owner.pos is not None and stored.owner.pos >= pos:
                    raise TablingError("complete: called with pending resumption work")
        for entry in self.stack[pos:]:
            entry.status = COMPLETE
            entry.continuations.clear()
            entry.pos = None
        del self.stack[pos:]


class GeneratorCP:
    """The choice point below a generator's clauses on its caller's machine.

    It holds the generator's entry, its arena (None for a generator created
    by slgcall/1, which is completed with its group) and the caller's goals.
    Each retry starts from the store as it was when the choice point was
    pushed (trail and variables both, so the store stays bounded), takes the
    arena's next (continuation, answer) pair and resumes it; a resumption
    that ends in place takes the next pair at once.  Once the arena is empty
    the group is finished, and the caller's goals run again, so the call is
    answered from the table; the retry after that fails.
    """

    __slots__ = ("entry", "arena", "goals", "mark", "nvars", "outer")

    def __init__(self, entry, arena, goals, m: Machine):
        self.entry = entry  # None once the caller's goals are restored
        self.arena = arena
        self.goals = goals
        self.mark = m.store.mark()
        self.nvars = len(m.store.bindings)
        self.outer = m.gen_mark  # the enclosing generator's mark, or None

    def try_next(self, m: Machine) -> bool:
        if self.entry is None:
            return False
        bindings = m.store.bindings
        trail = m.store.trail
        mark = self.mark
        arena = self.arena
        runtime = m.runtime
        counters = runtime.space.counters
        while True:
            while len(trail) > mark:  # store.undo_to(mark), inline
                bindings[trail.pop()] = None
            del bindings[self.nvars :]
            if not arena:
                break
            stored, ans = arena.popleft()
            counters.resumptions += 1
            if runtime._resume(m, stored, ans):
                return True
        if arena is not None:
            runtime._finish_group(self.entry)
            runtime.space.arenas.pop()
        m.gen_mark = self.outer
        m.goals = self.goals
        self.entry = None
        return True


class _ContClause:
    """The one clause of a continuation predicate, split for running in place:
    its leading built-in goals (guards), then the rest of its body.  answer is
    the last goal of that rest when the rest is one answer/2 goal, or a fact
    join: a goal F, then answer/2, where F calls a predicate of ground facts
    that the machine resolves by clauses, with no compound argument.  join
    is then (F's arguments, each a variable id or a constant; the
    predicate's index entry; whether the machine counts F as an SLG
    resolution).  cont is the id of V when the rest is one call(V) goal whose
    V occurs once in the head and in no guard.

    The goals run in place are built from a head map in which the head
    matched has filled every head variable: its slots are the clause's
    variables and then tail's (see _build).  guards holds per guard (its
    built-in, the slots of its new variables, _build's steps for its
    compound arguments, the getter of its arguments).  For an answer/2,
    build is _build's steps and new the slots of the variables first met in
    it; flat is (the slot of its Id variable, the answer's functor, the
    getter of the answer's arguments) when the answer is a compound with no
    compound argument, else None."""

    __slots__ = ("head", "nvars", "names", "guards", "rest", "answer", "cont", "join", "linear",
                 "tail", "build", "new", "flat")

    def __init__(self, clause, index):
        self.head, body, self.nvars, self.names = clause
        keys = [pred_key(g) for g in body]
        k = 0
        while k < len(body) and keys[k] in BUILTINS:
            k += 1
        self.rest = body[k:]
        ids = [t.id for t in walk_subterms(self.head) if type(t) is Var]
        self.linear = len(set(ids)) == len(ids)  # no variable occurs twice in the head
        self.answer = self.cont = self.join = self.build = self.flat = None
        rest = keys[k:]
        if rest == [("call", 1)] and type(body[k].args[0]) is Var:
            # the variables of the head and the guards, with repeats
            known = ids + [t.id for g in body[:k] for t in walk_subterms(g) if type(t) is Var]
            if known.count(body[k].args[0].id) == 1:
                self.cont = body[k].args[0].id
        known = set(ids)
        self.tail = []
        guards = []
        for key, g in zip(keys[:k], body):
            new: list = []
            steps = (_build(g, self.nvars, known, self.tail, new) if type(g) is Struct
                     else [(None, None, lambda m: ())])
            guards.append((BUILTINS[key], tuple(new), tuple(steps[:-1]), steps[-1][2]))
        self.guards = tuple(guards)  # (), shared, when there is none
        if len(rest) == 2 and rest[1] == ("answer", 2) and rest[0] not in ENGINE_PREDS:
            f = body[k]
            facts = index.get(rest[0])
            if (type(f) is Struct and facts and all(type(a) is not Struct for a in f.args)
                    and all(not c[1] and not c[2] for c in facts[0])):
                self.join = (tuple(a.id if type(a) is Var else a for a in f.args), facts,
                             f.functor.startswith("slg_"))
                known.update(a.id for a in f.args if type(a) is Var)
        if rest == [("answer", 2)] or self.join:
            self.answer = body[-1]
            new = []
            self.build = _build(self.answer, self.nvars, known, self.tail, new)
            self.new = tuple(new)
            id_t, ans = self.answer.args
            if type(id_t) is Var and len(self.build) == 2:  # the answer's step, then answer/2's
                self.flat = (id_t.id, ans.functor, self.build[0][2])


def _read_form(goals, n):
    """The function that builds the goals of a direct read's solution in
    Engine.solve from a table's tuple, the values of a query with n variable
    ids.  One flat goal whose arguments are the query's variables in order
    takes the tuple as its argument tuple.  Any other flat goal is built by
    its one _build step, and any other query by instantiate, as the query's
    first solution is."""
    if len(goals) == 1 and type(goals[0]) is Struct:
        functor = goals[0].functor
        if [a.id if type(a) is Var else None for a in goals[0].args] == list(range(n)):
            return lambda values: [Struct(functor, tuple(values))]
        tail = []
        steps = _build(goals[0], n, set(range(n)), tail, [])
        if len(steps) == 1:
            get = steps[0][2]
            return lambda values: [Struct(functor, get([*values, *tail]))]
    return lambda values: [instantiate(g, values) for g in goals]


def _build(goal, nvars, known, tail, new):
    """Steps that build the compound goal from a head map.  The map's slots
    are the clause's variables and then tail's: goal's atoms and integers,
    and one slot per compound, which holds it once built; they are appended
    to tail.  Each step is (slot, functor, getter), getter taking the map to
    the argument tuple (itemgetter over the argument slots); the inner
    compounds come first, goal's own step last.  Each variable not in known
    is appended to new and to known at its first occurrence, in the order
    instantiate makes their new variables."""
    steps: list = []
    stack = [(goal, [])]  # (compound, its argument slots so far) of the enclosing compounds
    while stack:
        s, slots = stack[-1]
        if len(slots) < len(s.args):
            a = s.args[len(slots)]
            if type(a) is Struct:
                stack.append((a, []))
                continue
            if type(a) is Var:
                if a.id not in known:
                    new.append(a.id)
                    known.add(a.id)
                slots.append(a.id)
            else:
                slots.append(nvars + len(tail))
                tail.append(a)
            continue
        stack.pop()
        slot = nvars + len(tail)
        tail.append(None)
        # itemgetter of one slot returns the value, not a 1-tuple
        getter = itemgetter(*slots) if len(slots) > 1 else lambda m, i=slots[0]: (m[i],)
        steps.append((slot, s.functor, getter))
        if stack:
            stack[-1][1].append(slot)
    return steps


class Solution:
    """One solution of a query: goals, the resolved instances of the query
    goals.  bindings, the named query variables' resolved values, is built
    from values (by query variable id: a list, or a direct read's tuple)
    and named (name -> id) when read."""

    __slots__ = ("goals", "values", "named")

    def __init__(self, goals: list, values, named: dict):
        self.goals = goals
        self.values = values
        self.named = named

    @property
    def bindings(self) -> dict:
        """var name -> resolved Term, in first-occurrence order."""
        values = self.values
        return {name: values[i] for name, i in self.named.items()}


class Engine:
    """Tabled-execution engine over a translated program.

    One engine owns one TableSpace; tables persist across queries, so a
    completed variant is answered by pure table reads on re-query.  Its policy
    is the program's; mode, if given, only checks it, a check that goes once
    bench/run.py stops passing it.
    """

    def __init__(self, program: Program, mode: Mode | None = None):
        if mode is not None and (mode is Mode.LEGACY) != program.reads_incomplete:
            made = "legacy" if program.reads_incomplete else "general"
            raise TablingError(f"a {made} translation cannot run in {mode.value} mode")
        self.index = compile_index(program)
        self.reads_incomplete = program.reads_incomplete
        self.space = TableSpace()
        self._conts: dict = {}  # (name, arity) -> its _ContClause, or None; built as resumed

    @property
    def counters(self) -> Counters:
        return self.space.counters

    # -- public query API ---------------------------------------------------

    def solve(self, goals, depth_budget: int = DEFAULT_BUDGET):
        """Enumerate solutions of a goal or goal list; local scheduling.  One
        machine runs the query and every generator it opens, within
        depth_budget resolution steps.

        When a solution's newest choice point reads a complete table that
        has a call pattern, with no goal after the read, and the query's
        variables are the read's live variables, in order, the table's
        further tuples become solutions straight from the table, up to its
        next term record: the machine's retry of the read unifies that one,
        and the direct read goes on after it.  Their goals are built by the
        query's read form (_read_form), decided at its first such read."""
        if not isinstance(goals, (list, tuple)):
            goals = [goals]
        if not _reserve:  # at the first query, and at the first after each handler ran
            try:
                _reserve.append(mmap.mmap(-1, 8 << 20))
            except (OSError, MemoryError):
                pass  # no address space left: the handler does without
        machine = Machine(self.index, runtime=self, budget=Budget(depth_budget))
        named, live = machine.start(goals)
        bindings = machine.store.bindings
        resolve = machine.store.resolve
        cps = machine.cps
        form = None
        try:
            while machine.run() == SOLUTION:
                values = []  # of each query variable, by id
                for t in live:
                    while type(t) is Var:  # store.walk(t), inline
                        b = bindings[t.id]
                        if b is None:
                            break
                        t = b
                    values.append(resolve(t) if type(t) is Struct else t)
                # positional: a keyword call costs measurably more per solution
                yield Solution([instantiate(g, values) for g in goals], values, named)
                cp = cps[-1] if cps else None
                if (type(cp) is not StoredIterCP or cp.rest is not None
                        or cp.table.pattern is None or cp.table.status != COMPLETE
                        or len(cp.live) != len(live)):
                    continue
                # The read ends the query.  Each query variable, in order,
                # must be one of its live variables, in order, or bound to
                # it through a chain of variables: a tuple is then the
                # values of a solution.
                for t, v in zip(live, cp.live):
                    while type(t) is Var and t.id != v:
                        t = bindings[t.id]
                    if type(t) is not Var:
                        break
                else:
                    if form is None:
                        form = _read_form(goals, len(live))
                    answers = cp.table.answers
                    for n in range(cp.i, len(answers)):
                        rec = answers[n]
                        if type(rec) is not tuple:
                            break  # the machine's retry of cp unifies it
                        yield Solution(form(rec), rec, named)
                    else:
                        n = len(answers)
                    # only this machine reads cp, and it is dropped when the
                    # query is closed at a yield
                    cp.i = n
        except GeneratorExit:
            # Closed at a yield, where no evaluation is in progress; a purge
            # here could run at garbage collection, inside another query.
            raise
        except MemoryError:
            while _reserve:
                _reserve.pop().close()
            self._purge_incomplete()
            raise ResourceLimitError("out of memory") from None
        except BaseException:
            self._purge_incomplete()
            raise

    def answer_terms(self, call: Term) -> list:
        """Stored answers for the variant of call, as terms, in insertion order."""
        entry = self.space.variant_index.get(canonical_variant(call))
        if entry is None:
            return []
        return [entry.term_of(rec) for rec in entry.answers]

    # -- tabling primitive hooks (called from Machine.run) --------------------
    #
    # Each returns True when it has set the machine's goals: a new generator
    # runs, and the goal is retried once it is done.  It returns False for the
    # machine to backtrack: the goal failed, or the hook pushed a choice point.

    def _variant(self, machine, call, goal, rest, creator, live):
        """The table entry of call's variant.  When there is none yet and call
        is tabled, its generator is opened on machine, and None is returned.
        The dict live receives the ids of call's unbound variables, in the
        order of the variant's variables."""
        store = machine.store
        frozen, nvars = store.freeze(call, None, live)
        space = self.space
        entry = space.variant_index.get(frozen)
        if entry is not None:
            return entry
        pred = pred_of(frozen)
        if (f"slg_{pred.name}", 2) not in self.index:
            raise TablingError(f"not a tabled predicate: {pred}")
        entry = space.new_generator(frozen, creator)
        arena = None
        if creator is None:
            arena = deque()
            space.arenas.append(arena)
        machine.cps.append(GeneratorCP(entry, arena, (goal, rest), machine))
        machine.gen_mark = store.mark()
        call_live = instantiate(frozen, [None] * nvars, store)
        machine.goals = (Struct(f"slg_{pred.name}", (call_live, Int(entry.id))), None)
        return None

    def on_slg(self, machine, goal, rest):
        store = machine.store
        call = store.walk(goal.args[0])
        if type(call) is Var:
            raise InstantiationError("slg/1: unbound call")
        if type(call) is Int:
            raise TypeMismatchError("slg/1: integer is not a callable term")
        live: dict = {}
        entry = self._variant(machine, call, goal, rest, None, live)
        if entry is None:
            return True
        if entry.status == COMPLETE or self.reads_incomplete:
            # The original scheme reads the answers there are and fails past
            # them; nothing is suspended, later answers are lost.
            machine.cps.append(StoredIterCP(call, entry, store.mark(), rest, live))
            return False
        raise TablingError(
            f"tabled call {print_term(entry.call)} reached its own evaluation through "
            f"{UNINSTRUMENTED}"
        )

    def on_slgcall(self, machine, goal, rest):
        store = machine.store
        cont = store.walk(goal.args[0])
        if type(cont) is not Struct or len(cont.args) < 3:  # Id, Bindings, Pending[, Prev]
            raise TablingError(f"malformed continuation term: {print_term(cont)}")
        owner = self._generator(store.walk(cont.args[0]), "slgcall/1")
        pending = store.walk(cont.args[2])
        if type(pending) not in (Atom, Struct):
            raise TablingError("malformed continuation term: pending call is not callable")
        live: dict = {}
        entry = self._variant(machine, pending, goal, rest, owner, live)
        if entry is None:
            return True
        if entry.status == COMPLETE:
            # each answer bound into the pending call resumes the continuation
            machine.cps.append(StoredIterCP(pending, entry, store.mark(), (cont, rest), live))
            return False
        self._suspend(machine, cont, owner, entry)
        return False

    def _generator(self, id_t, prim):
        """The evaluating generator that the Id term id_t names, as a goal of
        the primitive prim carries it; a TablingError when there is none."""
        entries = self.space.entries
        if type(id_t) is not Int or not 0 <= id_t < len(entries):
            raise TablingError(f"{prim}: bad generator id")
        entry = entries[id_t]
        if entry.status == EVALUATING:
            return entry
        why = "is already complete" if entry.status == COMPLETE else "was dropped by a failed query"
        raise TablingError(f"{prim}: generator {entry.id} {why}")

    def _suspend(self, machine, cont, owner, entry):
        owner.deplink = entry.deplink = min(owner.deplink, entry.deplink)
        sizes: list = []  # cells of Id, Bindings, Pending and [Prev]
        term, nvars = machine.store.freeze(cont, sizes)
        if term in entry.continuations:
            return  # a variant is stored already and gets every answer
        arena = self.space.arenas[-1]  # open: the owner is evaluating
        stored = entry.continuations[term] = StoredCont(term, nvars, owner, entry)
        counters = self.space.counters
        counters.suspensions += 1
        counters.e_cells += sizes[1]
        counters.h_cells += sum(sizes[2:])
        # the trail made since the innermost open generator began
        counters.trail_at_suspend += len(machine.store.trail) - machine.gen_mark
        entry.suspension_total += 1
        for t in entry.answers:
            arena.append((stored, t))

    def on_answer(self, machine, id_t, answer, args=None):
        """Record an answer, as answer(Id, Answer) does, for the generator
        that the Id term id_t names; False, for the machine to backtrack.  A
        resume plan passes args, the argument tuple of a compound answer
        whose functor answer is, each argument an atom or an integer; any
        other answer is frozen, a ground compound going on as its functor
        and arguments.  When the table has a call pattern, one test tells a
        ground instance of its call, recorded as pattern.key's tuple of its
        arguments; any other answer is recorded as its frozen term."""
        store = machine.store
        entry = self._generator(store.walk(id_t), "answer/2")
        pattern = entry.pattern
        if args is None:
            rec, nvars = store.freeze(answer)
            if type(rec) is Struct and not nvars:
                answer, args = rec.functor, rec.args
        else:
            rec = None
        if (pattern and args is not None and answer == pattern.functor and len(args) == pattern.arity
                and (pattern.ground is None or pattern.ground(args) == pattern.values)):
            rec, nvars = pattern.key(args), 0
        elif rec is None:  # a planned answer: freeze presets the hash of the same compound
            rec, nvars = store.freeze(Struct(answer, args))
        index = entry.index
        if rec in index:
            return False
        # index first: a purge drops the key of an answer cut short here
        index[rec] = nvars
        entry.answers.append(rec)
        self.space.counters.answers += 1
        if entry.continuations:
            arena = self.space.arenas[-1]
            for stored in entry.continuations.values():
                arena.append((stored, rec))
        return False

    # -- internals -------------------------------------------------------------

    def _purge_incomplete(self):
        """Drop half-evaluated generators after a failed query.

        Their answer sets cannot be trusted, so the variants are forgotten
        entirely; a later query re-evaluates them from scratch.  The dropped
        entries stay in the entries list, marked DROPPED, so a generator id
        that names one is refused.
        """
        space = self.space
        for entry in space.stack:
            space.variant_index.pop(entry.call, None)
            entry.status = DROPPED
            entry.continuations.clear()
            entry.pos = None
            if len(entry.index) > len(entry.answers):  # on_answer was cut between its writes
                entry.index.popitem()
        space.stack.clear()
        space.arenas.clear()

    def _cont_clause(self, key):
        """The _ContClause of a predicate with exactly one clause, else None."""
        if key not in self._conts:
            clauses = self.index.get(key, ((),))[0]
            self._conts[key] = _ContClause(clauses[0], self.index) if len(clauses) == 1 else None
        return self._conts[key]

    def _resume_plan(self, stored):
        """The resume plan of a stored continuation, or False when there is
        none; a TablingError unless its term's predicate has exactly one
        clause.  A plan needs the continuation's table to have a call
        pattern, and each clause that the resumption runs in place to have a
        linear head that the term matches, one walk over both deciding it:
        each head variable faces a variable of the term or a ground subterm.
        Under a ground instance of the pending call no such match can then
        fail: each head variable takes an answer argument, a ground subterm
        or, for a variable of the term that is no argument of the pending
        call (a loose one), the new variable unification would make.  A
        clause's call(Cont) goes on in place when Cont holds a term of a
        one-clause predicate that the machine would resolve; that term fills
        no slot, and its clause is run a depth deeper.

        The plan is (nloose, depths).  depths holds, per clause run in
        place, (slg, base, fills, fresh, clause, more): the slg_resolutions
        it counts; its head map with the ground slots filled, followed by
        the clause's builder tail, or None when nothing reads or writes the
        map (no guard, no loose variable, and a call(Cont) goes on); (place in
        an answer's record, head slot) pairs; (loose index, head slot, name)
        triples, in the order unification meets them; the clause; and
        whether a call(Cont) goes on to a deeper one.  nloose counts the
        loose variables."""
        term = stored.term
        key = (term.functor, len(term.args))
        clause = self._cont_clause(key)
        if clause is None:
            n = len(self.index.get(key, ((),))[0])
            raise TablingError(f"continuation predicate {pred_of(term)} has {n} clauses; "
                               "a resumption needs exactly one")
        if stored.table.pattern is None:
            return False
        pending = term.args[2].args  # a variant of the table's call
        # variable id -> its place in an answer's record
        arg_of = {pending[i].id: k for k, i in enumerate(stored.table.pattern.places)}
        loose: dict = {}  # variable id of term that no answer argument binds -> its index
        depths = []
        while True:
            if not clause.linear:
                return False
            base = [None] * clause.nvars + clause.tail
            fills = []
            fresh = []
            target = None
            stack = [(term, clause.head)]  # popped in the order unify_stored meets them
            while stack:
                s, h = stack.pop()
                ts = type(s)
                if type(h) is Var:
                    key = (s.functor, len(s.args)) if ts is Struct else None
                    if ts is Var:
                        if s.id in arg_of:
                            fills.append((arg_of[s.id], h.id))
                        else:
                            k = loose.setdefault(s.id, len(loose))
                            fresh.append((k, h.id, clause.names[h.id]))
                    elif (key and h.id == clause.cont and key not in ENGINE_PREDS
                          and self._cont_clause(key)):
                        target = s  # its clause runs a depth deeper
                    elif key and vars_of(s):
                        return False
                    else:
                        base[h.id] = s
                elif ts is not type(h):
                    return False
                elif ts is Struct:
                    if s.functor != h.functor or len(s.args) != len(h.args):
                        return False
                    stack.extend(zip(s.args, h.args))
                elif s != h:
                    return False
            if target is not None and not clause.guards and not fresh:
                base = None  # nothing reads or writes this head map
            depths.append((term.functor.startswith("slg_"), base, tuple(fills), tuple(fresh),
                           clause, target is not None))
            if target is None:
                break
            term = target
            clause = self._conts[(term.functor, len(term.args))]
        return len(loose), depths

    def _resume(self, m, stored, ans) -> bool:
        """Resume a stored continuation with an answer on machine m.

        A tuple record, a ground instance of the pending call, follows the
        continuation's resume plan: it fills each clause's head map from the
        record and the plan's ground slots, and makes the new variables that
        unification would for the loose ones.  The clause's guards run in
        place, their arguments built from the head map, and a call(Cont) tail
        goes on into the clause Cont names.  An answer/2 tail goes to
        _put_answer and a fact join to _join; any other tail, and a join that
        _join leaves, is handed to the machine.  Each goal spends the step
        and counts the slg_resolutions the machine would.  A term record, and
        any record for a continuation with no plan, is unified with the
        pending call, and the machine resolves the stored term.  True when
        m.goals holds goals for m to run; False when the resumption failed or
        ended here.
        """
        plan = stored.plan
        if plan is None:
            plan = stored.plan = self._resume_plan(stored)
        if not plan or type(ans) is not tuple:
            return self._call_stored(m, stored, ans)
        nloose, depths = plan
        store = m.store
        spend = m.budget.spend
        counters = self.space.counters
        if nloose:
            loose = [None] * nloose  # the new variable each loose one stands for
            bindings = store.bindings
            trail = store.trail
        spend()  # resuming resolves one clause: one step, as any resolved goal spends
        for slg, base, fills, fresh, clause, more in depths:
            counters.slg_resolutions += slg
            if base is not None:
                hmap = base.copy()
                for k, slot in fills:
                    hmap[slot] = ans[k]
                for k, slot, name in fresh:  # instantiate's, then unify_stored's steps
                    x = loose[k]
                    if x is None:
                        x = loose[k] = store.new_var()
                    while type(x) is Var:
                        b = bindings[x.id]
                        if b is None:
                            v = Var(len(bindings), name)
                            bindings.append(None)
                            bindings[x.id] = v
                            trail.append(x.id)
                            x = v
                            break
                        x = b
                    hmap[slot] = x
                for fn, new, build, getter in clause.guards:
                    spend()
                    for slot in new:
                        hmap[slot] = store.new_var(clause.names[slot])
                    for slot, f, get in build:
                        hmap[slot] = Struct(f, get(hmap))
                    if not fn(getter(hmap), store):
                        return False
            if more:
                spend()  # call/1
                spend()  # and the clause it resolves
        if clause.answer is not None:
            if clause.join is None:
                self._put_answer(m, clause, hmap)
                return False
            if self._join(m, clause, hmap):
                return False
        goals = None
        for g in reversed(clause.rest):
            goals = (instantiate(g, hmap, store, clause.names) if clause.nvars else g, goals)
        m.goals = goals
        return True

    def _call_stored(self, m, stored, ans) -> bool:
        """Unify the answer of the record ans, with the number of variables
        its table's index holds for it, with stored's pending call and hand
        the stored term to machine m, which resolves it against its one
        clause; False when they do not unify.  A tuple, for a continuation
        with no plan, is a ground answer whose term is built here."""
        store = m.store
        term = stored.term
        if type(ans) is tuple:
            ans, ans_nvars = stored.table.term_of(ans), 0
        else:
            ans_nvars = stored.table.index[ans]
        varmap = [None] * stored.nvars
        if ans_nvars:
            # the answer is the stored side here, so an unbound variable of the
            # continuation is bound to the answer's fresh variable, not the reverse
            ok = unify_stored(instantiate(term.args[2], varmap, store), ans,
                              [None] * ans_nvars, None, store)
        else:
            ok = unify_stored(ans, term.args[2], varmap, None, store)
        if ok:
            m.goals = (instantiate(term, varmap, store), None)
        return ok

    def _join(self, m, clause, hmap) -> bool:
        """Run clause's fact join F, answer(Id, A) in place from the head map
        hmap, as the machine would run it: F's step, then, for each fact
        that matches, in source order, answer/2's step and on_answer.  An
        argument of F that holds an atom or integer must equal the fact's;
        one that holds an unbound variable takes the fact's value, and a
        store variable is bound to it and unbound again after the answer.
        False, with nothing done, when an argument holds a compound or two
        hold the same unbound variable: the machine runs the goals then."""
        args, (clauses, by_first, var_first), slg = clause.join
        store = m.store
        bindings = store.bindings
        checks = []  # (position, the atom or integer a fact must have there)
        free = []  # (position, slot, the store variable or None): take the fact's value
        for i, a in enumerate(args):
            if type(a) is not int:
                checks.append((i, a))
                continue
            x = hmap[a]
            while type(x) is Var:
                b = bindings[x.id]
                if b is None:
                    break
                x = b
            if x is None or type(x) is Var:
                if free and any(slot == a or x is not None and v is x for _i, slot, v in free):
                    return False
                free.append((i, a, x))
            elif type(x) is Struct:
                return False
            else:
                checks.append((i, x))
        if checks and checks[0][0] == 0:  # Machine.run's choice, whose facts all match there
            clauses = by_first.get(checks.pop(0)[1], var_first)
        m.budget.spend()
        self.space.counters.slg_resolutions += slg
        trail = store.trail
        mark = len(trail)
        for head, _body, _nvars, _names in clauses:
            fact = head.args
            for i, x in checks:
                if fact[i] != x:
                    break
            else:
                fmap = hmap.copy()
                for i, slot, v in free:
                    fmap[slot] = fact[i]
                    if v is not None:
                        bindings[v.id] = fact[i]
                        trail.append(v.id)
                self._put_answer(m, clause, fmap)
                while len(trail) > mark:
                    bindings[trail.pop()] = None
        return True

    def _put_answer(self, m, clause, hmap):
        """Spend answer/2's step and record clause's answer from the head map
        hmap.  A flat answer whose arguments are each an atom or an integer
        goes to on_answer as its functor and argument tuple, with no term
        built; any other is built by the clause's build."""
        m.budget.spend()
        for slot in clause.new:  # a variable first met in the answer
            hmap[slot] = m.store.new_var(clause.names[slot])
        if clause.flat is not None:
            id_slot, functor, getter = clause.flat
            args = getter(hmap)
            for a in args:
                if type(a) is Var or type(a) is Struct:
                    break
            else:
                self.on_answer(m, hmap[id_slot], functor, args)
                return
        for slot, f, getter in clause.build:
            hmap[slot] = goal = Struct(f, getter(hmap))
        self.on_answer(m, *goal.args)  # which freezes it

    def _finish_group(self, entry):
        space = self.space
        if entry.status != EVALUATING:
            raise TablingError("internal: generator completed while its choice point was live")
        segment = space.stack[entry.pos :]
        low = min(e.deplink for e in segment)
        if low == entry.pos:
            space.complete(entry)
            return
        if not self.reads_incomplete:
            blocker = next(e for e in segment if e.deplink == low)
            outer = space.stack[low]
            raise TablingError(
                f"tabled call {print_term(entry.call)} was reached through {UNINSTRUMENTED}, "
                f"so it cannot complete: {print_term(blocker.call)} depends on the open "
                f"evaluation of {print_term(outer.call)}"
            )
        # The original scheme leaves it evaluating; its answers so far may be lost.
