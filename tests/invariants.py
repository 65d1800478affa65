"""Invariants of the table space, for tests; no query tests them.

check holds between queries, check_evaluation_invariants at every tabling
primitive while a query runs.
"""

from cctab import Struct, TablingError, print_term
from cctab.tabling import COMPLETE, DROPPED, EVALUATING


def check(space):
    """Raise TablingError unless the invariants that hold between queries
    do in the TableSpace space: no generator is evaluating and no arena is
    open, every entry is complete or dropped, variant_index maps each
    complete call to its entry and nothing else, each table indexes every
    answer once, and each record is written in the one form its answer
    takes: a tuple, in a table with a call pattern, as long as its places
    and indexed as ground; any other record a term, which may sit in any
    table but is no ground instance of a pattern, which is a tuple."""
    if space.stack or space.arenas:
        raise TablingError(f"check: stack {[e.id for e in space.stack]}, "
                           f"{len(space.arenas)} open arenas")
    complete_entries = 0
    for entry in space.entries:
        call = print_term(entry.call)
        if entry.status == COMPLETE:
            complete_entries += 1
            if space.variant_index.get(entry.call) is not entry:
                raise TablingError(f"check: {call} is not indexed to its entry")
        elif entry.status != DROPPED:
            raise TablingError(f"check: {call} is {entry.status}")
        if len(entry.answers) != len(entry.index):
            raise TablingError(f"check: {call} has {len(entry.answers)} answers, "
                               f"{len(entry.index)} indexed")
        pattern = entry.pattern
        for rec in entry.answers:
            if rec not in entry.index:
                why = "does not index"
            elif type(rec) is not tuple:
                instance = not entry.index[rec] and is_instance(pattern, rec)
                why = "holds as a term the ground instance" if instance else None
            elif pattern is None:
                values = ", ".join(print_term(v) for v in rec)
                raise TablingError(f"check: {call} has no pattern but holds the tuple ({values})")
            elif entry.index[rec]:
                why = "indexes as non-ground the tuple of"
            elif len(rec) != len(pattern.places):
                why = f"has a record of {len(rec)} values, not {len(pattern.places)}, for"
            else:
                why = None
            if why:
                raise TablingError(f"check: {call} {why} {print_term(entry.term_of(rec))}")
    if len(space.variant_index) != complete_entries:
        raise TablingError("check: variant_index holds an entry that is not complete")


def is_instance(pattern, t) -> bool:
    """Whether the ground term t is an instance of the call of pattern, a
    table's call pattern or None."""
    return (pattern is not None and type(t) is Struct and t.functor == pattern.functor
            and len(t.args) == pattern.arity
            and (pattern.ground is None or pattern.ground(t.args) == pattern.values))


def check_evaluation_invariants(space):
    """The invariants that let the runtime read a generator's arena and stack
    position without testing them: an arena is open while any generator is
    evaluating, and the completion stack holds exactly the evaluating
    entries, each at its position and depending on none above it."""
    assert space.arenas or not space.stack
    for pos, e in enumerate(space.stack):
        assert (e.pos, e.status) == (pos, EVALUATING)
        assert e.deplink <= e.pos
    stacked = sum(e.pos is not None for e in space.entries)
    assert stacked == len(space.stack)
