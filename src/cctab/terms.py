"""Logic terms, clauses and programs.

Terms are slots classes treated as immutable. Variables carry a clause-local
integer id; the printable name is kept only for output and never takes part
in equality. Atoms and integers are str and int subclasses, so they compare
and hash as their text and value do (Int(1) == 1, Atom("a") == "a"): only
Var and Struct define their own equality and hashing, and code that tells
leaves apart tests exact types, never isinstance(x, int).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import TypeMismatchError


class Var:
    """Variable.  Equality and hashing use the id alone; the name is for output."""

    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str = "_"):
        self.id = id
        self.name = name

    def __eq__(self, other):
        return self.id == other.id if type(other) is Var else NotImplemented

    def __hash__(self):
        return hash((self.id,))

    def __repr__(self):
        return f"Var(id={self.id!r}, name={self.name!r})"


class Atom(str):
    """Atom: a str, its name, so Atom("a") == "a"."""

    __slots__ = ()
    name = property(str.__str__)  # the name as a plain str

    def __repr__(self):
        return f"Atom(name={self.name!r})"


class Int(int):
    """Integer: an int, so Int(1) == 1; type(x) is Int tells it from bool
    and from the plain ints that stand for slots and ids."""

    __slots__ = ()
    value = property(int.__int__)  # the value as a plain int
    __str__ = int.__repr__  # else str() would fall back on __repr__

    def __repr__(self):
        return f"Int(value={self.value!r})"


class Struct:
    """Compound term.  Treated as immutable; equality and hashing are
    iterative so deeply nested terms (long lists) never hit the host
    recursion limit."""

    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Struct:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            ta = type(a)
            if ta is not type(b):
                return False
            if ta is Struct:
                if a is b:
                    continue
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                stack.extend(zip(a.args, b.args))
            elif ta is Var:
                if a.id != b.id:
                    return False
            elif a != b:  # an atom or an integer: str or int equality
                return False
        return True

    def __hash__(self):
        # the hash of the preorder tokens, left to right: functor and arity of
        # a compound, any other term itself (an atom or integer hashes as its
        # str or int, without a Python-level call); BindingStore.freeze
        # presets _hash from the same tokens
        h = self._hash
        if h is None:
            toks = []
            stack = [self]
            while stack:
                x = stack.pop()
                tx = type(x)
                if tx is Struct:
                    toks.append(x.functor)
                    toks.append(len(x.args))
                    stack.extend(reversed(x.args))
                else:
                    toks.append(x)
            h = hash(tuple(toks))
            self._hash = h
        return h

    def __repr__(self):
        return f"Struct({self.functor!r}, {self.args!r})"


Term = Union[Var, Atom, Int, Struct]

NIL = Atom("[]")
CONS = "."


def mk_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = Struct(CONS, (item, out))
    return out


@dataclass(frozen=True, slots=True, order=True)
class PredId:
    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"


def pred_key(t: Term) -> Optional[tuple]:
    """(name, arity) of a callable term, None for anything else."""
    if type(t) is Struct:
        return t.functor, len(t.args)
    return (t.name, 0) if type(t) is Atom else None


def pred_of(t: Term) -> Optional[PredId]:
    key = pred_key(t)
    return None if key is None else PredId(*key)


@dataclass(frozen=True, slots=True)
class Clause:
    head: Term  # Atom or Struct
    body: tuple  # tuple of Term (empty = fact)

    def pred(self) -> PredId:
        p = pred_of(self.head)
        assert p is not None
        return p


@dataclass(frozen=True, slots=True)
class Program:
    clauses: tuple  # tuple of Clause, source order
    tabled: frozenset  # frozenset of PredId
    bridges: frozenset  # frozenset of PredId
    reads_incomplete: bool = False  # the original scheme's read policy; set by translate

    def __post_init__(self):
        both = self.tabled & self.bridges
        if both:
            from .errors import LoadError

            names = ", ".join(str(p) for p in sorted(both))
            raise LoadError(f"{names} declared both table and bridge")


def walk_subterms(t: Term) -> Iterator[Term]:
    """Yield t and every subterm, depth-first, left to right, iteratively."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Struct):
            stack.extend(reversed(cur.args))


def vars_of(t: Term) -> list[Var]:
    """Variables of t in first-occurrence order, in one pass: the stack holds
    the argument iterators of the enclosing compounds."""
    out = []
    seen = set()
    stack: list = []
    it = iter((t,))
    while True:
        for x in it:
            tx = type(x)
            if tx is Var:
                if x.id not in seen:
                    seen.add(x.id)
                    out.append(x)
            elif tx is Struct:
                stack.append(it)
                it = iter(x.args)
                break
        else:
            if not stack:
                return out
            it = stack.pop()


def var_names(ts: Iterable[Term]) -> list:
    """names[i]: the name variable i has where it first occurs in the terms
    ts, "_G" for an id below the largest that no variable has.  The walk of
    vars_of, over several terms."""
    names: list = []
    stack: list = []
    it = iter(ts)
    while True:
        for x in it:
            tx = type(x)
            if tx is Var:
                i = x.id
                if i == len(names):  # always so where ids follow first occurrence
                    names.append(x.name)
                elif i > len(names):
                    names.extend([None] * (i - len(names)))
                    names.append(x.name)
                elif names[i] is None:
                    names[i] = x.name
            elif tx is Struct:
                stack.append(it)
                it = iter(x.args)
                break
        else:
            if stack:
                it = stack.pop()
            elif None in names:
                return ["_G" if name is None else name for name in names]
            else:
                return names


def term_size(t: Term) -> int:
    """Number of term nodes (interpreter cells)."""
    return sum(1 for _ in walk_subterms(t))


def copy_term(t: Term, var, walk=None) -> Term:
    """Copy of t with every variable v replaced by var(v).

    walk, when given, dereferences each variable first (a BindingStore.walk),
    so bound variables are copied as their values and only unbound ones reach
    var; a bound variable met again inside its own compound value is a cyclic
    term, a TypeMismatchError.  Iterative: compound arguments are descended
    through an explicit stack, so any nesting depth is safe.
    """
    if walk is not None:
        t = walk(t)
    if type(t) is Var:
        return var(t)
    if type(t) is not Struct:
        return t
    active: set = set()  # ids of the bound variables whose compound value is being copied
    stack: list = []  # (functor, args, built, next index, via) of the enclosing compounds
    functor, args, built, i, via = t.functor, t.args, [], 0, None
    while True:
        n = len(args)
        while i < n:
            a = args[i]
            i += 1
            ta = type(a)
            through = None  # the bound variable a compound argument is reached through
            if ta is Var and walk is not None:
                v = a
                a = walk(a)
                ta = type(a)
                if ta is Struct:
                    if v.id in active:
                        raise cyclic_term_error(v)
                    active.add(v.id)
                    through = v.id
            if ta is Var:
                built.append(var(a))
            elif ta is Struct:
                stack.append((functor, args, built, i, via))
                functor, args, built, i, via = a.functor, a.args, [], 0, through
                n = len(args)
            else:
                built.append(a)
        t = Struct(functor, tuple(built))
        if via is not None:
            active.discard(via)
        if not stack:
            return t
        functor, args, built, i, via = stack.pop()
        built.append(t)


def cyclic_term_error(v: Var) -> TypeMismatchError:
    """The error for bound variable v met again while its own value is copied."""
    return TypeMismatchError(f"cyclic term: {v.name} is bound to a term that contains it")


def canonical_variant(t: Term) -> Term:
    """Renumber variables left-to-right from 0, the k-th named _k.

    Two terms are variants (equal up to a bijective renaming of variables)
    exactly when their canonical forms are equal.
    """
    ids: dict = {}  # original variable id -> its new Var

    def var(v: Var) -> Var:
        w = ids.get(v.id)
        if w is None:
            k = len(ids)
            w = ids[v.id] = Var(k, f"_{k}")
        return w

    return copy_term(t, var)
