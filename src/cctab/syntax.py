"""Reader and printer for the accepted Prolog subset.

Accepted: atoms, integers, variables, compounds, lists as sugar for './2'
and '[]', ','-joined bodies, ':-' clauses, ':- table N/A.' and
':- bridge N/A.' directives, '%' comments, and a fixed operator table
(is, <, =<, >, >=, =:=, =, \\= at 700; +, - at 500; *, //, mod at 400).
"""

from __future__ import annotations

import logging
import re

from .errors import ParseError
from .terms import (
    NIL,
    Atom,
    Clause,
    Int,
    PredId,
    Program,
    Struct,
    Term,
    Var,
    mk_list,
    pred_key,
)

log = logging.getLogger(__name__)

# name -> (priority, type); xfx operands bind strictly tighter, yfx allows
# equal priority on the left (left association).
INFIX_OPS = {
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    "=<": (700, "xfx"),
    ">": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
}

_SYMBOLIC = ("=<", ">=", "=:=", "\\=", "//", ":-", "<", ">", "=", "+", "-", "*", "/")


_DIGITS = re.compile(r"\d*")  # \d is str.isdecimal
_WORD_TAIL = re.compile(r"\w*")  # \w is str.isalnum or "_"
_SYMBOL = re.compile("|".join(map(re.escape, _SYMBOLIC)))  # tried in _SYMBOLIC's order


def tokenize(text: str) -> list[tuple]:
    """The tokens of text as (kind, text, line, col) tuples, kind being one of
    atom var int punct sym end eof, and line and col those of the token's
    first character; the last token is eof.  A character that starts no token
    is a ParseError.  A token's kind is decided by its first character, and a
    word, a number or a symbol is taken by a compiled pattern."""
    toks = []
    append = toks.append
    n = len(text)
    i, line, start = 0, 1, 0  # start: index of the current line's first character
    while i < n:
        c = text[i]
        if c in "()[]|,":
            append(("punct", c, line, i - start + 1))
            i += 1
        elif c in " \t\r":
            i += 1
        elif c.islower() or c.isupper() or c == "_":
            # the first character is taken as it is: some cased ones, such as
            # U+24B6, are not alphanumeric
            j = _WORD_TAIL.match(text, i + 1).end()
            append(("atom" if c.islower() else "var", text[i:j], line, i - start + 1))
            i = j
        elif c.isdecimal():
            j = _DIGITS.match(text, i + 1).end()
            append(("int", text[i:j], line, i - start + 1))
            i = j
        elif c == "\n":
            i += 1
            line += 1
            start = i
        elif c == "." and (i + 1 == n or text[i + 1] in " \t\r\n%"):
            append(("end", c, line, i - start + 1))
            i += 1
        elif c == "%":
            i = text.find("\n", i)
            if i < 0:
                i = n
        else:
            m = _SYMBOL.match(text, i)
            if m is None:
                raise ParseError(f"unexpected character {c!r}", line, i - start + 1)
            append(("sym", m.group(), line, i - start + 1))
            i = m.end()
    # the end of input is placed where a comment on the last line starts
    k = text.find("%", start)
    append(("eof", "", line, (n if k < 0 else k) - start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.varmap: dict = {}  # per-clause: name -> Var

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, text) -> bool:
        """Whether the next token is the given one."""
        t = self.toks[self.pos]
        return t[0] == kind and t[1] == text

    def expect(self, kind, text=None) -> tuple:
        tkind, ttext, line, col = self.next()
        if tkind != kind or (text is not None and ttext != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {ttext!r}", line, col)
        return tkind, ttext, line, col

    def error(self, msg) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(msg, line, col)

    def fresh_var(self, name: str) -> Var:
        if name == "_":
            v = Var(len(self.varmap), "_")
            self.varmap[("_", v.id)] = v
            return v
        if name not in self.varmap:
            self.varmap[name] = Var(len(self.varmap), name)
        return self.varmap[name]

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        """One term, read by one loop over the tokens, so any nesting depth is
        safe.  No operator's priority exceeds 700, the bound for an argument,
        so every term read can be one.  Operators reduce by priority: a new
        operator first applies every stacked one that binds tighter (a yfx
        operator also an equal one), and an xfx operator facing an
        equal-priority left operand ends the expression.
        """
        toks, pos = self.toks, self.pos
        # open groups: [closer, functor, items, out, ops], functor being "."
        # for list items, "|" for a list tail and None for a parenthesis, and
        # out and ops the stacks of the expression around the group
        frames: list = []
        out: list = []  # operands of the current expression
        ops: list = []  # (name, priority) of its operators, tightest last
        while True:
            kind, text, line, col = toks[pos]
            pos += 1
            if kind == "int":
                out.append(Int(int(text)))
            elif kind == "var":
                out.append(self.fresh_var(text))
            elif kind == "sym" and text == "-" and toks[pos][0] == "int":
                out.append(Int(-int(toks[pos][1])))
                pos += 1
            elif kind == "atom" or (kind == "punct" and text in ("(", "[")):
                follow = toks[pos][1] if toks[pos][0] == "punct" else None
                if kind == "atom" and follow != "(":
                    out.append(Atom(text))
                elif text == "[" and follow == "]":
                    out.append(NIL)
                    pos += 1
                else:
                    pos += kind == "atom"
                    functor = text if kind == "atom" else (None if text == "(" else ".")
                    frames.append(["]" if functor == "." else ")", functor, [], out, ops])
                    out, ops = [], []
                    continue
            else:
                raise ParseError(f"expected a term, found {text!r}", line, col)
            while True:
                # after an operand: an operator, or the end of the expression
                kind, text, line, col = toks[pos]
                op = INFIX_OPS.get(text)  # no other kind of token spells an operator
                if op is not None:
                    prio, assoc = op
                    while ops and (ops[-1][1] < prio or (ops[-1][1] == prio and assoc == "yfx")):
                        right = out.pop()
                        out[-1] = Struct(ops.pop()[0], (out[-1], right))
                    if not ops or ops[-1][1] != prio:
                        ops.append((text, prio))
                        pos += 1
                        break
                # the expression ends here: apply the operators left on it
                term = out.pop()
                while ops:
                    term = Struct(ops.pop()[0], (out.pop(), term))
                if not frames:
                    self.pos = pos
                    return term
                # the enclosing group takes the term, then a separator or its closer
                frame = frames[-1]
                closer, functor, items = frame[0], frame[1], frame[2]
                items.append(term)
                sep = text if kind == "punct" else None
                if (sep == "," and functor not in (None, "|")) or (sep == "|" and functor == "."):
                    frame[1] = sep if sep == "|" else functor
                    pos += 1
                    break
                if sep != closer:
                    raise ParseError(f"expected {closer!r}, found {text!r}", line, col)
                pos += 1
                frames.pop()
                if functor is None:
                    term = items[0]
                elif functor in (".", "|"):
                    term = mk_list(items[:-1], items[-1]) if functor == "|" else mk_list(items)
                else:
                    term = Struct(functor, tuple(items))
                out, ops = frame[3], frame[4]
                out.append(term)

    # -- clauses and directives ----------------------------------------------

    def parse_body(self) -> list[Term]:
        """Comma-separated goals; a variable or an integer goal is a
        ParseError at the goal's first token."""
        goals = []
        while True:
            _, _, line, col = self.peek()
            g = self.parse_term()
            if isinstance(g, (Var, Int)):
                kind = "variable" if isinstance(g, Var) else "integer"
                raise ParseError(f"{kind} is not a valid goal", line, col)
            goals.append(g)
            if not self.at("punct", ","):
                return goals
            self.next()

    def parse_directive(self):
        _, directive, line, col = self.expect("atom")
        if directive not in ("table", "bridge"):
            raise ParseError(f"unknown directive {directive!r}", line, col)
        name = self.expect("atom")[1]
        self.expect("sym", "/")
        arity = int(self.expect("int")[1])
        self.expect("end")
        return directive, PredId(name, arity)

    def parse_program(self) -> Program:
        clauses = []
        tabled = set()
        bridges = set()
        while self.peek()[0] != "eof":
            self.varmap = {}
            _, _, line, col = self.peek()
            if self.at("sym", ":-"):
                self.next()
                kind, pred = self.parse_directive()
                (tabled if kind == "table" else bridges).add(pred)
                continue
            head = self.parse_term()
            if isinstance(head, (Var, Int)):
                raise ParseError("clause head must be an atom or compound", line, col)
            body: list[Term] = []
            if self.at("sym", ":-"):
                self.next()
                body = self.parse_body()
            self.expect("end")
            # fresh_var numbered the variables 0..n-1 in first-occurrence order
            clauses.append(Clause(head, tuple(body)))
        program = Program(tuple(clauses), frozenset(tabled), frozenset(bridges))
        defined = {pred_key(c.head) for c in clauses}
        for pred in sorted(tabled | bridges):
            if (pred.name, pred.arity) not in defined:
                log.warning("directive for undefined predicate %s", pred)
        return program


def parse_program(text: str) -> Program:
    p = _Parser(text)
    return p.parse_program()


def parse_term(text: str) -> Term:
    """Parse a single term (no trailing period required)."""
    p = _Parser(text)
    t = p.parse_term()
    if p.peek()[0] not in ("eof", "end"):
        raise p.error(f"trailing input after term: {p.peek()[1]!r}")
    return t


def parse_query(text: str) -> list[Term]:
    """Parse a comma-separated goal list; accepts an optional trailing period."""
    p = _Parser(text)
    goals = p.parse_body()
    if p.peek()[0] == "end":
        p.next()
    if p.peek()[0] != "eof":
        raise p.error(f"trailing input after query: {p.peek()[1]!r}")
    return goals


# -- printing ------------------------------------------------------------------


def _needs_parens(t: Term, max_prio: int) -> bool:
    if isinstance(t, Struct) and len(t.args) == 2 and t.functor in INFIX_OPS:
        return INFIX_OPS[t.functor][0] > max_prio
    return False


def print_term(t: Term) -> str:
    """Source text of t.  Iterative: todo holds the strings and subterms still
    to print, next one last, so any nesting depth is safe."""
    out: list = []
    todo: list = [t]
    while todo:
        x = todo.pop()
        if type(x) is Struct:
            todo.extend(reversed(_print_parts(x)))
        else:  # a string, an atom or an integer prints as str() does
            out.append(x.name if type(x) is Var else str(x))
    return "".join(out)


def _print_parts(t: Struct) -> list:
    """The strings and subterms whose printed forms, joined, print t."""
    if t.functor == "." and len(t.args) == 2:
        items = []
        while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
            items.append(t.args[0])
            t = t.args[1]
        return ["[", *_joined(items), *(() if t == NIL else ("|", t)), "]"]
    if t.functor in INFIX_OPS and len(t.args) == 2:
        prio, kind = INFIX_OPS[t.functor]
        lmax = prio if kind == "yfx" else prio - 1
        left, right = t.args
        ls = ["(", left, ")"] if _needs_parens(left, lmax) else [left]
        rs = ["(", right, ")"] if _needs_parens(right, prio - 1) else [right]
        return [*ls, f" {t.functor} ", *rs]
    return [f"{t.functor}(", *_joined(t.args), ")"]


def _joined(terms) -> list:
    """terms with ", " between each two."""
    out: list = []
    for x in terms:
        if out:
            out.append(", ")
        out.append(x)
    return out


def print_clause(c: Clause) -> str:
    head = print_term(c.head)
    if not c.body:
        return f"{head}."
    body = ", ".join(print_term(g) for g in c.body)
    return f"{head} :- {body}."


def print_program(p: Program) -> str:
    lines = []
    for pred in sorted(p.tabled):
        lines.append(f":- table {pred}.")
    for pred in sorted(p.bridges):
        lines.append(f":- bridge {pred}.")
    if lines and p.clauses:
        lines.append("")
    for c in p.clauses:
        lines.append(print_clause(c))
    return "\n".join(lines) + ("\n" if lines else "")
