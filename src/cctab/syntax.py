"""Reader and printer for the accepted Prolog subset.

Accepted: atoms, integers, variables, compounds, lists as sugar for './2'
and '[]', ','-joined bodies, ':-' clauses, ':- table N/A.' and
':- bridge N/A.' directives, '%' comments, and a fixed operator table
(is, <, =<, >, >=, =:=, =, \\= at 700; +, - at 500; *, //, mod at 400).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
    normalize_clause,
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


@dataclass
class Token:
    kind: str  # atom var int punct sym end eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        kind = ("int" if c.isdecimal() else "atom" if c.islower()
                else "var" if c.isupper() or c == "_" else None)
        if kind is not None:
            # the first character is taken as it is: some cased ones, such as
            # U+24B6, are not alphanumeric
            j = i + 1
            if kind == "int":
                while j < n and text[j].isdecimal():
                    j += 1
            else:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            toks.append(Token(kind, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "." and (i + 1 >= n or text[i + 1] in " \t\r\n%"):
            toks.append(Token("end", ".", start_line, start_col))
            i += 1
            col += 1
            continue
        if c in "()[]|,":
            toks.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        for sym in _SYMBOLIC:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.varmap: dict = {}  # per-clause: name -> Var

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, msg) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

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
            t = toks[pos]
            pos += 1
            if t.kind == "int":
                out.append(Int(int(t.text)))
            elif t.kind == "var":
                out.append(self.fresh_var(t.text))
            elif t.kind == "sym" and t.text == "-" and toks[pos].kind == "int":
                out.append(Int(-int(toks[pos].text)))
                pos += 1
            elif t.kind == "atom" or (t.kind == "punct" and t.text in ("(", "[")):
                follow = toks[pos].text if toks[pos].kind == "punct" else None
                if t.kind == "atom" and follow != "(":
                    out.append(Atom(t.text))
                elif t.text == "[" and follow == "]":
                    out.append(NIL)
                    pos += 1
                else:
                    pos += t.kind == "atom"
                    functor = t.text if t.kind == "atom" else (None if t.text == "(" else ".")
                    frames.append(["]" if functor == "." else ")", functor, [], out, ops])
                    out, ops = [], []
                    continue
            else:
                raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
            while True:
                # after an operand: an operator, or the end of the expression
                t = toks[pos]
                op = INFIX_OPS.get(t.text)  # no other kind of token spells an operator
                if op is not None:
                    prio, kind = op
                    while ops and (ops[-1][1] < prio or (ops[-1][1] == prio and kind == "yfx")):
                        right = out.pop()
                        out[-1] = Struct(ops.pop()[0], (out[-1], right))
                    if not ops or ops[-1][1] != prio:
                        ops.append((t.text, prio))
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
                sep = t.text if t.kind == "punct" else None
                if (sep == "," and functor not in (None, "|")) or (sep == "|" and functor == "."):
                    frame[1] = sep if sep == "|" else functor
                    pos += 1
                    break
                if sep != closer:
                    raise ParseError(f"expected {closer!r}, found {t.text!r}", t.line, t.col)
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
        goals = [self.parse_term()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            goals.append(self.parse_term())
        return goals

    def parse_directive(self):
        t = self.expect("atom")
        if t.text not in ("table", "bridge"):
            raise ParseError(f"unknown directive {t.text!r}", t.line, t.col)
        name_tok = self.expect("atom")
        self.expect("sym", "/")
        arity_tok = self.expect("int")
        self.expect("end")
        return t.text, PredId(name_tok.text, int(arity_tok.text))

    def check_goal(self, g: Term, t: Token):
        if isinstance(g, Var):
            raise ParseError("variable is not a valid goal", t.line, t.col)
        if isinstance(g, Int):
            raise ParseError("integer is not a valid goal", t.line, t.col)

    def parse_program(self) -> Program:
        clauses = []
        tabled = set()
        bridges = set()
        while self.peek().kind != "eof":
            self.varmap = {}
            t = self.peek()
            if t.kind == "sym" and t.text == ":-":
                self.next()
                kind, pred = self.parse_directive()
                (tabled if kind == "table" else bridges).add(pred)
                continue
            head = self.parse_term()
            if isinstance(head, (Var, Int)):
                raise ParseError("clause head must be an atom or compound", t.line, t.col)
            body: list[Term] = []
            if self.peek().kind == "sym" and self.peek().text == ":-":
                self.next()
                bt = self.peek()
                body = self.parse_body()
                for g in body:
                    self.check_goal(g, bt)
            self.expect("end")
            clauses.append(normalize_clause(head, body))
        program = Program(tuple(clauses), frozenset(tabled), frozenset(bridges))
        defined = {c.pred() for c in program.clauses}
        for pred in sorted(tabled | bridges):
            if pred not in defined:
                log.warning("directive for undefined predicate %s", pred)
        return program


def parse_program(text: str) -> Program:
    p = _Parser(text)
    return p.parse_program()


def parse_term(text: str) -> Term:
    """Parse a single term (no trailing period required)."""
    p = _Parser(text)
    t = p.parse_term()
    if p.peek().kind not in ("eof", "end"):
        raise p.error(f"trailing input after term: {p.peek().text!r}")
    return t


def parse_query(text: str) -> list[Term]:
    """Parse a comma-separated goal list; accepts an optional trailing period."""
    p = _Parser(text)
    tok = p.peek()
    goals = p.parse_body()
    for g in goals:
        p.check_goal(g, tok)
    if p.peek().kind == "end":
        p.next()
    if p.peek().kind != "eof":
        raise p.error(f"trailing input after query: {p.peek().text!r}")
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
        if type(x) is str:
            out.append(x)
        elif isinstance(x, (Var, Atom)):
            out.append(x.name)
        elif isinstance(x, Int):
            out.append(str(x.value))
        else:
            todo.extend(reversed(_print_parts(x)))
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
