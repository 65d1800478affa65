import random

import pytest

from cctab import (
    Atom,
    Int,
    LoadError,
    ParseError,
    PredId,
    Struct,
    Var,
    canonical_variant,
    mk_list,
    parse_program,
    parse_query,
    parse_term,
    print_program,
    print_term,
)
from cctab.syntax import _SYMBOLIC, INFIX_OPS, tokenize
from cctab.terms import NIL, Clause, copy_term

from conftest import read_fixture
from test_differential import PROGRAMS as DIFFERENTIAL_PROGRAMS
from test_differential import SEED as DIFFERENTIAL_SEED
from test_differential import random_program


def canonical_clause(c: Clause) -> Struct:
    """Canonical form of a clause for structural comparison-modulo-renaming."""
    return canonical_variant(Struct(":-", (c.head, mk_list(c.body))))


def test_parse_reach_program():
    p = parse_program(read_fixture("reach.pl"))
    assert len(p.clauses) == 2
    assert p.tabled == {PredId("path", 2)}
    assert p.bridges == frozenset()
    head = p.clauses[0].head
    assert head == Struct("path", (Var(0), Var(1)))
    assert [print_term(g) for g in p.clauses[0].body] == ["edge(X, Y)", "path(Y, Z)"]


def test_parse_single_fact():
    p = parse_program("t(0).")
    assert len(p.clauses) == 1
    assert p.clauses[0].body == ()
    assert not p.tabled and not p.bridges


def test_table_and_bridge_conflict():
    with pytest.raises(LoadError, match="t/1 declared both table and bridge"):
        parse_program(":- table t/1.\n:- bridge t/1.\nt(0).")


def test_directive_for_undefined_predicate_warns(caplog):
    with caplog.at_level("WARNING"):
        parse_program(":- table ghost/3.\nt(0).")
    assert "ghost/3" in caplog.text


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("t(0)\nq(1).")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="head"):
        parse_program("7.")
    with pytest.raises(ParseError, match="goal"):
        parse_program("a :- X.")
    with pytest.raises(ParseError, match="directive"):
        parse_program(":- tible t/1.")


@pytest.mark.parametrize("text, line, col, kind", [("q, X", 1, 4, "variable"),
                                                    ("q(1), r,  (7).", 1, 11, "integer")],
                         ids=["variable", "integer"])
def test_invalid_query_goal_reported_where_it_starts(text, line, col, kind):
    with pytest.raises(ParseError) as e:
        parse_query(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, f"{kind} is not a valid goal")


def test_operator_parsing():
    t = parse_term("A is B + 1 * 2")
    assert t == Struct(
        "is", (Var(0, "A"), Struct("+", (Var(1, "B"), Struct("*", (Int(1), Int(2))))))
    )
    assert print_term(t) == "A is B + 1 * 2"
    assert print_term(parse_term("(A + B) * 2")) == "(A + B) * 2"
    assert parse_term("X = -3") == Struct("=", (Var(0, "X"), Int(-3)))
    assert print_term(parse_term("A - B - C")) == "A - B - C"
    with pytest.raises(ParseError, match="trailing input after term: '='"):
        parse_term("A = B = C")  # xfx: no equal-priority operand on either side


def test_list_sugar():
    t = parse_term("[a, B, 3]")
    assert t == mk_list([Atom("a"), Var(0, "B"), Int(3)])
    assert print_term(t) == "[a, B, 3]"
    t2 = parse_term("[H|T]")
    assert t2 == Struct(".", (Var(0, "H"), Var(1, "T")))
    assert print_term(t2) == "[H|T]"
    assert print_term(parse_term("[]")) == "[]"


def test_comments_ignored():
    p = parse_program("% leading comment\nt(0). % trailing\n")
    assert len(p.clauses) == 1


def test_query_parsing():
    goals = parse_query("edge(a, X), path(X, Y).")
    assert len(goals) == 2
    with pytest.raises(ParseError):
        parse_query("X")


# -- canonical variants -----------------------------------------------------------


def test_canonical_renaming_invariance():
    a = parse_term("path(A, B)")
    b = parse_term("path(X, Y)")
    assert canonical_variant(a) == canonical_variant(b)


def test_canonical_sharing_distinguishes():
    shared = parse_term("path(A, A)")
    distinct = parse_term("path(A, B)")
    assert canonical_variant(shared) != canonical_variant(distinct)


def test_consumer_call_is_variant_of_generator():
    assert canonical_variant(parse_term("t(B)")) == canonical_variant(parse_term("t(A)"))


def test_canonical_idempotent():
    t = parse_term("f(X, g(Y, X), Z)")
    once = canonical_variant(t)
    assert canonical_variant(once) == once


# -- round trips -------------------------------------------------------------------


def _same_program(a, b):
    assert a.tabled == b.tabled
    assert a.bridges == b.bridges
    assert [canonical_clause(c) for c in a.clauses] == [canonical_clause(c) for c in b.clauses]


@pytest.mark.parametrize("name", ["reach.pl", "mixed_loop.pl"])
def test_round_trip_fixture(name):
    p = parse_program(read_fixture(name))
    _same_program(parse_program(print_program(p)), p)


def test_round_trip_mixed_loop_mentions_directive():
    p = parse_program(read_fixture("mixed_loop.pl"))
    assert ":- table t/1." in print_program(p)


def test_empty_program_prints_empty():
    assert print_program(parse_program("")) == ""


def _random_term(rng, names, depth=0):
    """A term of atoms, integers (negative ones too), variables, compounds,
    infix operators (whose operands print parenthesised where priorities
    need it) and proper and partial lists."""
    roll = rng.random()
    if roll < 0.3 or depth > 2:
        return rng.choice(
            [Atom(rng.choice("abc")), Int(rng.randint(-9, 9)), Var(0, rng.choice(names))]
        )
    if roll < 0.5:
        op = rng.choice(sorted(INFIX_OPS))
        left, right = _random_term(rng, names, depth + 1), _random_term(rng, names, depth + 1)
        return Struct(op, (left, right))
    if roll < 0.65:
        items = [_random_term(rng, names, depth + 1) for _ in range(rng.randint(1, 3))]
        tail = _random_term(rng, names, depth + 1) if rng.random() < 0.3 else NIL
        return mk_list(items, tail)
    n = rng.randint(1, 3)
    return Struct(rng.choice("fgh"), tuple(_random_term(rng, names, depth + 1) for _ in range(n)))


def _random_program(rng) -> tuple:
    """(source text, heads) of a program of one to six random clauses."""
    clauses, heads = [], []
    for _ in range(rng.randint(1, 6)):
        head = Struct(rng.choice("pqr"), (_random_term(rng, "XYZ"),))
        heads.append(head)
        body = ", ".join(
            print_term(_random_term(rng, "XYZ")).join(["q(", ")"])
            for _ in range(rng.randint(0, 3))
        )
        clauses.append(print_term(head) + (f" :- {body}." if body else "."))
    return "\n".join(clauses) + "\n", heads


def test_round_trip_random_programs():
    rng = random.Random(7)
    for _ in range(50):
        text, heads = _random_program(rng)
        for head in heads:
            # the reader must rebuild the printed term, not just a stable one
            assert print_term(parse_term(print_term(head))) == print_term(head)
        p = parse_program(text)
        _same_program(parse_program(print_program(p)), p)


def test_clause_order_preserved():
    p = parse_program("e(1).\nf(2).\ne(3).\n")
    assert [print_term(c.head) for c in p.clauses] == ["e(1)", "f(2)", "e(3)"]
    assert [print_term(c.head) for c in parse_program(print_program(p)).clauses] == [
        "e(1)",
        "f(2)",
        "e(3)",
    ]


# -- token positions and the reader's normal form ---------------------------------


def _reference_tokenize(text: str) -> list:
    """The reader's tokens as (kind, text, line, col), scanned one character
    at a time: the specification syntax.tokenize must keep."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        kind = ("int" if c.isdecimal() else "atom" if c.islower()
                else "var" if c.isupper() or c == "_" else None)
        if kind is not None:
            j = i + 1
            while j < n and (text[j].isdecimal() if kind == "int"
                             else text[j].isalnum() or text[j] == "_"):
                j += 1
        elif c == "." and (i + 1 >= n or text[i + 1] in " \t\r\n%"):
            kind, j = "end", i + 1
        elif c in "()[]|,":
            kind, j = "punct", i + 1
        else:
            sym = next((s for s in _SYMBOLIC if text.startswith(s, i)), None)
            if sym is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            kind, j = "sym", i + len(sym)
        toks.append((kind, text[i:j], line, col))
        col += j - i
        i = j
    toks.append(("eof", "", line, col))
    return toks


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return (e.line, e.col, e.message)


def _reader_corpus():
    """Program texts: the fixtures, the random round-trip programs, the
    differential corpus and clauses with '_', infix operators and list tails."""
    for name in ("reach.pl", "mixed_loop.pl"):
        yield read_fixture(name)
    rng = random.Random(7)
    for _ in range(50):
        yield _random_program(rng)[0]
    rng = random.Random(DIFFERENTIAL_SEED)
    for _ in range(DIFFERENTIAL_PROGRAMS):
        yield random_program(rng)
    yield ("p(_, X, _, [H|T]) :- q(_, X + 1 * Y, [a, b|T]), H = _, Y is -2 - X.\n"
           "r([X, Y|_], Y) :- s(Y, [_|X]), X \\= [].\n"
           "p :- q(X, _), X > 1, r([Z|W], Z), W = [_, Z].\n")


def test_tokenize_matches_the_character_scan():
    rng = random.Random(12)
    alphabet = "aqX_Y09١²Ⓐǅé ()[]|,.%=<>:-+*/\\\t\r\n@ "
    texts = list(_reader_corpus())
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
              for _ in range(3000)]
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(_reference_tokenize, text), text


PARSE_ERRORS = {
    "tab": ("p(a).\n\tq(b)\n\tr(c).", 3, 2, "expected 'end', found 'r'"),
    "tab_in_line": ("p(a,\tb) :-\t@", 1, 12, "unexpected character '@'"),
    "crlf": ("p(a).\r\nq(b) @.\r\n", 2, 6, "unexpected character '@'"),
    "crlf_missing_end": ("p(a).\r\nq(b)\r\n", 3, 1, "expected 'end', found ''"),
    "comment_lines": ("% c\np(a). % x\n% y\nq(b) ;", 4, 6, "unexpected character ';'"),
    "unexpected": ("p(a) :- q(#).", 1, 11, "unexpected character '#'"),
    "circled_a": ("p(Ⓐ) q.", 1, 6, "expected 'end', found 'q'"),
    "circled_a_in_word": ("p(aⒶ).", 1, 4, "expected ')', found 'Ⓐ'"),
    "arabic_indic_digits": ("p(١٢٣) x", 1, 8, "expected 'end', found 'x'"),
    "superscript_digit": ("p(²).", 1, 3, "unexpected character '²'"),
    "titlecase": ("ǅ.", 1, 1, "unexpected character 'ǅ'"),
    "no_break_space": ("p( ).", 1, 3, "unexpected character '\\xa0'"),
    "dot_then_word": ("p(a).q.", 1, 5, "unexpected character '.'"),
    "missing_end": ("p(a)", 1, 5, "expected 'end', found ''"),
    "missing_end_newline": ("p(a)\n", 2, 1, "expected 'end', found ''"),
    # the end of input is placed where a final comment starts
    "missing_end_comment": ("p(a) % c", 1, 6, "expected 'end', found ''"),
    "missing_end_comment_line": ("p(a)\n% c", 2, 1, "expected 'end', found ''"),
    "empty_body": ("p(a) :-", 1, 8, "expected a term, found ''"),
    # an invalid goal is reported where it starts, not where the body does
    "integer_goal": ("p :- q,\n  r, 3.", 2, 6, "integer is not a valid goal"),
    "variable_goal": ("p :- q, (X).", 1, 9, "variable is not a valid goal"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_line_and_col(case):
    source, line, col, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as e:
        parse_program(source)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


def test_non_ascii_decimal_digits_read_as_an_integer():
    assert parse_term("p(١٢٣)") == Struct("p", (Int(123),))


def _normalised(c):
    """c with its variables renumbered 0..n-1 in first-occurrence order, names kept."""
    ids = {}

    def var(v):
        if v.id not in ids:
            ids[v.id] = Var(len(ids), v.name)
        return ids[v.id]

    return Clause(copy_term(c.head, var), tuple(copy_term(g, var) for g in c.body))


def test_reader_emits_normalised_clauses():
    for text in _reader_corpus():
        for c in parse_program(text).clauses:
            again = _normalised(c)
            assert again == c
            # == ignores variable names: the printed forms show ids and names
            assert repr(again) == repr(c)
