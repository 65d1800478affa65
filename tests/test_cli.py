import pytest

import cctab.cli
from cctab import parse_term
from cctab.cli import main
from cctab.fixtures import gen_fixture

from conftest import FIXTURES, memory_error_at_answer, read_golden, run_limited

MIXED = str(FIXTURES / "mixed_loop.pl")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_general_query(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)")
    assert code == 0
    assert out.splitlines() == ["t(0)", "t(1)"]


def test_legacy_query_loses_answer(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)", "--mode", "legacy")
    assert code == 0
    assert out.splitlines() == ["t(0)"]


def test_oracle_check_ok(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)", "--oracle-check")
    assert code == 0
    assert out.splitlines()[-1] == "OK"


def test_oracle_check_mismatch_exits_1(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)", "--mode", "legacy", "--oracle-check")
    assert code == 1
    assert "missing: t(1)" in out.splitlines()


def test_oracle_check_reports_extra_answers(capsys, monkeypatch):
    # the oracle agrees with the engine on every program the tests have, so
    # its verdict is replaced by one with an answer only the engine has
    monkeypatch.setattr(cctab.cli, "compare_answer_sets",
                        lambda *args, **kwargs: (False, [], [parse_term("t(9)")]))
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)", "--oracle-check")
    assert (code, out.splitlines()[-1]) == (1, "extra: t(9)")


def test_show_bridges(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--show-bridges")
    assert code == 0
    assert out.splitlines() == ["p/1"]


def test_translate_only_matches_golden(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--translate-only")
    assert code == 0
    assert out == read_golden("mixed_loop.general.pl")
    code, out, _ = run_cli(capsys, MIXED, "--translate-only", "--mode", "legacy")
    assert code == 0
    assert out == read_golden("mixed_loop.legacy.pl")


def test_gen_chain_query(capsys):
    code, out, _ = run_cli(capsys, "--gen", "chain:4", "--query", "path(1, X)")
    assert code == 0
    assert out.splitlines() == ["path(1, 2)", "path(1, 3)", "path(1, 4)", "path(1, 5)"]


def test_gen_fixture_shapes():
    chain = gen_fixture("chain", 2)
    assert "edge(1, 2)." in chain and "edge(2, 3)." in chain
    cycle = gen_fixture("cycle", 2)
    assert "edge(3, 1)." in cycle
    grid = gen_fixture("grid", 2)
    assert "edge(1, 2)." in grid and "edge(1, 3)." in grid and "edge(2, 4)." in grid
    with pytest.raises(ValueError):
        gen_fixture("circle", 3)


def test_stats_line(capsys):
    code, out, _ = run_cli(capsys, MIXED, "--query", "t(A)", "--stats")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("suspensions=1 resumptions=2 ")
    assert " generators=1 answers=2" in last


def test_depth_flag_limits_runaway(capsys, tmp_path):
    f = tmp_path / "loop.pl"
    f.write_text("loop(X) :- loop(X).\n")
    code, _, err = run_cli(capsys, str(f), "--query", "loop(1)", "--depth", "1000")
    assert code == 2
    assert "budget" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    memory_error_at_answer(monkeypatch, 30)
    code, out, err = run_cli(capsys, "--gen", "chain:12", "--query", "path(X, Y)")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_parse_error_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.pl"
    f.write_text("t(0)\n")
    code, _, err = run_cli(capsys, str(f), "--query", "t(X)")
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "/nonexistent/prog.pl", "--query", "x")
    assert code == 2


def test_flag_conflicts(capsys, tmp_path):
    code, _, err = run_cli(capsys, MIXED, "--gen", "chain:2")
    assert code == 2
    code, _, err = run_cli(capsys, MIXED, "--translate-only", "--query", "t(A)")
    assert code == 2
    code, _, err = run_cli(capsys)
    assert code == 2
    code, _, err = run_cli(capsys, MIXED, "--oracle-check")
    assert code == 2


def test_answer_order_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "--gen", "cycle:2", "--query", "path(X, Y)")
        runs.append(out)
    assert runs[0] == runs[1]


def test_console_entry_point():
    proc = run_limited("-m", "cctab.cli", "--gen", "chain:2", "--query", "path(1, X)")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["path(1, 2)", "path(1, 3)"]


@pytest.mark.parametrize(
    "directives, flags, expected",
    [("", [], "q(5000)\n"), (":- table q/1.\n", ["--oracle-check"], "q(5000)\nOK\n")],
    ids=["plain", "oracle-check"],
)
def test_deep_arithmetic_expression(tmp_path, directives, flags, expected):
    # in a child process: a failure here is a traceback thousands of frames deep
    f = tmp_path / "deep.pl"
    f.write_text(directives + "q(X) :- X is " + " + ".join(["1"] * 5000) + ".\n")
    proc = run_limited("-m", "cctab.cli", str(f), "--query", "q(X)", *flags, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr[-300:]) == (0, expected, "")


def test_deep_answer_term_prints(tmp_path):
    # in a child process: a failure here is a traceback thousands of frames deep
    f = tmp_path / "nat.pl"
    f.write_text("nat(0, z).\nnat(N, s(X)) :- N > 0, M is N - 1, nat(M, X).\n")
    proc = run_limited("-m", "cctab.cli", str(f), "--query", "nat(3000, X)", timeout=60)
    expected = "nat(3000, " + "s(" * 3000 + "z" + ")" * 3000 + ")\n"
    assert (proc.returncode, proc.stdout, proc.stderr[-300:]) == (0, expected, "")


@pytest.mark.parametrize("mode", ["general", "legacy"])
def test_deeply_nested_source_terms_parse_and_answer(tmp_path, mode):
    # in a child process: a failure here is a traceback thousands of frames deep
    n = 5000
    f = tmp_path / "nested.pl"
    f.write_text(
        ":- table p/1.\n"
        "p(X) :- X = " + "f(" * n + "a" + ")" * n + ".\n"
        "p(X) :- X = " + "[" * n + "]" * n + ".\n"
        "p(X) :- X = " + "(" * n + "b" + ")" * n + ".\n"
    )
    proc = run_limited("-m", "cctab.cli", str(f), "--query", "p(X)", "--mode", mode,
                       "--oracle-check", timeout=60)
    expected = "p(" + "f(" * n + "a" + ")" * n + ")\n" + "p(" + "[" * n + "]" * n + ")\np(b)\nOK\n"
    assert (proc.returncode, proc.stdout, proc.stderr[-300:]) == (0, expected, "")


CYCLIC = {
    "query": ("p.\n", "X = f(X)"),
    "clause": ("p(X) :- X = f(X).\n", "p(_)"),
    "tabled": (":- table t/1.\nt(X) :- X = f(X).\n", "t(X)"),
    "arithmetic": ("p.\n", "X = X + 1, Y is X"),
    "comparison": (":- table t/1.\nt(Y) :- X = 1 + (X * 2), Y > X.\n", "t(3)"),
    "unify": ("p.\n", "X = f(X), Y = f(Y), X = Y"),
}


@pytest.mark.parametrize("mode", ["general", "legacy"])
@pytest.mark.parametrize("case", sorted(CYCLIC))
def test_cyclic_term_is_an_error(tmp_path, case, mode):
    # in a limited child process: copying or evaluating a cyclic term never ends
    source, query = CYCLIC[case]
    f = tmp_path / "cyclic.pl"
    f.write_text(source)
    proc = run_limited("-m", "cctab.cli", str(f), "--query", query, "--mode", mode)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: cyclic term: X is bound to a term that contains it\n")


@pytest.mark.parametrize("mode", ["general", "legacy"])
@pytest.mark.parametrize("query", [
    "X = f(X), Y = f(Y), X \\= Y",
    "X = f(X, a), Y = f(Y, b), X = Y",
    "X = f(a, X), Y = f(b, Y), X = Y",
], ids=["not_unify", "mismatch_last", "mismatch_first"])
def test_unifying_cyclic_terms_ends(tmp_path, query, mode):
    # in a limited child process: each query fails, so no cyclic term is
    # returned; unify meets the cycle before the mismatch in mismatch_first
    f = tmp_path / "cyclic.pl"
    f.write_text("p.\n")
    proc = run_limited("-m", "cctab.cli", str(f), "--query", query, "--mode", mode)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_multi_goal_oracle_check_is_refused_before_running(capsys):
    code, out, err = run_cli(capsys, "--gen", "chain:3", "--query", "path(1, X), path(X, Y)",
                             "--oracle-check")
    assert (code, out, err) == (2, "", "error: --oracle-check needs a single-goal query\n")


@pytest.mark.parametrize("query", ["", "  "])
def test_empty_query_is_a_parse_error(capsys, query):
    code, out, err = run_cli(capsys, "--gen", "chain:3", "--query", query)
    assert (code, out) == (2, "")
    assert err.startswith("error: 1:") and "expected a term" in err


def test_non_decimal_digit_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "digit.pl"
    f.write_text("p(\u00b2).\n")
    code, out, err = run_cli(capsys, str(f), "--query", "p(X)")
    assert (code, out, err) == (2, "", "error: 1:3: unexpected character '\u00b2'\n")


def test_user_predicate_named_like_a_builtin_is_not_the_builtin(capsys, tmp_path):
    # true/1 is a user predicate; only true/0 is the built-in
    f = tmp_path / "true1.pl"
    f.write_text(":- table p/1.\np(X) :- q(X), true(X).\nq(1).\nq(2).\ntrue(1).\n")
    code, out, _ = run_cli(capsys, str(f), "--query", "p(X)", "--oracle-check")
    assert (code, out) == (0, "p(1)\nOK\n")


def test_arithmetic_error_prints_the_term(capsys, tmp_path):
    f = tmp_path / "arith.pl"
    f.write_text("q(X) :- X is a + 1.\n")
    code, out, err = run_cli(capsys, str(f), "--query", "q(X)")
    assert (code, out, err) == (2, "", "error: not an integer expression: a\n")


@pytest.mark.parametrize("spec", ["circle:3", "chain:0", "chain"])
def test_bad_gen_fixture_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, "--gen", spec, "--query", "path(X, Y)")
    assert (code, out) == (2, "")
    if ":" in spec:
        assert err.startswith("error: --gen: ")
    else:
        assert err == f"error: --gen expects KIND:SIZE, got {spec!r}\n"


def test_non_ground_answer_resumes_a_consumer(capsys, tmp_path):
    # the answer p(f(X), X) has a variable, so its resumption unifies the
    # continuation's pending call into the stored answer, not the reverse
    f = tmp_path / "ng.pl"
    f.write_text(":- table p/2.\np(f(X), X).\np(g(X), Y) :- p(X, Y), X = f(_).\n")
    code, out, _ = run_cli(capsys, str(f), "--query", "p(A, B)", "--stats")
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["p(f(_G), _G)", "p(g(f(_G)), _G)"]
    assert lines[2].startswith("suspensions=1 resumptions=2 ")
    assert lines[2].endswith(" answers=2")


# errors only a hand-written tabling primitive can raise; p(_) is generator 0
@pytest.mark.parametrize("clause, text", [
    ("q :- answer(7, p(2)).", "answer/2: bad generator id"),
    ("q :- p(_), answer(0, p(2)).", "answer/2: generator 0 is already complete"),
    ("q :- slgcall(k(9, [], p(X), [])).", "slgcall/1: bad generator id"),
    ("p(X) :- slgcall(k(0, [], 5, [])).\nq :- p(_).",
     "malformed continuation term: pending call is not callable"),
    # r(_) is generator 1; its continuation names the completed generator 0
    (":- table r/1.\nr(X) :- slgcall(k(0, [], r(X), [])).\nq :- p(X), r(Y).",
     "slgcall/1: generator 0 is already complete"),
], ids=["answer-bad-id", "answer-complete", "slgcall-bad-id", "slgcall-not-callable",
        "slgcall-complete"])
def test_hand_written_primitive_errors_exit_2(capsys, tmp_path, clause, text):
    f = tmp_path / "hand.pl"
    f.write_text(f":- table p/1.\np(1).\n{clause}\n")
    code, out, err = run_cli(capsys, str(f), "--query", "q")
    assert (code, out, err) == (2, "", f"error: {text}\n")


# a query may name a generated predicate, whose generator id the runtime
# then checks: the program's checks at load time do not reach a query
@pytest.mark.parametrize("query, text", [
    ("slg_path(path(1, X), 7)", "slgcall/1: bad generator id"),
    ("path(1, X), slg_path(path(1, Y), 0)", "slgcall/1: generator 0 is already complete"),
], ids=["bad-id", "complete"])
def test_query_naming_a_generated_predicate_exits_2(capsys, query, text):
    code, out, err = run_cli(capsys, "--gen", "chain:3", "--query", query)
    assert (code, out, err) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("mode, prev", [("general", ", []"), ("legacy", "")],
                         ids=["general", "legacy"])
def test_two_clause_continuation_exits_2(capsys, tmp_path, mode, prev):
    # only a hand-written slgcall/1 can name a continuation with two clauses
    f = tmp_path / "two.pl"
    f.write_text(
        ":- table p/1.\n:- table q/1.\nq(1).\n"
        f"p(X) :- slgcall(k(0, [], q(X){prev})).\n"
        + f"k(Id, [], q(X){prev}) :- answer(Id, p(X)).\n" * 2
    )
    arity = 4 if mode == "general" else 3
    code, out, err = run_cli(capsys, str(f), "--query", "p(X)", "--mode", mode)
    assert (code, out) == (2, "")
    assert err == (f"error: continuation predicate k/{arity} has 2 clauses; "
                   "a resumption needs exactly one\n")


@pytest.mark.parametrize("mode", ["general", "legacy"])
def test_oracle_evaluates_call(capsys, tmp_path, mode):
    f = tmp_path / "call.pl"
    f.write_text(":- table p/1.\np(X) :- call(q(X)).\nq(1).\n")
    code, out, _ = run_cli(capsys, str(f), "--query", "p(X)", "--mode", mode, "--oracle-check")
    assert (code, out) == (0, "p(1)\nOK\n")


# call/1 of a goal bound at run time reaches slg/1 past the translation; no
# bridge can instrument it, so general mode refuses and names the tabled call.
RUNTIME_CALL = {
    "own-evaluation": (
        ":- table t/1.\nt(0).\nt(X) :- G = t(Y), call(G), Y < 3, X is Y + 1.\n",
        "error: tabled call t(A) reached its own evaluation through a call the translation "
        "does not instrument (call/1 of a goal bound at run time, or a hand-written slg/1)\n",
        "t(0)\nt(1)\nt(2)\nt(3)\n",
    ),
    "outer-evaluation": (
        ":- table t/1.\n:- table u/1.\nt(0).\nt(X) :- G = u(X), call(G).\nu(X) :- t(X).\n",
        "error: tabled call u(A) was reached through a call the translation does not instrument "
        "(call/1 of a goal bound at run time, or a hand-written slg/1), so it cannot complete: "
        "u(A) depends on the open evaluation of t(A)\n",
        "t(0)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(RUNTIME_CALL))
def test_runtime_bound_call_refusal_names_its_cause(capsys, tmp_path, case):
    src, error, legacy_out = RUNTIME_CALL[case]
    f = tmp_path / "runtime_call.pl"
    f.write_text(src)
    assert run_cli(capsys, str(f), "--query", "t(X)") == (2, "", error)
    assert run_cli(capsys, str(f), "--query", "t(X)", "--mode", "legacy") == (0, legacy_out, "")


def test_cased_non_alphanumeric_character_is_read(tmp_path):
    # U+24B6 is upper case but not alphanumeric; a reader that takes no
    # character for it appends empty tokens forever, hence the child process
    f = tmp_path / "circled.pl"
    f.write_text("p(Ⓐ).\n", encoding="utf-8")
    proc = run_limited("-m", "cctab.cli", str(f), "--query", "p(X)", timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p(Ⓐ)\n", "")
    # inside a word it is not a word character, so it ends the atom
    f.write_text("q(aⒶ).\n", encoding="utf-8")
    proc = run_limited("-m", "cctab.cli", str(f), "--translate-only", timeout=20)
    assert (proc.returncode, proc.stderr) == (2, "error: 1:4: expected ')', found 'Ⓐ'\n")


@pytest.mark.parametrize("prefix", [b"", b"p(a).\n" * 2000], ids=["first_line", "past_8k"])
def test_non_utf8_program_exits_2_naming_file_and_byte(tmp_path, prefix):
    # in a child process, so a traceback would show on its standard error;
    # the offset counts from the start of the file, not of a read buffer
    f = tmp_path / "latin1.pl"
    f.write_bytes(prefix + b"p(\xff).\n")
    proc = run_limited("-m", "cctab.cli", str(f), "--query", "p(X)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {f}: byte {len(prefix) + 2} is not UTF-8 (invalid start byte)\n")


def test_non_utf8_program_exits_2_in_process(capsys, tmp_path):
    f = tmp_path / "latin1.pl"
    f.write_bytes(b"p(a).\np(\xff).\n")
    assert run_cli(capsys, str(f), "--query", "p(X)") == (
        2, "", f"error: {f}: byte 8 is not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_program_line_breaks_read_as_text(capsys, tmp_path, newline):
    f = tmp_path / "breaks.pl"
    f.write_bytes(f"p(a).{newline}q(b) @.{newline}".encode())
    assert run_cli(capsys, str(f), "--query", "p(X)") == (
        2, "", "error: 2:6: unexpected character '@'\n")
