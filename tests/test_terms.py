import itertools

from cctab import Atom, Int, PredId, Struct, Var
from cctab.terms import var_names


def test_var_equality_and_hash_ignore_the_name():
    assert Var(1, "X") == Var(1, "Y")
    assert hash(Var(1, "X")) == hash(Var(1, "Y")) == hash((1,))
    assert Var(1, "X") != Var(2, "X")
    assert Var(3).name == "_"
    assert Struct("f", (Var(0, "X"),)) == Struct("f", (Var(0, "Y"),))
    assert hash(Struct("f", (Var(0, "X"),))) == hash(Struct("f", (Var(0, "Y"),)))


def test_leaf_hashes_and_reprs():
    # atoms and integers hash as their str and int, and print as them
    assert hash(Atom("a")) == hash("a")
    assert hash(Int(5)) == hash(5)
    assert repr(Var(0, "X")) == "Var(id=0, name='X')"
    assert repr(Atom("a")) == "Atom(name='a')"
    assert repr(Int(-1)) == "Int(value=-1)"
    assert str(Int(-1)) == f"{Int(-1)}" == "-1"
    assert str(Atom("a")) == "a"
    assert type(Int(-1).value) is int and Int(-1).value == -1
    assert type(Atom("a").name) is str and Atom("a").name == "a"


def test_leaves_of_different_kinds_are_unequal():
    leaves = [Int(1), Atom("1"), Var(1)]
    for a, b in itertools.permutations(leaves, 2):
        assert a != b
        assert not a == b
        assert Struct("f", (a,)) != Struct("f", (b,))
    # an atom or integer equals its str or int; a variable equals no int
    assert Int(1) == 1 and 1 == Int(1)
    assert Atom("1") == "1" and "1" == Atom("1")
    assert Var(1) != 1 and 1 != Var(1)
    assert len(set(leaves)) == 3


def test_compound_equality_compares_leaves_by_value():
    # (leaf, an equal leaf that is another object, a different leaf of its kind)
    for a, same, other in [(Int(1), Int(1), Int(2)), (Atom("a"), Atom("a"), Atom("b")),
                           (Var(0, "X"), Var(0, "Y"), Var(1, "X"))]:
        assert Struct("f", (a, Atom("x"))) == Struct("f", (same, Atom("x")))
        assert Struct("f", (a, Atom("x"))) != Struct("f", (other, Atom("x")))


def test_pred_id_is_not_a_tuple():
    assert PredId("p", 1) == PredId("p", 1)
    assert PredId("p", 1) != ("p", 1)
    assert hash(PredId("p", 1)) == hash(PredId("p", 1))
    assert sorted([PredId("q", 0), PredId("p", 2), PredId("p", 1)]) == [
        PredId("p", 1), PredId("p", 2), PredId("q", 0)]
    assert str(PredId("p", 2)) == "p/2"


def test_var_names_by_id_from_first_occurrence():
    x, y = Var(0, "X"), Var(1, "Y")
    assert var_names([Struct("f", (x, Struct("g", (y,)))), x]) == ["X", "Y"]
    assert var_names([Atom("a"), Int(1)]) == []
    # ids out of order or with gaps, and one id under two names
    assert var_names([Struct("f", (Var(2, "C"), Var(0, "A"))), Var(2, "D")]) == ["A", "_G", "C"]
    assert var_names([Struct("f", (Var(1, "B"), Var(0, "A"), Var(1, "Z")))]) == ["A", "B"]
