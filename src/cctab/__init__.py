"""cctab: tabled evaluation of a Prolog subset via continuation-call translation.

The pieces compose as a pipeline:

    parse_program -> translate -> Engine.solve

where translate, in general mode, runs find_bridges itself and treats every
predicate it marks as a bridge (effective_bridges is that set); bottom_up_eval
is an independent ground-truth oracle for answer sets.
"""

from .bridges import CallGraph, build_call_graph, find_bridges
from .engine import BindingStore, solve, unify
from .errors import (
    Error,
    ExistenceError,
    InstantiationError,
    LoadError,
    ParseError,
    RangeRestrictionError,
    ResourceLimitError,
    TablingError,
    TranslateError,
    TypeMismatchError,
)
from .fixtures import gen_fixture
from .oracle import bottom_up_eval, compare_answer_sets
from .syntax import (
    parse_program,
    parse_query,
    parse_term,
    print_clause,
    print_program,
    print_term,
)
from .tabling import Counters, Engine, TableSpace
from .terms import (
    Atom,
    Clause,
    Int,
    PredId,
    Program,
    Struct,
    Term,
    Var,
    canonical_variant,
    mk_list,
)
from .translate import Mode, effective_bridges, translate

__all__ = [
    "Atom",
    "BindingStore",
    "CallGraph",
    "Clause",
    "Counters",
    "Engine",
    "Error",
    "ExistenceError",
    "InstantiationError",
    "Int",
    "LoadError",
    "Mode",
    "ParseError",
    "PredId",
    "Program",
    "RangeRestrictionError",
    "ResourceLimitError",
    "Struct",
    "TableSpace",
    "TablingError",
    "TranslateError",
    "Term",
    "TypeMismatchError",
    "Var",
    "bottom_up_eval",
    "build_call_graph",
    "canonical_variant",
    "compare_answer_sets",
    "effective_bridges",
    "find_bridges",
    "gen_fixture",
    "mk_list",
    "parse_program",
    "parse_query",
    "parse_term",
    "print_clause",
    "print_program",
    "print_term",
    "solve",
    "translate",
    "unify",
]
