"""Exception hierarchy shared by every cctab module."""


class Error(Exception):
    """Base class for all cctab errors."""


class ParseError(Error):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class LoadError(Error):
    """Inconsistent directives, e.g. a predicate declared both table and bridge."""


class TranslateError(Error):
    """Source construct the translation cannot handle."""


class QueryError(Error):
    """Base class for runtime (query evaluation) errors."""


class ExistenceError(QueryError):
    """Call to a predicate with no clauses and no built-in meaning."""


class InstantiationError(QueryError):
    """An argument was insufficiently instantiated (unbound where a value is required)."""


class TypeMismatchError(QueryError):
    """Wrong argument type, e.g. non-integer arithmetic operand or division by zero."""


class ResourceLimitError(QueryError):
    """Resolution step budget, oracle iteration cap or memory exceeded."""


class TablingError(QueryError):
    """Internal-consistency violation in the tabling runtime."""


class RangeRestrictionError(Error):
    """Clause unsuitable for bottom-up evaluation (head variable never bound)."""
