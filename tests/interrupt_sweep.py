"""The full line-level interrupt sweep, outside tier-1.

test_interrupt.py interrupts a query at every line event inside the methods
that write the table space.  This sweep counts every line event inside any
function of cctab/tabling.py and cctab/engine.py instead, nested functions
and lambdas too, so that a write made outside the listed methods is cut as
well; the programs, the modes and what must hold after each cut are the
same.  Its name keeps tier-1 from collecting it; run it as

    PYTHONPATH=src python -m pytest -q tests/interrupt_sweep.py
"""

import pytest

import cctab.engine
import cctab.tabling
from cctab import Mode

from test_interrupt import PROGRAMS, sweep


class InModules:
    """Every code object compiled from the source file of one of modules."""

    def __init__(self, *modules):
        self.files = {m.__file__ for m in modules}

    def __contains__(self, code):
        return code.co_filename in self.files


EVERY_FUNCTION = InModules(cctab.tabling, cctab.engine)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_an_interrupt_at_any_line_of_the_runtime_leaves_the_tables_usable(program, mode):
    assert sweep(program, mode, EVERY_FUNCTION) > 50
