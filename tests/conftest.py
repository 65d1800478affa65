import pathlib
import resource
import signal
import subprocess
import sys

import pytest

from cctab import Engine, Mode, parse_program, parse_query, print_term, translate

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

# a test that runs longer than this has hung: it fails with a traceback of
# where it was, instead of running on until the CI job is killed
TEST_LIMIT_S = 300


def _expire(signum, frame):
    raise TimeoutError(f"the test ran longer than {TEST_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def run_limited(*argv, timeout=30) -> subprocess.CompletedProcess:
    """Run `python argv...` in a child process with a timeout and a 512 MiB
    address-space limit, so that a runaway computation fails instead of
    hanging or exhausting the host's memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit)


def make_engine(source: str, mode: Mode = Mode.GENERAL) -> Engine:
    return Engine(translate(parse_program(source), mode))


def answers(engine: Engine, query: str) -> list:
    return [print_term(s.goals[0]) for s in engine.solve(parse_query(query))]


@pytest.fixture
def mixed_loop_src() -> str:
    return read_fixture("mixed_loop.pl")


@pytest.fixture
def reach_src() -> str:
    return read_fixture("reach.pl")


def memory_error_at_answer(monkeypatch, k: int):
    """Make the k-th call of Engine.on_answer from now on raise MemoryError."""
    import cctab.tabling

    real = cctab.tabling.Engine.on_answer
    calls = []

    def on_answer(self, machine, id_t, answer, args=None):
        calls.append(answer)
        if len(calls) == k:
            raise MemoryError
        return real(self, machine, id_t, answer, args)

    monkeypatch.setattr(cctab.tabling.Engine, "on_answer", on_answer)
