import contextlib
import io
from typing import NamedTuple

import pytest

from apsieve import PrimeContext
from apsieve.cli import main


# rank-2 types that pass every arithmetic filter and that no stage eliminates
RANK2_TYPES = ((2, 3), (2, 4), (2, 6), (6, 8))


@pytest.fixture(scope="session")
def ctx3():
    return PrimeContext(3)


@pytest.fixture(scope="session")
def ctx5():
    return PrimeContext(5)


def bigint_val(p: int, n: int) -> int:
    """Independent big-integer valuation oracle (n != 0)."""
    assert n != 0
    n = abs(n)
    f = 0
    while n % p == 0:
        n //= p
        f += 1
    return f


class CliResult(NamedTuple):
    exit_code: int
    output: str


def invoke(args) -> CliResult:
    """Run one command line through ``apsieve.cli.main`` in this process;
    ``output`` holds stdout and stderr as written, in one buffer."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(list(args), standalone_mode=False)
    return CliResult(code, buf.getvalue())
