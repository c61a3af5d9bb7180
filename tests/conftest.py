import numpy as np
import pytest

from friedrichs3d import parse_v
from friedrichs3d.cli import main as cli_main


@pytest.fixture(scope="session")
def v_one():
    return parse_v("1")


@pytest.fixture(scope="session")
def v_cos_half():
    # nonzero at the origin, zero at every Lambda point
    return parse_v("cos(p1) + 0.5")


@pytest.fixture(scope="session")
def v_one_minus_cos():
    # zero at the origin, nonzero on Lambda
    return parse_v("1 - cos(p1)")


@pytest.fixture(scope="session")
def v_product():
    # zero at the origin and on Lambda
    return parse_v("(1 - cos(p1)) * (cos(p1) + 0.5)")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""

    def _run(*argv):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse errors exit instead of returning
            code = exc.code if isinstance(exc.code, int) else 2
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run
