import pytest

from corrsets.data import encode
from corrsets.datasets import tic_tac_toe_table, write_tic_tac_toe_csv


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true",
                     help="rewrite tests/golden/ from the current outputs")


@pytest.fixture(scope="session")
def ttt_table():
    return tic_tac_toe_table()


@pytest.fixture(scope="session")
def ttt(ttt_table):
    return encode(ttt_table, numeric_cols="none")


@pytest.fixture(scope="session")
def ttt_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tictactoe.csv"
    write_tic_tac_toe_csv(path)
    return path
