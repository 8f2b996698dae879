import pytest

from stackyring import fixtures


@pytest.fixture
def p112():
    return fixtures.load_fan("p112")


@pytest.fixture
def rank1_pair():
    return (fixtures.load_fan("example_rank1"),
            fixtures.load_fan("example_rank1_tilde"))
