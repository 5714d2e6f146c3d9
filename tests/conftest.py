import pytest

from cddohs.core import make_rng


@pytest.fixture
def rng():
    return make_rng(12345)
