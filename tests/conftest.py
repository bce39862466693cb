import os
import sys
from itertools import islice

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from quiverhom import corpus

from helpers import exhaustive_truncated_family


@pytest.fixture(scope="session")
def sec4():
    return corpus.algebra("sec4_example")


@pytest.fixture(scope="session")
def sec3():
    return corpus.algebra("sec3_example")


@pytest.fixture(scope="session")
def finito():
    return corpus.algebra("finito")


@pytest.fixture(scope="session")
def infinito():
    return corpus.algebra("infinito")


@pytest.fixture(scope="session")
def family_sample():
    """Every 7th member of the criteria 7/8 truncated family (768 algebras)."""
    return list(islice(exhaustive_truncated_family(), 0, None, 7))
