import pytest

from sgc.verify import Corpus


@pytest.fixture(scope="session")
def corpus_n4():
    return Corpus.embedded(4).graphs


@pytest.fixture(scope="session")
def corpus_n5():
    return [g for g in Corpus.embedded(5) if g.n == 5]
