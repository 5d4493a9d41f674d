import pytest
from hypothesis import settings

from monocat.connectivity import connecting_category
from monocat.core import is_group
from monocat.corpus import standard_corpus

# every test module runs under this profile, alone or in the whole suite;
# an explicit @settings keeps its own values
settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def nongroup_corpus(corpus):
    return [(name, m) for name, m in corpus if not is_group(m)]


@pytest.fixture(scope="session")
def corpus_categories(corpus):
    """Envelope category (or groupoid) of every corpus monoid, by name."""
    return {name: connecting_category(m) for name, m in corpus}
