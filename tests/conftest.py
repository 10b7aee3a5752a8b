import time

import pytest

from finevo import analyze_law, example_law
from fuzzlaws import corpus, cyclic3_law, p3_h2_law, r7g2_law


@pytest.fixture(scope="session")
def example_analysis():
    return analyze_law(example_law())


@pytest.fixture(scope="session")
def cyclic3_analysis():
    return analyze_law(cyclic3_law())


@pytest.fixture(scope="session")
def p3h2_analysis():
    return analyze_law(p3_h2_law())


@pytest.fixture(scope="session")
def r7g2_analysis():
    return analyze_law(r7g2_law())


@pytest.fixture(scope="session")
def fuzz_corpus():
    return corpus()


@pytest.fixture(scope="session")
def fuzz_analyses(fuzz_corpus):
    """Analyses of the whole corpus plus the time spent computing them.

    The elapsed time is charged to the acceptance criteria that consume the
    analyses, so the stated runtime budgets cover the full computation.
    """
    start = time.monotonic()
    analyses = [analyze_law(law) for law in fuzz_corpus]
    elapsed = time.monotonic() - start
    return analyses, elapsed
