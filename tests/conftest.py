"""Shared fixtures.

Expensive artifacts (the full F_2 census, as columns and as records, the
F_2 automorphism group closure and its brute-force order) are built once
per session and shared across test modules.  The acceptance tests append
one PASS/FAIL line per criterion to ``ACCEPTANCE_LINES``; those lines are
echoed in the terminal summary.
"""

from __future__ import annotations

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from splitoct.algebra import algebra
from splitoct.autos import (all_alpha_generators, find_h_moving_extension,
                            generate_group)
from splitoct.census import census_columns
from splitoct.verify import count_automorphisms


@pytest.fixture(scope="session")
def ctx2():
    return algebra(2)


@pytest.fixture(scope="session")
def ctx3():
    return algebra(3)


@pytest.fixture(scope="session")
def ctx5():
    return algebra(5)


@pytest.fixture(scope="session")
def columns2():
    """The F_2 census as :class:`splitoct.classify.Columns`, one stack per
    dimension."""
    return census_columns(algebra(2))


@pytest.fixture(scope="session")
def census2(columns2):
    """Every multiplication-closed subspace of the F_2 algebra, labelled:
    the records of ``columns2``."""
    return [r for cols in columns2 for r in cols.records()]


@pytest.fixture(scope="session")
def generators2():
    """Generators of the full F_2 automorphism group."""
    return all_alpha_generators(2) + [find_h_moving_extension(2)]


@pytest.fixture(scope="session")
def group2(generators2):
    return generate_group(generators2)


@pytest.fixture(scope="session")
def brute_count2():
    """The F_2 automorphism count by direct search, independent of any
    generating set."""
    return count_automorphisms()
