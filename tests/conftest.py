"""Shared fixtures for the lagzero test suite."""

from fractions import Fraction

import pytest

from lagzero import landscape


@pytest.fixture(scope="session")
def ctx81():
    return landscape.make_context(Fraction(81, 100))


@pytest.fixture(scope="session")
def ctx80():
    return landscape.make_context(Fraction(4, 5))


@pytest.fixture(scope="session")
def ctx75():
    return landscape.make_context(Fraction(3, 4))


@pytest.fixture(scope="session")
def ctx99():
    return landscape.make_context(Fraction(99, 100))
