"""Shared generators for randomized and property-based tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ewb import BraidWord, closable, rho, sigma, sigma_inv, tau

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _random_word(pick, strands: int, length: int) -> BraidWord:
    """A word of ``length`` letters; ``pick(lo, hi)`` draws an integer in ``[lo, hi]``."""
    letters = []
    for _ in range(length):
        kind = pick(0, 3) if strands > 1 else 3
        make = (sigma, sigma_inv, rho, tau)[kind]
        letters.append(make(pick(1, strands if make is tau else strands - 1)))
    return BraidWord(strands, tuple(letters))


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    return _random_word(rng.randint, strands, length)


def random_closable_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    while True:
        w = random_word(rng, strands, length)
        if closable(w):
            return w


@st.composite
def braid_words(draw, max_strands: int = 5, max_length: int = 10) -> BraidWord:
    n = draw(st.integers(1, max_strands))
    length = draw(st.integers(0, max_length))
    return _random_word(lambda lo, hi: draw(st.integers(lo, hi)), n, length)


@pytest.fixture
def l1_text() -> str:
    return (FIXTURES / "l1.gd").read_text()


@st.composite
def stabilized_words(draw, max_strands: int = 5, max_length: int = 10) -> BraidWord:
    """A word from ``braid_words`` with stabilizations appended, each on a
    new strand, then rotated; each crossing stabilization closes into a
    curl, which the rotation can move anywhere."""
    w = draw(braid_words(max_strands, max_length))
    n, letters = w.strands, list(w.letters)
    for _ in range(draw(st.integers(0, 4))):
        letters.append(draw(st.sampled_from((sigma, sigma_inv, rho)))(n))
        n += 1
    k = draw(st.integers(0, len(letters))) if letters else 0
    return BraidWord(n, tuple(letters[k:] + letters[:k]))
