"""Shared generators for randomized and property-based tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ewb import BraidWord, closable, rho, sigma, sigma_inv, tau

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        kind = rng.randrange(4) if strands > 1 else 3
        if kind == 0:
            letters.append(sigma(rng.randint(1, strands - 1)))
        elif kind == 1:
            letters.append(sigma_inv(rng.randint(1, strands - 1)))
        elif kind == 2:
            letters.append(rho(rng.randint(1, strands - 1)))
        else:
            letters.append(tau(rng.randint(1, strands)))
    return BraidWord(strands, tuple(letters))


def random_closable_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    while True:
        w = random_word(rng, strands, length)
        if closable(w):
            return w


@st.composite
def braid_words(draw, max_strands: int = 5, max_length: int = 10) -> BraidWord:
    n = draw(st.integers(1, max_strands))
    length = draw(st.integers(0, max_length))
    letters = []
    for _ in range(length):
        kind = draw(st.integers(0, 3)) if n > 1 else 3
        if kind == 0:
            letters.append(sigma(draw(st.integers(1, n - 1))))
        elif kind == 1:
            letters.append(sigma_inv(draw(st.integers(1, n - 1))))
        elif kind == 2:
            letters.append(rho(draw(st.integers(1, n - 1))))
        else:
            letters.append(tau(draw(st.integers(1, n))))
    return BraidWord(n, tuple(letters))


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
