"""Closures of words and braiding of Gauss data."""

import importlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import braid_words, random_closable_word
from ewb import (
    BraidWord,
    GaussData,
    NotClosableError,
    braid_from_gauss,
    closable,
    closure,
    closure_trace,
    components,
    parse_gauss_file,
    permutation_cycles,
    rho,
    same_gauss_data,
    sigma,
    sigma_inv,
    tau,
    validate,
    wen_parity,
    word,
)
from ewb.braid import ImageCapError
from ewb.gauss import _require_valid
from test_gauss import IDS, relabelled, small_diagrams


def braid_by_letters(g):
    """``braid_from_gauss`` with the routing spelled out one welded crossing
    at a time: the crossing row, then each strand due at position q walked
    down letter by letter, then the wens."""
    ix, _ = _require_valid(g)
    degree = 2 * len(g.crossings) + g.loops
    letters = []
    entry = [0] * len(ix.succ)
    for k, (cid, sign) in enumerate(g.crossings):
        p, low = 2 * ix.pos[cid], 2 * k + 1
        letters.append(sigma(low) if sign > 0 else sigma_inv(low))
        entry[p], entry[p + 1] = (low, low + 1) if sign > 0 else (low + 1, low)
    inverse = list(range(degree + 1))
    for p, q in enumerate(ix.succ):
        inverse[entry[q]] = entry[p ^ 1]
    occ, where = list(range(degree + 1)), list(range(degree + 1))
    for q in range(1, degree + 1):
        strand = inverse[q]
        for j in range(where[strand], q, -1):
            occ[j] = occ[j - 1]
            where[occ[j]] = j
            letters.append(rho(j - 1))
        occ[q], where[strand] = strand, q
    letters.extend(tau(q) for q in sorted(entry[q] for p, q in enumerate(ix.succ) if ix.bar[p]))
    return BraidWord(degree, tuple(letters))


CLOSURE_S1 = """\
crossing 1 +
arc 1.3 1.2 0
arc 1.4 1.1 0
loops 0
"""


class TestClosure:
    def test_single_crossing(self):
        assert closure(word(2, sigma(1))) == parse_gauss_file(CLOSURE_S1)

    def test_wens_bar_the_arcs(self):
        g = closure(word(2, tau(1), tau(2), sigma(1)))
        assert g.crossings == (("1", 1),)
        assert all(a.bar == 1 for a in g.arcs)

    def test_negative_crossing_swaps_roles(self):
        g = closure(word(2, sigma_inv(1)))
        assert g.crossings == (("1", -1),)
        assert {str(a) for a in g.arcs} == {"1.3 -> 1.2", "1.4 -> 1.1"}

    def test_odd_parity_is_rejected(self):
        with pytest.raises(NotClosableError, match="component 1 has odd wen parity"):
            closure(word(1, tau(1)))
        with pytest.raises(NotClosableError):
            closure(word(3, sigma(1), tau(3)))

    def test_crossing_free_words_close_to_loops(self):
        assert closure(word(3)) == GaussData((), (), 3)
        assert closure(word(2, rho(1))) == GaussData((), (), 1)
        assert closure(word(2, tau(1), tau(1))) == GaussData((), (), 2)
        assert closure(word(1, tau(1), tau(1))) == GaussData((), (), 1)

    def test_welded_letters_leave_no_trace(self):
        assert closure(word(3, rho(1), sigma(2), rho(1))).crossings == (("1", 1),)

    def test_crossings_are_numbered_in_word_order(self):
        g = closure(word(2, sigma(1), sigma_inv(1), sigma(1)))
        assert g.crossings == (("1", 1), ("2", -1), ("3", 1))

    @settings(max_examples=300, deadline=None)
    @given(braid_words(max_strands=6, max_length=16))
    @example(word(1))
    @example(word(1, tau(1), tau(1), tau(1)))
    @example(word(4, rho(1), rho(3), tau(2), tau(4)))
    @example(word(4, rho(2), sigma(3), tau(1), tau(3)))
    def test_agrees_with_the_strand_data(self, w):
        parity = wen_parity(w)
        if not closable(w):
            k = parity.index(1) + 1
            with pytest.raises(NotClosableError, match=f"^component {k} has odd wen parity$"):
                closure(w)
            return
        g = closure(w)
        assert validate(g) is None
        assert len(components(g)) + g.loops == len(permutation_cycles(w))
        assert len(g.crossings) == sum(let.is_sigma for let in w.letters)

    @settings(max_examples=100, deadline=None)
    @given(braid_words(max_strands=6, max_length=30).filter(closable))
    def test_is_built_in_canonical_form(self, w):
        # built directly, it is what the checked, sorting constructor makes
        g = closure(w)
        assert g == GaussData.make(g.crossings, g.arcs, g.loops)
        assert repr(g) == repr(GaussData.make(g.crossings, g.arcs, g.loops))


class TestClosureTrace:
    def test_single_crossing_paths(self):
        trace = closure_trace(word(2, sigma(1)))
        assert trace.permutation == (2, 1)
        under, over = trace.paths
        assert under.start == 1 and under.passages == (("1", 1, 3),)
        assert over.start == 2 and over.passages == (("1", 2, 4),)

    def test_wen_counts_sit_in_gaps(self):
        trace = closure_trace(word(2, tau(1), sigma(1), tau(1)))
        under = trace.paths[0]
        # one wen before the crossing on strand 1, one after on the strand
        # that lands at position 1
        assert under.wens[0] == 1
        assert sum(p.wens[-1] for p in trace.paths) == 1


class TestBraiding:
    def test_fixture_braids_to_frozen_word(self, l1_text):
        g = parse_gauss_file(l1_text)
        b = braid_from_gauss(g)
        assert b.strands == 6
        assert b.tokens() == "s1 s3 s5 r5 r4 r3 r2 r1 r4 r3 r2 r3 t3 t4"

    def test_fixture_round_trip(self, l1_text):
        g = parse_gauss_file(l1_text)
        iso = same_gauss_data(closure(braid_from_gauss(g)), g)
        assert iso is not None
        assert iso.pairs == (("1", "c1"), ("2", "c2"), ("3", "c3"))

    def test_already_braided_data_comes_back_identical(self):
        assert braid_from_gauss(closure(word(2, sigma(1)))) == word(2, sigma(1))

    def test_loops_become_spare_strands(self):
        b = braid_from_gauss(GaussData((), (), 2))
        assert b == word(2)
        assert braid_from_gauss(closure(word(2, rho(1)))) == word(1)

    def test_degree_is_twice_crossings_plus_loops(self):
        rng = random.Random(23)
        for _ in range(25):
            w = random_closable_word(rng, rng.randint(2, 5), rng.randint(0, 10))
            g = closure(w)
            assert braid_from_gauss(g).strands == 2 * len(g.crossings) + g.loops

    def test_rejects_invalid_data(self):
        bad = GaussData.make(
            [("c", 1)], [], 0
        )  # crossing with no arcs at all
        with pytest.raises(ValueError):
            braid_from_gauss(bad)

    def test_rejects_the_empty_diagram(self):
        # valid data, but every word has a strand and so a closure component
        empty = parse_gauss_file("loops 0\n")
        assert validate(empty) is None
        with pytest.raises(ValueError, match="^the empty diagram is the closure of no braid word$"):
            braid_from_gauss(empty)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_diagrams(), braid_words(6, 30).filter(closable).map(closure)), st.data())
    def test_routes_like_the_letter_by_letter_walk(self, g, data):
        if not g.crossings and not g.loops:
            return
        assert braid_from_gauss(g) == braid_by_letters(g)
        n = len(g.crossings)
        names = data.draw(st.lists(IDS, unique=True, min_size=n, max_size=n))
        h = relabelled(g, dict(zip(g.crossing_ids(), names)))
        assert braid_from_gauss(h) == braid_by_letters(h)


class TestBraidedWordCap:
    """A braided word longer than its cap raises ``ImageCapError`` instead
    of running out of memory; the fixture braids to 14 letters, 2 of them
    wens."""

    @pytest.mark.parametrize("cap", [14, 15])
    def test_a_word_up_to_the_cap_is_built(self, monkeypatch, l1_text, cap):
        monkeypatch.setattr(importlib.import_module("ewb.closure"), "_MAX_BRAID_LETTERS", cap)
        assert len(braid_from_gauss(parse_gauss_file(l1_text))) == 14

    def test_a_word_past_the_cap_raises(self, monkeypatch, l1_text):
        monkeypatch.setattr(importlib.import_module("ewb.closure"), "_MAX_BRAID_LETTERS", 13)
        with pytest.raises(ImageCapError, match="braided word exceeds the cap of 13 letters"):
            braid_from_gauss(parse_gauss_file(l1_text))


class TestRoundTrips:
    def test_random_words(self):
        rng = random.Random(7)
        for _ in range(40):
            w = random_closable_word(rng, rng.randint(2, 5), rng.randint(0, 12))
            g = closure(w)
            assert same_gauss_data(closure(braid_from_gauss(g)), g) is not None

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=4, max_length=8))
    def test_braided_forms_are_stable(self, w):
        if not closable(w):
            return
        g = closure(w)
        b = braid_from_gauss(g)
        # braiding the closure of the braided form reproduces it exactly
        assert braid_from_gauss(closure(b)) == b
