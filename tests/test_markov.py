"""Markov moves, witnesses, the bounded search, and closure invariants."""

import json
import random
from collections import deque
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ewb.markov
from conftest import braid_words, random_closable_word, random_word, stabilized_words
from ewb import (
    BraidWord,
    FormatError,
    MarkovMove,
    MoveWitness,
    apply_move,
    closable,
    closure,
    components,
    destab_applicable,
    eliminate_wens,
    format_witness,
    inverse_move,
    linking_invariant,
    markov_search,
    mirror_word,
    parse_gauss_file,
    parse_witness,
    parse_word,
    presentation_relations,
    replay_witness,
    rho,
    sigma,
    sigma_inv,
    sign_profile,
    sign_reversal_word,
    tau,
    to_automorphism,
    verify_witness,
    wen_row,
    word,
    words_equal,
)
from ewb.braid import _INTERNED_INDEX, _fold
from ewb.closure import permutation_cycles
from ewb.gauss import _wen_free_crossings
from ewb.markov import _coded, _linking_from, _moves, _search


class TestMoves:
    def test_m1_rotates(self):
        b = parse_word("s1 r2 t1", 3)
        assert apply_move(b, MarkovMove("m1", shift=1)) == parse_word("r2 t1 s1", 3)
        assert apply_move(b, MarkovMove("m1", shift=3)) == b

    def test_stabilizations_append_on_a_new_strand(self):
        b = word(2, sigma(1))
        assert apply_move(b, MarkovMove("m2+")) == parse_word("s1 s2", 3)
        assert apply_move(b, MarkovMove("m2-")) == parse_word("s1 S2", 3)
        assert apply_move(b, MarkovMove("m2w")) == parse_word("s1 r2", 3)

    def test_destabilization_strips_the_last_letter(self):
        assert apply_move(parse_word("s1 s2", 3), MarkovMove("m2d")) == word(2, sigma(1))
        with pytest.raises(ValueError, match="destabilization"):
            apply_move(parse_word("s2 s2", 3), MarkovMove("m2d"))

    def test_m0_checks_equality(self):
        a = parse_word("s1 s2 s1", 3)
        b = parse_word("s2 s1 s2", 3)
        assert apply_move(a, MarkovMove("m0", word=b)) == b
        with pytest.raises(ValueError, match="not equal"):
            apply_move(a, MarkovMove("m0", word=parse_word("s1", 3)))
        with pytest.raises(ValueError, match="degree"):
            apply_move(a, MarkovMove("m0", word=parse_word("s1 s2 s1", 4)))

    def test_move_validation(self):
        with pytest.raises(ValueError, match="unknown move kind"):
            MarkovMove("m3")
        with pytest.raises(ValueError, match="replacement word"):
            MarkovMove("m0")
        with pytest.raises(ValueError, match="non-negative"):
            MarkovMove("m1", shift=-1)

    def test_tokens(self):
        assert MarkovMove("m1", shift=4).token() == "m1 4"
        assert MarkovMove("m2w").token() == "m2w"
        assert MarkovMove("m0", word=parse_word("s1 r2", 3)).token() == "m0 s1 r2"
        assert MarkovMove("m0", word=word(3)).token() == "m0"


class TestDestabApplicable:
    def test_applies_only_to_a_lone_top_letter(self):
        assert destab_applicable(parse_word("s1 s2", 3))
        assert destab_applicable(parse_word("t2 s2", 3))  # taus may sit at n-1
        assert destab_applicable(parse_word("r1 S2", 3))
        assert not destab_applicable(parse_word("s2 s2", 3))
        assert not destab_applicable(parse_word("t3 s2", 3))
        assert not destab_applicable(parse_word("s1 s1", 3))  # wrong index
        assert not destab_applicable(parse_word("s1 t2", 2))  # taus never destab
        assert not destab_applicable(word(2))
        assert not destab_applicable(word(1, tau(1)))

    def test_inverse_round_trips(self):
        rng = random.Random(41)
        for _ in range(120):
            b = random_word(rng, rng.randint(1, 5), rng.randint(0, 8))
            options = ["m2+", "m2-", "m2w"]
            if b.letters:
                options.append(f"m1 {rng.randrange(len(b.letters))}")
            if destab_applicable(b):
                options.append("m2d")
            pick = rng.choice(options)
            move = (
                MarkovMove("m1", shift=int(pick.split()[1]))
                if pick.startswith("m1")
                else MarkovMove(pick)
            )
            after = apply_move(b, move)
            assert apply_move(after, inverse_move(move, b)) == b


class TestSymmetryWords:
    def test_sign_reversal_conjugates_each_crossing(self):
        assert sign_reversal_word(word(2, sigma(1))) == parse_word("r1 S1 r1", 2)
        assert sign_reversal_word(parse_word("t1 r2 S2", 3)) == parse_word(
            "t1 r2 r2 s2 r2", 3
        )

    def test_sign_reversal_is_the_wen_row_conjugate(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 5)
            b = random_word(rng, n, rng.randint(0, 10))
            row = wen_row(n)
            conj = BraidWord(n, row.letters + b.letters + row.letters)
            assert words_equal(sign_reversal_word(b), conj)

    def test_wen_row(self):
        assert wen_row(3) == parse_word("t1 t2 t3", 3)
        assert wen_row(1) == word(1, tau(1))

    def test_mirror_reflects_positions_and_inverts_crossings(self):
        b = parse_word("s1 r2 t1 S2", 3)
        assert mirror_word(b) == parse_word("S2 r1 t3 s1", 3)
        assert mirror_word(mirror_word(b)) == b


class TestWitnessText:
    CHAIN = "m2w\nm0 s1 r2 r2 r2\nm0 s1 r2\nm2d\n"

    def test_round_trip(self):
        start = word(2, sigma(1))
        moves = parse_witness(self.CHAIN, start)
        assert format_witness(moves) == self.CHAIN
        assert replay_witness(MoveWitness(start, moves, start)) == word(2, sigma(1))

    def test_verify_checks_the_recorded_end(self):
        start = word(2, sigma(1))
        moves = parse_witness(self.CHAIN, start)
        assert verify_witness(MoveWitness(start, moves, word(2, sigma(1))))
        assert not verify_witness(MoveWitness(start, moves, word(2, sigma_inv(1))))
        assert not verify_witness(MoveWitness(start, moves, word(1)))
        # illegal replay is a clean failure, not an exception
        bad = (MarkovMove("m2d"),)
        assert not verify_witness(MoveWitness(word(2, tau(1)), bad, word(1)))

    def test_blank_lines_are_skipped(self):
        moves = parse_witness("\nm1 1\n\n", parse_word("s1 r1", 2))
        assert moves == (MarkovMove("m1", shift=1),)

    def test_parse_errors_carry_line_numbers(self):
        start = word(2, sigma(1))
        with pytest.raises(FormatError, match="unknown move 'flip'") as info:
            parse_witness("m2+\nflip\n", start)
        assert info.value.line == 2
        for shift in ("x", "\u00b2"):
            with pytest.raises(FormatError, match="shift count") as info:
                parse_witness(f"m1 {shift}\n", start)
            assert info.value.line == 1
        with pytest.raises(FormatError, match="m1 shift") as info:
            parse_witness("m2+\nm1 " + "1" * 5000 + "\n", start)
        assert info.value.line == 2
        with pytest.raises(FormatError, match="no arguments") as info:
            parse_witness("m2+ 3\n", start)
        assert info.value.line == 1
        with pytest.raises(FormatError, match="destabilization") as info:
            parse_witness("m1 0\nm2d\n", word(2, tau(1)))
        assert info.value.line == 2
        with pytest.raises(FormatError, match="not equal") as info:
            parse_witness("m0 S1\n", start)
        assert info.value.line == 1


class TestSearch:
    def test_identical_words(self):
        b = parse_word("s1 r2", 3)
        witness = markov_search(b, b)
        assert witness == MoveWitness(b, (), b)

    def test_equal_words_need_one_m0(self):
        a = parse_word("s1 s2 s1", 3)
        b = parse_word("s2 s1 s2", 3)
        witness = markov_search(a, b)
        assert witness is not None
        assert [m.token() for m in witness.moves] == ["m0 s2 s1 s2"]
        assert verify_witness(witness)

    def test_single_move_witnesses(self):
        a = parse_word("s1 r2", 3)
        w1 = markov_search(a, parse_word("r2 s1", 3))
        assert w1 is not None and [m.token() for m in w1.moves] == ["m1 1"]
        w2 = markov_search(word(2, sigma(1)), parse_word("s1 s2", 3))
        assert w2 is not None and [m.token() for m in w2.moves] == ["m2+"]
        w3 = markov_search(word(2, sigma(1)), parse_word("s1 r2", 3))
        assert w3 is not None and [m.token() for m in w3.moves] == ["m2w"]

    def test_finds_a_chain_through_destabilization(self):
        a = word(2, sigma(1))
        b = parse_word("r1 S1 r1", 2)
        witness = markov_search(a, b)
        assert witness is not None
        assert witness.start == a and witness.end == b
        assert verify_witness(witness)
        assert replay_witness(witness).strands == 2

    def test_caps_and_budget_are_validated(self):
        a = word(3)
        with pytest.raises(ValueError, match="degree cap"):
            markov_search(a, a, max_degree=2)
        with pytest.raises(ValueError, match="length cap"):
            markov_search(parse_word("s1 s1", 2), word(2, sigma(1)), max_length=1)
        with pytest.raises(ValueError, match="budget"):
            markov_search(a, a, budget=0)

    def test_exhaustion_is_inconclusive(self):
        a = word(2, sigma(1))
        b = word(2, sigma_inv(1))
        assert markov_search(a, b, budget=1) is None
        # a generous budget finds the same pair
        witness = markov_search(a, b)
        assert witness is not None and verify_witness(witness)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_recovers_short_random_chains(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        a = random_word(rng, rng.randint(2, 4), rng.randint(1, 6))
        current = _random_chain(rng, a, rng.randint(1, 3))
        witness = markov_search(
            a,
            current,
            max_degree=max(a.strands, current.strands) + 3,
            max_length=max(len(a.letters), len(current.letters)) + 6,
            budget=60_000,
        )
        assert witness is not None
        assert verify_witness(witness)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_the_key_first_search(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        a = random_word(rng, rng.randint(2, 4), rng.randint(1, 6))
        if data.draw(st.booleans()):
            b = _random_chain(rng, a, rng.randint(1, 3))
        else:
            b = random_word(rng, rng.randint(2, 4), rng.randint(1, 6))
        caps = {
            "max_degree": max(a.strands, b.strands) + 2,
            "max_length": max(len(a.letters), len(b.letters)) + 6,
            "budget": data.draw(st.integers(50, 2000)),
        }
        witness = markov_search(a, b, **caps)
        assert (witness is not None) == _key_first_search(a, b, **caps)
        if witness is not None:
            _assert_witness_shape(witness, a, b)

    def test_sides_meet_with_at_most_one_m0(self):
        a = parse_word("s2 r2 S1", 3)
        b = parse_word("r2 S1 r3 s2 r4 r1 t3 r1 t3", 5)
        witness = markov_search(a, b)
        assert witness is not None
        _assert_witness_shape(witness, a, b)

    def test_each_stored_word_is_keyed_once(self, monkeypatch):
        keyed = []

        def counted(b):
            keyed.append(b)
            return _fold(b)

        monkeypatch.setattr(ewb.markov, "_fold", counted)
        a, b = parse_word("r2 S2 s2 S2", 3), parse_word("r1 t1 s2 t2", 3)
        assert markov_search(a, b, budget=2000) is None
        # the search folds only its two roots; every other key is derived
        assert keyed == [a, b]

    @pytest.mark.parametrize(
        "a, b, budget, stop",
        [
            (("r2 S2 s2 S2", 3), ("r1 t1 s2 t2", 3), 2000, "budget"),
            (("s2 r2 S1", 3), ("r2 S1 r3 s2 r4 r1 t3 r1 t3", 5), 100_000, "found"),
        ],
    )
    def test_each_state_is_derived_once(self, monkeypatch, a, b, budget, stop):
        """Within one search no pass runs twice on the same input: a state
        met again is read from the search's transition table.  The table
        lives for one search, so a second search makes the same passes and
        returns the same ``(witness, stop, nodes)``."""
        inputs = {"_append": [], "_prepend": []}
        for name, passes in inputs.items():
            def recorded(images, let, run=getattr(ewb.markov, name), passes=passes):
                passes.append((images, let))
                return run(images, let)

            monkeypatch.setattr(ewb.markov, name, recorded)
        a, b = parse_word(*a), parse_word(*b)
        results = [_search(a, b, budget=budget) for _ in range(2)]
        assert results[0] == results[1] and results[0][1] == stop
        for passes in inputs.values():
            half = len(passes) // 2
            assert half and passes[:half] == passes[half:]
            assert len(set(passes[:half])) == half

    def test_a_wrong_witness_is_a_library_fault(self, monkeypatch):
        """The closing check is an explicit RuntimeError, not an assert that
        ``python -O`` strips."""
        monkeypatch.setattr(ewb.markov, "verify_witness", lambda witness: False)
        with pytest.raises(RuntimeError, match="does not replay"):
            markov_search(parse_word("s1 r2", 3), parse_word("r2 s1", 3))

    def test_reports_why_it_stopped(self):
        a, b = word(2, sigma(1)), parse_word("r1 S1 r1", 2)
        witness, stop, nodes = _search(a, b)
        assert (witness, stop, nodes) == (markov_search(a, b), "found", 36)
        assert _search(a, b, budget=1) == (None, "budget", 2)
        hopf = parse_word("s1 s1", 2)
        assert _search(hopf, a, max_degree=2) == (None, "exhausted", 5)
        assert _search(a, a) == (MoveWitness(a, (), a), "found", 2)

    def test_matches_the_pinned_search(self):
        """``(witness, stop, nodes)`` on 150 seeded pairs, pinned from the
        search that stored words as ``Letter`` tuples.  The pairs come from
        ``random.Random(777)``: ``random_word`` on 2-4 strands of 1-7
        letters; every odd pair's second word is the first after 1-3
        ``_random_chain`` moves, every even pair's a second ``random_word``;
        the caps are +1-3 degree and +1-5 length, the budgets 50/300/2000 in
        turn."""
        pins = json.loads((Path(__file__).parent / "search_pins.json").read_text())
        for (na, ta), (nb, tb), (max_degree, max_length, budget), moves, stop, nodes in pins:
            a, b = parse_word(ta, na), parse_word(tb, nb)
            witness, got_stop, got_nodes = _search(a, b, max_degree=max_degree, max_length=max_length, budget=budget)
            got = None if witness is None else [move.token() for move in witness.moves]
            assert (got, got_stop, got_nodes) == (moves, stop, nodes), (ta, na, tb, nb)

    def test_letters_past_the_interned_index(self):
        # letters above the interned index are built afresh from their codes
        n = 4200
        assert n - 1 > _INTERNED_INDEX
        a, b = parse_word(f"s{n - 1}", n), parse_word(f"r{n - 1} S{n - 1} r{n - 1}", n)
        witness, stop, nodes = _search(a, b)
        assert witness is not None and (stop, nodes) == ("found", 36)
        assert [move.token() for move in witness.moves] == [
            "m2d", "m2-", f"m0 S{n - 1} r{n - 1} r{n - 1}", "m1 2"
        ]
        assert verify_witness(witness)
        end = replay_witness(witness)
        assert end == b and end.letters[0] is not b.letters[0]  # equal by value


class TestDerivedKeys:
    """``_moves`` derives each neighbour's key from its parent's; every
    derivation must equal the neighbour's own fold.  Words go in and come
    out as the search stores them, coded by ``_coded``."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(braid_words(max_strands=6, max_length=8), stabilized_words(max_strands=2)))
    def test_rotations(self, w):
        here = _coded(w)
        letters = here[1]
        rotations = [_fold(w.rotated(k)) for k in range(len(letters))]
        for k in range(1, len(letters)):
            for done in range(k):  # the last rotation keyed: the word or any before k
                # rotations between are seen, unless they spell the k-th one
                between = {letters[j:] + letters[:j] for j in range(done + 1, k)}
                seen = {(w.strands, r): None for r in between - {letters[k:] + letters[:k]}}
                derived = [
                    state
                    for _, kind, shift, state in _moves(here, rotations[0], seen, {}, w.strands, 0)
                    if kind == "m1" and shift == k
                ]
                assert derived == [rotations[k]]

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(braid_words(max_strands=6, max_length=8), stabilized_words(max_strands=2)))
    def test_stabilizations_and_destabilization(self, w):
        here, images = _coded(w), _fold(w)
        caps = (w.strands + 1, len(w.letters) + 1)
        derived = {kind: state for _, kind, _, state in _moves(here, images, {}, {}, *caps) if kind != "m1"}
        for kind in ("m2+", "m2-", "m2w"):
            stabilized = apply_move(w, MarkovMove(kind))
            assert derived[kind] == _fold(stabilized)
            # and back: every stabilized word destabilizes
            there = _coded(stabilized)
            back = [s for _, k, _, s in _moves(there, derived[kind], {}, {}, *caps) if k == "m2d"]
            assert back == [images]
        if destab_applicable(w):
            reduced = apply_move(w, MarkovMove("m2d"))
            assert derived["m2d"] == _fold(reduced)
        else:
            assert "m2d" not in derived

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(braid_words(max_strands=6, max_length=8), stabilized_words(max_strands=2)),
        st.data(),
    )
    def test_moves_yield_each_unseen_neighbour_with_its_key(self, w, data):
        here, images = _coded(w), _fold(w)
        room = data.draw(st.booleans())  # whether the caps admit a stabilization
        caps = (w.strands + room, len(w.letters) + room)
        every = [move[:3] for move in _moves(here, images, {}, {}, *caps)]
        # a random seen subset, so that the rotations keyed have gaps
        marked = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
        seen = {there: None for (there, _, _), m in zip(every, marked) if m}
        moves = list(_moves(here, images, seen, {}, *caps))
        assert [move[:3] for move in moves] == [move for move in every if move[0] not in seen]
        assert any(kind in ("m2+", "m2-", "m2w") for _, kind, _ in every) == room
        for there, kind, shift, state in moves:
            neighbour = apply_move(w, MarkovMove(kind, shift=shift))
            assert there == _coded(neighbour)
            assert state == _fold(neighbour)
            if kind != "m1" and kind != "m2d":  # and back: every stabilized word destabilizes
                back = [move for move in _moves(there, state, {}, {}, *caps) if move[1] == "m2d"]
                assert back == [(here, "m2d", 0, images)]


def _random_chain(rng: random.Random, a: BraidWord, count: int) -> BraidWord:
    """Apply ``count`` random m1, stabilization or m2d moves to ``a``."""
    current = a
    for _ in range(count):
        # m1 needs a letter to move; an m2d can leave the word empty
        options = ["m1", "m2+", "m2-", "m2w"] if current.letters else ["m2+", "m2-", "m2w"]
        if destab_applicable(current) and current.strands > 2:
            options.append("m2d")
        kind = rng.choice(options)
        if kind == "m1":
            move = MarkovMove("m1", shift=rng.randrange(1, len(current.letters) + 1))
        else:
            move = MarkovMove(kind)
        current = apply_move(current, move)
    return current


def _assert_witness_shape(witness: MoveWitness, a: BraidWord, b: BraidWord) -> None:
    """A literal chain from ``a`` to ``b`` with at most one m0 where the sides meet."""
    assert witness.start == a and witness.end == b
    assert verify_witness(witness)
    assert [m.kind for m in witness.moves].count("m0") <= 1


def _key_first_search(a, b, *, max_degree, max_length, budget):
    """Reference search that computes every neighbor's automorphism key
    before its visited check, with fully built words; returns whether the
    sides meet within the budget."""

    def key(w):
        return (w.strands, tuple(image.letters for image in to_automorphism(w).images))

    def neighbors(w):
        out = [w.rotated(k) for k in range(1, len(w.letters))]
        if w.strands < max_degree and len(w.letters) < max_length:
            out += [apply_move(w, MarkovMove(m)) for m in ("m2+", "m2-", "m2w")]
        if destab_applicable(w):
            out.append(apply_move(w, MarkovMove("m2d")))
        return out

    key_a, key_b = key(a), key(b)
    if key_a == key_b:
        return True
    states = ({key_a}, {key_b})
    seen = ({(key_a, a.letters)}, {(key_b, b.letters)})
    queues = (deque([a]), deque([b]))
    nodes = 2
    while queues[0] or queues[1]:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        for produced in neighbors(queues[side].popleft()):
            next_key = key(produced)
            if (next_key, produced.letters) in seen[side]:
                continue
            if nodes >= budget:
                return False
            nodes += 1
            seen[side].add((next_key, produced.letters))
            if next_key not in states[side]:
                states[side].add(next_key)
                if next_key in states[1 - side]:
                    return True
            queues[side].append(produced)
    return False


class TestLinking:
    def test_fixture_matrix(self, l1_text):
        assert linking_invariant(parse_gauss_file(l1_text)) == ((0, -1), (0, 0))

    def test_hopf_links(self):
        pos = linking_invariant(closure(parse_word("s1 s1", 2)))
        neg = linking_invariant(closure(parse_word("S1 S1", 2)))
        assert pos == neg == ((0, -1), (-1, 0))

    def test_knots_have_a_trivial_matrix(self):
        assert linking_invariant(closure(word(2, sigma(1)))) == ((0,),)
        assert linking_invariant(closure(parse_word("s1 s1 s1", 2))) == ((0,),)

    def test_wens_do_not_change_it(self):
        g = linking_invariant(closure(parse_word("s1 t2 s1 t1 s1 s1", 2)))
        assert g == ((0, -2), (0, 0))

    def test_too_many_components(self):
        with pytest.raises(ValueError, match="at most 6 components"):
            linking_invariant(closure(word(7)))


def _scan(matrix):
    """The linking canonical form by brute force: the least tuple of rows
    ``min(r, -r)`` over all ``mu!`` simultaneous row/column orders."""
    mu = len(matrix)

    def rows(perm):
        for i in perm:
            row = tuple(matrix[i][j] for j in perm)
            yield min(row, tuple(-x for x in row))

    return min(tuple(rows(perm)) for perm in permutations(range(mu)))


@st.composite
def linking_matrices(draw):
    """Square matrices with a zero diagonal, up to 6 x 6: random entries,
    or with rows copied (up to sign) and columns copied, so that twins,
    symmetric and constant matrices come up often."""
    mu = draw(st.integers(0, 6))
    entries = draw(st.sampled_from(((0,), (1,), (-1, 1), (-1, 0, 1), tuple(range(-3, 4)))))
    m = [[0 if i == j else draw(st.sampled_from(entries)) for j in range(mu)] for i in range(mu)]
    if mu > 1 and draw(st.booleans()):  # symmetric, or antisymmetric row by row
        for i in range(mu):
            for j in range(i):
                m[i][j] = m[j][i] * draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 3)) if mu > 2 else 0):  # make b a twin of a
        a, b = draw(st.permutations(range(mu)))[:2]
        sign = draw(st.sampled_from((1, -1)))
        for x in range(mu):
            if x not in (a, b):
                m[x][b] = m[x][a]
                m[b][x] = sign * m[a][x]
        m[b][a] = sign * m[a][b]
    return m


def _raw_matrix(g):
    mu, signs, over, under = _wen_free_crossings(g)
    matrix = [[0] * mu for _ in range(mu)]
    for sign, i, j in zip(signs, over, under):
        if i != j:
            matrix[i][j] += sign
    return matrix


class TestLinkingCanonicalForm:
    """``_linking_from`` refines an ordered partition instead of trying all
    ``mu!`` orders; the value must be the brute-force minimum."""

    @settings(max_examples=400, deadline=None)
    @given(linking_matrices())
    @example([[0] * 6 for _ in range(6)])
    @example([[0 if i == j else 2 for j in range(6)] for i in range(6)])
    @example([[0 if i == j else -1 for j in range(6)] for i in range(6)])
    @example([[0, 1, 0, 0, 0, 1], [1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0],
              [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 1, 0]])  # a necklace
    def test_equals_the_scan_over_every_order(self, matrix):
        assert _linking_from(matrix) == _scan(matrix)

    def test_equals_the_scan_on_closures(self):
        # Closures of the sizes the benchmark runs: balanced closable words
        # on 8 strands with up to 6 components, and words of 2-4 strands
        # and at most 8 letters.
        rng = random.Random(27)
        seen = set()
        while len(seen) < 60:
            w = random_closable_word(rng, 8, rng.randint(20, 120))
            if len(permutation_cycles(w)) <= 6:
                seen.add(tuple(map(tuple, _raw_matrix(closure(w)))))
        for _ in range(300):
            w = random_closable_word(rng, rng.randint(2, 4), rng.randint(0, 8))
            seen.add(tuple(map(tuple, _raw_matrix(closure(w)))))
        assert max(map(len, seen)) == 6
        for matrix in seen:
            assert _linking_from([list(row) for row in matrix]) == _scan(matrix), matrix

    def test_all_zero_six_components_take_one_branch(self, monkeypatch):
        calls = []
        real = ewb.markov._twins
        monkeypatch.setattr(ewb.markov, "_twins", lambda m, a, b: calls.append((a, b)) or real(m, a, b))
        assert _linking_from([[0] * 6 for _ in range(6)]) == ((0,) * 6,) * 6
        assert len(calls) == 5 + 4 + 3 + 2 + 1  # each later candidate is the first one's twin


class TestSignProfile:
    def test_fixture_profile(self, l1_text):
        assert sign_profile(parse_gauss_file(l1_text)) == (-1, -1, 1)

    def test_profile_sees_through_wen_elimination_ambiguity(self):
        a = parse_word("t1 s1 t2 S1 s1", 2)
        b = parse_word("s1 t2 t2 S1 s1", 2)
        assert words_equal(a, b)
        raw = lambda w: tuple(
            sorted(s for _, s in eliminate_wens(closure(w)).data.crossings)
        )
        assert raw(a) == (-1, -1, 1)
        assert raw(b) == (-1, 1, 1)  # elimination alone is not canonical
        assert sign_profile(closure(a)) == sign_profile(closure(b)) == (-1, -1, 1)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(), st.integers(1, 4))
    @example(parse_word("s1 s1", 2), 6)  # the Hopf link and 6 loops
    def test_empty_strands_leave_it_unchanged(self, w, pad):
        # Each empty strand closes into a loop; the count is per component,
        # so more than 6 components are fine.
        assume(closable(w))
        padded = BraidWord(w.strands + pad, w.letters)
        assert sign_profile(closure(padded)) == sign_profile(closure(w))

    def test_invalid_data_is_rejected(self):
        from ewb import GaussData

        with pytest.raises(ValueError, match="dangling"):
            sign_profile(GaussData.make([("c", 1)], [], 0))


def _planted_pair(rng: random.Random, n: int) -> tuple[BraidWord, BraidWord]:
    """A pair differing by one defining relation, padded to a closable word."""
    relations = list(presentation_relations(n))
    while True:
        _, lhs, rhs = relations[rng.randrange(len(relations))]
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        prefix = random_word(rng, n, rng.randint(0, 4)).letters
        suffix = random_word(rng, n, rng.randint(0, 4)).letters
        a = BraidWord(n, prefix + lhs.letters + suffix)
        b = BraidWord(n, prefix + rhs.letters + suffix)
        if closable(a):
            assert closable(b)
            return a, b


class TestInvariance:
    def test_relation_rewrites_preserve_closure_invariants(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(2, 4)
            a, b = _planted_pair(rng, n)
            ga, gb = closure(a), closure(b)
            assert len(components(ga)) + ga.loops == len(components(gb)) + gb.loops
            assert sign_profile(ga) == sign_profile(gb)
            assert linking_invariant(ga) == linking_invariant(gb)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(braid_words(), stabilized_words()))
    def test_every_move_kind_preserves_closure_invariants(self, w):
        # Components and linking survive every m1/m2 move; the sign profile
        # changes only where a move adds or removes a crossing.
        assume(closable(w))

        def invariants(b):
            g = closure(b)
            return len(components(g)) + g.loops, linking_invariant(g), sign_profile(g)

        mu, linking, signs = invariants(w)
        moves = [MarkovMove("m1", shift=k) for k in range(1, len(w.letters))]
        moves += [MarkovMove(kind) for kind in ("m2+", "m2-", "m2w")]
        if destab_applicable(w):
            moves.append(MarkovMove("m2d"))
        for move in moves:
            got = invariants(apply_move(w, move))
            assert got[:2] == (mu, linking), move
            crossing_moved = move.kind in ("m2+", "m2-") or (
                move.kind == "m2d" and w.letters[-1].kind.sign
            )
            if not crossing_moved:
                assert got[2] == signs, move
