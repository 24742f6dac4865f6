"""Letters, words, the free-group action, and the relation suite."""

import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import braid_words, random_word, stabilized_words
from ewb import (
    BraidWord,
    FormatError,
    FreeWord,
    Letter,
    LetterKind,
    MarkovMove,
    MoveWitness,
    closable,
    compose,
    format_word_file,
    markov_search,
    parse_word,
    parse_word_file,
    permutation_cycles,
    presentation_relations,
    rho,
    sigma,
    sigma_inv,
    tau,
    to_automorphism,
    underlying_permutation,
    verify_relations,
    verify_witness,
    wen_parity,
    word,
    words_equal,
)
from ewb.braid import (
    _INTERNED_INDEX,
    _LETTERS,
    _MAX_RANK,
    ImageCapError,
    _append,
    _code,
    _cycles,
    _decode,
    _fold,
    _prepend,
)
from ewb.markov import _conjugated


class TestLetters:
    def test_tokens(self):
        assert sigma(1).token() == "s1"
        assert sigma_inv(3).token() == "S3"
        assert rho(2).token() == "r2"
        assert tau(4).token() == "t4"

    def test_inverses(self):
        assert sigma(1).inverse() == sigma_inv(1)
        assert sigma_inv(2).inverse() == sigma(2)
        assert rho(1).inverse() == rho(1)  # involution
        assert tau(3).inverse() == tau(3)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            Letter(LetterKind.SIGMA_POS, 0)

    def test_wrong_types_are_refused(self):
        # values a word file cannot hold, though some compare equal to ones
        # it can: a bool or float index or strand count, a kind that is not
        # a LetterKind
        bad = [
            lambda: Letter(LetterKind.SIGMA_POS, 2.5),
            lambda: Letter(LetterKind.SIGMA_POS, True),
            lambda: Letter("s", 1),
            lambda: Letter(LetterKind.RHO, "3"),
            lambda: Letter(LetterKind.TAU, [1]),
            lambda: BraidWord(2.5, (sigma(1),)),
            lambda: BraidWord(True, ()),
            lambda: BraidWord(3, ("s1",)),
            lambda: BraidWord(3, (sigma(1), None)),
        ]
        for k, build in enumerate(bad):
            with pytest.raises(ValueError):
                build()
                pytest.fail(f"bad input {k} was accepted")
        # the refused s2.5 left no token behind for the parser to find
        with pytest.raises(ValueError, match="bad letter token 's2.5'"):
            parse_word("s2.5", 5)

    def test_value_semantics(self):
        let = Letter(kind=LetterKind.SIGMA_POS, index=2)
        assert let == sigma(2) and hash(let) == hash((LetterKind.SIGMA_POS, 2))
        assert let != sigma_inv(2) and let != sigma(1) and let != ("s", 2)
        assert {let: 1}[Letter(LetterKind.SIGMA_POS, 2)] == 1
        assert repr(let) == "Letter(kind=<LetterKind.SIGMA_POS: 's'>, index=2)"
        with pytest.raises(FrozenInstanceError):
            let.index = 3
        with pytest.raises(FrozenInstanceError):
            del let.kind
        assert (let.kind, let.index, let.token()) == (LetterKind.SIGMA_POS, 2, "s2")
        for kind in LetterKind:
            assert pickle.loads(pickle.dumps(Letter(kind, 7))) == Letter(kind, 7)

    def test_letters_past_the_interned_index_are_built_afresh(self):
        top = _INTERNED_INDEX
        assert rho(top) is Letter(LetterKind.RHO, top)
        kept = len(_LETTERS)
        let = rho(top + 1)
        assert let is not rho(top + 1)
        assert let == rho(top + 1) and hash(let) == hash(rho(top + 1)) and let.token() == f"r{top + 1}"
        assert parse_word(f"r{top + 1} S{top + 5}", top + 6).letters == (let, sigma_inv(top + 5))
        assert pickle.loads(pickle.dumps(let)) == let
        assert len(_LETTERS) == kept


class TestWords:
    def test_bounds(self):
        word(3, sigma(2), rho(1), tau(3))  # all admissible
        with pytest.raises(ValueError):
            word(2, sigma(2))  # needs positions 2 and 3
        with pytest.raises(ValueError):
            word(2, tau(3))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_algebra(self):
        w = word(3, sigma(1), tau(2))
        assert len(w) == 2
        assert w.inverse().tokens() == "t2 S1"
        assert w.rotated(1).tokens() == "t2 s1"
        assert w.rotated(0) == w and w.rotated(2) == w
        assert (w * w.inverse()).tokens() == "s1 t2 t2 S1"
        with pytest.raises(ValueError):
            compose(w, word(2, sigma(1)))

    def test_inverse_is_group_inverse(self):
        w = word(4, sigma(1), rho(3), tau(2), sigma_inv(2))
        assert words_equal(w * w.inverse(), word(4))


class TestWordFiles:
    def test_round_trip(self):
        w = word(3, sigma(1), sigma_inv(2), rho(1), tau(3))
        assert parse_word_file(format_word_file(w)) == w
        assert parse_word_file("strands 3\n\n") == word(3)

    def test_parse_word(self):
        assert parse_word("s1 S2 r1 t3", 3) == word(3, sigma(1), sigma_inv(2), rho(1), tau(3))
        with pytest.raises(ValueError):
            parse_word("x1", 2)
        with pytest.raises(ValueError):
            parse_word("s12x", 2)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError) as err:
            parse_word_file("")
        assert err.value.line == 1
        for header in (
            "strands 0\n",
            "strands \u00b2\n",
            "strands \u0663\ns1\n",
            "strands 100001\n",
            "strands 10000000\ns1\n",
            "strands " + "1" * 5000 + "\ns1\n",
            "strands " + "0" * 5000 + "\n",
        ):
            with pytest.raises(FormatError) as err:
                parse_word_file(header)
            assert err.value.line == 1
        # a count too long for int() gets the same cap message
        with pytest.raises(FormatError, match="more than 100000 strands"):
            parse_word_file("strands " + "9" * 5000 + "\n")
        with pytest.raises(FormatError) as err:
            parse_word_file("strands 2\ns1 q7\n")
        assert err.value.line == 2
        with pytest.raises(FormatError) as err:
            parse_word_file("strands 2\ns1\ns1\n")
        assert err.value.line == 3

    def test_letter_index_of_any_length_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"letter s1{19}\.\.\. out of range on 2 strands"):
            parse_word("s" + "1" * 5000, 2)
        with pytest.raises(FormatError, match="out of range on 2 strands") as err:
            parse_word_file("strands 2\ns1 t" + "9" * 5000 + "\n")
        assert err.value.line == 2
        # leading zeros are not significant
        assert parse_word("s" + "0" * 5000 + "1", 2) == word(2, sigma(1))
        with pytest.raises(ValueError, match="letter s12 out of range on 9 strands"):
            parse_word("s12", 9)

    def test_errors_do_not_depend_on_letters_read_before(self):
        assert parse_word("s3 s5 s05", 6) == word(6, sigma(3), sigma(5), sigma(5))
        with pytest.raises(ValueError, match="letter s5 out of range on 3 strands"):
            parse_word("s5", 3)
        # the first index above the strand count, not the first letter too wide
        with pytest.raises(ValueError, match="letter s5 out of range on 3 strands"):
            parse_word("s3 s5", 3)
        with pytest.raises(ValueError, match="letter s05 out of range on 3 strands"):
            parse_word("s05", 3)
        with pytest.raises(ValueError, match="letter s3 out of range on 3 strands"):
            parse_word("s3", 3)
        with pytest.raises(ValueError, match="bad letter token 'x1'"):
            parse_word("s1 x1 s5", 2)

    @settings(max_examples=60, deadline=None)
    @given(braid_words())
    def test_format_parse_identity(self, w):
        assert parse_word_file(format_word_file(w)) == w


class TestAction:
    def test_generator_images(self):
        assert to_automorphism(word(2, sigma(1))).images == (
            FreeWord((1, 2, -1)),
            FreeWord((1,)),
        )
        assert to_automorphism(word(2, sigma_inv(1))).images == (
            FreeWord((2,)),
            FreeWord((-2, 1, 2)),
        )
        assert to_automorphism(word(2, rho(1))).images == (
            FreeWord((2,)),
            FreeWord((1,)),
        )
        assert to_automorphism(word(2, tau(1))).images == (
            FreeWord((-1,)),
            FreeWord((2,)),
        )

    def test_composition_is_left_to_right(self):
        assert to_automorphism(word(2, sigma(1), rho(1))).images == (
            FreeWord((2, 1, -2)),
            FreeWord((2,)),
        )
        assert to_automorphism(word(2, rho(1), sigma(1))).images == (
            FreeWord((1,)),
            FreeWord((1, 2, -1)),
        )

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=4, max_length=6), braid_words(max_strands=4, max_length=6))
    def test_action_is_a_homomorphism(self, a, b):
        if a.strands != b.strands:
            b = BraidWord(a.strands, ())
        lhs = tuple(image.letters for image in to_automorphism(compose(a, b)).images)
        # a's action first: b's images substituted into a's
        table = {g: image.letters for g, image in enumerate(to_automorphism(b).images, start=1)}
        rhs = tuple(_substituted(image.letters, table) for image in to_automorphism(a).images)
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=5, max_length=8))
    def test_images_are_conjugates_of_generators(self, w):
        aut = to_automorphism(w)
        perm = underlying_permutation(w)
        for strand, image in enumerate(aut.images, start=1):
            letters = image.letters  # h x_j^e h^-1, freely reduced
            assert len(letters) % 2 == 1
            half = len(letters) // 2
            h, middle = letters[:half], letters[half]
            assert letters[half + 1:] == tuple(-g for g in reversed(h))
            assert not h or h[-1] != -middle
            assert perm[strand - 1] == abs(middle)


class TestWordsEqual:
    def test_relations_hold(self):
        assert words_equal(word(3, sigma(1), sigma(2), sigma(1)),
                           word(3, sigma(2), sigma(1), sigma(2)))
        assert words_equal(word(3, rho(2), rho(1), sigma(2)),
                           word(3, sigma(1), rho(2), rho(1)))
        assert words_equal(word(2, tau(2), sigma(1)),
                           word(2, rho(1), sigma_inv(1), rho(1), tau(1)))

    def test_strands_up_to_the_top_code_point(self):
        n = _MAX_RANK
        assert chr(2 * n + 1) == "\U0010ffff"
        assert words_equal(word(n, tau(n - 1), sigma(n - 1)), word(n, sigma(n - 1), tau(n)))
        assert not words_equal(word(n, tau(n), sigma(n - 1)), word(n, sigma(n - 1), tau(n)))
        over = BraidWord(n + 1)
        with pytest.raises(ImageCapError, match=f"cap of {n} strands"):
            words_equal(over, over)
        with pytest.raises(ImageCapError):  # not read as "not equal"
            verify_witness(MoveWitness(over, (MarkovMove("m0", word=over),), over))
        with pytest.raises(ImageCapError):  # stabilizing would leave the code
            markov_search(BraidWord(n), BraidWord(n))

    def test_distinguishes(self):
        assert not words_equal(word(2, sigma(1)), word(2, sigma_inv(1)))
        assert not words_equal(word(2, sigma(1)), word(2, rho(1)))
        with pytest.raises(ValueError):
            words_equal(word(2, sigma(1)), word(3, sigma(1)))

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=4, max_length=8))
    def test_rotation_is_prefix_conjugation(self, w):
        if not w.letters:
            return
        k = len(w.letters) // 2 or 1
        prefix = BraidWord(w.strands, w.letters[:k])
        assert words_equal(w.rotated(k), compose(compose(prefix.inverse(), w), prefix))


class TestStrandData:
    def test_permutation(self):
        assert underlying_permutation(word(3, sigma(1), sigma(2))) == (3, 1, 2)
        assert underlying_permutation(word(2, rho(1))) == (2, 1)
        assert underlying_permutation(word(2, tau(1), tau(2))) == (1, 2)

    def test_cycles_and_parity(self):
        assert permutation_cycles(word(2, sigma(1))) == [(1, 2)]
        assert permutation_cycles(word(3)) == [(1,), (2,), (3,)]
        assert wen_parity(word(2, tau(1), tau(2), sigma(1))) == (0,)
        assert wen_parity(word(1, tau(1))) == (1,)

    def test_closable(self):
        assert closable(word(2, tau(1), tau(2), sigma(1)))
        assert not closable(word(1, tau(1)))
        assert not closable(word(2, tau(1)))
        assert closable(word(2, tau(1), rho(1), tau(1)))

    def test_agrees_with_the_free_group_action(self):
        # Independent of the strand walk: the image of x_s is conjugate to
        # x_j^e, where j is the strand's bottom position and e is -1 when it
        # met an odd number of wens.
        rng = random.Random(22)
        for _ in range(1000):
            w = random_word(rng, rng.randint(1, 5), rng.randint(0, 12))
            images = to_automorphism(w).images
            middles = [image.letters[len(image.letters) // 2] for image in images]
            perm = tuple(abs(m) for m in middles)
            assert underlying_permutation(w) == perm
            cycles = _cycles((0,) + perm)[1:]
            assert wen_parity(w) == tuple(sum([middles[s - 1] < 0 for s in c]) % 2 for c in cycles)


class TestRelationSuite:
    def test_every_instance_up_to_four_strands(self):
        checked, failures = verify_relations(4)
        assert failures == []
        assert checked == 70

    def test_families_present(self):
        labels = {label.split(" ")[0] for label, _, _ in presentation_relations(6)}
        assert labels == {
            "sigma-commute", "sigma-braid", "rho-commute", "rho-braid",
            "rho-involution", "rho-sigma-commute", "mixed-braid-rrs",
            "mixed-braid-ssr", "tau-commute", "tau-involution",
            "sigma-tau-commute", "rho-tau-commute", "wen-through-rho",
            "wen-through-sigma", "wen-flip-sigma",
        }

    def test_small_degrees(self):
        # one strand admits only the wen involution
        labels = [label for label, _, _ in presentation_relations(1)]
        assert labels == ["tau-involution 1"]
        checked, failures = verify_relations(2)
        assert failures == [] and checked > 0


def test_random_words_round_trip_through_text():
    rng = random.Random(99)
    for _ in range(50):
        w = random_word(rng, rng.randint(1, 6), rng.randint(0, 12))
        assert parse_word_file(format_word_file(w)) == w


def _alphabet(n: int) -> list[Letter]:
    """Every letter on ``n`` strands."""
    return [make(i) for make in (sigma, sigma_inv, rho) for i in range(1, n)] + [
        tau(i) for i in range(1, n + 1)
    ]


class TestOneLetterPasses:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(braid_words(max_strands=6, max_length=8), stabilized_words(max_strands=2)))
    def test_append_and_prepend_match_the_fold(self, w):
        images = _fold(w)
        for let in _alphabet(w.strands):
            assert _append(images, let) == _fold(BraidWord(w.strands, w.letters + (let,)))
            assert _prepend(images, let) == _fold(BraidWord(w.strands, (let,) + w.letters))


_TABLES = {
    "s": lambda i: {i: (i, i + 1, -i), i + 1: (i,)},
    "S": lambda i: {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)},
    "r": lambda i: {i: (i + 1,), i + 1: (i,)},
    "t": lambda i: {i: (-i,)},
}


def _table(let: Letter) -> dict[int, tuple[int, ...]]:
    return _TABLES[let.kind.value](let.index)


def _substituted(image: tuple[int, ...], table: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """``table`` substituted into ``image`` with free cancellation, one
    letter at a time; generators not in ``table`` map to themselves."""
    out: list[int] = []
    for g in image:
        piece = table.get(abs(g), (abs(g),))
        if g < 0:
            piece = tuple(-h for h in reversed(piece))
        for h in piece:
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


def _full_image_fold(b: BraidWord, first: int = 1) -> tuple[tuple[int, ...], ...]:
    """The action of ``b`` as full images of ``x_first, ..., x_n``,
    substituting each letter's table into every image with free
    cancellation: an oracle independent of the half encoding."""
    images = [(i,) for i in range(first, b.strands + 1)]
    for let in b.letters:
        images = [_substituted(image, _table(let)) for image in images]
    return tuple(images)


def _assert_canonical(images) -> None:
    """Every half is freely reduced and does not end in its middle letter
    or that letter's inverse."""
    halves, middles = images
    assert len(halves) == len(middles)
    for half, middle in zip(halves, middles):
        half, (middle,) = _decode(half), _decode(middle)
        assert middle != 0
        assert all(x != 0 and x != -y for x, y in zip(half, half[1:]))
        assert not half or abs(half[-1]) != abs(middle)


class TestHalves:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(braid_words(max_strands=6, max_length=10), stabilized_words(max_strands=3)))
    def test_to_automorphism_matches_a_full_image_fold(self, w):
        assert tuple(image.letters for image in to_automorphism(w).images) == _full_image_fold(w)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(braid_words(max_strands=6, max_length=8), stabilized_words(max_strands=2)))
    def test_passes_keep_the_canonical_form(self, w):
        images = _fold(w)
        _assert_canonical(images)
        for let in _alphabet(w.strands):
            _assert_canonical(_append(images, let))
            _assert_canonical(_prepend(images, let))
            _assert_canonical(_conjugated(images, let))

    def test_one_pass_matches_letter_by_letter_reduction(self):
        """Every reduced half of length <= 5 over x_1..x_3, under each
        middle letter it may carry, through every letter on 3 strands."""
        gens = (1, -1, 2, -2, 3, -3)
        halves, frontier = [()], [()]
        for _ in range(5):
            frontier = [h + (g,) for h in frontier for g in gens if not h or h[-1] != -g]
            halves += frontier
        for middle in gens:
            pairs = [h for h in halves if not h or abs(h[-1]) != abs(middle)]
            images = tuple("".join(map(_code, h)) for h in pairs), _code(middle) * len(pairs)
            for let in _alphabet(3):
                got = _append(images, let)
                _assert_canonical(got)
                for h, half, mid in zip(pairs, *got):
                    half = _decode(half)
                    want = _substituted(h + (middle,) + tuple(-g for g in reversed(h)), _table(let))
                    assert half + _decode(mid) + tuple(-g for g in reversed(half)) == want

    # Letter codes past ASCII, past Latin-1, in the surrogate range and
    # past the Basic Multilingual Plane.
    @pytest.mark.parametrize("n", [64, 129, 27700, 40000])
    def test_to_automorphism_near_the_top_index(self, n):
        rng = random.Random(n)
        top = [make(i) for make in (sigma, sigma_inv, rho) for i in range(n - 3, n)]
        top += [tau(i) for i in range(n - 3, n + 1)]
        for _ in range(3):
            w = BraidWord(n, tuple(rng.choice(top) for _ in range(8)))
            images = tuple(image.letters for image in to_automorphism(w).images)
            assert images[:n - 4] == tuple((i,) for i in range(1, n - 3))
            assert images[n - 4:] == _full_image_fold(w, n - 3)

    @pytest.mark.parametrize("k, letters", [(4, 135), (6, 931), (8, 6387), (10, 43783)])
    def test_image_size_of_the_blow_up_family(self, k, letters):
        w = BraidWord(3, (sigma(1), sigma_inv(2)) * k)
        assert sum(len(image.letters) for image in to_automorphism(w).images) == letters
