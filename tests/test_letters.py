"""The data each letter kind carries, and every consumer of it, checked
against oracles that spell out each kind separately."""

import pytest
from hypothesis import given, settings

from conftest import braid_words, stabilized_words
from ewb import (
    BraidWord,
    Letter,
    LetterKind,
    MarkovMove,
    apply_move,
    closable,
    closure,
    destab_applicable,
    inverse_move,
    mirror_word,
    rho,
    sigma,
    sigma_inv,
    sign_reversal_word,
    tau,
    underlying_permutation,
    words_equal,
)


def mirror_oracle(b: BraidWord) -> BraidWord:
    n, out = b.strands, []
    for let in b.letters:
        if let.kind is LetterKind.TAU:
            out.append(tau(n + 1 - let.index))
        elif let.kind is LetterKind.RHO:
            out.append(rho(n - let.index))
        elif let.kind is LetterKind.SIGMA_POS:
            out.append(sigma_inv(n - let.index))
        else:
            out.append(sigma(n - let.index))
    return BraidWord(n, tuple(out))


def sign_reversal_oracle(b: BraidWord) -> BraidWord:
    out = []
    for let in b.letters:
        i = let.index
        if let.kind is LetterKind.SIGMA_POS:
            out += (rho(i), sigma_inv(i), rho(i))
        elif let.kind is LetterKind.SIGMA_NEG:
            out += (rho(i), sigma(i), rho(i))
        else:
            out.append(let)
    return BraidWord(b.strands, tuple(out))


def destab_oracle(b: BraidWord) -> bool:
    """The last letter is a crossing on the last two strands, and the rest
    of the word fits on one strand fewer."""
    if not b.letters:
        return False
    last = b.letters[-1]
    if last.kind is LetterKind.TAU or last.index != b.strands - 1:
        return False
    try:
        BraidWord(b.strands - 1, b.letters[:-1])
    except ValueError:
        return False
    return True


STAB_MOVE_ORACLE = {LetterKind.SIGMA_POS: "m2+", LetterKind.SIGMA_NEG: "m2-", LetterKind.RHO: "m2w"}


def fits(strands: int, let: Letter) -> bool:
    try:
        BraidWord(strands, (let,))
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("kind", list(LetterKind), ids=lambda k: k.value)
def test_kind_data_agrees_with_the_letter_action(kind):
    let = Letter(kind, 1)
    w = BraidWord(2, (let,))
    assert LetterKind(kind.value) is kind
    assert underlying_permutation(w) == ((2, 1) if kind.reach else (1, 2))
    assert fits(1, let) == (not kind.reach) and fits(2, let)
    if closable(w):
        assert [s for _, s in closure(w).crossings] == ([kind.sign] if kind.sign else [])
    else:  # a lone wen
        assert kind.sign == 0 and kind.reach == 0
    assert let.sign == kind.sign and let.is_sigma == (kind.sign != 0)
    assert let.inverse().kind.sign == -kind.sign
    assert words_equal(BraidWord(2, (let, let.inverse())), BraidWord(2))


@settings(max_examples=150, deadline=None)
@given(braid_words(max_strands=6, max_length=12))
def test_mirror_and_sign_reversal_match_the_oracles(b):
    assert mirror_word(b) == mirror_oracle(b)
    assert sign_reversal_word(b) == sign_reversal_oracle(b)


@settings(max_examples=200, deadline=None)
@given(stabilized_words())
def test_destabilization_matches_the_oracle(b):
    assert destab_applicable(b) == destab_oracle(b)
    if destab_applicable(b):
        undo = inverse_move(MarkovMove("m2d"), b)
        assert undo == MarkovMove(STAB_MOVE_ORACLE[b.letters[-1].kind])
        assert apply_move(apply_move(b, MarkovMove("m2d")), undo) == b
