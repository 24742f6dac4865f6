"""Words in the extended welded braid group and their free-group action.

A braid word on ``n`` strands is a finite sequence of letters drawn from
three generator families, all indexed from 1:

* ``s<i>`` / ``S<i>`` -- the classical crossing ``sigma_i`` and its inverse,
  exchanging strands ``i`` and ``i+1`` (``1 <= i <= n-1``),
* ``r<i>`` -- the welded crossing ``rho_i``, an involution exchanging
  strands ``i`` and ``i+1`` (``1 <= i <= n-1``),
* ``t<i>`` -- the wen ``tau_i``, an involution marking strand ``i``
  (``1 <= i <= n``).

Words multiply by concatenation, read left to right.  Equality of group
elements is decided through a faithful action on the free group
``F_n = <x_1, ..., x_n>``:

* ``sigma_i``:  ``x_i -> x_i x_{i+1} x_i^-1``, ``x_{i+1} -> x_i``
* ``rho_i``:    ``x_i <-> x_{i+1}``
* ``tau_i``:    ``x_i -> x_i^-1``

Automorphisms compose left to right to match word concatenation: the
automorphism of ``a * b`` applies ``a``'s action first.  Every image is a
conjugate ``w x_j^e w^-1`` of a single generator or inverse generator, so
equality keeps only the half ``w`` and the middle letter of each image, as
strings of one code point per letter, and folds a word over the halves, one
pass per letter.  A pass is a few string operations over all halves at
once, linear in their length: a one-to-one letter map, the conjugate image
of the one generator that has a non-empty half, and one cut of the only
cancellation this can leave.  ``verify_relations`` checks the defining
relation suite exhaustively and is the arbiter for these conventions.

A word's strand data (permutation, cycles, wen parity) live in
``closure.py``, read from the closure's strand walk.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterator, Sequence


class FormatError(ValueError):
    """A text input violated one of the flat-file formats."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Largest ``strands`` or ``loops`` count a file may declare: the count alone
# sizes the work and memory of every verb, whatever the rest of the file holds.
_MAX_FILE_COUNT = 100_000


def _fits(digits: str, cap: int) -> int | None:
    """The value of a string of ASCII digits, or None when it is above
    ``cap``; the length test keeps an over-long string from ``int``'s digit
    limit."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(cap)) or int(digits) > cap:
        return None
    return int(digits)


def _count(field: str, line: int, what: str, cap: int = _MAX_FILE_COUNT) -> int | None:
    """A count field's value, or None when it is not a plain ASCII decimal
    number.  A value above ``cap`` is a ``FormatError`` on ``line``."""
    if not (field.isascii() and field.isdigit()):
        return None
    value = _fits(field, cap)
    if value is None:
        raise FormatError(line, f"more than {cap} {what}")
    return value


class LetterKind(Enum):
    """Generator families by file token.  ``sign`` is the crossing sign a
    letter closes to: +1 for ``sigma``, -1 for its inverse, 0 for ``rho``
    and ``tau``.  ``reach`` is 1 when the letter exchanges positions ``i``
    and ``i+1``, 0 for the wen; letter ``i`` fits on ``n`` strands when
    ``i + reach <= n``.  ``code`` numbers the kinds 0-3 in this order, and
    letter ``i`` is coded as the int ``4 * i + code``."""

    SIGMA_POS = ("s", 1, 1, 0)
    SIGMA_NEG = ("S", -1, 1, 1)
    RHO = ("r", 0, 1, 2)
    TAU = ("t", 0, 0, 3)

    def __new__(cls, token: str, sign: int, reach: int, code: int) -> LetterKind:
        member = object.__new__(cls)
        member._value_, member.sign, member.reach, member.code = token, sign, reach, code
        return member

    __hash__ = object.__hash__  # members are singletons; Enum hashes the name


class _Value:
    """Base of the immutable value classes ``Letter``, ``Endpoint`` and
    ``Arc``.  An instance compares equal only to one of its own class, and
    compares, hashes, pickles and prints as the tuple of the fields named
    in ``__match_args__``; assigning or deleting a field raises
    ``FrozenInstanceError``.  Each subclass declares its slots and a
    ``__new__`` that checks the fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields(self)

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields(self)))
        return f"{self.__class__.__name__}({shown})"


class Letter(_Value):
    """One generator letter, with index ``i >= 1``, which carries its file
    token.  The kind must be a ``LetterKind`` and the index an ``int``;
    anything else raises ``ValueError``.  For ``i <= _INTERNED_INDEX``,
    ``Letter(kind, i)`` returns the one instance built for that pair and
    keeps it for the life of the process (about 300 bytes a letter, at most
    about 5 MB in all); a larger index builds a new letter each time."""

    __slots__ = ("kind", "index", "_token")
    __match_args__ = ("kind", "index")

    kind: LetterKind
    index: int

    def __new__(cls, kind: LetterKind, index: int) -> Letter:
        if kind.__class__ is not LetterKind or index.__class__ is not int:
            raise ValueError(f"letter needs a LetterKind and an int index, got {kind!r}, {index!r}")
        let = _LETTERS.get(4 * index + kind.code)
        if let is None:
            if index < 1:
                raise ValueError(f"letter index must be >= 1, got {index}")
            let = object.__new__(cls)
            token = f"{kind.value}{index}"
            for name, value in (("kind", kind), ("index", index), ("_token", token)):
                object.__setattr__(let, name, value)
            if index <= _INTERNED_INDEX:
                _LETTERS[4 * index + kind.code] = _BY_TOKEN[token] = let
        return let

    @property
    def is_sigma(self) -> bool:
        return self.kind.sign != 0

    @property
    def sign(self) -> int:
        """Crossing sign: +1 for sigma, -1 for its inverse, 0 otherwise."""
        return self.kind.sign

    def inverse(self) -> Letter:
        kind = _INVERSE_KIND.get(self.kind)
        if kind is None:
            return self  # rho and tau are involutions
        return Letter(kind, self.index)

    def token(self) -> str:
        return self._token


# Every letter built so far with an index up to _INTERNED_INDEX, by code
# and by canonical token: at most 4 * _INTERNED_INDEX letters.
_INTERNED_INDEX = 4096
_LETTERS: dict[int, Letter] = {}
_BY_TOKEN: dict[str, Letter] = {}


_INVERSE_KIND = {
    LetterKind.SIGMA_POS: LetterKind.SIGMA_NEG,
    LetterKind.SIGMA_NEG: LetterKind.SIGMA_POS,
}


def sigma(i: int) -> Letter:
    return Letter(LetterKind.SIGMA_POS, i)


def sigma_inv(i: int) -> Letter:
    return Letter(LetterKind.SIGMA_NEG, i)


def rho(i: int) -> Letter:
    return Letter(LetterKind.RHO, i)


def tau(i: int) -> Letter:
    return Letter(LetterKind.TAU, i)


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators, together with its strand count."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.strands.__class__ is not int:
            raise ValueError(f"strand count must be an int, got {self.strands!r}")
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        try:
            for let in self.letters:
                if let.index + let.kind.reach > self.strands:
                    raise ValueError(
                        f"letter {let.token()} out of range on {self.strands} strands"
                    )
        except AttributeError:  # a letter that is not a Letter
            raise ValueError(f"letters must be Letter values, got {let!r}") from None

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        return compose(self, other)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple([l.inverse() for l in reversed(self.letters)]))

    def rotated(self, k: int) -> BraidWord:
        """Move the first ``k`` letters to the end (conjugation by the prefix)."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return BraidWord(self.strands, self.letters[k:] + self.letters[:k])

    def tokens(self) -> str:
        return " ".join([l._token for l in self.letters])


def word(strands: int, *letters: Letter) -> BraidWord:
    return BraidWord(strands, letters)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"degree mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


_TOKEN_RE = re.compile(r"([sSrt])([0-9]+)$")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated token stream into a word on ``strands``."""
    tokens = text.split()
    try:  # every token names a letter built before, and the word is valid
        return BraidWord(strands, tuple([_BY_TOKEN[tok] for tok in tokens]))
    except (KeyError, ValueError):
        pass  # read the tokens one by one, for the first one's message
    letters = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad letter token {tok!r}")
        index = _fits(m.group(2), strands)
        if index is None:
            shown = tok if len(tok) <= 20 else tok[:20] + "..."
            raise ValueError(f"letter {shown} out of range on {strands} strands")
        letters.append(Letter(LetterKind(m.group(1)), index))
    return BraidWord(strands, tuple(letters))


def parse_word_file(text: str) -> BraidWord:
    """Parse the two-line word format: ``strands <n>`` then letter tokens."""
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(1, "empty word file, expected 'strands <n>'")
    head = lines[0].split()
    strands = _count(head[1], 1, "strands") if len(head) == 2 and head[0] == "strands" else None
    if not strands:  # not a count, or zero
        raise FormatError(1, f"expected 'strands <n>', got {lines[0]!r}")
    if len(lines) > 2:
        raise FormatError(3, "unexpected extra line in word file")
    body = lines[1] if len(lines) == 2 else ""
    try:
        return parse_word(body, strands)
    except ValueError as exc:
        raise FormatError(2, str(exc)) from None


def format_word_file(b: BraidWord) -> str:
    return f"strands {b.strands}\n{b.tokens()}\n"


# --- free group machinery ------------------------------------------------
#
# A free word is a freely reduced tuple of nonzero ints: +i stands for the
# generator x_i, -i for its inverse.


@dataclass(frozen=True)
class FreeWord:
    letters: tuple[int, ...] = ()


# Images of the generators under each letter.  Substitution tables keep the
# letter action sparse: generators not listed map to themselves.


def _letter_table(kind: LetterKind, i: int) -> dict[int, tuple[int, ...]]:
    if not kind.reach:
        return {i: (-i,)}
    if kind.sign > 0:
        return {i: (i, i + 1, -i), i + 1: (i,)}
    if kind.sign < 0:
        return {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
    return {i: (i + 1,), i + 1: (i,)}


@dataclass(frozen=True)
class FreeGroupAutomorphism:
    """An automorphism of ``F_n`` given by generator images: the decoded
    form of a word's action, as ``to_automorphism`` returns it.  The
    action of a product is ``to_automorphism(compose(a, b))``."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("image count must equal rank")


# A word's key is ``(halves, middles)``: the image of x_i is
# ``halves[i-1] middles[i-1] halves[i-1]^-1``.  Both are written in the
# letter code ``x_j -> chr(2j)``, ``x_j^-1 -> chr(2j + 1)``, so inverting a
# letter flips the low bit of its code point, and a letter takes 1 to 4
# bytes.  ``middles`` holds one letter per strand.  Each half is freely
# reduced and does not end in its middle letter or that letter's inverse,
# so the key is unique and equal keys mean equal images.  Each letter added
# at either end of the word is one pass over the halves, so the keys of a
# word's neighbours follow from its own.  The largest code point,
# 0x10FFFF, bounds the rank at _MAX_RANK strands.

Images = tuple[tuple[str, ...], str]

_MAX_RANK = (0x10FFFF - 1) // 2
_SEP = "\0"  # joins the halves of a pass; no letter code


def _code(g: int) -> str:
    """The letter code of the signed generator ``g``."""
    return chr(2 * g) if g > 0 else chr(1 - 2 * g)


def _decode(half: str) -> tuple[int, ...]:
    """The signed generators of a coded string."""
    return tuple([-(o >> 1) if o & 1 else o >> 1 for o in map(ord, half)])


def _identity(rank: int) -> Images:
    """The key of the empty word on ``rank`` strands."""
    return ("",) * rank, "".join(map(chr, range(2, 2 * rank + 2, 2)))


# Each table is a string of 2 * rank + 2 code points, and the cache keeps up
# to 8 for the life of the process: sys.getsizeof measures 800 KB a table at
# the 100,000-strand file cap and 4.46 MB at _MAX_RANK.
@functools.lru_cache(maxsize=8)
def _flip(rank: int) -> str:
    """The ``str.translate`` table that inverts every letter of rank ``rank``."""
    return "".join(map(chr, [o ^ 1 for o in range(2 * rank + 2)]))


def _join(a: str, b: str) -> str:
    """The free reduction of ``a b`` for freely reduced ``a`` and ``b``."""
    k, top = 0, min(len(a), len(b))
    while k < top and ord(a[-1 - k]) ^ 1 == ord(b[k]):
        k += 1
    return a[:len(a) - k] + b[k:]


@functools.lru_cache(maxsize=4096)  # 100,000 strands admit 400,000 letters
def _pass_tables(kind: LetterKind, i: int) -> tuple[
    dict[int, str],
    tuple[str, ...] | None,
    tuple[tuple[int, str, str], ...],
]:
    """A letter's action, read from ``_letter_table`` as string operations.

    ``table`` sends each touched letter to the middle of its image, for
    ``str.translate``; the map is one-to-one and commutes with inversion.
    Every image is a conjugate ``u x_k^f u^-1``, and at most one generator
    has a non-empty half ``u``, of one letter; for it ``conj`` is
    ``(c, C, u c u^-1, u C u^-1, u^-1 u, u, u^-1)``, where ``c`` is its
    image's middle and ``C`` the inverse, else None.  ``heads`` lists
    ``(g, u, c)`` for each touched positive generator ``g``."""
    swap: dict[str, str] = {}
    conj = None
    heads = []
    for g, image in _letter_table(kind, i).items():
        t = len(image) // 2
        u, c, C = "".join(map(_code, image[:t])), _code(image[t]), _code(-image[t])
        swap[_code(g)], swap[_code(-g)] = c, C
        heads.append((g, u, c))
        if u:
            U = "".join(map(_code, (-h for h in reversed(image[:t]))))
            conj = (c, C, u + c + U, u + C + U, U + u, u, U)
    return {ord(a): b for a, b in swap.items()}, conj, tuple(heads)


def _append(images: Images, let: Letter) -> Images:
    """The key of ``w let`` from the key of ``w``: substitute the letter's
    action into every half, append the half of the letter's image of the
    middle generator, and strip the trailing middle letters.

    All halves go through each string operation as one string, joined by
    ``_SEP``, so no pattern spans two halves.  The substituted half is
    reduced once ``u^-1 u`` is cut out: ``u`` is one letter, neither ``c``
    nor ``C``, and no two one-letter pieces cancel, so a cancellation needs
    a piece ``u c u^-1`` or ``u C u^-1`` on one side and ``u^-1`` or ``u``
    on the other, and what it leaves joins ``c`` or ``C`` to a letter that
    cannot cancel it.  The substituted half ends in the image of its last
    letter, in ``c`` or ``C`` after a cut, or in ``u^-1``, so only a half
    whose new middle is ``c``, ``C``, ``u`` or ``u^-1`` can end in that
    middle or take a tail."""
    table, conj, _ = _pass_tables(let.kind, let.index)
    text, middles = _SEP.join(images[0]).translate(table), images[1].translate(table)
    if conj is None:  # a letter permutation: halves stay reduced and unstripped
        return tuple(text.split(_SEP)), middles
    c, C, cu, Cu, junction, u, U = conj
    halves = text.replace(c, cu).replace(C, Cu).replace(junction, "").split(_SEP)
    for middle in (c, C, u, U):
        k = middles.find(middle)
        while k >= 0:
            half = halves[k]
            if middle == c or middle == C:  # append u, or cancel a final u^-1
                half = half[:-1] if half[-1:] == U else half + u
            halves[k] = half.rstrip(middle + chr(ord(middle) ^ 1))
            k = middles.find(middle, k + 1)
    return tuple(halves), middles


def _prepend(images: Images, let: Letter) -> Images:
    """The key of ``let w`` from the key of ``w``: the letter sends each
    generator it touches to ``u x_k^f u^-1``, whose image has the half
    ``w(u) half_k``; the other halves and middles are kept as they are."""
    halves, middles = images
    new_halves, new_middles = list(halves), list(middles)
    for g, u, c in _pass_tables(let.kind, let.index)[2]:
        k = (ord(c) >> 1) - 1
        half, middle = halves[k], middles[k]
        if ord(c) & 1:
            middle = chr(ord(middle) ^ 1)
        if u:  # one letter, whose image is h m h^-1
            k = (ord(u) >> 1) - 1
            h, m = halves[k], middles[k]
            if ord(u) & 1:
                m = chr(ord(m) ^ 1)
            half = _join(h + m + h[::-1].translate(_flip(len(halves))), half)
        new_halves[g - 1], new_middles[g - 1] = half.rstrip(middle + chr(ord(middle) ^ 1)), middle
    return tuple(new_halves), "".join(new_middles)


# Most half letters a fold may hold.  The fastest growth found, about 1.62
# per letter, is that of (s1 S2)^k on 3 strands.  A half letter costs 1 byte
# below 128 strands, 2 below 32,768 and 4 above.  A pass holds the halves it
# starts from, their joined copy and two substituted copies of at most three
# times their length, so at most eight times the halves: under 400 MB at the
# cap.  ``ewb eq-word`` on (s1 S2)^20 and that word with its last two
# letters changed crosses the cap in 0.5-0.7 s and peaks at 89 MB RSS under
# a 1 GiB address-space limit (Python 3.11, shared 2-core machine).
_MAX_HALF_LETTERS = 12_000_000


class ImageCapError(Exception):
    """A result outgrew its cap: a word's key does not fit the letter code,
    its images past ``_MAX_HALF_LETTERS`` or its strands past
    ``_MAX_RANK``, or a braided word passed
    ``closure._MAX_BRAID_LETTERS``.  Not a ``ValueError``: it is neither a
    negative verdict nor bad input."""


def _check_rank(n: int) -> None:
    """Raise ``ImageCapError`` when keys on ``n`` strands leave the code."""
    if n > _MAX_RANK:
        raise ImageCapError(
            f"free-group images on {n} strands exceed the cap of {_MAX_RANK} strands"
        )


def _fold(b: BraidWord) -> Images:
    """The key of ``b``, one ``_append`` pass per letter; raises
    ``ImageCapError`` above ``_MAX_RANK`` strands or when the halves outgrow
    ``_MAX_HALF_LETTERS``."""
    _check_rank(b.strands)
    images = _identity(b.strands)
    bound = 0  # never below the half letters held: a pass at most
    for let in b.letters:  # triples them and adds one letter to each half
        images = _append(images, let)
        bound = 3 * bound + b.strands
        if bound > _MAX_HALF_LETTERS:
            bound = sum(map(len, images[0]))
            if bound > _MAX_HALF_LETTERS:
                raise ImageCapError(
                    f"a word's free-group images exceed the cap of {_MAX_HALF_LETTERS} letters"
                )
    return images


def to_automorphism(b: BraidWord) -> FreeGroupAutomorphism:
    """The action of ``b`` on ``F_n``; equal words yield equal automorphisms."""
    images = []
    for half, middle in zip(*_fold(b)):
        w = _decode(half)
        images.append(FreeWord(w + _decode(middle) + tuple([-g for g in reversed(w)])))
    return FreeGroupAutomorphism(b.strands, tuple(images))


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words of equal degree represent the same group element."""
    if a.strands != b.strands:
        raise ValueError(f"degree mismatch: {a.strands} vs {b.strands}")
    return _fold(a) == _fold(b)


# --- permutation cycles -------------------------------------------------


def _cycles(succ: Sequence[int]) -> list[list[int]]:
    """Cycles of the permutation ``succ`` of ``0 .. len(succ)-1``, each
    listed from its smallest element, ordered by that smallest element.
    A 1-based permutation ``perm`` walks as ``_cycles((0,) + perm)[1:]``."""
    seen = [False] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            p = succ[p]
        cycles.append(cycle)
    return cycles


# --- the defining relation suite ------------------------------------------


def presentation_relations(n: int) -> Iterator[tuple[str, BraidWord, BraidWord]]:
    """All defining relations on ``n`` strands, as (label, lhs, rhs) triples.

    Fifteen families: the two braid-like families for sigma and for rho,
    rho involutivity, distant commutations within and across the sigma,
    rho, tau families, the two mixed sigma/rho triples, tau involutivity
    and diagonality, and the three slide rules moving a wen through a
    crossing.
    """

    def w(*letters: Letter) -> BraidWord:
        return BraidWord(n, tuple(letters))

    for i in range(1, n):
        for j in range(i + 2, n):
            yield f"sigma-commute {i},{j}", w(sigma(i), sigma(j)), w(sigma(j), sigma(i))
            yield f"rho-commute {i},{j}", w(rho(i), rho(j)), w(rho(j), rho(i))
    for i in range(1, n - 1):
        yield (f"sigma-braid {i}",
               w(sigma(i), sigma(i + 1), sigma(i)),
               w(sigma(i + 1), sigma(i), sigma(i + 1)))
        yield (f"rho-braid {i}",
               w(rho(i), rho(i + 1), rho(i)),
               w(rho(i + 1), rho(i), rho(i + 1)))
        yield (f"mixed-braid-rrs {i}",
               w(rho(i + 1), rho(i), sigma(i + 1)),
               w(sigma(i), rho(i + 1), rho(i)))
        yield (f"mixed-braid-ssr {i}",
               w(sigma(i + 1), sigma(i), rho(i + 1)),
               w(rho(i), sigma(i + 1), sigma(i)))
    for i in range(1, n):
        yield f"rho-involution {i}", w(rho(i), rho(i)), w()
        for j in range(1, n):
            if abs(i - j) > 1:
                yield f"rho-sigma-commute {i},{j}", w(rho(i), sigma(j)), w(sigma(j), rho(i))
    for i in range(1, n + 1):
        yield f"tau-involution {i}", w(tau(i), tau(i)), w()
        for j in range(i + 1, n + 1):
            yield f"tau-commute {i},{j}", w(tau(i), tau(j)), w(tau(j), tau(i))
    for i in range(1, n):
        for j in range(1, n + 1):
            if abs(i - j) > 1:
                yield f"sigma-tau-commute {i},{j}", w(sigma(i), tau(j)), w(tau(j), sigma(i))
                yield f"rho-tau-commute {i},{j}", w(rho(i), tau(j)), w(tau(j), rho(i))
    for i in range(1, n):
        yield f"wen-through-rho {i}", w(tau(i), rho(i)), w(rho(i), tau(i + 1))
        yield f"wen-through-sigma {i}", w(tau(i), sigma(i)), w(sigma(i), tau(i + 1))
        yield (f"wen-flip-sigma {i}",
               w(tau(i + 1), sigma(i)),
               w(rho(i), sigma_inv(i), rho(i), tau(i)))


def verify_relations(max_strands: int) -> tuple[int, list[str]]:
    """Check every relation instance for degrees up to ``max_strands``.

    Returns the number of instances checked and the labels of any failures.
    """
    checked = 0
    failures = []
    for n in range(1, max_strands + 1):
        for label, lhs, rhs in presentation_relations(n):
            checked += 1
            if _fold(lhs) != _fold(rhs):
                failures.append(f"n={n}: {label}")
    return checked, failures
