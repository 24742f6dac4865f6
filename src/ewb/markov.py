"""Markov-style moves on braid words and a bounded equivalence search.

Two words represent isotopic closures exactly when they are joined by a chain
of the moves below.  The vocabulary:

* ``m0``       -- replace the word by another word equal to it in the group
                  (same degree).  Carries the replacement word.
* ``m1 <k>``   -- conjugation: move the first ``k`` letters to the end.
* ``m2+``      -- stabilization: append a positive crossing on a new strand
                  (degree ``n`` to ``n + 1``, appended letter ``s<n>``).
* ``m2-``      -- stabilization by a negative crossing (``S<n>``).
* ``m2w``      -- welded stabilization (``r<n>``).
* ``m2d``      -- destabilization: remove a final ``s/S/r`` letter on the last
                  two strands when no other letter touches the last strand.

``markov_search`` runs a bidirectional breadth-first search over these moves,
keyed by the induced free-group automorphism, and returns a replayable
:class:`MoveWitness` or ``None`` when the budget or caps are exhausted.  A
``None`` result is always inconclusive: the search cannot certify that two
closures are distinct.

The module also hosts the word-level symmetry operators (sign reversal,
mirror image, the wen row) and the canonicalized linking invariant of a
closed diagram.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .braid import (
    BraidWord,
    FormatError,
    Images,
    Letter,
    LetterKind,
    _INVERSE_KIND,
    _append,
    _check_rank,
    _code,
    _count,
    _fold,
    _prepend,
    parse_word,
    rho,
    sigma,
    sigma_inv,
    tau,
    words_equal,
)
from .gauss import GaussData, _wen_free_crossings

MOVE_KINDS = ("m0", "m1", "m2+", "m2-", "m2w", "m2d")

_STAB_LETTER = {"m2+": sigma, "m2-": sigma_inv, "m2w": rho}
# The stabilization that appends a letter of each kind, undoing m2d.
_STAB_MOVE = {make(1).kind: kind for kind, make in _STAB_LETTER.items()}

# The search stores each letter as its int code (see ``LetterKind``), so
# its words hash and compare in C.
_KINDS = tuple(LetterKind)  # by code
# Each stabilization with its letter maker and kind code.
_STABS = tuple((kind, make, make(1).kind.code) for kind, make in _STAB_LETTER.items())


def _coded(b: BraidWord) -> tuple[int, tuple[int, ...]]:
    """A word as the search stores it: its degree and its letter codes."""
    return b.strands, tuple([4 * let.index + let.kind.code for let in b.letters])


def _letter(code: int) -> Letter:
    return Letter(_KINDS[code & 3], code >> 2)


def _decoded(word: tuple[int, tuple[int, ...]]) -> BraidWord:
    """The word a search word (degree and letter codes) stands for."""
    return BraidWord(word[0], tuple([_letter(code) for code in word[1]]))


@dataclass(frozen=True)
class MarkovMove:
    """One move application.  ``shift`` is used by m1, ``word`` by m0."""

    kind: str
    shift: int = 0
    word: BraidWord | None = None

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.kind == "m0" and self.word is None:
            raise ValueError("m0 move needs a replacement word")
        if self.kind == "m1" and self.shift < 0:
            raise ValueError("m1 shift must be non-negative")

    def token(self) -> str:
        if self.kind == "m1":
            return f"m1 {self.shift}"
        if self.kind == "m0":
            assert self.word is not None
            return ("m0 " + self.word.tokens()).rstrip()
        return self.kind


def destab_applicable(b: BraidWord) -> bool:
    """Whether ``m2d`` applies: final ``s/S/r`` letter alone on the top strand."""
    return _destab_applicable(*_coded(b))


def _destab_applicable(n: int, letters: tuple[int, ...]) -> bool:
    """``destab_applicable`` on a degree and letter codes that already form
    a word.  The letters that reach strand ``n`` are s, S and r on strand
    ``n - 1``, coded ``top`` to ``top + 2``, and t on strand ``n``, coded
    ``top + 7``; every code below ``top``, and ``top + 3`` (t on strand
    ``n - 1``), leaves it alone."""
    if n < 2 or not letters:
        return False
    top = 4 * (n - 1)
    return top <= letters[-1] < top + 3 and all(code < top or code == top + 3 for code in letters[:-1])


def apply_move(b: BraidWord, move: MarkovMove) -> BraidWord:
    """Apply one move, raising ``ValueError`` when it does not apply."""
    if move.kind == "m1":
        return b.rotated(move.shift)
    if move.kind == "m0":
        assert move.word is not None
        if move.word.strands != b.strands:
            raise ValueError("m0 replacement has a different degree")
        if not words_equal(b, move.word):
            raise ValueError("m0 replacement is not equal to the current word")
        return move.word
    if move.kind in _STAB_LETTER:
        n = b.strands
        return BraidWord(n + 1, b.letters + (_STAB_LETTER[move.kind](n),))
    if move.kind == "m2d":
        if not destab_applicable(b):
            raise ValueError("destabilization does not apply to this word")
        return BraidWord(b.strands - 1, b.letters[:-1])
    raise ValueError(f"unknown move kind {move.kind!r}")


def inverse_move(move: MarkovMove, before: BraidWord) -> MarkovMove:
    """The move undoing ``move``, given the word it was applied to."""
    if move.kind == "m1":
        length = len(before.letters)
        if length == 0:
            return MarkovMove("m1", shift=0)
        return MarkovMove("m1", shift=(length - move.shift % length) % length)
    if move.kind == "m0":
        return MarkovMove("m0", word=before)
    if move.kind in _STAB_LETTER:
        return MarkovMove("m2d")
    if move.kind == "m2d":
        return MarkovMove(_STAB_MOVE[before.letters[-1].kind])
    raise ValueError(f"unknown move kind {move.kind!r}")


@dataclass(frozen=True)
class MoveWitness:
    """A replayable move chain carrying its endpoints."""

    start: BraidWord
    moves: tuple[MarkovMove, ...]
    end: BraidWord


def replay_witness(witness: MoveWitness) -> BraidWord:
    current = witness.start
    for move in witness.moves:
        current = apply_move(current, move)
    return current


def verify_witness(witness: MoveWitness) -> bool:
    """Replay the chain and compare the result with the recorded endpoint."""
    try:
        final = replay_witness(witness)
    except ValueError:
        return False
    if final.strands != witness.end.strands:
        return False
    return words_equal(final, witness.end)


def format_witness(moves: Iterable[MarkovMove]) -> str:
    return "".join(move.token() + "\n" for move in moves)


def parse_witness(text: str, start: BraidWord) -> tuple[MarkovMove, ...]:
    """Parse one move per line, replaying from ``start`` to resolve degrees."""
    return _parse_replay(text, start)[0]


def _parse_replay(text: str, start: BraidWord) -> tuple[tuple[MarkovMove, ...], BraidWord]:
    """``parse_witness``'s moves together with the word they replay to."""
    current = start
    moves: list[MarkovMove] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts:
            continue
        head = parts[0]
        if head == "m1":
            shift = None
            if len(parts) == 2:
                shift = _count(parts[1], lineno, "letters in an m1 shift", sys.maxsize)
            if shift is None:
                raise FormatError(lineno, "m1 takes one non-negative shift count")
            move = MarkovMove("m1", shift=shift)
        elif head in ("m2+", "m2-", "m2w", "m2d"):
            if len(parts) != 1:
                raise FormatError(lineno, f"{head} takes no arguments")
            move = MarkovMove(head)
        elif head == "m0":
            try:
                word = parse_word(" ".join(parts[1:]), current.strands)
            except ValueError as exc:
                raise FormatError(lineno, str(exc)) from exc
            move = MarkovMove("m0", word=word)
        else:
            raise FormatError(lineno, f"unknown move {head!r}")
        try:
            current = apply_move(current, move)
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from exc
        moves.append(move)
    return tuple(moves), current


# --- word-level symmetry operators ----------------------------------------


def wen_row(strands: int) -> BraidWord:
    """The involution ``t1 ... tn`` that conjugates a word to its sign reversal."""
    return BraidWord(strands, tuple(tau(i) for i in range(1, strands + 1)))


def sign_reversal_word(b: BraidWord) -> BraidWord:
    """Replace each crossing ``s_i^e`` by ``r_i s_i^-e r_i``; fix ``r`` and ``t``.

    Equal in the group to the conjugate of ``b`` by :func:`wen_row`.
    """
    out: list[Letter] = []
    for letter in b.letters:
        if letter.kind.sign:
            r = rho(letter.index)
            out += (r, letter.inverse(), r)
        else:
            out.append(letter)
    return BraidWord(b.strands, tuple(out))


def mirror_word(b: BraidWord) -> BraidWord:
    """Reflect strand positions and invert crossings, preserving letter order.

    ``s_i^e -> s_(n-i)^-e``, ``r_i -> r_(n-i)``, ``t_i -> t_(n+1-i)``.  The
    closure of the mirror is the sign reversal of the closure.
    """
    n = b.strands
    return BraidWord(n, tuple([
        Letter(_INVERSE_KIND.get(let.kind, let.kind), n + 1 - let.kind.reach - let.index)
        for let in b.letters
    ]))


# --- closure invariants ------------------------------------------------------


def sign_profile(g: GaussData) -> tuple[int, ...]:
    """Canonical crossing-sign multiset of a closed diagram.

    Wens are eliminated first.  Elimination is only canonical up to
    full-loop slides (pairing the bars the other way around a component
    negates the complementary over-passages), so the sorted sign tuple is
    minimized over all subsets of full-loop slides; the minimum is found
    one component at a time, so any number of components is supported.
    The result is constant across words equal in the group and under
    conjugation, but it is not a Markov invariant: the stabilizations
    ``m2+`` and ``m2-`` each add a crossing.
    """
    mu, signs, over, _ = _wen_free_crossings(g)
    # The least sorted tuple has the most -1 entries.  A full-loop slide of
    # one cycle swaps that cycle's counts of negative and positive
    # over-crossings, so each cycle contributes the larger of the two.
    counts = [[0, 0] for _ in range(mu)]
    for sign, i in zip(signs, over):
        counts[i][sign > 0] += 1
    negative = sum(map(max, counts))
    return (-1,) * negative + (1,) * (len(signs) - negative)


def linking_invariant(g: GaussData) -> tuple[tuple[int, ...], ...]:
    """Canonicalized matrix of signed over/under counts between components.

    The signs are read after :func:`eliminate_wens` (full-loop slides negate
    one row at a time, so raw matrices are only well defined up to row
    flips).  Entry ``(i, j)`` sums the signs of crossings where component
    ``i`` runs over and ``j`` runs under, ``i != j``.  The result is the
    lexicographic minimum over simultaneous row/column permutations combined
    with per-row negations, which makes it invariant under component
    renumbering, full-loop slides, and sign reversal.  The minimum is found
    by refining an ordered partition of the components one row at a time
    (``_linking_from``), which tries only the orders that tie for the least
    rows so far, and interchangeable components once.  On six components
    that takes about 0.1 ms for ``fixtures/l6.gd`` and for the all-zero
    matrix, and under 0.5 ms for the worst of 3,000 random matrices of
    -1, 0 and 1, where trying all 720 orders takes about 6 ms (Python
    3.11, shared 2-core machine).  Matrices whose rows tie often still
    branch, so at most 6 components are supported; more raise
    ``ValueError``.
    """
    mu, signs, over, under = _wen_free_crossings(g)
    if mu > 6:
        raise ValueError("linking canonicalization supports at most 6 components")
    matrix = [[0] * mu for _ in range(mu)]
    for sign, i, j in zip(signs, over, under):
        if i != j:
            matrix[i][j] += sign
    return _linking_from(matrix)


def _twins(matrix: list[list[int]], a: int, b: int) -> bool:
    """Whether swapping components ``a`` and ``b`` maps the matrix to itself
    up to the sign of their rows: every other row holds the same entry in
    columns ``a`` and ``b``, and row ``b`` is row ``a``, with ``a`` and
    ``b`` swapped, times one sign."""
    others = [x for x in range(len(matrix)) if x != a and x != b]
    for x in others:
        if matrix[x][a] != matrix[x][b]:
            return False
    ra, rb = matrix[a], matrix[b]
    row_a = [ra[b]] + [ra[x] for x in others]
    row_b = [rb[a]] + [rb[x] for x in others]
    return row_a == row_b or row_a == [-e for e in row_b]


def _linking_from(matrix: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The least tuple of rows ``min(r, -r)`` over all simultaneous
    row/column orders of a square matrix with a zero diagonal.

    Rows are fixed one position at a time.  A branch holds the components
    placed so far and an ordered partition of the others into cells: every
    order that lists the cells in turn, each in any order, gives the same
    rows so far.  The next component comes from the first cell.  Given it
    and its row's sign, the least row lists its entries in the placed
    columns, a 0, then each cell's entries in ascending order, and
    splitting each cell by those entries, in that order, gives the
    partition below.  The sign is the one that makes the first non-zero
    entry negative; both go on only when the placed columns are all 0 and
    the two rows tie.  Only the candidates, over all branches, whose row is
    least go on, and a candidate that ties with its twin (see ``_twins``)
    in the same cell is dropped, since the swap carries the twin's branches
    onto its own.  Once one branch is left and every cell holds one
    component, the order is fixed and the remaining rows are read off it.
    Two components need no search: the larger off-diagonal entry, in
    absolute value, leads.
    """
    mu = len(matrix)
    if mu < 3:
        if mu < 2:
            return ((0,),) * mu
        lo, hi = sorted((abs(matrix[0][1]), abs(matrix[1][0])))
        return ((0, -hi), (-lo, 0))
    branches = [((), [tuple(range(mu))])]
    rows: list[tuple[int, ...]] = []
    while len(rows) < mu:
        if len(branches) == 1 and all(len(cell) == 1 for cell in branches[0][1]):
            placed, cells = branches[0]
            order = placed + tuple([cell[0] for cell in cells])
            for i in order[len(rows):]:
                row = tuple([matrix[i][j] for j in order])
                rows.append(min(row, tuple([-v for v in row])))
            break
        best, below = None, []
        for placed, cells in branches:
            first, tied = cells[0], []
            for b in first:
                rb = matrix[b]
                head = [rb[x] for x in placed]
                lead = next((v for v in head if v), 0)
                # each cell's entries in row b, ascending, and its parts by value
                tail, split = [], []
                for cell in [tuple([x for x in first if x != b])] + cells[1:]:
                    if len(cell) == 1:
                        tail.append(rb[cell[0]])
                        split.append([cell])
                    elif cell:
                        ordered = sorted(cell, key=rb.__getitem__)
                        parts, run = [], [ordered[0]]
                        for x, y in zip(ordered, ordered[1:]):
                            if rb[x] == rb[y]:
                                run.append(y)
                            else:
                                parts.append(tuple(run))
                                run = [y]
                        parts.append(tuple(run))
                        tail += [rb[x] for x in ordered]
                        split.append(parts)
                for sign in (1, -1) if not lead else (-1 if lead > 0 else 1,):
                    if sign > 0:
                        row = tuple(head + [0] + tail)
                    else:
                        negated = [-v for v in head]
                        negated.append(0)
                        for parts in split:
                            for cell in reversed(parts):
                                negated += [-rb[cell[0]]] * len(cell)
                        row = tuple(negated)
                    if best is not None and row > best:
                        continue
                    if best is None or row < best:
                        best, below, tied = row, [], []
                    elif any([_twins(matrix, a, b) for a in tied if a != b]):
                        break
                    cells_below = [c for parts in split for c in (parts if sign > 0 else reversed(parts))]
                    branch = (placed + (b,), cells_below)
                    if not below or below[-1] != branch:
                        below.append(branch)
                        tied.append(b)
        rows.append(best)
        branches = below
    return tuple(rows)


# --- bounded bidirectional search ------------------------------------------


def _conjugated(images: Images, let: Letter) -> Images:
    """The key of ``let^-1 w let`` from the key of ``w``, in two passes."""
    return _append(_prepend(images, let.inverse()), let)


def _stabilized(images: Images, let: Letter) -> Images:
    """The key of ``w let`` on one strand more, from the key of ``w``: the
    new image ``x_(n+1)`` is fixed, then one pass substitutes ``let``."""
    return _append((images[0] + ("",), images[1] + _code(len(images[0]) + 1)), let)


def _destabilized(images: Images, let: Letter) -> Images:
    """The key of ``w`` on one strand less, from the key of ``w let``, in
    one pass."""
    halves, middles = _append(images, let.inverse())
    return halves[:-1], middles[:-1]


def _interned(table: dict, step: tuple, state: Images) -> Images:
    """Record ``step -> state`` in a search's transition table and return
    the one object the table holds for ``state``."""
    state = table.setdefault(state, state)
    table[step] = state
    return state


def _moves(
    here: tuple[int, tuple[int, ...]],
    images: Images,
    seen: dict,
    table: dict,
    max_degree: int,
    max_length: int,
) -> Iterator[tuple[tuple[int, tuple[int, ...]], str, int, Images]]:
    """Each move out of the word ``here`` (degree and letter codes) with state
    ``images`` to a word not in ``seen``, as ``(there, kind, shift, state)``.
    ``seen`` is read as each move comes up, so a word recorded since the
    last yield is skipped.  An m1 goes on from the last rotation yielded.
    A state is read from ``table`` (see ``_search``) and derived only when
    the table does not hold it."""
    n, letters = here
    done, rotated = 0, images
    for k in range(1, len(letters)):
        there = (n, letters[k:] + letters[:k])
        if there not in seen:
            for code in letters[done:k]:
                step = (rotated, code)
                rotated = table.get(step) or _interned(table, step, _conjugated(rotated, _letter(code)))
            done = k
            yield there, "m1", k, rotated
    if n < max_degree and len(letters) < max_length:
        for kind, make, number in _STABS:
            there = (n + 1, letters + (4 * n + number,))
            if there not in seen:
                step = (images, kind)
                state = table.get(step) or _interned(table, step, _stabilized(images, make(n)))
                yield there, kind, 0, state
    if _destab_applicable(n, letters):
        there = (n - 1, letters[:-1])
        if there not in seen:
            step = (images, "m2d", letters[-1])
            state = table.get(step) or _interned(table, step, _destabilized(images, _letter(letters[-1])))
            yield there, "m2d", 0, state


def _path(parents: dict, word: tuple) -> list[tuple[BraidWord, MarkovMove]]:
    """The literal moves from a side's root to ``word``, each with the word
    it applies to."""
    path = []
    while parents[word] is not None:
        word, kind, shift = parents[word]
        path.append((_decoded(word), MarkovMove(kind, shift=shift)))
    path.reverse()
    return path


def _witness(a: BraidWord, b: BraidWord, parents: tuple[dict, dict], meet: tuple) -> MoveWitness:
    """Join the two sides' chains at the words ``meet`` that share a state."""
    moves = [move for _, move in _path(parents[0], meet[0])]
    if meet[0] != meet[1]:
        moves.append(MarkovMove("m0", word=_decoded(meet[1])))
    moves += [inverse_move(move, before) for before, move in reversed(_path(parents[1], meet[1]))]
    witness = MoveWitness(a, tuple(moves), b)
    if not verify_witness(witness):  # a library fault, checked also under -O
        raise RuntimeError("search built a witness that does not replay")
    return witness


def _search_limits(
    a: BraidWord, b: BraidWord, max_degree: int | None, max_length: int | None, budget: int
) -> tuple[int, int]:
    """The degree and length caps of a search, defaulted from the inputs;
    raises ``ValueError`` when a limit leaves the inputs no room, and
    ``ImageCapError`` when the degree cap is above the keys' strand cap."""
    if max_degree is None:
        max_degree = max(a.strands, b.strands) + 2
    if max_length is None:
        max_length = max(len(a.letters), len(b.letters)) + 6
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if max_degree < max(a.strands, b.strands):
        raise ValueError("degree cap is below the degree of an input word")
    if max_length < max(len(a.letters), len(b.letters)):
        raise ValueError("length cap is below the length of an input word")
    _check_rank(max_degree)
    return max_degree, max_length


def markov_search(
    a: BraidWord,
    b: BraidWord,
    *,
    max_degree: int | None = None,
    max_length: int | None = None,
    budget: int = 100_000,
) -> MoveWitness | None:
    """Bidirectional search for a move chain from ``a`` to ``b``.

    Neighbors are all m1 shifts, the three stabilizations (gated by
    ``max_degree`` and ``max_length``; defaults are the input maxima plus 2
    and plus 6), and destabilization when it applies.  The search keys a
    word by its degree and its letter codes, ``4 * index + k`` with s, S, r
    and t numbered ``k`` = 0-3, so its lookups hash and compare ints; it
    builds a letter from its code only to derive a state, and builds words
    and moves only for the witness.  Each side stores two maps:
    ``parents``, from each word it reached to the word and move it came
    from, which is also its visited set; and ``first``, from each state (the
    induced automorphism's generator images, each stored as the half ``w``
    and middle letter of its conjugate ``w x_j^e w^-1``) to the first word
    that reached it, used to see the sides meet.
    ``budget`` caps the words stored on both sides together.  The witness
    is the literal chain from ``a`` to the meeting word, one m0 if the two
    sides' meeting words differ, and the other side's chain inverted back
    to ``b``.  Returns that verified witness, or ``None`` when the space
    within the caps is exhausted or the budget runs out -- which
    is always inconclusive.

    Only the two roots are folded letter by letter.  Every queued word
    carries its state, and one generator, ``_moves``, yields each neighbour
    the side has not seen together with its state, derived from the
    parent's, since a move changes the word by one letter at one end: a
    stabilization adds the image ``x_{n+1}`` (an empty half) and substitutes
    the new letter, and m2d substitutes the last letter's inverse and drops
    the top image, one pass over the halves each; m1 by ``k`` goes on from
    the last rotation yielded (at first the word itself), conjugating by
    each letter it moves, two passes per letter.  Each derivation is a pure
    function of a state and one letter, so the search keeps one transition
    table, shared by both sides and freed when it returns, from an m1 step
    ``(state, letter code)``, a stabilization ``(state, kind)`` and an m2d
    ``(state, "m2d", last letter code)`` to the derived state, and runs the
    passes only on a miss: one derivation per distinct state and letter per
    search, each pass linear in the halves' length.  Words share states and
    rotations share steps: on budget-bound few-strand searches, deriving
    every neighbour afresh repeats 62-86 % of the passes.  The table also
    interns each state, so the queues, both ``first`` maps and the table
    hold one object per distinct state.
    """
    return _search(a, b, max_degree=max_degree, max_length=max_length, budget=budget)[0]


def _search(
    a: BraidWord,
    b: BraidWord,
    *,
    max_degree: int | None = None,
    max_length: int | None = None,
    budget: int = 100_000,
) -> tuple[MoveWitness | None, str, int]:
    """``markov_search`` with why it stopped -- ``found``, ``budget`` or
    ``exhausted`` (no unseen word within the caps) -- and the number of
    words stored on both sides."""
    max_degree, max_length = _search_limits(a, b, max_degree, max_length, budget)
    key_a, key_b = _fold(a), _fold(b)  # a state's images carry its degree
    if key_a == key_b:
        return MoveWitness(a, () if a == b else (MarkovMove("m0", word=b),), b), "found", 2

    roots = (_coded(a), _coded(b))
    table = {key_a: key_a, key_b: key_b}  # transitions and interned states
    parents: tuple[dict, dict] = ({roots[0]: None}, {roots[1]: None})
    first: tuple[dict, dict] = ({key_a: roots[0]}, {key_b: roots[1]})
    queues: tuple[deque, deque] = (deque([(roots[0], key_a)]), deque([(roots[1], key_b)]))

    while queues[0] or queues[1]:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        here, images = queues[side].popleft()
        for there, kind, shift, key in _moves(here, images, parents[side], table, max_degree, max_length):
            if len(parents[0]) + len(parents[1]) >= budget:
                return None, "budget", len(parents[0]) + len(parents[1])
            parents[side][there] = (here, kind, shift)
            if key not in first[side]:
                first[side][key] = there
                if key in first[1 - side]:
                    meet = (first[0][key], first[1][key])
                    return _witness(a, b, parents, meet), "found", len(parents[0]) + len(parents[1])
            queues[side].append((there, key))
    return None, "exhausted", len(parents[0]) + len(parents[1])
