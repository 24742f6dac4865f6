"""Closing braid words into Gauss data and braiding Gauss data back.

The closure joins the bottom of each strand position to its top.  Walking
the word top to bottom, every ``sigma`` letter becomes one crossing, named
"1", "2", ... in letter order; ``rho`` letters only reroute strands and
leave no trace; ``tau`` letters add wen parity to whichever arc is passing.
In ``sigma_i`` with exponent +1 the strand entering at position ``i+1``
rides over (slots 2 -> 4, landing at position ``i``) and the other strand
dives under (slots 1 -> 3); a -1 exponent swaps the roles.  Permutation
cycles that meet no crossing close into free loops.  One walk down the
word, ``_walk``, serves the closure and the strand data: each strand's
passages (``closure_trace``), the underlying permutation, its cycles, and
the wen parity of each closure component.

``braid_from_gauss`` inverts the construction up to crossing renaming: one
positive or negative crossing block per crossing on its own strand pair,
a block of welded crossings routing every outgoing corner to the corner
its arc enters through the closure, and one wen per barred arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .braid import (
    BraidWord,
    ImageCapError,
    Letter,
    _cycles,
    rho,
    sigma,
    sigma_inv,
    tau,
)
from .gauss import GaussData, Passage, _arc, _corners, _require_valid


class NotClosableError(ValueError):
    """A braid word with odd wen parity on some component cannot be closed."""


@dataclass(frozen=True)
class StrandPath:
    """One strand's itinerary: passages met, and wen counts in the gaps.

    ``wens`` has one entry more than ``passages``: the count before the
    first passage, between consecutive ones, and after the last.
    """

    start: int
    passages: tuple[Passage, ...]
    wens: tuple[int, ...]


@dataclass(frozen=True)
class ClosureTrace:
    word: BraidWord
    paths: tuple[StrandPath, ...]
    permutation: tuple[int, ...]


class _Walk(NamedTuple):
    """What one walk down a word records.  The ``k``-th crossing letter
    (from 0) makes passages ``2k`` (under, slots 1 -> 3) and ``2k + 1``
    (over, slots 2 -> 4); strands are numbered by top position, from 1.

    ``succ[p]`` is the passage that the strand leaving ``p`` enters next
    and ``gap[p]`` the wens it meets on the way; after a strand's last
    passage they are -1 and the wens down to the bottom.  Per strand ``s``,
    ``first[s]`` and ``last[s]`` are its first and last passages (-1 when
    it meets none), ``head[s]`` the wens above the first and ``wens[s]``
    its total.
    """

    signs: list[int]
    permutation: tuple[int, ...]
    succ: list[int]
    gap: list[int]
    first: list[int]
    last: list[int]
    head: list[int]
    wens: list[int]


def _walk(b: BraidWord) -> _Walk:
    """Walk the word once, top to bottom; linear in letters and strands."""
    n = b.strands
    occupant = list(range(n + 1))  # occupant[pos] = strand
    wens, mark, head = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    first, last = [-1] * (n + 1), [-1] * (n + 1)
    signs: list[int] = []
    succ: list[int] = []
    gap: list[int] = []
    for let in b.letters:
        i, kind = let.index, let.kind
        if not kind.reach:
            wens[occupant[i]] += 1
            continue
        sign = kind.sign
        if sign:
            if sign > 0:
                under, over = occupant[i], occupant[i + 1]
            else:
                over, under = occupant[i], occupant[i + 1]
            p = len(succ)
            succ += (-1, -1)
            gap += (0, 0)
            signs.append(sign)
            for s, q in ((under, p), (over, p + 1)):
                prev = last[s]
                if prev < 0:
                    first[s], head[s] = q, wens[s]
                else:
                    succ[prev], gap[prev] = q, wens[s] - mark[s]
                last[s], mark[s] = q, wens[s]
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    perm = [0] * n
    for pos in range(1, n + 1):
        s = occupant[pos]
        perm[s - 1] = pos
        if last[s] >= 0:
            gap[last[s]] = wens[s] - mark[s]
    return _Walk(signs, tuple(perm), succ, gap, first, last, head, wens)


def closure_trace(b: BraidWord) -> ClosureTrace:
    """Each strand's passages and wens, read off one walk of the word."""
    walk = _walk(b)
    first, last, succ, gap = walk.first, walk.last, walk.succ, walk.gap
    passage = [(str(k), 1 + over, 3 + over) for k in range(1, len(walk.signs) + 1) for over in (0, 1)]
    paths = []
    for s in range(1, b.strands + 1):
        p = first[s]
        passages, wens = [], [walk.head[s] if p >= 0 else walk.wens[s]]
        while p >= 0:
            passages.append(passage[p])
            wens.append(gap[p])
            p = succ[p] if p != last[s] else -1
        paths.append(StrandPath(s, tuple(passages), tuple(wens)))
    return ClosureTrace(b, tuple(paths), walk.permutation)


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Position each strand ends at: entry ``s-1`` is the bottom position of
    the strand starting at top position ``s``."""
    return _walk(b).permutation


def permutation_cycles(b: BraidWord) -> list[tuple[int, ...]]:
    """Cycles of the underlying permutation, each listed from its smallest
    strand, ordered by that smallest strand."""
    return [tuple(cycle) for cycle in _cycles((0,) + underlying_permutation(b))[1:]]


def wen_parity(b: BraidWord) -> tuple[int, ...]:
    """Mod-2 wen count of each closure component (one per permutation cycle)."""
    walk = _walk(b)
    cycles = _cycles((0,) + walk.permutation)[1:]
    return tuple(sum([walk.wens[s] for s in cycle]) % 2 for cycle in cycles)


def closable(b: BraidWord) -> bool:
    """Whether every closure component carries an even number of wens."""
    return not any(wen_parity(b))


def closure(b: BraidWord) -> GaussData:
    """Gauss data of the closed-up word; requires even wens per component.

    One walk down the word (``_walk``) joins consecutive passages of each
    strand; the closure then joins each strand's last passage to the first
    passage below the top of the position where the strand ends.  The arc
    leaving crossing ``k`` through slot 3 or 4 is entry ``2k-2`` or
    ``2k-1`` of the result, which is field order, so the data is built
    directly, one ``Arc`` per arc over shared endpoints (see ``Endpoint``),
    with no sort and no re-check.  The cost is linear in the letters and
    strands: about 0.7 ms for ``fixtures/l800.bw`` (800 letters on 8
    strands, 400 crossings) once its endpoints exist, against 3.5 ms when
    every arc was three checked objects sorted by ``GaussData.make``
    (Python 3.11, shared 2-core machine).
    """
    walk = _walk(b)
    perm, succ, gap, first, wens = walk.permutation, walk.succ, walk.gap, walk.first, walk.wens
    loops = 0
    for k, cycle in enumerate(_cycles((0,) + perm)[1:], start=1):
        if sum([wens[s] for s in cycle]) % 2:
            raise NotClosableError(f"component {k} has odd wen parity")
        if all(first[s] < 0 for s in cycle):
            loops += 1
    for s, p in enumerate(walk.last):
        if p < 0:
            continue
        # From the top of the strand's bottom position, down through the
        # strands that meet no crossing, to the next passage.
        t = perm[s - 1]
        while first[t] < 0:
            gap[p] += wens[t]
            t = perm[t - 1]
        succ[p] = first[t]
        gap[p] += walk.head[t]
    ids = [str(k) for k in range(1, len(walk.signs) + 1)]
    corners = [_corners(c) for c in ids]
    arcs = tuple(
        _arc(corners[p >> 1][2 + (p & 1)], corners[q >> 1][q & 1], w & 1)
        for p, (q, w) in enumerate(zip(succ, gap))
    )
    return GaussData(tuple(zip(ids, walk.signs)), arcs, loops)


# Most letters a braided word may hold.  The routing block takes one welded
# crossing per inversion of the corner routing, up to about 2m^2 for m
# crossings, so ten thousand crossings can already ask for gigabytes.  Near
# the cap ``ewb braid`` peaks at about 270 MB RSS: 3,400 random crossings
# braid to 11.4 million letters in 1.8 s (Python 3.11, shared 2-core machine).
_MAX_BRAID_LETTERS = 12_000_000

_NO_BRAIDING = "the empty diagram is the closure of no braid word"


def braid_from_gauss(g: GaussData) -> BraidWord:
    """A braid word on ``2m + loops`` strands whose closure has data ``g``.

    Crossing ``k`` (in field order) is realised by one sigma letter of its
    sign on strands ``2k-1, 2k``; below the crossing row, welded crossings
    sort each outgoing corner's strand to the position whose closure
    re-enters where its arc points, and each barred arc contributes one wen
    there.  Each strand is routed with list operations: one ``index`` finds
    it, one slice assignment moves it, and its welded crossings are one
    slice of a precomputed run, so the Python work is per strand and the
    per-letter work runs in C.  The cost is linear in the size of the data
    and of the word, which can grow with the square of the crossing count:
    about 1.9 ms for ``fixtures/l800.gd`` (400 crossings, 9,262 letters on
    800 strands), of which checking the data and the word take 0.4 and
    0.3 ms (Python 3.11, shared 2-core machine).  The data's check is kept
    with its index (see ``GaussData``), so a call on data validated first,
    as ``ewb braid`` validates its input on load, skips it and takes about
    1.6 ms.  A word of more than
    ``_MAX_BRAID_LETTERS`` letters raises ``ImageCapError`` before it is
    built, and before any letter of the strand that would pass the cap is
    emitted.  Invalid data raise ``ValueError``, and so does the empty
    diagram (no crossings, no loops): every word has a strand, so its
    closure has a component.
    """
    ix, _ = _require_valid(g)
    degree = 2 * len(g.crossings) + g.loops
    if not degree:
        raise ValueError(_NO_BRAIDING)
    letters: list[Letter] = []
    # entry[p]: position, in the crossing row, of the corner where passage
    # p comes in; it leaves through the corner where p ^ 1 comes in.
    entry = [0] * len(ix.succ)
    for k, (cid, sign) in enumerate(g.crossings):
        p, low = 2 * ix.pos[cid], 2 * k + 1
        if sign > 0:
            letters.append(sigma(low))
            entry[p], entry[p + 1] = low, low + 1
        else:
            letters.append(sigma_inv(low))
            entry[p], entry[p + 1] = low + 1, low
    inverse = list(range(degree + 1))  # inverse[q]: strand routed to position q
    for p, q in enumerate(ix.succ):
        inverse[entry[q]] = entry[p ^ 1]
    # Fill positions left to right: the strand due at q sits at some j >= q
    # and walks down to q through rho_{j-1} ... rho_q, which is the slice
    # down[degree - j : degree - q], since down[k] = rho_{degree - 1 - k}.
    occ = list(range(degree + 1))  # occ[pos] = strand below the crossing row
    down = [rho(i) for i in range(degree - 1, 0, -1)]
    budget = _MAX_BRAID_LETTERS - len(letters) - sum(ix.bar)
    for q in range(1, degree + 1):
        strand = inverse[q]
        j = occ.index(strand, q)
        budget -= j - q
        if budget < 0:
            raise ImageCapError(
                f"the braided word exceeds the cap of {_MAX_BRAID_LETTERS} letters"
            )
        if j > q:
            occ[q + 1 : j + 1] = occ[q:j]
            occ[q] = strand
            letters += down[degree - j : degree - q]
    letters.extend(tau(q) for q in sorted(entry[q] for p, q in enumerate(ix.succ) if ix.bar[p]))
    return BraidWord(degree, tuple(letters))
