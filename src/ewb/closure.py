"""Closing braid words into Gauss data and braiding Gauss data back.

The closure joins the bottom of each strand position to its top.  Walking
the word top to bottom, every ``sigma`` letter becomes one crossing, named
"1", "2", ... in letter order; ``rho`` letters only reroute strands and
leave no trace; ``tau`` letters add wen parity to whichever arc is passing.
In ``sigma_i`` with exponent +1 the strand entering at position ``i+1``
rides over (slots 2 -> 4, landing at position ``i``) and the other strand
dives under (slots 1 -> 3); a -1 exponent swaps the roles.  Permutation
cycles that meet no crossing close into free loops.  The same walk,
``closure_trace``, gives the strand data: the underlying permutation, its
cycles, and the wen parity of each closure component.

``braid_from_gauss`` inverts the construction up to crossing renaming: one
positive or negative crossing block per crossing on its own strand pair,
a block of welded crossings routing every outgoing corner to the corner
its arc enters through the closure, and one wen per barred arc.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .gauss import Arc, Endpoint, GaussData, Passage, _require_valid


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


def closure_trace(b: BraidWord) -> ClosureTrace:
    """Walk the word once, recording each strand's passages and wens."""
    n = b.strands
    occupant = list(range(n + 1))  # occupant[pos] = strand
    passages: list[list[Passage]] = [[] for _ in range(n + 1)]
    wens: list[list[int]] = [[0] for _ in range(n + 1)]
    crossing = 0
    for let in b.letters:
        i, kind = let.index, let.kind
        if not kind.reach:
            wens[occupant[i]][-1] += 1
            continue
        if kind.sign:
            crossing += 1
            cid = str(crossing)
            if kind.sign > 0:
                under, over = occupant[i], occupant[i + 1]
            else:
                over, under = occupant[i], occupant[i + 1]
            passages[under].append((cid, 1, 3))
            passages[over].append((cid, 2, 4))
            wens[under].append(0)
            wens[over].append(0)
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    perm = [0] * n
    for pos in range(1, n + 1):
        perm[occupant[pos] - 1] = pos
    paths = tuple(
        StrandPath(s, tuple(passages[s]), tuple(wens[s])) for s in range(1, n + 1)
    )
    return ClosureTrace(b, paths, tuple(perm))


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Position each strand ends at: entry ``s-1`` is the bottom position of
    the strand starting at top position ``s``."""
    return closure_trace(b).permutation


def permutation_cycles(b: BraidWord) -> list[tuple[int, ...]]:
    """Cycles of the underlying permutation, each listed from its smallest
    strand, ordered by that smallest strand."""
    return [tuple(cycle) for cycle in _cycles((0,) + underlying_permutation(b))[1:]]


def wen_parity(b: BraidWord) -> tuple[int, ...]:
    """Mod-2 wen count of each closure component (one per permutation cycle)."""
    trace = closure_trace(b)
    cycles = _cycles((0,) + trace.permutation)[1:]
    return tuple(sum([sum(trace.paths[s - 1].wens) for s in cycle]) % 2 for cycle in cycles)


def closable(b: BraidWord) -> bool:
    """Whether every closure component carries an even number of wens."""
    return not any(wen_parity(b))


def closure(b: BraidWord) -> GaussData:
    """Gauss data of the closed-up word; requires even wens per component."""
    trace = closure_trace(b)
    arcs = []
    loops = 0
    for k, cycle in enumerate(_cycles((0,) + trace.permutation)[1:], start=1):
        # The component runs through its strands in cycle order; gaps[j]
        # counts the wens just before passages[j], and gaps[0] also takes the
        # wens after the last passage, where the closure joins them up.
        passages: list[Passage] = []
        gaps = [0]
        for s in cycle:
            path = trace.paths[s - 1]
            gaps[-1] += path.wens[0]
            gaps.extend(path.wens[1:])
            passages.extend(path.passages)
        if sum(gaps) % 2:
            raise NotClosableError(f"component {k} has odd wen parity")
        if not passages:
            loops += 1
            continue
        gaps[0] += gaps.pop()
        for j, (cid, _, out) in enumerate(passages):
            nxt = (j + 1) % len(passages)
            nid, inn, _ = passages[nxt]
            arcs.append(Arc(Endpoint(cid, out), Endpoint(nid, inn), gaps[nxt] % 2))
    crossing_signs = [let.kind.sign for let in b.letters if let.kind.sign]
    signs = {str(c): sign for c, sign in enumerate(crossing_signs, start=1)}
    return GaussData.make(signs, arcs, loops)


# Most letters a braided word may hold.  The routing block takes one welded
# crossing per inversion of the corner routing, up to about 2m^2 for m
# crossings, so ten thousand crossings can already ask for gigabytes.  Near
# the cap ``ewb braid`` peaks at about 270 MB RSS: 3,400 random crossings
# braid to 11.4 million letters in 2.9 s (Python 3.11, shared 2-core machine).
_MAX_BRAID_LETTERS = 12_000_000

_NO_BRAIDING = "the empty diagram is the closure of no braid word"


def braid_from_gauss(g: GaussData) -> BraidWord:
    """A braid word on ``2m + loops`` strands whose closure has data ``g``.

    Crossing ``k`` (in field order) is realised by one sigma letter of its
    sign on strands ``2k-1, 2k``; below the crossing row, welded crossings
    sort each outgoing corner's strand to the position whose closure
    re-enters where its arc points, and each barred arc contributes one wen
    there.  The cost is linear in the size of the data and of the word,
    which can grow with the square of the crossing count; a word of more
    than ``_MAX_BRAID_LETTERS`` letters raises ``ImageCapError`` before it
    is built.  Invalid data raise ``ValueError``, and so does the empty
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
    occ = list(range(degree + 1))  # occ[pos] = strand below the crossing row
    where = list(range(degree + 1))  # where[strand] = pos
    rhos = [rho(i) for i in range(1, degree)]
    budget = _MAX_BRAID_LETTERS - len(letters) - sum(ix.bar)
    for q in range(1, degree + 1):
        strand = inverse[q]
        budget -= where[strand] - q
        if budget < 0:
            raise ImageCapError(
                f"the braided word exceeds the cap of {_MAX_BRAID_LETTERS} letters"
            )
        for j in range(where[strand], q, -1):
            occ[j] = occ[j - 1]
            where[occ[j]] = j
            letters.append(rhos[j - 2])
        occ[q], where[strand] = strand, q
    letters.extend(tau(q) for q in sorted(entry[q] for p, q in enumerate(ix.succ) if ix.bar[p]))
    return BraidWord(degree, tuple(letters))
