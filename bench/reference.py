"""Independent reference computations used to check the library's outputs.

Nothing here calls an ``ewb`` function: words are read through their
``letters`` (kind token and index), Gauss data through its ``crossings``,
``arcs`` and ``loops`` fields.  The checks are simple walks whose
correctness can be read off the definitions in the library's docstrings,
so a fault in the function under test cannot hide behind the same fault in
its checker.
"""

from __future__ import annotations

from itertools import permutations

# --- words -------------------------------------------------------------------


def tokens(word) -> list[str]:
    return [f"{let.kind.value}{let.index}" for let in word.letters]


def sign_reversal_tokens(word) -> list[str]:
    """``s_i^e -> r_i s_i^-e r_i``; ``r`` and ``t`` letters are fixed."""
    out = []
    for tok in tokens(word):
        kind, i = tok[0], tok[1:]
        if kind in "sS":
            out += [f"r{i}", ("S" if kind == "s" else "s") + i, f"r{i}"]
        else:
            out.append(tok)
    return out


def mirror_tokens(word) -> list[str]:
    """``s_i^e -> s_(n-i)^-e``, ``r_i -> r_(n-i)``, ``t_i -> t_(n+1-i)``."""
    n = word.strands
    flip = {"s": "S", "S": "s", "r": "r"}
    out = []
    for tok in tokens(word):
        kind, i = tok[0], int(tok[1:])
        out.append(f"t{n + 1 - i}" if kind == "t" else f"{flip[kind]}{n - i}")
    return out


def strand_walk(word):
    """Per-strand events top to bottom, and the underlying permutation.

    Events are ``("c", k, over, sign)`` for the ``k``-th crossing letter and
    ``("t",)`` for a wen.  ``perm[s]`` is the bottom position of strand
    ``s``, i.e. the strand whose top the closure joins next.
    """
    n = word.strands
    occupant = list(range(n + 1))
    events: list[list[tuple]] = [[] for _ in range(n + 1)]
    k = 0
    for let in word.letters:
        kind, i = let.kind.value, let.index
        if kind == "t":
            events[occupant[i]].append(("t",))
            continue
        if kind in "sS":
            k += 1
            sign = 1 if kind == "s" else -1
            under, over = (occupant[i], occupant[i + 1]) if sign > 0 else (occupant[i + 1], occupant[i])
            events[under].append(("c", k, False, sign))
            events[over].append(("c", k, True, sign))
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    perm = [0] * (n + 1)
    for pos in range(1, n + 1):
        perm[occupant[pos]] = pos
    return events, perm


def permutation_cycles(word) -> list[list[int]]:
    _, perm = strand_walk(word)
    seen, cycles = set(), []
    for s in range(1, word.strands + 1):
        if s in seen:
            continue
        cycle = []
        while s not in seen:
            seen.add(s)
            cycle.append(s)
            s = perm[s]
        cycles.append(cycle)
    return cycles


def word_closure_stats(word) -> dict:
    """Invariants of the closure read directly off the word.

    Each permutation cycle is one component; a cycle meeting no crossing
    is a free loop.  Along a component an over-passage preceded by an odd
    number of wens is the one wen elimination flips (up to a full-loop
    slide, which the canonical forms below absorb).
    """
    events, _ = strand_walk(word)
    over_comp, under_comp, signs = {}, {}, {}
    crossing_comps = 0
    loops = 0
    for cycle in permutation_cycles(word):
        seq = [e for s in cycle for e in events[s]]
        if not any(e[0] == "c" for e in seq):
            loops += 1
            continue
        ci = crossing_comps
        crossing_comps += 1
        wens = 0
        for e in seq:
            if e[0] == "t":
                wens += 1
                continue
            _, k, over, sign = e
            if over:
                over_comp[k] = ci
                signs[k] = -sign if wens % 2 else sign
            else:
                under_comp[k] = ci
    mu = crossing_comps + loops
    return {
        "crossings": len(signs),
        "components": mu,
        "loops": loops,
        "signs": canonical_signs(signs, over_comp, crossing_comps),
        "linking": canonical_linking(signs, over_comp, under_comp, mu) if mu <= 6 else None,
    }


def canonical_signs(signs: dict, over_comp: dict, comps: int) -> tuple[int, ...]:
    best = None
    for mask in range(1 << comps):
        cand = tuple(sorted(-s if (mask >> over_comp[k]) & 1 else s for k, s in signs.items()))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def canonical_linking(signs: dict, over_comp: dict, under_comp: dict, mu: int):
    matrix = [[0] * mu for _ in range(mu)]
    for k, s in signs.items():
        i, j = over_comp[k], under_comp[k]
        if i != j:
            matrix[i][j] += s
    best = None
    for perm in permutations(range(mu)):
        rows = []
        for i in perm:
            row = tuple(matrix[i][j] for j in perm)
            rows.append(min(row, tuple(-x for x in row)))
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def markov_class(word) -> tuple:
    """Component count and linking matrix: both survive every move kind."""
    stats = word_closure_stats(word)
    return stats["components"], stats["linking"]


# --- Gauss data ----------------------------------------------------------------


def _id_key(cid: str) -> tuple[int, str]:
    return (len(cid), cid)


def gauss_structure_problem(g) -> str | None:
    """Every slot carries exactly one arc and each component has even bars."""
    ids = {c for c, _ in g.crossings}
    if len(ids) != len(g.crossings):
        return "repeated crossing id"
    ends = {}
    for a in g.arcs:
        for end in (a.source, a.target):
            key = (end.crossing, end.slot)
            if end.crossing not in ids:
                return f"arc to unknown crossing {end.crossing}"
            if key in ends:
                return f"two arcs at {end.crossing}.{end.slot}"
            ends[key] = a
    if len(ends) != 4 * len(ids):
        return "dangling slot"
    for comp in walk_components(g):
        if sum(bar for _, _, bar in comp) % 2:
            return "odd bars on a component"
    return None


def walk_components(g) -> list[list[tuple[str, int, int]]]:
    """Components as lists of ``(crossing, in_slot, bar of the arc after)``,
    each from its smallest passage, in order of those starts."""
    nxt = {(a.source.crossing, a.source.slot): (a.target.crossing, a.target.slot, a.bar) for a in g.arcs}
    starts = sorted(((c, s) for c, _ in g.crossings for s in (1, 2)), key=lambda p: (_id_key(p[0]), p[1]))
    seen, comps = set(), []
    for start in starts:
        if start in seen:
            continue
        comp, p = [], start
        while p not in seen:
            seen.add(p)
            c, s, bar = nxt[(p[0], p[1] + 2)]
            comp.append((p[0], p[1], bar))
            p = (c, s)
        comps.append(comp)
    return comps


def wen_elimination_expectation(g) -> tuple[frozenset, int]:
    """Flip set and slide count of cancelling bars in pairs along each
    component: an over-passage flips when an odd number of bars precede
    it; each pair costs as many slides as passages lie between its bars."""
    flipped, slides = set(), 0
    for comp in walk_components(g):
        bars_before = 0
        barred = []
        for m, (cid, in_slot, bar) in enumerate(comp):
            if in_slot == 2 and bars_before % 2:
                flipped.add(cid)
            if bar:
                barred.append(m)
            bars_before += bar
        slides += sum(second - first for first, second in zip(barred[0::2], barred[1::2]))
    return frozenset(flipped), slides


def eliminated_data_matches(g, out, flipped: frozenset) -> bool:
    """``out`` is ``g`` with exactly ``flipped`` negated and every bar cleared."""
    want_signs = tuple((c, -s if c in flipped else s) for c, s in g.crossings)
    want_arcs = {(a.source, a.target) for a in g.arcs}
    return (
        out.crossings == want_signs
        and out.loops == g.loops
        and all(a.bar == 0 for a in out.arcs)
        and {(a.source, a.target) for a in out.arcs} == want_arcs
        and len(out.arcs) == len(g.arcs)
    )


def has_unbarred_curl(g) -> bool:
    return any(
        a.bar == 0
        and a.source.crossing == a.target.crossing
        and (a.source.slot, a.target.slot) in ((3, 2), (4, 1))
        for a in g.arcs
    )


def component_count(g) -> int:
    return len(walk_components(g)) + g.loops


def is_isomorphism(g1, g2, pairs) -> bool:
    """Check a claimed crossing bijection without the library's checker."""
    mapping = dict(pairs)
    ids1 = [c for c, _ in g1.crossings]
    ids2 = [c for c, _ in g2.crossings]
    if len(mapping) != len(pairs) or sorted(mapping) != sorted(ids1):
        return False
    if sorted(mapping.values()) != sorted(ids2) or g1.loops != g2.loops:
        return False
    s1, s2 = dict(g1.crossings), dict(g2.crossings)
    if any(s1[c] != s2[mapping[c]] for c in ids1):
        return False
    mapped = {
        ((mapping[a.source.crossing], a.source.slot), (mapping[a.target.crossing], a.target.slot), a.bar)
        for a in g1.arcs
    }
    target = {((a.source.crossing, a.source.slot), (a.target.crossing, a.target.slot), a.bar) for a in g2.arcs}
    return mapped == target and len(g1.arcs) == len(g2.arcs)


def gauss_text(crossings, arcs, loops) -> str:
    """The Gauss file format, written from plain tuples.

    ``crossings`` is ``[(id, sign)]`` in file order and ``arcs`` is
    ``[((cid, slot), (cid, slot), bar)]`` in file order."""
    lines = [f"crossing {c} {'+' if s > 0 else '-'}" for c, s in crossings]
    lines += [f"arc {a[0]}.{a[1]} {b[0]}.{b[1]} {bar}" for a, b, bar in arcs]
    lines.append(f"loops {loops}")
    return "\n".join(lines) + "\n"


# --- move chains -----------------------------------------------------------------


def replay_moves(start, moves, equal) -> tuple[int, tuple[str, ...]] | None:
    """Replay a witness move by move on ``(strands, tokens)``.

    ``equal(strands, tokens_a, tokens_b)`` decides an ``m0`` step.  Returns
    the final word, or None when some move does not apply.
    """
    n, word = start.strands, tuple(tokens(start))
    for move in moves:
        kind = move.kind
        if kind == "m1":
            k = move.shift % len(word) if word else 0
            word = word[k:] + word[:k]
        elif kind == "m0":
            new = tuple(tokens(move.word))
            if move.word.strands != n or not equal(n, word, new):
                return None
            word = new
        elif kind in ("m2+", "m2-", "m2w"):
            word = word + ({"m2+": "s", "m2-": "S", "m2w": "r"}[kind] + str(n),)
            n += 1
        elif kind == "m2d":
            if n < 2 or not word or word[-1][0] == "t" or int(word[-1][1:]) != n - 1:
                return None
            for tok in word[:-1]:
                if int(tok[1:]) > (n - 1 if tok[0] == "t" else n - 2):
                    return None
            word = word[:-1]
            n -= 1
        else:
            return None
    return n, word


def closable(word) -> bool:
    """Every closure component meets an even number of wens."""
    events, _ = strand_walk(word)
    return all(
        sum(e[0] == "t" for s in cycle for e in events[s]) % 2 == 0
        for cycle in permutation_cycles(word)
    )
