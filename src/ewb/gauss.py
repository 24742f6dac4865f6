"""Gauss data for closed extended welded link diagrams.

A diagram with ``m`` classical crossings is cut at the four corners of
each crossing neighbourhood, leaving arcs that meet no crossing.  The
record kept per crossing is its sign; the record kept per arc is which
corner it leaves, which corner it enters, and the parity of wen marks it
carries.  Corner slots are numbered 1..4:

* slots 1 and 2 are the two incoming corners (arc targets),
* slots 3 and 4 are the two outgoing corners (arc sources),
* inside the crossing, slot 1 continues to slot 3 (the under-passage)
  and slot 2 continues to slot 4 (the over-passage).

Components of the closed diagram alternate arcs with crossing passages;
``loops`` counts the extra crossing-free unknotted components, so the
total number of link components is ``len(components(g)) + g.loops``.
Two data records describe the same diagram exactly when some sign- and
slot-preserving bijection of crossings carries the arcs (with their wen
parities) onto each other; ``same_gauss_data`` searches for one.

Wens are mobile: ``slide_wen`` moves one across an adjacent passage, and
flips the crossing sign when that passage is the over-passage.  Sliding
a wen pair all the way around a component is ``full_loop_slide``, which
flips exactly the crossings the component over-passes; doing that to
every component reverses every sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .braid import FormatError, _is_count

# A passage through a crossing, written (crossing id, in slot, out slot).
# The only two passages of a crossing are (c, 1, 3) and (c, 2, 4).
Passage = tuple[str, int, int]


def _id_key(cid: str) -> tuple[int, str]:
    # Length-first ordering keeps decimal ids in numeric order.
    return (len(cid), cid)


@dataclass(frozen=True)
class Endpoint:
    crossing: str
    slot: int

    def __post_init__(self) -> None:
        if self.slot not in (1, 2, 3, 4):
            raise ValueError(f"slot must be 1..4, got {self.slot}")

    def key(self) -> tuple:
        return (_id_key(self.crossing), self.slot)

    def __str__(self) -> str:
        return f"{self.crossing}.{self.slot}"


@dataclass(frozen=True)
class Arc:
    source: Endpoint
    target: Endpoint
    bar: int = 0

    def __post_init__(self) -> None:
        if self.source.slot not in (3, 4):
            raise ValueError(f"arc source must use slot 3 or 4, got {self.source}")
        if self.target.slot not in (1, 2):
            raise ValueError(f"arc target must use slot 1 or 2, got {self.target}")
        if self.bar not in (0, 1):
            raise ValueError(f"bar must be 0 or 1, got {self.bar}")

    def key(self) -> tuple:
        return (self.source.key(), self.target.key(), self.bar)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}" + (" barred" if self.bar else "")


@dataclass(frozen=True)
class GaussData:
    """Crossing signs, arcs and free loop count, in canonical field order."""

    crossings: tuple[tuple[str, int], ...]
    arcs: tuple[Arc, ...]
    loops: int = 0

    @staticmethod
    def make(
        crossings: Mapping[str, int] | Iterable[tuple[str, int]],
        arcs: Iterable[Arc],
        loops: int = 0,
    ) -> GaussData:
        if isinstance(crossings, Mapping):
            crossings = crossings.items()
        signs = dict(crossings)
        for cid, sign in signs.items():
            if sign not in (1, -1):
                raise ValueError(f"crossing {cid} sign must be +1 or -1, got {sign}")
        arcs = tuple(sorted(set(arcs), key=Arc.key))
        for arc in arcs:
            for end in (arc.source, arc.target):
                if end.crossing not in signs:
                    raise ValueError(f"arc endpoint {end} references unknown crossing")
        if loops < 0:
            raise ValueError(f"loop count must be >= 0, got {loops}")
        ordered = tuple(sorted(signs.items(), key=lambda it: _id_key(it[0])))
        return GaussData(ordered, arcs, loops)

    def sign_of(self, cid: str) -> int:
        for c, sign in self.crossings:
            if c == cid:
                return sign
        raise KeyError(cid)

    def crossing_ids(self) -> list[str]:
        return [c for c, _ in self.crossings]


def _arc_maps(g: GaussData) -> tuple[dict[Endpoint, Arc], dict[Endpoint, Arc]]:
    """Unique arc per endpoint; raises on duplicate or dangling endpoints."""
    by_source: dict[Endpoint, Arc] = {}
    by_target: dict[Endpoint, Arc] = {}
    for arc in g.arcs:
        if arc.source in by_source:
            raise ValueError(f"duplicate arc at endpoint {arc.source}")
        if arc.target in by_target:
            raise ValueError(f"duplicate arc at endpoint {arc.target}")
        by_source[arc.source] = arc
        by_target[arc.target] = arc
    for cid, _ in g.crossings:
        for slot in (3, 4):
            if Endpoint(cid, slot) not in by_source:
                raise ValueError(f"dangling endpoint {cid}.{slot}")
        for slot in (1, 2):
            if Endpoint(cid, slot) not in by_target:
                raise ValueError(f"dangling endpoint {cid}.{slot}")
    return by_source, by_target


def components(g: GaussData) -> list[tuple[Passage, ...]]:
    """Closed strands through the crossings, as cyclic passage sequences.

    Each component starts at its smallest passage and the list is ordered
    by those starts.  Crossing-free loops do not appear; they contribute
    ``g.loops`` extra components.
    """
    by_source, _ = _arc_maps(g)
    starts = sorted(
        ((cid, s, s + 2) for cid, _ in g.crossings for s in (1, 2)),
        key=lambda p: (_id_key(p[0]), p[1]),
    )
    seen: set[Passage] = set()
    comps: list[tuple[Passage, ...]] = []
    for start in starts:
        if start in seen:
            continue
        cycle = []
        p = start
        while p not in seen:
            seen.add(p)
            cycle.append(p)
            nxt = by_source[Endpoint(p[0], p[2])].target
            p = (nxt.crossing, nxt.slot, nxt.slot + 2)
        comps.append(tuple(cycle))
    return comps


def component_arcs(g: GaussData, comp: tuple[Passage, ...]) -> list[Arc]:
    """Arcs along a component; entry ``k`` joins passage ``k`` to ``k+1``."""
    by_source, _ = _arc_maps(g)
    return [by_source[Endpoint(cid, out)] for cid, _, out in comp]


def validate(g: GaussData) -> str | None:
    """First violated well-formedness clause, or None if the data is valid."""
    try:
        comps = components(g)
    except ValueError as exc:
        return str(exc)
    for k, comp in enumerate(comps):
        parity = sum(arc.bar for arc in component_arcs(g, comp)) % 2
        if parity:
            return f"odd wen parity on component {k + 1}"
    return None


def _require_valid(g: GaussData) -> None:
    problem = validate(g)
    if problem is not None:
        raise ValueError(problem)


# --- isomorphism search ----------------------------------------------------


@dataclass(frozen=True)
class GaussIsomorphism:
    """A crossing bijection witnessing that two data records agree."""

    pairs: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)


def is_gauss_isomorphism(g1: GaussData, g2: GaussData, iso: GaussIsomorphism) -> bool:
    """Check a claimed bijection: signs, arcs, bars and loops must all map."""
    mapping = iso.as_dict()
    ids1, ids2 = g1.crossing_ids(), g2.crossing_ids()
    if sorted(mapping) != sorted(ids1) or sorted(mapping.values()) != sorted(ids2):
        return False
    if g1.loops != g2.loops:
        return False
    if any(g1.sign_of(c) != g2.sign_of(mapping[c]) for c in ids1):
        return False
    mapped = {
        Arc(
            Endpoint(mapping[a.source.crossing], a.source.slot),
            Endpoint(mapping[a.target.crossing], a.target.slot),
            a.bar,
        )
        for a in g1.arcs
    }
    return mapped == set(g2.arcs)


def _local_signature(g: GaussData, by_source, by_target, cid: str) -> tuple:
    sig = [g.sign_of(cid)]
    for slot in (3, 4):
        arc = by_source[Endpoint(cid, slot)]
        far = arc.target
        sig.append((arc.bar, far.slot, far.crossing == cid, g.sign_of(far.crossing)))
    for slot in (1, 2):
        arc = by_target[Endpoint(cid, slot)]
        far = arc.source
        sig.append((arc.bar, far.slot, far.crossing == cid, g.sign_of(far.crossing)))
    return tuple(sig)


def same_gauss_data(g1: GaussData, g2: GaussData) -> GaussIsomorphism | None:
    """Search for a sign- and arc-preserving crossing bijection.

    Deterministic backtracking over crossings in id order, pruned by local
    arc signatures; returns None when no bijection exists.
    """
    maps1 = _arc_maps(g1)
    maps2 = _arc_maps(g2)
    if g1.loops != g2.loops or len(g1.crossings) != len(g2.crossings):
        return None
    ids1 = g1.crossing_ids()
    ids2 = g2.crossing_ids()
    sig2 = {c: _local_signature(g2, *maps2, c) for c in ids2}
    candidates = {}
    for c in ids1:
        sig = _local_signature(g1, *maps1, c)
        candidates[c] = [d for d in ids2 if sig2[d] == sig]
        if not candidates[c]:
            return None

    by_source1, by_target1 = maps1
    by_source2, by_target2 = maps2
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(c: str, d: str) -> bool:
        # Every arc touching c whose far crossing is already mapped must
        # match the corresponding arc of g2 slot-for-slot, bar included.
        for slot in (3, 4):
            a1 = by_source1[Endpoint(c, slot)]
            far = a1.target
            image = d if far.crossing == c else mapping.get(far.crossing)
            if image is not None:
                a2 = by_source2[Endpoint(d, slot)]
                if a2.bar != a1.bar or a2.target != Endpoint(image, far.slot):
                    return False
        for slot in (1, 2):
            a1 = by_target1[Endpoint(c, slot)]
            far = a1.source
            image = d if far.crossing == c else mapping.get(far.crossing)
            if image is not None:
                a2 = by_target2[Endpoint(d, slot)]
                if a2.bar != a1.bar or a2.source != Endpoint(image, far.slot):
                    return False
        return True

    def extend(k: int) -> bool:
        if k == len(ids1):
            return True
        c = ids1[k]
        for d in candidates[c]:
            if d in used or not consistent(c, d):
                continue
            mapping[c] = d
            used.add(d)
            if extend(k + 1):
                return True
            del mapping[c]
            used.discard(d)
        return False

    if not extend(0):
        return None
    iso = GaussIsomorphism(tuple(sorted(mapping.items(), key=lambda p: _id_key(p[0]))))
    assert is_gauss_isomorphism(g1, g2, iso)
    return iso


# --- sign reversal and wen slides ------------------------------------------


def sign_reversal(g: GaussData) -> GaussData:
    """Flip every crossing sign; arcs, bars and loops stay untouched."""
    return GaussData(tuple((c, -s) for c, s in g.crossings), g.arcs, g.loops)


def slide_wen(g: GaussData, arc: Arc, direction: str) -> GaussData:
    """Move the wen on ``arc`` across the adjacent crossing passage.

    ``forward`` crosses the passage the arc runs into, ``backward`` the one
    it comes out of.  Crossing the over-passage (slots 2 -> 4) flips that
    crossing's sign; the under-passage leaves it unchanged.  The bar moves
    to the arc on the far side of the passage.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if arc not in g.arcs:
        raise ValueError(f"arc {arc} not present in data")
    if arc.bar != 1:
        raise ValueError(f"arc {arc} carries no wen to slide")
    by_source, by_target = _arc_maps(g)
    if direction == "forward":
        cid, in_slot = arc.target.crossing, arc.target.slot
        neighbour = by_source[Endpoint(cid, in_slot + 2)]
        flips = in_slot == 2
    else:
        cid, out_slot = arc.source.crossing, arc.source.slot
        neighbour = by_target[Endpoint(cid, out_slot - 2)]
        flips = out_slot == 4
    new_arcs = []
    for a in g.arcs:
        if a == arc and a == neighbour:
            new_arcs.append(a)  # wen returns to the same arc around a curl
        elif a == arc:
            new_arcs.append(Arc(a.source, a.target, a.bar ^ 1))
        elif a == neighbour:
            new_arcs.append(Arc(a.source, a.target, a.bar ^ 1))
        else:
            new_arcs.append(a)
    crossings = tuple((c, -s if flips and c == cid else s) for c, s in g.crossings)
    return GaussData(crossings, tuple(sorted(new_arcs, key=Arc.key)), g.loops)


class WenElimination(NamedTuple):
    data: GaussData
    flipped: frozenset[str]
    slides: tuple[Arc, ...]


def eliminate_wens(g: GaussData) -> WenElimination:
    """Cancel all wens in pairs by forward slides, in a fixed order.

    Along each component (taken in ``components`` order) the barred arcs
    are paired first-with-second, third-with-fourth, ... starting from the
    component's canonical start; each leading bar slides forward until it
    meets its partner.  Returns the wen-free data, the set of crossings
    whose sign changed, and the slid arcs in order (each entry is the arc
    as it was when its slide was applied, so the sequence replays through
    ``slide_wen``).
    """
    _require_valid(g)
    data = g
    slides: list[Arc] = []
    for comp in components(g):
        arcs = component_arcs(g, comp)
        barred = [k for k, a in enumerate(arcs) if a.bar]
        for first, second in zip(barred[0::2], barred[1::2]):
            cur = first
            while cur != second:
                src = arcs[cur].source
                moving = next(a for a in data.arcs if a.source == src)
                data = slide_wen(data, moving, "forward")
                slides.append(moving)
                cur += 1
    flipped = frozenset(
        c for (c, s), (_, s0) in zip(data.crossings, g.crossings) if s != s0
    )
    return WenElimination(data, flipped, tuple(slides))


def full_loop_slide(g: GaussData, component: int) -> GaussData:
    """Drag a cancelling wen pair once around one component.

    Flips the sign of exactly the crossings where that component makes the
    over-passage.  Indices ``0 .. mu-1`` first address the passage cycles
    in ``components`` order, then the crossing-free loops (no-ops).
    """
    comps = components(g)
    mu = len(comps) + g.loops
    if not 0 <= component < mu:
        raise ValueError(f"component index {component} out of range for {mu} components")
    if component >= len(comps):
        return g
    over = {cid for cid, in_slot, _ in comps[component] if in_slot == 2}
    return GaussData(
        tuple((c, -s if c in over else s) for c, s in g.crossings), g.arcs, g.loops
    )


def reduce_kinks(g: GaussData) -> GaussData:
    """Remove curls: crossings whose two passages are joined directly by an
    unbarred arc (slot 3 -> 2 or 4 -> 1).

    Each removal deletes the crossing and its curl arc and splices the two
    remaining arcs (wen parities add); if those coincide the component
    closes into a crossing-free loop.  Repeats until no curl remains; the
    component count never changes.
    """
    _require_valid(g)
    while True:
        by_source, by_target = _arc_maps(g)
        removed = False
        for cid in g.crossing_ids():
            for out_slot, in_slot in ((3, 2), (4, 1)):
                curl = by_source[Endpoint(cid, out_slot)]
                if curl.target != Endpoint(cid, in_slot) or curl.bar:
                    continue
                entering = by_target[Endpoint(cid, 3 - in_slot)]
                leaving_end = Endpoint(cid, 7 - out_slot)
                signs = dict(g.crossings)
                del signs[cid]
                if entering.source == leaving_end:
                    if entering.bar:
                        continue  # odd component, never valid; leave it
                    rest = [a for a in g.arcs if a not in (curl, entering)]
                    g = GaussData.make(signs, rest, g.loops + 1)
                else:
                    leaving = by_source[leaving_end]
                    rest = [a for a in g.arcs if a not in (curl, entering, leaving)]
                    rest.append(Arc(entering.source, leaving.target, entering.bar ^ leaving.bar))
                    g = GaussData.make(signs, rest, g.loops)
                removed = True
                break
            if removed:
                break
        if not removed:
            return g


# --- flat-file format -------------------------------------------------------

_ID_OK = str.isalnum


def parse_gauss_file(text: str) -> GaussData:
    """Parse ``crossing <id> <+|->``, ``arc <a>.<3|4> <b>.<1|2> <0|1>`` and
    ``loops <k>`` lines (any order, duplicates rejected)."""
    signs: dict[str, int] = {}
    arc_lines: list[tuple[int, str, int, str, int, int]] = []
    loops: int | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "crossing":
            if len(fields) != 3 or not _ID_OK(fields[1]) or fields[2] not in ("+", "-"):
                raise FormatError(lineno, f"expected 'crossing <id> <+|->', got {line!r}")
            if fields[1] in signs:
                raise FormatError(lineno, f"duplicate crossing {fields[1]}")
            signs[fields[1]] = 1 if fields[2] == "+" else -1
        elif fields[0] == "arc":
            if len(fields) != 4:
                raise FormatError(lineno, f"expected 'arc <from> <to> <bar>', got {line!r}")
            src, tgt, bar = fields[1], fields[2], fields[3]
            try:
                (sc, ss), (tc, ts) = src.rsplit(".", 1), tgt.rsplit(".", 1)
            except ValueError:
                raise FormatError(lineno, f"endpoints must look like <id>.<slot>") from None
            if (
                not (_ID_OK(sc) and _ID_OK(tc))
                or ss not in ("3", "4")
                or ts not in ("1", "2")
                or bar not in ("0", "1")
            ):
                raise FormatError(lineno, f"bad arc declaration {line!r}")
            entry = (lineno, sc, int(ss), tc, int(ts), int(bar))
            if any(e[1:5] == entry[1:5] for e in arc_lines):
                raise FormatError(lineno, f"duplicate arc {src} -> {tgt}")
            arc_lines.append(entry)
        elif fields[0] == "loops":
            if len(fields) != 2 or not _is_count(fields[1]):
                raise FormatError(lineno, f"expected 'loops <k>', got {line!r}")
            if loops is not None:
                raise FormatError(lineno, "duplicate loops declaration")
            loops = int(fields[1])
        else:
            raise FormatError(lineno, f"unknown declaration {fields[0]!r}")
    arcs = []
    for lineno, sc, ss, tc, ts, bar in arc_lines:
        for cid in (sc, tc):
            if cid not in signs:
                raise FormatError(lineno, f"arc references undeclared crossing {cid}")
        arcs.append(Arc(Endpoint(sc, ss), Endpoint(tc, ts), bar))
    return GaussData.make(signs, arcs, loops if loops is not None else 0)


def format_gauss_file(g: GaussData) -> str:
    lines = [f"crossing {c} {'+' if s > 0 else '-'}" for c, s in g.crossings]
    lines += [f"arc {a.source} {a.target} {a.bar}" for a in g.arcs]
    lines.append(f"loops {g.loops}")
    return "\n".join(lines) + "\n"
