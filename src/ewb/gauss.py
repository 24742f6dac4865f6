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
from typing import Iterable, Iterator, Mapping, NamedTuple

from .braid import FormatError, _count, _cycles, _Value

# A passage through a crossing, written (crossing id, in slot, out slot).
# The only two passages of a crossing are (c, 1, 3) and (c, 2, 4).
Passage = tuple[str, int, int]


def _id_key(cid: str) -> tuple[int, str]:
    # Length-first ordering keeps decimal ids in numeric order.
    return (len(cid), cid)


# A crossing id must survive the file format: a whole token of letters and
# digits, which ``parse_gauss_file`` reads back as the same string.
_ID_OK = str.isalnum


def _check_id(cid: object) -> None:
    if cid.__class__ is not str or not _ID_OK(cid):
        raise ValueError(f"crossing id must be a nonempty alphanumeric string, got {cid!r}")


def _check_sign(cid: str, sign: object) -> None:
    # True and 1.0 compare equal to 1, but the file format cannot hold them
    if sign.__class__ is not int or sign not in (1, -1):
        raise ValueError(f"crossing {cid} sign must be +1 or -1, got {sign}")


def _check_loops(loops: object) -> None:
    if loops.__class__ is not int:
        raise ValueError(f"loop count must be an int, got {loops!r}")
    if loops < 0:
        raise ValueError(f"loop count must be >= 0, got {loops}")


class Endpoint(_Value):
    """One corner of a crossing: its id and slot 1..4.  The id is a ``str``
    the Gauss file format can hold (letters and digits) and the slot an
    ``int``; anything else raises ``ValueError``.

    ``Endpoint(c, s)`` returns an endpoint from ``_corners(c)``, which
    keeps the four endpoints of every id that is an ASCII decimal numeral
    of at most four digits for the life of the process: at most 11,110
    ids, about 354 bytes each with the table entry and the id string
    (``tracemalloc``), 3.9 MB in all.  Other ids build their four
    endpoints afresh on each call.  The table pays only when ids repeat
    within one process: ``closure`` names its crossings 1..m, so from the
    second closure on every endpoint it needs already exists and an arc
    costs one new object.  A process that builds one diagram, such as one
    ``ewb`` command, gains nothing from it.
    """

    __slots__ = ("crossing", "slot")
    __match_args__ = ("crossing", "slot")

    crossing: str
    slot: int

    def __new__(cls, crossing: str, slot: int) -> Endpoint:
        if slot.__class__ is not int:
            raise ValueError(f"slot must be an int, got {slot!r}")
        if not 1 <= slot <= 4:
            raise ValueError(f"slot must be 1..4, got {slot}")
        _check_id(crossing)
        return _corners(crossing)[slot - 1]

    def key(self) -> tuple:
        return (_id_key(self.crossing), self.slot)

    def __str__(self) -> str:
        return f"{self.crossing}.{self.slot}"


# The endpoints at slots 1..4 of every id met so far that is a decimal
# numeral of at most four ASCII digits.
_CORNERS: dict[str, tuple[Endpoint, Endpoint, Endpoint, Endpoint]] = {}
_new, _keep = object.__new__, object.__setattr__  # past the frozen guards


def _corners(crossing: str) -> tuple[Endpoint, Endpoint, Endpoint, Endpoint]:
    """The endpoints at slots 1..4 of an id already checked."""
    corners = _CORNERS.get(crossing)
    if corners is None:
        corners = (_new(Endpoint), _new(Endpoint), _new(Endpoint), _new(Endpoint))
        for slot, end in enumerate(corners, start=1):
            _keep(end, "crossing", crossing)
            _keep(end, "slot", slot)
        if len(crossing) <= 4 and crossing.isascii() and crossing.isdigit():
            _CORNERS[crossing] = corners
    return corners


class Arc(_Value):
    """An arc from an outgoing corner (slot 3 or 4) to an incoming one
    (slot 1 or 2), with its wen parity ``bar`` (an ``int``, 0 or 1)."""

    __slots__ = ("source", "target", "bar")
    __match_args__ = ("source", "target", "bar")

    source: Endpoint
    target: Endpoint
    bar: int

    def __new__(cls, source: Endpoint, target: Endpoint, bar: int = 0) -> Arc:
        if source.__class__ is not Endpoint or target.__class__ is not Endpoint:
            raise ValueError(f"arc ends must be endpoints, got {source!r} and {target!r}")
        if source.slot not in (3, 4):
            raise ValueError(f"arc source must use slot 3 or 4, got {source}")
        if target.slot not in (1, 2):
            raise ValueError(f"arc target must use slot 1 or 2, got {target}")
        if bar.__class__ is not int or bar not in (0, 1):
            raise ValueError(f"bar must be 0 or 1, got {bar}")
        return _arc(source, target, bar)

    def key(self) -> tuple:
        return (self.source.key(), self.target.key(), self.bar)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}" + (" barred" if self.bar else "")


_set_source, _set_target, _set_bar = Arc.source.__set__, Arc.target.__set__, Arc.bar.__set__


def _arc(source: Endpoint, target: Endpoint, bar: int) -> Arc:
    """``Arc(source, target, bar)`` for arguments already checked."""
    arc = _new(Arc)
    _set_source(arc, source)
    _set_target(arc, target)
    _set_bar(arc, bar)
    return arc


def _arc_order(a: Arc) -> tuple:
    """``Arc.key`` flattened into one tuple, which sorts the same way."""
    s, t = a.source, a.target
    return (len(s.crossing), s.crossing, s.slot, len(t.crossing), t.crossing, t.slot, a.bar)


@dataclass(frozen=True)
class GaussData:
    """Crossing signs, arcs and free loop count, in canonical field order.

    The data is treated as immutable.  The first query that needs the
    passage index (``_Index``) builds it and keeps it on the instance,
    together with the validity result and the wen-free crossing table,
    which are built when first asked for; every later query reads them.
    The index is private: it takes no part in ``==``, ``hash``, ``repr``,
    pickling or copying, and ``dataclasses.replace`` returns data that
    builds its own.  It is kept only when both fields are tuples, since a
    list can change under it.  It costs one index per live diagram that
    was queried, freed with the data: for ``fixtures/l800.gd`` (400
    crossings) 85 KB after ``validate`` and 95 KB after both invariants
    (``tracemalloc``), about as much as the data's own 98 KB.
    """

    crossings: tuple[tuple[str, int], ...]
    arcs: tuple[Arc, ...]
    loops: int = 0

    _ix = None  # the kept index; not a field

    def __getstate__(self) -> dict:
        return {"crossings": self.crossings, "arcs": self.arcs, "loops": self.loops}

    @staticmethod
    def make(
        crossings: Mapping[str, int] | Iterable[tuple[str, int]],
        arcs: Iterable[Arc],
        loops: int = 0,
    ) -> GaussData:
        if isinstance(crossings, Mapping):
            crossings = crossings.items()
        signs: dict[str, int] = {}
        for cid, sign in crossings:
            _check_id(cid)
            _check_sign(cid, sign)
            if cid in signs:
                raise ValueError(f"duplicate crossing {cid}")
            signs[cid] = sign
        try:
            arcs = tuple(sorted(set(arcs), key=_arc_order))
        except (AttributeError, TypeError) as exc:  # only Arc records sort by _arc_order
            raise ValueError(f"arcs must be Arc records: {exc}") from None
        for arc in arcs:
            for end in (arc.source, arc.target):
                if end.crossing not in signs:
                    raise ValueError(f"arc endpoint {end} references unknown crossing")
        _check_loops(loops)
        ordered = tuple(sorted(signs.items(), key=lambda it: _id_key(it[0])))
        return GaussData(ordered, arcs, loops)

    def crossing_ids(self) -> list[str]:
        return [c for c, _ in self.crossings]


class _Index:
    """Passage-indexed view of one ``GaussData``, read-only once built.

    Crossings are numbered in id order.  Passage ``2i`` is the
    under-passage (slots 1 -> 3) of crossing ``i`` and ``2i + 1`` its
    over-passage (slots 2 -> 4), so ``p & 1`` tells over from under and
    ``p ^ 1`` is the other passage of the same crossing.  ``succ[p]`` is
    the passage that the arc leaving ``p`` enters and ``pred`` is its
    inverse; ``bar[p]`` and ``out[p]`` are that arc's wen parity and the
    arc itself.  The arrays are tuples, and ``out`` is the data's own arc
    tuple when its arcs are in passage order, as in field order.  Building
    raises ``ValueError`` on the first crossing record that is not an
    ``(id, sign)`` pair, crossing named twice or id the file format cannot
    hold (in field order), arc record that is not an ``Arc``, duplicate
    endpoint (in arc order) or dangling endpoint (in crossing order).

    ``valid`` is None until ``_require_valid`` first checks the data, then
    its passage cycles (a tuple of tuples) or the ``validate`` message; and
    ``table`` is None until ``_wen_free_crossings`` first builds it.
    """

    __slots__ = ("ids", "pos", "signs", "succ", "pred", "bar", "out", "valid", "table")

    def __init__(self, g: GaussData) -> None:
        try:
            sign = dict(g.crossings)
        except (TypeError, ValueError):  # a record that is not an (id, sign) pair
            for record in g.crossings:
                try:
                    cid, _ = record
                except (TypeError, ValueError):
                    raise ValueError(
                        f"crossing record must be an (id, sign) pair, got {record!r}"
                    ) from None
                _check_id(cid)
            raise
        if len(sign) != len(g.crossings):
            named = set()
            for cid, _ in g.crossings:
                if cid in named:
                    raise ValueError(f"duplicate crossing {cid}")
                named.add(cid)
        # One string test for all ids; an empty id would vanish in the join.
        try:
            named_ok = not sign or ("".join(sign).isalnum() and "" not in sign)
        except TypeError:  # an id that is not a string
            named_ok = False
        if not named_ok:
            for cid in sign:
                _check_id(cid)
        ids = sorted(sign)
        ids.sort(key=len)  # _id_key order, sorted in C
        self.ids = tuple(ids)
        self.pos = pos = {c: i for i, c in enumerate(ids)}
        self.signs = tuple([sign[c] for c in ids])
        n = 2 * len(ids)
        succ, pred, bar, out = [-1] * n, [-1] * n, [0] * n, [None] * n
        try:
            for arc in g.arcs:
                src, tgt = arc.source, arc.target
                try:
                    s = 2 * pos[src.crossing] + src.slot - 3
                    t = 2 * pos[tgt.crossing] + tgt.slot - 1
                except KeyError:
                    end = src if src.crossing not in pos else tgt
                    raise ValueError(f"arc endpoint {end} references unknown crossing") from None
                if succ[s] >= 0:
                    raise ValueError(f"duplicate arc at endpoint {src}")
                if pred[t] >= 0:
                    raise ValueError(f"duplicate arc at endpoint {tgt}")
                succ[s], pred[t], bar[s], out[s] = t, s, arc.bar, arc
        except AttributeError:  # a record that is not an Arc
            for arc in g.arcs:
                if arc.__class__ is not Arc:
                    raise ValueError(f"arc record must be an Arc, got {arc!r}") from None
            raise
        if -1 in succ or -1 in pred:
            for cid, _ in g.crossings:
                p = 2 * pos[cid]
                for slot, missing in ((3, succ[p]), (4, succ[p + 1]), (1, pred[p]), (2, pred[p + 1])):
                    if missing < 0:
                        raise ValueError(f"dangling endpoint {cid}.{slot}")
        self.succ, self.pred, self.bar = tuple(succ), tuple(pred), tuple(bar)
        out = tuple(out)
        self.out = g.arcs if out == g.arcs else out  # one arc tuple, not two
        self.valid = self.table = None

    def passage(self, p: int) -> Passage:
        return (self.ids[p >> 1], 1 + (p & 1), 3 + (p & 1))


def _index_of(g: GaussData) -> _Index:
    """The passage index of ``g``: the one kept on ``g``, or a new one,
    kept when both fields are tuples.  The only place an index is built."""
    ix = g._ix
    if ix is None:
        ix = _Index(g)
        if g.crossings.__class__ is tuple and g.arcs.__class__ is tuple:
            _keep(g, "_ix", ix)
    return ix


def _require_valid(g: GaussData) -> tuple[_Index, tuple[tuple[int, ...], ...]]:
    """The index of valid data and its passage cycles; raises ``ValueError``
    with the ``validate`` message otherwise.  The outcome is kept on the
    index, so only the first call on kept data checks."""
    ix = _index_of(g)
    valid = ix.valid
    if valid is None:
        try:
            valid = _cycles_of_valid(ix, g.loops)
        except ValueError as exc:
            valid = str(exc)
        ix.valid = valid
    if valid.__class__ is str:
        raise ValueError(valid)
    return ix, valid


def _cycles_of_valid(ix: _Index, loops: int) -> tuple[tuple[int, ...], ...]:
    """The passage cycles of indexed data; raises ``ValueError`` on the
    first broken clause that building the index does not check."""
    signs = ix.signs
    # One C-level test for all signs; the message comes from _check_sign.
    if {*map(type, signs)} - {int} or signs.count(1) + signs.count(-1) != len(signs):
        for cid, sign in zip(ix.ids, signs):
            _check_sign(cid, sign)
    _check_loops(loops)
    cycles, bar = _cycles(ix.succ), ix.bar
    if 1 in bar:
        for k, cycle in enumerate(cycles, start=1):
            if sum([bar[p] for p in cycle]) % 2:
                raise ValueError(f"odd wen parity on component {k}")
    return tuple(map(tuple, cycles))


def components(g: GaussData) -> list[tuple[Passage, ...]]:
    """Closed strands through the crossings, as cyclic passage sequences.

    Each component starts at its smallest passage and the list is ordered
    by those starts.  Crossing-free loops do not appear; they contribute
    ``g.loops`` extra components.
    """
    ix = _index_of(g)
    return [tuple(map(ix.passage, cycle)) for cycle in _cycles(ix.succ)]


def component_arcs(g: GaussData, comp: tuple[Passage, ...]) -> list[Arc]:
    """Arcs along a component; entry ``k`` joins passage ``k`` to ``k+1``."""
    ix = _index_of(g)
    return [ix.out[2 * ix.pos[cid] + out - 3] for cid, _, out in comp]


def validate(g: GaussData) -> str | None:
    """First violated well-formedness clause, or None if the data is valid.

    Data built without ``GaussData.make`` can also fail on a crossing id,
    sign or loop count that the file format cannot hold.  Costs one pass
    over the arcs and one walk of the passages, after sorting the crossing
    ids, the first time; later calls on the same data read the kept result.
    """
    try:
        _require_valid(g)
    except ValueError as exc:
        return str(exc)
    return None


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
    if len(iso.pairs) != len(mapping):  # a crossing named twice
        return False
    if sorted(mapping) != sorted(ids1) or sorted(mapping.values()) != sorted(ids2):
        return False
    if g1.loops != g2.loops:
        return False
    signs2 = dict(g2.crossings)
    if any(s != signs2[mapping[c]] for c, s in g1.crossings):
        return False
    mapped = {
        (mapping[a.source.crossing], a.source.slot, mapping[a.target.crossing], a.target.slot, a.bar)
        for a in g1.arcs
    }
    return mapped == {
        (a.source.crossing, a.source.slot, a.target.crossing, a.target.slot, a.bar) for a in g2.arcs
    }


def same_gauss_data(g1: GaussData, g2: GaussData) -> GaussIsomorphism | None:
    """Search for a sign- and arc-preserving crossing bijection.

    Places one connected piece at a time: the first unmapped crossing of
    ``g1`` (field order) is tried against each unmapped crossing of ``g2``
    (field order), and the map is propagated along the out-arcs of every
    newly placed crossing; any clash undoes the whole piece.  This is
    exact.  In a connected piece one crossing's image fixes the whole
    slot-preserving map, and every passage lies on a cycle, so the out-arcs
    reach the whole piece and a placement covers a whole piece of ``g2``.
    Isomorphic pieces are interchangeable, so a placement never needs
    revisiting, and the result is the first bijection in field order, or
    None when none exists.  Each placement attempt costs O(m), the whole
    search O(m^2) in the worst case.
    """
    ix1, ix2 = _index_of(g1), _index_of(g2)
    if g1.loops != g2.loops or len(g1.crossings) != len(g2.crossings):
        return None
    succ1, bar1, signs1 = ix1.succ, ix1.bar, ix1.signs
    succ2, bar2, signs2 = ix2.succ, ix2.bar, ix2.signs
    image = [-1] * len(succ1)  # passage of g1 -> passage of g2
    preimage = [-1] * len(succ2)

    def place(i: int, j: int) -> bool:
        # Map crossing i to j passage by passage: a placed passage pair
        # pulls in its crossings' other passages and the passages its
        # out-arcs enter, which must agree in slot, bar and sign.
        placed, work = [], [(2 * i, 2 * j)]
        while work:
            p, q = work.pop()
            if image[p] == q:
                continue
            if (
                image[p] >= 0
                or preimage[q] >= 0
                or (p ^ q) & 1
                or bar1[p] != bar2[q]
                or signs1[p >> 1] != signs2[q >> 1]
            ):
                for p in placed:
                    preimage[image[p]] = -1
                    image[p] = -1
                return False
            image[p], preimage[q] = q, p
            placed.append(p)
            work += ((p ^ 1, q ^ 1), (succ1[p], succ2[q]))
        return True

    order2 = [ix2.pos[cid] for cid, _ in g2.crossings]
    for cid, _ in g1.crossings:
        i = ix1.pos[cid]
        if image[2 * i] < 0 and not any(preimage[2 * j] < 0 and place(i, j) for j in order2):
            return None
    iso = GaussIsomorphism(tuple((c, ix2.ids[image[2 * i] >> 1]) for i, c in enumerate(ix1.ids)))
    if not is_gauss_isomorphism(g1, g2, iso):  # a library fault, checked also under -O
        raise RuntimeError("propagation built a crossing bijection that is not an isomorphism")
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
    ix = _index_of(g)
    leaves = 2 * ix.pos[arc.source.crossing] + arc.source.slot - 3
    if direction == "forward":
        crossed = ix.succ[leaves]
        neighbour = ix.out[crossed]
    else:
        crossed = leaves
        neighbour = ix.out[ix.pred[crossed]]
    cid, flips = ix.ids[crossed >> 1], crossed & 1
    # The bar leaves ``arc`` for ``neighbour``; around a curl they are one
    # arc and the wen returns to it.
    new_arcs = [
        _arc(a.source, a.target, a.bar ^ 1) if (a == arc) != (a == neighbour) else a
        for a in g.arcs
    ]
    crossings = tuple((c, -s if flips and c == cid else s) for c, s in g.crossings)
    return GaussData(crossings, tuple(sorted(new_arcs, key=_arc_order)), g.loops)


class WenElimination(NamedTuple):
    data: GaussData
    flipped: frozenset[str]
    slides: tuple[Arc, ...]


def _slid(ix: _Index, cycles: list[list[int]]) -> Iterator[int]:
    """Passages whose out-arc ``eliminate_wens`` slides a wen along."""
    bar = ix.bar
    for cycle in cycles:
        moving = 0
        for p in cycle:
            moving ^= bar[p]
            if moving:
                yield p


def _wen_free_crossings(g: GaussData) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The link's component count (loops included) and, per crossing in id
    order, its sign after ``eliminate_wens`` and the numbers of the cycles
    (``components`` order) running over and under it.  The table is kept
    on the index, so both invariants read one."""
    ix, cycles = _require_valid(g)
    if ix.table is None:
        succ, signs, cycle_of = ix.succ, ix.signs, [0] * len(ix.succ)
        if 1 in ix.bar:
            signs = list(signs)
            for p in _slid(ix, cycles):
                if succ[p] & 1:  # the slide crosses an over-passage
                    signs[succ[p] >> 1] *= -1
            signs = tuple(signs)
        for k, cycle in enumerate(cycles):
            for p in cycle:
                cycle_of[p] = k
        cycle_of = tuple(cycle_of)
        ix.table = (len(cycles) + g.loops, signs, cycle_of[1::2], cycle_of[::2])
    return ix.table


def eliminate_wens(g: GaussData) -> WenElimination:
    """Cancel all wens in pairs by forward slides, in a fixed order.

    Along each component (taken in ``components`` order) the barred arcs
    are paired first-with-second, third-with-fourth, ... starting from the
    component's canonical start; each leading bar slides forward until it
    meets its partner.  Returns the wen-free data, the set of crossings
    whose sign changed, and the slid arcs in order (each entry is the arc
    as it was when its slide was applied, so the sequence replays through
    ``slide_wen``).

    One walk per component finds both: a slide moves the wen across the
    passage its arc runs into, and flips that crossing exactly when the
    passage is the over-passage.  The cost is linear in the size of the
    data, after sorting the crossing ids.
    """
    ix, cycles = _require_valid(g)
    succ, out, ids = ix.succ, ix.out, ix.ids
    slides: list[Arc] = []
    flipped: set[str] = set()
    for p in _slid(ix, cycles):
        a = out[p]
        slides.append(a if a.bar else _arc(a.source, a.target, 1))
        if succ[p] & 1:
            flipped.add(ids[succ[p] >> 1])
    if not slides:
        return WenElimination(g, frozenset(), ())
    # Sources are unique, so passage order is the canonical arc order.
    arcs = tuple(_arc(a.source, a.target, 0) if a.bar else a for a in out)
    crossings = tuple((c, -s if c in flipped else s) for c, s in g.crossings)
    return WenElimination(GaussData(crossings, arcs, g.loops), frozenset(flipped), tuple(slides))


def full_loop_slide(g: GaussData, component: int) -> GaussData:
    """Drag a cancelling wen pair once around one component.

    Flips the sign of exactly the crossings where that component makes the
    over-passage.  Indices ``0 .. mu-1`` first address the passage cycles
    in ``components`` order, then the crossing-free loops (no-ops).
    """
    ix = _index_of(g)
    cycles = _cycles(ix.succ)
    mu = len(cycles) + g.loops
    if not 0 <= component < mu:
        raise ValueError(f"component index {component} out of range for {mu} components")
    if component >= len(cycles):
        return g
    over = {ix.ids[p >> 1] for p in cycles[component] if p & 1}
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

    A removal never undoes another crossing's curl, only makes new ones
    where it splices, so every removal order ends at the same data.  A
    worklist of curls therefore removes them in linear time overall.
    """
    ix, _ = _require_valid(g)
    succ, bar, out, ids = ix.succ, ix.bar, ix.out, ix.ids

    def curled(p: int) -> bool:  # the arc leaving p is a curl of p's crossing
        return succ[p] == p ^ 1 and not bar[p]

    work = [i for i in range(len(ids)) if curled(2 * i) or curled(2 * i + 1)]
    if not work:
        return g
    # Splice working copies (``curled`` reads them too); the index stays as it is.
    succ, pred, bar = list(succ), list(ix.pred), list(bar)
    alive = [True] * len(ids)
    spliced: set[int] = set()  # passages whose out-arc changed
    loops = g.loops
    while work:
        i = work.pop()
        if not alive[i]:
            continue
        alive[i] = False
        # The strand runs entry -> first -> (curl) -> last -> exit.
        first = 2 * i if curled(2 * i) else 2 * i + 1
        last = first ^ 1
        entry = pred[first]
        if entry == last:  # the crossing was the whole component
            loops += 1
            continue
        exit_ = succ[last]
        succ[entry], pred[exit_] = exit_, entry
        bar[entry] ^= bar[last]
        spliced.add(entry)
        if curled(entry):
            work.append(entry >> 1)
    crossings = tuple((c, s) for c, s, a in zip(ids, ix.signs, alive) if a)
    arcs = []
    for p, a in enumerate(out):
        if not alive[p >> 1]:
            continue
        if p in spliced:
            q = succ[p]
            a = _arc(a.source, _corners(ids[q >> 1])[q & 1], bar[p])
        arcs.append(a)
    return GaussData(crossings, tuple(arcs), loops)


# --- flat-file format -------------------------------------------------------

_DIGIT = {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4}


def parse_gauss_file(text: str) -> GaussData:
    """Parse ``crossing <id> <+|->``, ``arc <a>.<3|4> <b>.<1|2> <0|1>`` and
    ``loops <k>`` lines (any order, duplicates rejected).

    Every record ``GaussData.make`` would refuse is refused here first, as
    a ``FormatError`` on its line, so the data is built directly: the raw
    arcs are sorted once into field order by a plain tuple comparison and
    each becomes one ``Arc`` over the endpoints of ``_corners``.  The cost
    is linear in the text, plus the sort: about 1.5 ms for
    ``fixtures/l800.gd`` (400 crossings, 800 arcs) once its endpoints
    exist (Python 3.11, shared 2-core machine).
    """
    signs: dict[str, int] = {}
    # (len(a), a, slot, len(b), b, slot, bar, line): tuples sort like Arc.key
    raw_arcs: list[tuple[int, str, str, int, str, str, str, int]] = []
    seen_arcs: set[tuple[str, str, str, str]] = set()
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
            ends = (sc, ss, tc, ts)
            if ends in seen_arcs:
                raise FormatError(lineno, f"duplicate arc {src} -> {tgt}")
            seen_arcs.add(ends)
            raw_arcs.append((len(sc), sc, ss, len(tc), tc, ts, bar, lineno))
        elif fields[0] == "loops":
            count = _count(fields[1], lineno, "loops") if len(fields) == 2 else None
            if count is None:
                raise FormatError(lineno, f"expected 'loops <k>', got {line!r}")
            if loops is not None:
                raise FormatError(lineno, "duplicate loops declaration")
            loops = count
        else:
            raise FormatError(lineno, f"unknown declaration {fields[0]!r}")
    for _, sc, _, _, tc, _, _, lineno in raw_arcs:
        for cid in (sc, tc):
            if cid not in signs:
                raise FormatError(lineno, f"arc references undeclared crossing {cid}")
    raw_arcs.sort()  # the ends are unique, so the bar and line never decide
    digit, corners = _DIGIT, {cid: _corners(cid) for cid in signs}
    arcs = tuple(
        _arc(corners[sc][digit[ss] - 1], corners[tc][digit[ts] - 1], digit[bar])
        for _, sc, ss, _, tc, ts, bar, _ in raw_arcs
    )
    crossings = tuple(sorted(signs.items(), key=lambda it: _id_key(it[0])))
    return GaussData(crossings, arcs, loops if loops is not None else 0)


def format_gauss_file(g: GaussData) -> str:
    lines = [f"crossing {c} {'+' if s > 0 else '-'}" for c, s in g.crossings]
    lines += [f"arc {a.source} {a.target} {a.bar}" for a in g.arcs]
    lines.append(f"loops {g.loops}")
    return "\n".join(lines) + "\n"
