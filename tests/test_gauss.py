"""Gauss data: structure, isomorphism, wen slides, kink reduction."""

import dataclasses
import itertools
import pickle
import random
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewb.gauss
from conftest import braid_words, random_closable_word, stabilized_words
from ewb import (
    Arc,
    BraidWord,
    Endpoint,
    FormatError,
    GaussData,
    GaussIsomorphism,
    braid_from_gauss,
    closable,
    closure,
    component_arcs,
    components,
    eliminate_wens,
    format_gauss_file,
    full_loop_slide,
    is_gauss_isomorphism,
    linking_invariant,
    parse_gauss_file,
    reduce_kinks,
    rho,
    same_gauss_data,
    sigma,
    sigma_inv,
    sign_profile,
    sign_reversal,
    slide_wen,
    tau,
    validate,
    word,
)
from ewb.gauss import _CORNERS
from test_acceptance import _independent_flip_set

L1_ELIMINATED = """\
crossing c1 -
crossing c2 +
crossing c3 +
arc c1.3 c2.1 0
arc c1.4 c2.2 0
arc c2.3 c1.2 0
arc c2.4 c3.1 0
arc c3.3 c1.1 0
arc c3.4 c3.2 0
loops 0
"""


@pytest.fixture
def l1(l1_text):
    return parse_gauss_file(l1_text)


def relabelled(g, mapping):
    """``g`` with crossing ``c`` renamed ``mapping[c]``."""
    return GaussData.make(
        [(mapping[c], s) for c, s in g.crossings],
        [
            Arc(
                Endpoint(mapping[a.source.crossing], a.source.slot),
                Endpoint(mapping[a.target.crossing], a.target.slot),
                a.bar,
            )
            for a in g.arcs
        ],
        g.loops,
    )


def shuffled_names(data, g):
    """A random renaming of ``g``'s crossings, which also reorders them."""
    names = data.draw(st.permutations([f"k{i}" for i in range(len(g.crossings))]))
    return dict(zip(g.crossing_ids(), names))


def disjoint_union(*parts):
    """The parts side by side; crossing ``k`` of part ``c`` is renamed
    ``k * len(parts) + c + 1``, so the ids of the parts interleave."""
    n = len(parts)
    renamed = [
        relabelled(g, {cid: str(k * n + c + 1) for k, cid in enumerate(g.crossing_ids())})
        for c, g in enumerate(parts)
    ]
    return GaussData.make(
        [x for g in renamed for x in g.crossings],
        [a for g in renamed for a in g.arcs],
        sum(g.loops for g in renamed),
    )


TREFOILS = (closure(word(2, *[sigma(1)] * 3)), closure(word(2, *[sigma_inv(1)] * 3)))


@st.composite
def small_diagrams(draw):
    """Closed diagrams of at most 6 crossings: closures of the shared word
    strategies, or two trefoils side by side."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return disjoint_union(draw(st.sampled_from(TREFOILS)), draw(st.sampled_from(TREFOILS)))
    if kind == 1:
        words = braid_words(max_strands=4, max_length=6)
    else:
        words = stabilized_words(max_strands=3, max_length=2)
    return closure(draw(words.filter(closable)))


# One token of letters and digits, as the file format holds crossing ids.
IDS = st.text(
    st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo", "Nd", "Nl", "No")).filter(str.isalnum),
    min_size=1,
    max_size=4,
)


@st.composite
def gauss_records(draw):
    """Any record ``GaussData.make`` accepts in which no two arcs join the
    same two corners (the file format keeps one line per corner pair);
    most are not valid diagrams."""
    ids = draw(st.lists(IDS, unique=True, max_size=6))
    crossings = [(c, draw(st.sampled_from((1, -1)))) for c in ids]
    ends = []
    if ids:
        corner = lambda slots: st.tuples(st.sampled_from(ids), st.sampled_from(slots))
        ends = draw(st.lists(st.tuples(corner((3, 4)), corner((1, 2))), unique=True, max_size=12))
    arcs = [Arc(Endpoint(*a), Endpoint(*b), draw(st.integers(0, 1))) for a, b in ends]
    return GaussData.make(crossings, arcs, draw(st.integers(0, 100000)))


def first_bijection(g, h):
    """Brute force: the first isomorphism in permutation order of ``h``'s ids."""
    if len(g.crossings) != len(h.crossings):
        return None
    for image in itertools.permutations(h.crossing_ids()):
        iso = GaussIsomorphism(tuple(zip(g.crossing_ids(), image)))
        if is_gauss_isomorphism(g, h, iso):
            return iso
    return None


def unbarred_curls(g):
    return [
        a
        for a in g.arcs
        if a.source.crossing == a.target.crossing
        and (a.source.slot, a.target.slot) in ((3, 2), (4, 1))
        and not a.bar
    ]


class TestStructure:
    def test_fixture_shape(self, l1):
        assert l1.crossings == (("c1", 1), ("c2", 1), ("c3", 1))
        assert len(l1.arcs) == 6
        assert l1.loops == 0
        assert validate(l1) is None

    def test_fixture_components(self, l1):
        assert components(l1) == [
            (("c1", 1, 3), ("c2", 1, 3), ("c1", 2, 4), ("c2", 2, 4), ("c3", 1, 3)),
            (("c3", 2, 4),),
        ]

    def test_component_arcs_chain_the_cycle(self, l1):
        comp = components(l1)[0]
        arcs = component_arcs(l1, comp)
        assert len(arcs) == len(comp)
        for k, arc in enumerate(arcs):
            cid, _, out_slot = comp[k]
            nxt, in_slot, _ = comp[(k + 1) % len(comp)]
            assert arc.source == Endpoint(cid, out_slot)
            assert arc.target == Endpoint(nxt, in_slot)

    def test_make_normalizes_order(self, l1):
        shuffled = GaussData.make(
            list(reversed(l1.crossings)), list(reversed(l1.arcs)), l1.loops
        )
        assert shuffled == l1

    def test_make_rejects_bad_input(self):
        bad = [
            lambda: GaussData.make([("c1", 2)], [], 0),  # sign must be +-1
            lambda: GaussData.make([("c1", 1)], [Arc(Endpoint("zz", 3), Endpoint("c1", 1))], 0),
            lambda: GaussData.make([], [], -1),
            lambda: Arc(Endpoint("c1", 1), Endpoint("c1", 3)),  # slots reversed
            # values the file format cannot hold, though some compare equal
            # to ones it can: bool and float slots, bars, signs and counts,
            # and ids that are not one alphanumeric token
            lambda: Endpoint("1", True),
            lambda: Endpoint("1", 3.0),
            lambda: Endpoint("1", 5),
            lambda: Endpoint("x y", 3),
            lambda: Endpoint("", 3),
            lambda: Endpoint("c.1", 3),
            lambda: Endpoint(1, 3),
            lambda: Endpoint(["1"], 3),
            lambda: Arc(Endpoint("1", 3), Endpoint("1", 1), True),
            lambda: Arc(Endpoint("1", 3), Endpoint("1", 1), 0.0),
            lambda: GaussData.make([("c1", True)], [], 0),
            lambda: GaussData.make([("c1", -1.0)], [], 0),
            lambda: GaussData.make({"x y": 1}, [], 0),
            lambda: GaussData.make({"": 1}, [], 0),
            lambda: GaussData.make({7: 1}, [], 0),
            lambda: GaussData.make([], [], 1.0),
            lambda: GaussData.make([], [], True),
            lambda: Arc(("1", 3), Endpoint("1", 1)),
            lambda: GaussData.make({"1": 1}, [("1", 3)]),
            lambda: GaussData.make({"1": 1}, [["1", 3]]),
            lambda: GaussData.make([("1", 1), ("1", -1)], [Arc(Endpoint("1", 3), Endpoint("1", 1))], 0),
        ]
        for k, build in enumerate(bad):
            with pytest.raises(ValueError):
                build()
                pytest.fail(f"bad input {k} was accepted")

    def test_validate_messages(self, l1):
        missing = GaussData.make(l1.crossings, l1.arcs[:-1], 0)
        assert "dangling endpoint" in validate(missing)
        doubled = GaussData.make(
            l1.crossings, l1.arcs + (Arc(Endpoint("c3", 4), Endpoint("c1", 1)),), 0
        )
        assert "duplicate arc" in validate(doubled)
        odd = GaussData.make(
            l1.crossings,
            tuple(
                Arc(a.source, a.target, a.bar ^ 1) if a.source == Endpoint("c3", 4) else a
                for a in l1.arcs
            ),
            0,
        )
        assert validate(odd) == "odd wen parity on component 2"
        # an arc at a crossing that is not declared (only possible when the
        # record is built without ``GaussData.make``)
        stray = GaussData(l1.crossings, l1.arcs + (Arc(Endpoint("zz", 3), Endpoint("zz", 1)),), 0)
        assert validate(stray) == "arc endpoint zz.3 references unknown crossing"
        # a crossing named twice, which ``GaussData.make`` refuses as well
        trefoil = closure(word(2, sigma(1), sigma(1), sigma(1)))
        twice = GaussData(trefoil.crossings + (("1", -1),), trefoil.arcs, 0)
        assert validate(twice) == "duplicate crossing 1"
        # ids the file format cannot hold, also only without ``GaussData.make``
        for cid in ("x y", "", "c.1", 7):
            odd_id = GaussData(trefoil.crossings + ((cid, 1),), trefoil.arcs, 0)
            assert validate(odd_id) == (
                f"crossing id must be a nonempty alphanumeric string, got {cid!r}"
            )
        # records that are not (id, sign) pairs or not arcs
        unhashable = GaussData(trefoil.crossings + ((["x"], 1),), trefoil.arcs, 0)
        assert validate(unhashable) == "crossing id must be a nonempty alphanumeric string, got ['x']"
        for record in (("9", 1, 2), 5):
            not_a_pair = GaussData(trefoil.crossings + (record,), trefoil.arcs, 0)
            assert validate(not_a_pair) == f"crossing record must be an (id, sign) pair, got {record!r}"
        not_an_arc = GaussData(trefoil.crossings, trefoil.arcs + (("1", 3),), 0)
        assert validate(not_an_arc) == "arc record must be an Arc, got ('1', 3)"
        # and signs and loop counts the file format would not read back
        for sign in (2, 1.0, True):
            two = GaussData((("1", 1), ("2", sign), ("3", 1)), trefoil.arcs, 0)
            assert validate(two) == f"crossing 2 sign must be +1 or -1, got {sign}"
        assert validate(GaussData(trefoil.crossings, trefoil.arcs, -1)) == "loop count must be >= 0, got -1"
        assert validate(GaussData(trefoil.crossings, trefoil.arcs, True)) == "loop count must be an int, got True"
        same = lambda g: same_gauss_data(g, g)
        make = lambda g: GaussData.make(g.crossings, g.arcs, g.loops)
        for operation in (sign_profile, eliminate_wens, braid_from_gauss, same, make):
            with pytest.raises(ValueError, match="duplicate crossing 1"):
                operation(twice)


class TestFiles:
    def test_parse_format_round_trip(self, l1, l1_text):
        assert parse_gauss_file(format_gauss_file(l1)) == l1
        # the fixture lists arcs in diagram order; formatting normalizes it
        assert format_gauss_file(l1) != l1_text

    def test_parse_errors(self):
        with pytest.raises(FormatError) as err:
            parse_gauss_file("crossing c1 +\ncrossing c1 -\n")
        assert err.value.line == 2
        with pytest.raises(FormatError):
            parse_gauss_file("crossing c1 +\narc c1.3 c9.1 0\nloops 0\n")
        with pytest.raises(FormatError):
            parse_gauss_file("crossing c1 +\narc c1.5 c1.1 0\nloops 0\n")
        with pytest.raises(FormatError):
            parse_gauss_file("loops 1\nloops 2\n")
        with pytest.raises(FormatError):
            parse_gauss_file("widget 7\n")
        with pytest.raises(FormatError) as err:
            parse_gauss_file("crossing c1 +\narc c1.3 c1.1 0\narc c1.3 c1.1 1\nloops 0\n")
        assert err.value.line == 3
        # every field is checked as a whole token of ASCII characters
        for text, line in (
            ("crossing c1 +-\n", 1),
            ("crossing c1 +\narc c1.3 c1.2 01\narc c1.4 c1.1 0\n", 2),
            ("crossing c1 +\narc c1.34 c1.2 0\n", 2),
            ("crossing c1 +\narc c1. c1.2 0\n", 2),
            ("crossing c1 +\narc c1.3 c1.12 0\n", 2),
            ("loops \u00b2\n", 1),
            ("loops \u0663\n", 1),
            ("loops 100001\n", 1),
            ("crossing c1 +\nloops 1000000\n", 2),
            ("crossing c1 +\nloops " + "1" * 5000 + "\n", 2),
            ("loops " + "0" * 4999 + "7\nloops 7\n", 2),
        ):
            with pytest.raises(FormatError) as err:
                parse_gauss_file(text)
            assert err.value.line == line
        # a count too long for int() gets the same cap message
        with pytest.raises(FormatError, match="more than 100000 loops") as err:
            parse_gauss_file("crossing c1 +\nloops " + "9" * 5000 + "\n")
        assert err.value.line == 2
        # an endpoint used twice parses but fails validation
        shared = parse_gauss_file(
            "crossing c1 +\narc c1.3 c1.1 0\narc c1.3 c1.2 0\nloops 0\n"
        )
        assert validate(shared) == "duplicate arc at endpoint c1.3"

    @settings(max_examples=100, deadline=None)
    @given(gauss_records())
    def test_format_round_trip(self, g):
        assert parse_gauss_file(format_gauss_file(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(gauss_records(), small_diagrams()), st.data())
    def test_shuffled_relabelled_file_parses_to_make(self, g, data):
        n = len(g.crossings)
        names = data.draw(st.lists(IDS, unique=True, min_size=n, max_size=n))
        new = dict(zip(g.crossing_ids(), names))
        lines = [f"crossing {new[c]} {'+' if s > 0 else '-'}" for c, s in g.crossings]
        lines += [
            f"arc {new[a.source.crossing]}.{a.source.slot} {new[a.target.crossing]}.{a.target.slot} {a.bar}"
            for a in g.arcs
        ]
        lines.append(f"loops {g.loops}")
        text = "\n".join(data.draw(st.permutations(lines))) + "\n"
        assert parse_gauss_file(text) == relabelled(g, new)

    def test_loops_only_file(self):
        g = parse_gauss_file("loops 3\n")
        assert g == GaussData((), (), 3)
        assert validate(g) is None


class TestEndpoints:
    def test_value_semantics(self):
        end, to = Endpoint("c1", 3), Endpoint("c2", 1)
        assert end == Endpoint("c1", 3) and hash(end) == hash(Endpoint("c1", 3))
        assert end != Endpoint("c1", 4) and end != Endpoint("c3", 3) and end != ("c1", 3)
        assert repr(end) == "Endpoint(crossing='c1', slot=3)"
        assert str(end) == "c1.3" and end.key() == ((2, "c1"), 3)
        arc = Arc(end, to, 1)
        assert arc == Arc(Endpoint("c1", 3), Endpoint("c2", 1), 1) and arc != Arc(end, to)
        assert {arc: 1}[Arc(Endpoint("c1", 3), Endpoint("c2", 1), 1)] == 1
        assert repr(arc) == (
            "Arc(source=Endpoint(crossing='c1', slot=3), target=Endpoint(crossing='c2', slot=1), bar=1)"
        )
        assert str(arc) == "c1.3 -> c2.1 barred" and arc.key() == (((2, "c1"), 3), ((2, "c2"), 1), 1)
        for obj, field in ((end, "slot"), (arc, "bar")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, 2)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, field)
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_numbered_endpoints_are_shared(self):
        assert Endpoint("12", 3) is Endpoint("12", 3)
        assert pickle.loads(pickle.dumps(Endpoint("12", 3))) is Endpoint("12", 3)
        g = closure(word(2, sigma(1), sigma(1)))
        assert g.arcs[0].source is Endpoint("1", 3)
        assert parse_gauss_file(format_gauss_file(g)).arcs[0].source is Endpoint("1", 3)

    def test_other_ids_are_built_afresh(self):
        kept = len(_CORNERS)
        # a letter, five digits, and a digit outside ASCII
        for cid in ("c1", "12345", "\u0661"):
            end = Endpoint(cid, 3)
            assert end is not Endpoint(cid, 3)
            assert end == Endpoint(cid, 3) and hash(end) == hash(Endpoint(cid, 3))
        assert len(_CORNERS) == kept


class TestSignReversal:
    def test_flips_only_signs(self, l1):
        rev = sign_reversal(l1)
        assert rev.crossings == (("c1", -1), ("c2", -1), ("c3", -1))
        assert rev.arcs == l1.arcs
        assert rev.loops == l1.loops
        assert sign_reversal(rev) == l1


class TestSlideWen:
    def test_forward_across_under_passage(self, l1):
        arc = next(a for a in l1.arcs if a.source == Endpoint("c1", 3))
        out = slide_wen(l1, arc, "forward")
        assert out.crossings == l1.crossings  # under-passage: no flip
        assert {str(a) for a in out.arcs if a.bar} == {
            "c1.4 -> c2.2 barred",
            "c2.3 -> c1.2 barred",
        }

    def test_backward_across_over_passage(self, l1):
        arc = next(a for a in l1.arcs if a.source == Endpoint("c1", 4))
        out = slide_wen(l1, arc, "backward")
        assert out.crossings == (("c1", -1), ("c2", 1), ("c3", 1))
        assert {str(a) for a in out.arcs if a.bar} == {
            "c1.3 -> c2.1 barred",
            "c2.3 -> c1.2 barred",
        }

    def test_slide_is_reversible(self, l1):
        arc = next(a for a in l1.arcs if a.source == Endpoint("c1", 3))
        out = slide_wen(l1, arc, "forward")
        moved = next(a for a in out.arcs if a.source == Endpoint("c2", 3))
        assert slide_wen(out, moved, "backward") == l1

    def test_curl_keeps_its_bar(self, l1):
        # bar the self-arc around the c3 curl (parity becomes odd, but slides
        # are purely local and still defined)
        arcs = tuple(
            Arc(a.source, a.target, 1) if a.source == Endpoint("c3", 4) else a
            for a in l1.arcs
        )
        g = GaussData(l1.crossings, arcs, 0)
        curl = next(a for a in g.arcs if a.source == Endpoint("c3", 4))
        out = slide_wen(g, curl, "forward")
        assert next(a for a in out.arcs if a.source == Endpoint("c3", 4)).bar == 1
        assert out.crossings == (("c1", 1), ("c2", 1), ("c3", -1))

    def test_rejects_bad_requests(self, l1):
        barred = next(a for a in l1.arcs if a.bar)
        clean = next(a for a in l1.arcs if not a.bar)
        with pytest.raises(ValueError):
            slide_wen(l1, clean, "forward")
        with pytest.raises(ValueError):
            slide_wen(l1, barred, "sideways")
        with pytest.raises(ValueError):
            slide_wen(l1, Arc(Endpoint("c9", 3), Endpoint("c1", 1), 1), "forward")


class TestEliminateWens:
    def test_fixture_elimination(self, l1):
        result = eliminate_wens(l1)
        assert format_gauss_file(result.data) == L1_ELIMINATED
        assert result.flipped == frozenset({"c1"})
        assert len(result.slides) == 2

    def test_slides_replay(self, l1):
        result = eliminate_wens(l1)
        g = l1
        for arc in result.slides:
            g = slide_wen(g, arc, "forward")
            assert validate(g) is None  # parity intact at every step
        assert g == result.data

    def test_idempotent(self, l1):
        once = eliminate_wens(l1).data
        again = eliminate_wens(once)
        assert again.data == once and not again.slides

    @settings(max_examples=40, deadline=None)
    @given(braid_words(max_strands=5, max_length=10))
    def test_output_is_bar_free_and_valid(self, w):
        if not closable(w):
            return
        g = closure(w)
        result = eliminate_wens(g)
        assert all(a.bar == 0 for a in result.data.arcs)
        assert validate(result.data) is None
        assert len(components(result.data)) == len(components(g))


class TestFullLoopSlide:
    def test_fixture_values(self, l1):
        assert full_loop_slide(l1, 0).crossings == (("c1", -1), ("c2", -1), ("c3", 1))
        assert full_loop_slide(l1, 1).crossings == (("c1", 1), ("c2", 1), ("c3", -1))

    def test_composite_is_sign_reversal(self, l1):
        g = l1
        for k in range(2):
            g = full_loop_slide(g, k)
        assert g == sign_reversal(l1)

    def test_loop_component_is_a_no_op(self):
        g = closure(word(2, rho(1)))
        assert g.loops == 1
        assert full_loop_slide(g, 0) == g

    def test_index_bounds(self, l1):
        with pytest.raises(ValueError):
            full_loop_slide(l1, 2)
        with pytest.raises(ValueError):
            full_loop_slide(l1, -1)


class TestReduceKinks:
    def test_collapses_stacked_kinks(self):
        g = closure(word(3, sigma(1), sigma(2)))
        assert reduce_kinks(g) == GaussData((), (), 1)

    def test_leaves_kink_free_data_alone(self):
        g = closure(word(2, sigma(1), sigma(1), sigma(1)))
        assert reduce_kinks(g) == g

    def test_keeps_barred_kinks(self):
        g = GaussData.make(
            [("c", 1)],
            [
                Arc(Endpoint("c", 3), Endpoint("c", 2), 1),
                Arc(Endpoint("c", 4), Endpoint("c", 1), 1),
            ],
            0,
        )
        assert validate(g) is None
        assert reduce_kinks(g) == g

    @settings(max_examples=80, deadline=None)
    @given(stabilized_words(max_strands=5, max_length=10))
    def test_preserves_component_count(self, w):
        # Also: the result is valid, kink-free and a fixed point.
        if not closable(w):
            return
        g = closure(w)
        reduced = reduce_kinks(g)
        assert validate(reduced) is None
        before = len(components(g)) + g.loops
        after = len(components(reduced)) + reduced.loops
        assert before == after
        assert not unbarred_curls(reduced)
        assert reduce_kinks(reduced) == reduced

    @settings(max_examples=60, deadline=None)
    @given(stabilized_words(max_strands=5, max_length=10), st.data())
    def test_commutes_with_relabelling(self, w, data):
        if not closable(w):
            return
        g = closure(w)
        h = relabelled(g, shuffled_names(data, g))
        assert same_gauss_data(reduce_kinks(h), reduce_kinks(g)) is not None


class TestIsomorphism:
    def test_relabelled_fixture_matches(self, l1):
        mapping = {"c1": "x", "c2": "y2", "c3": "z"}
        h = relabelled(l1, mapping)
        iso = same_gauss_data(l1, h)
        assert iso is not None
        assert dict(iso.pairs) == mapping
        assert is_gauss_isomorphism(l1, h, iso)

    @settings(max_examples=60, deadline=None)
    @given(stabilized_words(max_strands=5, max_length=10), st.data())
    def test_relabelled_closures_match(self, w, data):
        if not closable(w):
            return
        g = closure(w)
        h = relabelled(g, shuffled_names(data, g))
        iso = same_gauss_data(g, h)
        assert iso is not None
        assert is_gauss_isomorphism(g, h, iso)

    def test_distinguishes(self, l1):
        assert same_gauss_data(l1, sign_reversal(l1)) is None
        assert same_gauss_data(l1, eliminate_wens(l1).data) is None
        assert same_gauss_data(GaussData((), (), 2), GaussData((), (), 3)) is None

    def test_loops_only(self):
        iso = same_gauss_data(GaussData((), (), 2), GaussData((), (), 2))
        assert iso is not None and iso.pairs == ()

    @settings(max_examples=150, deadline=None)
    @given(small_diagrams(), small_diagrams(), st.booleans(), st.data())
    def test_returns_the_first_bijection(self, g, other, copy, data):
        h = g if copy else other
        h = relabelled(h, shuffled_names(data, h))
        assert same_gauss_data(g, h) == first_bijection(g, h)

    def test_interleaved_trefoils_are_fast(self):
        """Six trefoils with interleaved ids look alike crossing by crossing,
        which made a crossing-by-crossing search exponential."""
        start = time.monotonic()
        g = disjoint_union(*[TREFOILS[0]] * 6)
        names = g.crossing_ids()
        random.Random(6).shuffle(names)
        h = relabelled(g, dict(zip(g.crossing_ids(), names)))
        iso = same_gauss_data(g, h)
        assert iso is not None and is_gauss_isomorphism(g, h, iso)
        assert same_gauss_data(g, closure(word(2, *[sigma(1)] * 18))) is None
        assert time.monotonic() - start < 5.0

    def test_self_check_survives_optimization(self, l1, monkeypatch):
        """A bijection that fails the closing check is a library fault: an
        explicit RuntimeError, not an assert that ``python -O`` strips."""
        monkeypatch.setattr(ewb.gauss, "is_gauss_isomorphism", lambda *args: False)
        with pytest.raises(RuntimeError, match="not an isomorphism"):
            same_gauss_data(l1, l1)

    def test_checker_rejects_wrong_maps(self, l1):
        assert same_gauss_data(l1, l1) is not None
        for g, pairs in (
            (l1, (("c1", "c2"), ("c2", "c1"), ("c3", "c3"))),
            (TREFOILS[0], (("1", "2"), ("1", "1"), ("2", "2"), ("3", "3"))),  # 1 named twice
        ):
            assert not is_gauss_isomorphism(g, g, GaussIsomorphism(pairs))


def test_closure_wen_parity_is_even_per_component():
    rng = random.Random(17)
    for _ in range(30):
        w = random_closable_word(rng, rng.randint(2, 5), rng.randint(0, 12))
        g = closure(w)
        for comp in components(g):
            arcs = component_arcs(g, comp)
            assert sum(a.bar for a in arcs) % 2 == 0


def test_bars_count_matches_tau_gaps():
    # two wens in one gap cancel in the closure
    g = closure(word(2, sigma(1), tau(2), tau(2)))
    assert all(a.bar == 0 for a in g.arcs)
    g = closure(word(2, tau(1), sigma(1), tau(1)))
    assert sum(a.bar for a in g.arcs) in (0, 2)


def _balanced_closable_word(rng, strands, length):
    # A quarter positive and a quarter negative crossings, an even number
    # of wens near a quarter, welded crossings for the rest.
    q = length // 4
    wens = q - q % 2
    kinds = [sigma] * q + [sigma_inv] * q + [tau] * wens + [rho] * (length - 2 * q - wens)
    while True:
        rng.shuffle(kinds)
        letters = tuple(k(rng.randint(1, strands if k is tau else strands - 1)) for k in kinds)
        w = BraidWord(strands, letters)
        if closable(w):
            return w


def test_rewrites_scale_linearly():
    """One L=2000 closure through every Gauss operation and a 1000-crossing
    kink chain, inside a wall bound that quadratic rewrites would miss."""
    start = time.monotonic()
    rng = random.Random(2000)
    g = closure(_balanced_closable_word(rng, 8, 2000))
    assert len(g.crossings) == 1000
    assert parse_gauss_file(format_gauss_file(g)) == g
    assert validate(g) is None
    result = eliminate_wens(g)
    assert result.flipped == _independent_flip_set(g)
    assert not any(a.bar for a in result.data.arcs)
    assert validate(result.data) is None
    signs = sign_profile(g)
    assert sorted(signs) == list(signs) and len(signs) == 1000
    assert sign_profile(sign_reversal(g)) == signs
    linking = linking_invariant(g)
    assert len(linking) == len(components(g)) + g.loops
    assert linking_invariant(sign_reversal(g)) == linking
    b = braid_from_gauss(g)
    assert b.strands == 2 * len(g.crossings) + g.loops
    assert same_gauss_data(closure(b), g) is not None

    m = 1000
    letters = [rng.choice((sigma, sigma_inv))(i) for i in range(1, m + 1)]
    k = rng.randrange(m)
    chain = closure(BraidWord(m + 1, tuple(letters[k:] + letters[:k])))
    assert len(chain.crossings) == m
    assert reduce_kinks(chain) == GaussData((), (), 1)
    assert time.monotonic() - start < 20.0


def _queries(g):
    """Every public query on ``g``, each as a name and a call."""
    calls = [
        ("validate", validate),
        ("eliminate_wens", eliminate_wens),
        ("reduce_kinks", reduce_kinks),
        ("braid_from_gauss", braid_from_gauss),
        ("same_gauss_data", lambda h: same_gauss_data(h, GaussData(g.crossings, g.arcs, g.loops))),
        ("components", components),
        ("component_arcs", lambda h: [component_arcs(h, comp) for comp in components(h)]),
        ("sign_profile", sign_profile),
        ("linking_invariant", linking_invariant),
    ]
    calls += [(f"full_loop_slide {k}", lambda h, k=k: full_loop_slide(h, k)) for k in range(3)]
    for arc in [a for a in g.arcs if a.bar][:2]:
        for way in ("forward", "backward"):
            calls.append((f"slide_wen {arc} {way}", lambda h, a=arc, w=way: slide_wen(h, a, w)))
    return calls


def _outcome(query, g):
    try:
        return "returned", query(g)
    except ValueError as exc:
        return "raised", str(exc)


class TestSharedIndex:
    """One passage index per diagram, built by its first query and read by
    every later one, without showing anywhere outside the library."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []

        class Counting(ewb.gauss._Index):
            def __init__(self, g):
                builds.append(g)
                super().__init__(g)

        monkeypatch.setattr(ewb.gauss, "_Index", Counting)
        return builds

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_diagrams(), gauss_records()), st.randoms(use_true_random=False))
    def test_queries_in_any_order_match_a_fresh_copy(self, g, rng):
        # No query writes to the index the others read.
        queries = _queries(g)
        rng.shuffle(queries)
        for name, query in queries:
            fresh = GaussData(g.crossings, g.arcs, g.loops)
            assert _outcome(query, g) == _outcome(query, fresh), name

    def test_one_build_serves_every_query(self, monkeypatch, l1):
        g = GaussData(l1.crossings, l1.arcs, l1.loops)
        builds = self._count_builds(monkeypatch)
        for _, query in _queries(g):
            _outcome(query, g)
        assert sum(b is g for b in builds) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_diagrams(), gauss_records()))
    def test_the_index_is_invisible(self, g):
        before = (repr(g), hash(g), pickle.dumps(g))
        for _, query in _queries(g):
            _outcome(query, g)
        assert (repr(g), hash(g), pickle.dumps(g)) == before
        copy = GaussData(g.crossings, g.arcs, g.loops)
        assert g == copy and copy == g
        assert pickle.loads(pickle.dumps(g)).__dict__ == copy.__dict__

    def test_replace_builds_its_own_index(self, monkeypatch, l1):
        builds = self._count_builds(monkeypatch)
        assert validate(l1) is None
        again = dataclasses.replace(l1)
        assert again == l1 and validate(again) is None
        assert builds == [l1, again] and builds[1] is again

    def test_list_fields_are_indexed_on_each_call(self, monkeypatch, l1):
        # A list can change between calls, so nothing is kept for it.
        g = GaussData(list(l1.crossings), list(l1.arcs), l1.loops)
        builds = self._count_builds(monkeypatch)
        assert sign_profile(g) == sign_profile(g) == (-1, -1, 1)
        assert len(builds) == 2
        g.crossings[0] = ("c1", -1)
        assert sign_profile(g) == sign_profile(GaussData(tuple(g.crossings), l1.arcs)) != (-1, -1, 1)

    def test_an_invalid_verdict_is_kept_too(self, monkeypatch):
        g = closure(word(2, sigma(1), sigma(1)))
        first = g.arcs[0]
        odd = GaussData(g.crossings, (Arc(first.source, first.target, 1),) + g.arcs[1:])
        builds = self._count_builds(monkeypatch)
        for _ in range(2):
            assert validate(odd) == "odd wen parity on component 1"
            with pytest.raises(ValueError, match="odd wen parity"):
                linking_invariant(odd)
        assert len(builds) == 1
