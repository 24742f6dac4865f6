"""The four workloads: seeded inputs, the ops run on them, and their checks.

Each ``build_*`` function returns a :class:`Workload` whose ``rounds`` are lists of
tasks.  A task is a callable taking the :class:`harness.Recorder`; it runs
one or more ops through ``recorder.op`` in order, each consuming the
outputs of the ones before.  Every round of a workload holds the same mix
of ops (only the random contents differ), so whole rounds can be repeated
until the run time is used up.  Library calls go through ``E.<name>`` at
call time so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import ewb as E

import reference as ref
from harness import ARTIFACT, REPORT, Recorder

UNDECIDED = Recorder.UNDECIDED


@dataclass
class Workload:
    name: str
    rounds: list
    warmup: list
    deadline_s: float
    sizes: dict = field(default_factory=dict)


def _expect(want):
    return lambda got: None if got == want else f"expected {want!r}, got {got!r}"


def _letter(kind: str, i: int):
    return E.Letter(E.LetterKind(kind), i)


def _word(n: int, toks) -> object:
    return E.BraidWord(n, tuple(_letter(t[0], int(t[1:])) for t in toks))


def random_word(rng: random.Random, n: int, length: int):
    letters = []
    for _ in range(length):
        kind = rng.randrange(4) if n > 1 else 3
        if kind == 3:
            letters.append(_letter("t", rng.randint(1, n)))
        else:
            letters.append(_letter("sSr"[kind], rng.randint(1, n - 1)))
    return E.BraidWord(n, tuple(letters))


# --- word-eq ------------------------------------------------------------------------
#
# Equality of words through the free-group action.  Equal pairs plant
# defining-relation instances into a random word; unequal pairs replace one
# letter by a different generator, and distinct generators are distinct
# group elements, so both verdicts are known by construction.


def _different_letter(rng, n, old, kinds="sSrt"):
    while True:
        kind = rng.choice(kinds)
        new = _letter(kind, rng.randint(1, n if kind == "t" else n - 1))
        if new != old:
            return new


def _planted_equal(rng, n, length, relations):
    a, b = [], []
    while len(a) < length:
        if rng.random() < 0.25:
            _, lhs, rhs = rng.choice(relations)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            a += lhs.letters
            b += rhs.letters
        else:
            let = random_word(rng, n, 1).letters[0]
            a.append(let)
            b.append(let)
    return E.BraidWord(n, tuple(a)), E.BraidWord(n, tuple(b))


def _substituted(rng, w, kinds="sSrt", last=False):
    p = len(w.letters) - 1 if last else rng.randrange(len(w.letters))
    letters = list(w.letters)
    letters[p] = _different_letter(rng, w.strands, letters[p], kinds)
    return E.BraidWord(w.strands, tuple(letters))


def _eq_task(a, b, expected: bool):
    def task(r):
        r.op(REPORT, "words_equal", E.words_equal, a, b, check=_expect(expected))
    return task


def _word_round_trip(w):
    return E.parse_word_file(E.format_word_file(w))


def _identity_task(w):
    """Sign reversal, mirror and the file round trip as artifacts, then the
    wen-row identity ``signrev(w) = row w row`` as a report."""
    n = w.strands
    row = tuple(_letter("t", i) for i in range(1, n + 1))
    want_rev, want_mirror = ref.sign_reversal_tokens(w), ref.mirror_tokens(w)

    def task(r):
        rev = r.op(ARTIFACT, "sign_reversal_word", E.sign_reversal_word, w,
                   check=lambda got: _expect((n, want_rev))((got.strands, ref.tokens(got))))
        r.op(ARTIFACT, "mirror_word", E.mirror_word, w,
             check=lambda got: _expect((n, want_mirror))((got.strands, ref.tokens(got))))
        r.op(ARTIFACT, "word_file_round_trip", _word_round_trip, w, check=_expect(w))
        conj = E.BraidWord(n, row + w.letters + row)
        r.op(REPORT, "words_equal", E.words_equal, rev, conj, check=_expect(True))
    return task


def _verify_task(max_strands: int, count: int):
    def task(r):
        r.op(REPORT, "verify_relations", E.verify_relations, max_strands, check=_expect((count, [])))
    return task


def build_word_eq(seed: int, smoke: bool, pool: int) -> Workload:
    rng = random.Random(seed)
    strands = (3, 4) if smoke else tuple(range(3, 9))
    lo, hi = (4, 8) if smoke else (10, 30)
    family = (2, 3) if smoke else (4, 6, 8, 10, 12)
    relations = {n: list(E.presentation_relations(n)) for n in strands + (3,)}
    # Only wen and welded letters in the planted relation: the family's
    # growth stays that of (s1 S2)^k.
    neutral = [rel for rel in relations[3] if all(l.kind.value in "rt" for l in rel[1].letters + rel[2].letters)]
    sizes = {"word_letters": [], "strands": [], "family_k": family}

    def one_round(rng):
        tasks = []
        for n in strands:
            for _ in range(2):
                a, b = _planted_equal(rng, n, rng.randint(lo, hi), relations[n])
                tasks.append(_eq_task(a, b, True))
                w = random_word(rng, n, rng.randint(lo, hi))
                tasks.append(_eq_task(w, _substituted(rng, w), False))
                sizes["word_letters"] += [len(a), len(b), len(w)]
                sizes["strands"].append(n)
            tasks.append(_identity_task(random_word(rng, n, rng.randint(lo, hi))))
        for k in family:
            base = [_letter("s", 1), _letter("S", 2)] * k
            p = rng.randrange(len(base) + 1)
            _, lhs, rhs = rng.choice(neutral)
            a = E.BraidWord(3, tuple(base[:p]) + lhs.letters + tuple(base[p:]))
            b = E.BraidWord(3, tuple(base[:p]) + rhs.letters + tuple(base[p:]))
            tasks.append(_eq_task(a, b, True))
            w = E.BraidWord(3, tuple(base))
            # Changing the last letter keeps the image size that of (s1 S2)^k.
            tasks.append(_eq_task(w, _substituted(rng, w, "sS", last=True), False))
        tasks.append(_verify_task(6, 256))
        rng.shuffle(tasks)
        return tasks

    rounds = [one_round(rng) for _ in range(pool)]
    warm = random.Random(seed ^ 0x5EED)
    warmup = [_eq_task(*_planted_equal(warm, 3, 6, relations[3]), True), _identity_task(random_word(warm, 3, 6))]
    return Workload("word-eq", rounds, warmup, deadline_s=10.0, sizes=sizes)


# --- diagram ---------------------------------------------------------------------------
#
# Closures of balanced random words go through every Gauss-data operation; kink
# chains exercise reduce_kinks; relabelled disjoint trefoils exercise the
# isomorphism search.  Expected values come from the word itself
# (reference.word_closure_stats), never from the function under test.


def closable_word(rng, n, length, max_components=6, balanced=False):
    """A random closable word with at most ``max_components`` closure
    components.  ``balanced`` words hold a quarter of positive and a quarter
    of negative crossings and an even number of wens near a quarter, which
    fixes the crossing count and halves the seed-to-seed spread of the
    quadratic rewrites' cost."""
    while True:
        if balanced:
            q = length // 4
            wens = q - q % 2  # an odd total would leave some component odd
            kinds = ["s"] * q + ["S"] * q + ["t"] * wens + ["r"] * (length - 2 * q - wens)
            rng.shuffle(kinds)
            w = E.BraidWord(n, tuple(_letter(k, rng.randint(1, n if k == "t" else n - 1)) for k in kinds))
        else:
            w = random_word(rng, n, length)
        if ref.closable(w) and len(ref.permutation_cycles(w)) <= max_components:
            return w


def _closure_check(w, stats):
    signs = tuple((str(k), 1 if l.kind.value == "s" else -1)
                  for k, l in enumerate((l for l in w.letters if l.kind.value in "sS"), start=1))

    def check(g):
        if g.crossings != signs:
            return "crossing signs do not follow the word's crossing letters"
        problem = ref.gauss_structure_problem(g)
        if problem:
            return problem
        if g.loops != stats["loops"] or ref.component_count(g) != stats["components"]:
            return "component count differs from the word's permutation cycles"
        return None
    return check


def _iso_check(g1, g2):
    def check(iso):
        if iso is None:
            return "isomorphism not found"
        return None if ref.is_isomorphism(g1, g2, iso.pairs) else "returned bijection is not an isomorphism"
    return check


def _gauss_round_trip(g):
    return E.parse_gauss_file(E.format_gauss_file(g))


def _elimination_check(g):
    flipped, slides = ref.wen_elimination_expectation(g)

    def check(res):
        if frozenset(res.flipped) != flipped:
            return "flip set differs from the independent recount"
        if len(res.slides) != slides:
            return f"{len(res.slides)} slides, expected {slides}"
        return None if ref.eliminated_data_matches(g, res.data, flipped) else "eliminated data is wrong"
    return check


def _kinks_check(g):
    def check(out):
        problem = ref.gauss_structure_problem(out)
        if problem:
            return problem
        if ref.has_unbarred_curl(out):
            return "an unbarred curl survived"
        if len(out.crossings) > len(g.crossings) or ref.component_count(out) != ref.component_count(g):
            return "kink reduction changed the component count or added crossings"
        return None
    return check


def _braid_check(g):
    m = len(g.crossings)

    def check(b):
        if b.strands != 2 * m + g.loops:
            return f"{b.strands} strands, expected {2 * m + g.loops}"
        head = [(l.kind.value, l.index) for l in b.letters[:m]]
        want = [("s" if s > 0 else "S", 2 * k - 1) for k, (_, s) in enumerate(g.crossings, start=1)]
        if head != want or any(l.kind.value in "sS" for l in b.letters[m:]):
            return "crossing row does not match the data's signs"
        return None if ref.closable(b) else "braided word is not closable"
    return check


def _diagram_task(w, stats, rewrites: bool):
    """Closure, file round trip, validation, braiding and the round-trip
    isomorphism; with ``rewrites`` also wen elimination, kink reduction and
    the two invariants, whose cost grows quadratically with the crossings."""
    def task(r):
        g = r.op(ARTIFACT, "closure", E.closure, w, check=_closure_check(w, stats))
        r.op(ARTIFACT, "gauss_file_round_trip", _gauss_round_trip, g, check=_expect(g))
        r.op(REPORT, "validate", E.validate, g, check=_expect(None))
        if rewrites:
            elim = r.op(ARTIFACT, "eliminate_wens", E.eliminate_wens, g, check=_elimination_check(g))
            r.op(ARTIFACT, "reduce_kinks", E.reduce_kinks, elim.data, check=_kinks_check(elim.data))
        b = r.op(ARTIFACT, "braid_from_gauss", E.braid_from_gauss, g, check=_braid_check(g))
        back = r.op(ARTIFACT, "closure", E.closure, b,
                    check=lambda h: None if len(h.crossings) == len(g.crossings) else "crossing count changed")
        r.op(REPORT, "same_gauss_data", E.same_gauss_data, back, g, check=_iso_check(back, g))
        if rewrites:
            r.op(REPORT, "sign_profile", E.sign_profile, g, check=_expect(stats["signs"]))
            r.op(REPORT, "linking_invariant", E.linking_invariant, g, check=_expect(stats["linking"]))
    return task


def kink_chain(rng, m):
    """``m`` stabilizations of the one-strand unknot, conjugated at random:
    its closure reduces to one crossing-free loop."""
    letters = [_letter(rng.choice("sS"), i) for i in range(1, m + 1)]
    k = rng.randrange(m)
    return E.BraidWord(m + 1, tuple(letters[k:] + letters[:k]))


def _kink_task(w):
    m = len(w.letters)

    def task(r):
        g = r.op(ARTIFACT, "closure", E.closure, w,
                 check=lambda g: ref.gauss_structure_problem(g) if len(g.crossings) == m else "crossing count")
        r.op(REPORT, "validate", E.validate, g, check=_expect(None))
        r.op(ARTIFACT, "reduce_kinks", E.reduce_kinks, g,
             check=lambda out: None if (out.crossings, out.arcs, out.loops) == ((), (), 1) else
             f"{len(out.crossings)} crossings, {out.loops} loops left, expected 0 and 1")
    return task


# The trefoil, closure of s1 s1 s1: crossings a, b, c, all positive.
_TREFOIL = (("a", 3, "b", 2), ("a", 4, "b", 1), ("b", 3, "c", 2),
            ("b", 4, "c", 1), ("c", 3, "a", 2), ("c", 4, "a", 1))


def disjoint_trefoils(rng, copies):
    """``copies`` disjoint trefoils with crossing ids shuffled across copies."""
    names = [str(i) for i in range(1, 3 * copies + 1)]
    rng.shuffle(names)
    ident = {(j, x): names[3 * j + "abc".index(x)] for j in range(copies) for x in "abc"}
    arcs = [E.Arc(E.Endpoint(ident[j, s], ss), E.Endpoint(ident[j, t], ts), 0)
            for j in range(copies) for s, ss, t, ts in _TREFOIL]
    return E.GaussData.make({c: 1 for c in names}, arcs, 0)


def _trefoil_task(g1, g2):
    def task(r):
        r.op(REPORT, "same_gauss_data", E.same_gauss_data, g1, g2, check=_iso_check(g1, g2))
    return task


def build_diagram(seed: int, smoke: bool, pool: int) -> Workload:
    rng = random.Random(seed)
    # The quadratic rewrites and invariants run on words of L=100..300
    # (about a second per word at the top); L=800 words run the near-linear
    # ops only.  Lengths are stratified with jitter, so the sizes form a
    # continuum and a percentile moves smoothly with the number of rounds.
    def lengths(rng):
        if smoke:
            return ((12, True), (20, True), (30, False))
        return tuple((100 + int(200 * (i + rng.random()) / 6), True) for i in range(6)) + ((800, False),)

    def kinks(rng):
        return (5,) if smoke else tuple(100 + int(50 * (i + rng.random())) for i in range(2))

    trefoils = (2, 3) if smoke else (3, 3, 5, 5)
    sizes = {"word_letters": [], "crossings": [], "components": [], "kink_crossings": [],
             "trefoil_copies": trefoils}

    def one_round(rng):
        tasks = []
        for length, rewrites in lengths(rng):
            w = closable_word(rng, 8, length, balanced=True)
            stats = ref.word_closure_stats(w)
            sizes["word_letters"].append(length)
            sizes["crossings"].append(stats["crossings"])
            sizes["components"].append(stats["components"])
            tasks.append(_diagram_task(w, stats, rewrites))
        for m in kinks(rng):
            sizes["kink_crossings"].append(m)
            tasks.append(_kink_task(kink_chain(rng, m)))
        tasks += [_trefoil_task(disjoint_trefoils(rng, k), disjoint_trefoils(rng, k)) for k in trefoils]
        rng.shuffle(tasks)
        return tasks

    rounds = [one_round(rng) for _ in range(pool)]
    warm = random.Random(seed ^ 0x5EED)
    w = closable_word(warm, 4, 12)
    warmup = [_diagram_task(w, ref.word_closure_stats(w), True), _kink_task(kink_chain(warm, 4)),
              _trefoil_task(disjoint_trefoils(warm, 2), disjoint_trefoils(warm, 2))]
    return Workload("diagram", rounds, warmup, deadline_s=30.0, sizes=sizes)


# --- search ----------------------------------------------------------------------------
#
# Planted pairs are closable words joined by a random move chain, so a
# witness exists (moves keep a word closable).
# Distinct pairs differ in component count or linking matrix as computed
# by reference.markov_class, so no witness may exist; their searches run on
# an explicit budget and end inconclusive today.


def random_move_chain(rng, start, count):
    """Apply ``count`` random moves (m1, m2+, m2-, m2w, m2d); returns the
    end word and the moves."""
    n, toks, moves = start.strands, ref.tokens(start), []
    for _ in range(count):
        options = []
        if len(toks) >= 2:
            options.append(E.MarkovMove("m1", shift=rng.randrange(1, len(toks))))
        if n < 6 and len(toks) < 14:
            options += [E.MarkovMove(k) for k in ("m2+", "m2-", "m2w")]
        if n > 2 and ref.replay_moves(_word(n, toks), [E.MarkovMove("m2d")], None) is not None:
            options.append(E.MarkovMove("m2d"))
        if not options:
            break
        move = rng.choice(options)
        n, toks = ref.replay_moves(_word(n, toks), [move], None)
        toks = list(toks)
        moves.append(move)
    return _word(n, toks), moves


def _equal_tokens(n, a, b):
    return E.words_equal(_word(n, a), _word(n, b))


def _witness_check(a, b):
    def check(witness):
        if witness is None:
            return UNDECIDED
        if witness.start != a or witness.end != b:
            return "witness endpoints drifted"
        final = ref.replay_moves(a, witness.moves, _equal_tokens)
        if final is None:
            return "a witness move does not apply"
        n, toks = final
        if n != b.strands or not E.words_equal(_word(n, toks), b):
            return "witness replay does not reach the target"
        return None
    return check


def _invariant_ops(r, w, stats, sign_profile: bool):
    g = r.op(ARTIFACT, "closure", E.closure, w, check=_closure_check(w, stats))
    r.op(REPORT, "linking_invariant", E.linking_invariant, g, check=_expect(stats["linking"]))
    if sign_profile:
        r.op(REPORT, "sign_profile", E.sign_profile, g, check=_expect(stats["signs"]))


def _planted_task(a, b):
    """The linking matrices of both closures (a Markov invariant, so a cheap
    pre-check before searching), then the search and the witness check."""
    caps = {"max_degree": max(a.strands, b.strands) + 4,
            "max_length": max(len(a.letters), len(b.letters)) + 8, "budget": 100_000}
    stats = {w: ref.word_closure_stats(w) for w in (a, b)}

    def task(r):
        for w in (a, b):
            _invariant_ops(r, w, stats[w], sign_profile=False)
        witness = r.op(REPORT, "markov_search", E.markov_search, a, b, check=_witness_check(a, b), **caps)
        if witness is not None:
            r.op(REPORT, "verify_witness", E.verify_witness, witness, check=_expect(True))
    return task


def _distinct_task(a, b, budget):
    stats = {w: ref.word_closure_stats(w) for w in (a, b)}

    def task(r):
        r.op(REPORT, "markov_search", E.markov_search, a, b, budget=budget,
             check=lambda wit: UNDECIDED if wit is None else "witness found for a known-distinct pair")
        for w in (a, b):
            _invariant_ops(r, w, stats[w], sign_profile=True)
    return task


def distinct_pair(rng, n, lo, hi):
    while True:
        a = closable_word(rng, n, rng.randint(lo, hi))
        b = closable_word(rng, n, rng.randint(lo, hi))
        if ref.markov_class(a) != ref.markov_class(b):
            return a, b


def build_search(seed: int, smoke: bool, pool: int) -> Workload:
    rng = random.Random(seed)
    planted, distinct, budget = (3, 1, 300) if smoke else (12, 2, 4000)
    sizes = {"word_letters": [], "strands": [], "chain_moves": [], "distinct_budget": budget}

    def one_round(rng):
        tasks = []
        # Strands, word length and chain length on a fixed grid (2-4, 1-6,
        # 1-4), so every round holds the same spread of search sizes.
        for i in range(planted):
            a = closable_word(rng, 2 + i % 3, 1 + i % 6)
            b, moves = random_move_chain(rng, a, 1 + i % 4)
            sizes["word_letters"] += [len(a), len(b)]
            sizes["strands"] += [a.strands, b.strands]
            sizes["chain_moves"].append(len(moves))
            tasks.append(_planted_task(a, b))
        for _ in range(distinct):
            # Fixed length: the search then always stops on its budget,
            # after a near-constant number of key computations.
            a, b = distinct_pair(rng, 3, 4, 4)
            sizes["word_letters"] += [len(a), len(b)]
            tasks.append(_distinct_task(a, b, budget))
        rng.shuffle(tasks)
        return tasks

    rounds = [one_round(rng) for _ in range(pool)]
    warm = random.Random(seed ^ 0x5EED)
    a = closable_word(warm, 2, 3)
    warmup = [_planted_task(a, random_move_chain(warm, a, 2)[0]), _distinct_task(*distinct_pair(warm, 2, 2, 3), 50)]
    return Workload("search", rounds, warmup, deadline_s=30.0, sizes=sizes)


# --- cli --------------------------------------------------------------------------------
#
# Each of the 14 verbs runs as a fresh ``python -m ewb.cli`` process on small
# seeded inputs, with stdout and the exit code compared to expected text.
# Expected artifacts come from reference.py where it has a recomputation,
# and otherwise from the same library call made in this process, so the
# check covers the verb's parsing, formatting and exit code.

REPORT_VERBS = ("gauss-validate", "eq-word", "eq-gauss", "invariants", "markov", "replay", "verify-relations")


@dataclass
class CliCall:
    verb: str
    argv: list
    check: object  # (code, stdout) -> None or a message


def cli_env(root: Path) -> dict:
    """The package is not installed: a fresh interpreter finds it on ``src``."""
    return {"PYTHONPATH": str(root / "src")}


def run_cli(root: Path, argv, timeout: float):
    proc = subprocess.run([sys.executable, "-m", "ewb.cli", *argv], cwd=root, env=cli_env(root),
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def _cli_expect(code, text):
    return lambda got: None if got == (code, text) else f"expected exit {code} and {text!r}, got {got!r}"


def _word_file(w) -> str:
    return f"strands {w.strands}\n{' '.join(ref.tokens(w))}\n"


def _gauss_file(g) -> str:
    return ref.gauss_text(g.crossings, [((a.source.crossing, a.source.slot), (a.target.crossing, a.target.slot), a.bar)
                                        for a in g.arcs], g.loops)


def _machine(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _parse_moves(n: int, lines) -> list:
    """Witness lines as moves; an ``m0`` word takes the degree reached so far."""
    moves = []
    for line in lines:
        parts = line.split()
        if parts[0] == "m1":
            moves.append(E.MarkovMove("m1", shift=int(parts[1])))
        elif parts[0] == "m0":
            moves.append(E.MarkovMove("m0", word=_word(n, parts[1:])))
        else:
            moves.append(E.MarkovMove(parts[0]))
        n += {"m2+": 1, "m2-": 1, "m2w": 1, "m2d": -1}.get(parts[0], 0)
    return moves


def _cli_round(rng, k: int, workdir: Path, equal_words: bool) -> list[CliCall]:
    """One call per verb; inputs are written under ``workdir``."""
    def put(name, text):
        path = workdir / f"r{k}-{name}"
        path.write_text(text)
        return str(path)

    w = closable_word(rng, rng.randint(2, 4), rng.randint(4, 8))
    stats = ref.word_closure_stats(w)
    g = E.closure(w)
    g1, g2 = disjoint_trefoils(rng, 2), disjoint_trefoils(rng, 2)
    kink = kink_chain(rng, rng.randint(2, 5))
    a = random_word(rng, rng.randint(2, 3), rng.randint(2, 5))
    b, moves = random_move_chain(rng, a, rng.randint(1, 3))
    if equal_words:
        eq_a, eq_b = _planted_equal(rng, 3, 6, list(E.presentation_relations(3)))
    else:
        eq_a = random_word(rng, 3, 6)
        eq_b = _substituted(rng, eq_a)
    flipped, _ = ref.wen_elimination_expectation(g)
    eliminated = E.GaussData(tuple((c, -s if c in flipped else s) for c, s in g.crossings),
                             tuple(E.Arc(x.source, x.target, 0) for x in g.arcs), g.loops)
    reversed_g = E.GaussData(tuple((c, -s) for c, s in g.crossings), g.arcs, g.loops)
    replayed = ref.replay_moves(a, moves, None)

    f = {"w": put("w.bw", _word_file(w)), "g": put("g.gd", _gauss_file(g)),
         "t1": put("t1.gd", _gauss_file(g1)), "t2": put("t2.gd", _gauss_file(g2)),
         "kink": put("kink.gd", _gauss_file(E.closure(kink))), "a": put("a.bw", _word_file(a)),
         "b": put("b.bw", _word_file(b)), "eqa": put("eqa.bw", _word_file(eq_a)),
         "eqb": put("eqb.bw", _word_file(eq_b)),
         "moves": put("moves.txt", "".join(m.token() + "\n" for m in moves))}
    signs = ",".join(str(s) for s in stats["signs"])
    linking = ";".join(",".join(str(e) for e in row) for row in stats["linking"])

    def eq_gauss(got):
        code, out = got
        kv = _machine(out)
        if code != 0 or kv.get("isomorphic") != "true":
            return f"expected an isomorphism, got {got!r}"
        pairs = tuple(tuple(p.split(":")) for p in kv.get("pairs", "").split(",") if p)
        return None if ref.is_isomorphism(g1, g2, pairs) else "printed pairs are not an isomorphism"

    def markov(got):
        code, out = got
        kv = _machine(out)
        if code != 0 or kv.get("found") != "true":
            return f"expected a witness, got {got!r}"
        lines = [line for line in kv.get("witness", "").split(";") if line]
        final = ref.replay_moves(a, _parse_moves(a.strands, lines), _equal_tokens)
        if final is None or final[0] != b.strands or not _equal_tokens(final[0], final[1], ref.tokens(b)):
            return "printed witness does not replay to the target"
        return None

    return [
        CliCall("close", ["close", "--input", f["w"]], _cli_expect(0, _gauss_file(g))),
        CliCall("braid", ["braid", "--input", f["g"]], _cli_expect(0, _word_file(E.braid_from_gauss(g)))),
        CliCall("gauss-validate", ["gauss-validate", "--input", f["g"], "--format", "machine"],
                _cli_expect(0, "valid=true\n")),
        CliCall("eq-word", ["eq-word", f["eqa"], f["eqb"], "--format", "machine"],
                _cli_expect(0, "equal=true\n") if equal_words else _cli_expect(1, "equal=false\n")),
        CliCall("eq-gauss", ["eq-gauss", f["t1"], f["t2"], "--format", "machine"], eq_gauss),
        CliCall("signrev-word", ["signrev-word", "--input", f["w"]],
                _cli_expect(0, f"strands {w.strands}\n{' '.join(ref.sign_reversal_tokens(w))}\n")),
        CliCall("signrev-gauss", ["signrev-gauss", "--input", f["g"]], _cli_expect(0, _gauss_file(reversed_g))),
        CliCall("mirror", ["mirror", "--input", f["w"]],
                _cli_expect(0, f"strands {w.strands}\n{' '.join(ref.mirror_tokens(w))}\n")),
        CliCall("eliminate-wens", ["eliminate-wens", "--input", f["g"]], _cli_expect(0, _gauss_file(eliminated))),
        CliCall("reduce-kinks", ["reduce-kinks", "--input", f["kink"]], _cli_expect(0, "loops 1\n")),
        CliCall("invariants", ["invariants", "--input", f["w"], "--format", "machine"],
                _cli_expect(0, f"components={stats['components']}\nloops={stats['loops']}\n"
                               f"crossings={stats['crossings']}\nsigns={signs}\nlinking={linking}\n")),
        CliCall("markov", ["markov", f["a"], f["b"], "--format", "machine"], markov),
        CliCall("replay", ["replay", f["a"], f["moves"], "--target", f["b"], "--format", "machine"],
                _cli_expect(0, f"equal=true\nresult={' '.join(replayed[1])}\n")),
        CliCall("verify-relations", ["verify-relations", "--n", "6", "--format", "machine"],
                _cli_expect(0, "checked=256\nfailures=0\n")),
    ]


def run_cli_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = importlib.import_module("ewb.cli").main(list(argv))
    return code, out.getvalue()


def _cli_task(root: Path, call: CliCall, timeout: float, in_process: bool):
    """The verb as a fresh process; in the traced run also through
    ``cli.main`` in this process, so its layers get spans."""
    kind = REPORT if call.verb in REPORT_VERBS else ARTIFACT

    def task(r):
        r.op(kind, f"cli.{call.verb}", run_cli, root, call.argv, timeout, check=call.check)
        if in_process:
            r.op(kind, f"cli.main.{call.verb}", run_cli_in_process, call.argv, check=call.check)
    return task


def build_cli(seed: int, smoke: bool, pool: int, root: Path, workdir: Path, in_process: bool) -> Workload:
    rng = random.Random(seed)
    deadline = 30.0
    calls = [_cli_round(rng, k, workdir, equal_words=k % 2 == 0) for k in range(pool)]
    rounds = [[_cli_task(root, c, deadline, in_process) for c in rng.sample(cs, len(cs))] for cs in calls]
    warm = CliCall("verify-relations", ["verify-relations", "--n", "1", "--format", "machine"],
                   _cli_expect(0, "checked=1\nfailures=0\n"))
    return Workload("cli", rounds, [_cli_task(root, warm, deadline, False)], deadline_s=deadline + 5,
                    sizes={"verbs": len(calls[0]), "rounds_of_inputs": pool})
