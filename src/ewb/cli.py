"""Command-line front end.

Verbs operate on the flat word/Gauss-data/witness file formats and print
either the produced artifact or a report.  Exit codes: 0 for success or a
true verdict, 1 for a false verdict, a failed search, or an inconclusive
result (the report says which), 2 for unreadable or malformed inputs,
unwritable output files, misconfigured limits and words whose free-group
images outgrow their cap.  Inputs are checked where they enter, so a fault
inside the library ends with a traceback instead.

Artifact-producing verbs (``close``, ``braid``, ``signrev-word``,
``signrev-gauss``, ``mirror``, ``eliminate-wens``, ``reduce-kinks``) write
their output file to ``--output`` when given and to stdout otherwise, with
no extra chatter, so output can be fed back in.  Report verbs honour
``--format``: ``text`` is for people; ``machine`` is stable line-oriented
``key=value`` output with rows joined by ``;`` and entries by ``,``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .braid import (
    BraidWord,
    FormatError,
    ImageCapError,
    format_word_file,
    parse_word_file,
    verify_relations,
    words_equal,
)
from .closure import _NO_BRAIDING, NotClosableError, braid_from_gauss, closure
from .gauss import (
    GaussData,
    _wen_free_crossings,
    eliminate_wens,
    format_gauss_file,
    parse_gauss_file,
    reduce_kinks,
    same_gauss_data,
    sign_reversal,
    validate,
)
from .markov import (
    format_witness,
    mirror_word,
    sign_reversal_word,
    _check_cap,
    _linking_from,
    _parse_replay,
    _search,
    _search_limits,
    _signs_from,
)


class _InputError(Exception):
    """Unreadable or malformed input, or an unwritable output file; exit code 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load(path: str, parse):
    """Read ``path`` and parse it; a format error names the file."""
    try:
        return parse(_read(path))
    except FormatError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_valid(path: str, parse=parse_gauss_file):
    """``_load`` for verbs that need valid Gauss data; a broken
    well-formedness clause names the file.  Words pass through."""
    data = _load(path, parse)
    message = validate(data) if isinstance(data, GaussData) else None
    if message is not None:
        raise _InputError(f"{path}: {message}")
    return data


def _load_braidable(path: str) -> GaussData:
    """``_load_valid`` for ``braid``, which refuses the empty diagram."""
    g = _load_valid(path)
    if not (g.crossings or g.loops):
        raise _InputError(f"{path}: {_NO_BRAIDING}")
    return g


def _checked(check, *args):
    """Run a library precondition; its ``ValueError`` is bad input."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _parse_word_or_gauss(text: str):
    """A word file starts with a ``strands`` header; anything else is Gauss data."""
    if text.lstrip().startswith("strands"):
        return parse_word_file(text)
    return parse_gauss_file(text)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise _InputError(str(exc)) from exc


# --- verb handlers ----------------------------------------------------------


def _artifact(load, op, fmt):
    """The handler of an artifact verb: ``fmt(op(load(--input)))``, emitted."""

    def handler(args) -> int:
        _emit(fmt(op(load(args.input))), args.output)
        return 0

    return handler


def _cmd_gauss_validate(args) -> int:
    message = validate(_load(args.input, parse_gauss_file))
    if message is None:
        print("valid=true" if args.format == "machine" else "valid")
        return 0
    if args.format == "machine":
        print("valid=false")
        print(f"reason={message}")
    else:
        print(f"invalid: {message}")
    return 1


def _cmd_eq_word(args) -> int:
    a, b = _load(args.a, parse_word_file), _load(args.b, parse_word_file)
    equal = a.strands == b.strands and words_equal(a, b)
    if args.format == "machine":
        print(f"equal={'true' if equal else 'false'}")
    else:
        print("equal" if equal else "not equal")
    return 0 if equal else 1


def _cmd_eq_gauss(args) -> int:
    iso = same_gauss_data(_load_valid(args.a), _load_valid(args.b))
    if iso is None:
        print("isomorphic=false" if args.format == "machine" else "not isomorphic")
        return 1
    pairs = ",".join(f"{x}:{y}" for x, y in iso.pairs)
    if args.format == "machine":
        print("isomorphic=true")
        print(f"pairs={pairs}")
    else:
        print(f"isomorphic: {pairs or '(no crossings)'}")
    return 0


def _cmd_eliminate_wens(args) -> int:
    result = eliminate_wens(_load_valid(args.input))
    _emit(format_gauss_file(result.data), args.output)
    if args.output is not None:
        flipped = ",".join(sorted(result.flipped))
        if args.format == "machine":
            print(f"flipped={flipped}")
            print(f"slides={len(result.slides)}")
        else:
            print(f"flipped: {flipped or 'none'} ({len(result.slides)} slides)")
    return 0


def _cmd_invariants(args) -> int:
    data = _load_valid(args.input, _parse_word_or_gauss)
    g = closure(data) if isinstance(data, BraidWord) else data
    mu, crossings = _wen_free_crossings(g)  # shared by both invariants
    _checked(_check_cap, mu)
    signs = _signs_from(mu, crossings)
    linking = _linking_from(mu, crossings)
    if args.format == "machine":
        print(f"components={mu}")
        print(f"loops={g.loops}")
        print(f"crossings={len(g.crossings)}")
        print(f"signs={','.join(str(s) for s in signs)}")
        print(f"linking={';'.join(','.join(str(e) for e in row) for row in linking)}")
    else:
        print(f"components: {mu}")
        print(f"loops: {g.loops}")
        print(f"crossings: {len(g.crossings)}")
        print(f"signs: {' '.join(str(s) for s in signs) or '(none)'}")
        print("linking:")
        for row in linking:
            print("  " + " ".join(f"{e:3d}" for e in row))
    return 0


# A stored search node costs about 10 us and 0.4 KB on words of a few strands,
# so a capped run stays under 1 GB and near half a minute there.  The time
# grows with the degree: on 20,000-strand words a node costs about 7 ms, so a
# capped run there would take hours.
_MAX_SEARCH_BUDGET = 2_000_000


def _cmd_markov(args) -> int:
    a, b = _load(args.a, parse_word_file), _load(args.b, parse_word_file)
    if args.budget > _MAX_SEARCH_BUDGET:
        raise _InputError(f"--budget must be at most {_MAX_SEARCH_BUDGET}")
    _checked(_search_limits, a, b, args.max_degree, args.max_length, args.budget)
    witness, stop, nodes = _search(
        a, b, max_degree=args.max_degree, max_length=args.max_length, budget=args.budget
    )
    machine = args.format == "machine"
    if witness is None:
        print("found=false" if machine else "inconclusive: no witness within the given limits")
    else:
        text = format_witness(witness.moves)
        if args.output is not None:
            _emit(text, args.output)
        if machine:
            print(f"found=true\nmoves={len(witness.moves)}")
            if args.output is None:
                print(f"witness={';'.join(m.token() for m in witness.moves)}")
        elif args.output is not None:
            print(f"found witness of {len(witness.moves)} moves")
        else:
            sys.stdout.write(text)
    if machine:
        print(f"stop={stop}\nnodes={nodes}")
    return 1 if witness is None else 0


def _cmd_replay(args) -> int:
    start = _load(args.word, parse_word_file)
    _, result = _load(args.witness, lambda text: _parse_replay(text, start))
    if args.target is None:
        _emit(format_word_file(result), args.output)
        return 0
    target = _load(args.target, parse_word_file)
    equal = result.strands == target.strands and words_equal(result, target)
    if args.format == "machine":
        print(f"equal={'true' if equal else 'false'}")
        print(f"result={result.tokens()}")
    else:
        print("replay matches target" if equal else "replay does not match target")
    return 0 if equal else 1


# The relation check's cost grows as n**4: seconds at 32 strands, weeks at 1000.
_MAX_RELATION_STRANDS = 32


def _cmd_verify_relations(args) -> int:
    if args.n < 1:
        raise _InputError(f"--n must be at least 1, got {args.n}")
    if args.n > _MAX_RELATION_STRANDS:
        raise _InputError(f"--n must be at most {_MAX_RELATION_STRANDS}")
    checked, failures = verify_relations(args.n)
    if args.format == "machine":
        print(f"checked={checked}")
        print(f"failures={len(failures)}")
    elif not failures:
        print(f"all relation instances verified ({checked} instances, n <= {args.n})")
    else:
        for label in failures:
            print(f"FAILED: {label}")
        print(f"{len(failures)} of {checked} relation instances failed")
    return 1 if failures else 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewb",
        description="Extended welded braids: closures, Gauss data, Markov moves.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, help_text, *, io=False, fmt=True, pair=None):
        p = sub.add_parser(name, help=help_text)
        if io:
            p.add_argument("--input", required=True, help="input file")
            p.add_argument("--output", help="write the produced file here instead of stdout")
        if pair:
            for dest, help_line in pair:
                p.add_argument(dest, help=help_line)
        if fmt:
            p.add_argument(
                "--format", choices=("text", "machine"), default="text",
                help="report style (machine is stable key=value lines)",
            )
        p.set_defaults(func=handler)
        return p

    # The artifact handlers bind their library calls here, when ``main``
    # builds the parser, not at import.
    load_word = functools.partial(_load, parse=parse_word_file)
    load_gauss = functools.partial(_load, parse=parse_gauss_file)
    add("close", _artifact(load_word, closure, format_gauss_file),
        "closure of a braid word as Gauss data", io=True, fmt=False)
    add("braid", _artifact(_load_braidable, braid_from_gauss, format_word_file),
        "braided word whose closure is the given Gauss data", io=True, fmt=False)
    p = add("gauss-validate", _cmd_gauss_validate, "check Gauss data validity")
    p.add_argument("--input", required=True, help="Gauss data file")
    add("eq-word", _cmd_eq_word, "test two words for equality in the group",
        pair=(("a", "word file"), ("b", "word file")))
    add("eq-gauss", _cmd_eq_gauss, "test two Gauss data files for isomorphism",
        pair=(("a", "Gauss data file"), ("b", "Gauss data file")))
    add("signrev-word", _artifact(load_word, sign_reversal_word, format_word_file),
        "sign reversal of a word", io=True, fmt=False)
    add("signrev-gauss", _artifact(load_gauss, sign_reversal, format_gauss_file),
        "sign reversal of Gauss data", io=True, fmt=False)
    add("mirror", _artifact(load_word, mirror_word, format_word_file),
        "mirror image of a word", io=True, fmt=False)
    add("eliminate-wens", _cmd_eliminate_wens, "slide and cancel all wen marks", io=True)
    add("reduce-kinks", _artifact(_load_valid, reduce_kinks, format_gauss_file),
        "remove unbarred kink crossings", io=True, fmt=False)
    p = add("invariants", _cmd_invariants,
            "component count, linking matrix, and the sign profile (not a Markov invariant)")
    p.add_argument("--input", required=True, help="word or Gauss data file")
    p = add("markov", _cmd_markov, "search for a Markov move chain between two words",
            pair=(("a", "word file"), ("b", "word file")))
    p.add_argument("--output", help="write the witness here instead of stdout")
    p.add_argument("--max-degree", type=int, help="cap on strand count during search")
    p.add_argument("--max-length", type=int, help="cap on word length during search")
    p.add_argument("--budget", type=int, default=100_000,
                   help="cap on stored search nodes (default %(default)s)")
    p = add("replay", _cmd_replay, "replay a witness file from a start word",
            pair=(("word", "start word file"), ("witness", "witness file")))
    p.add_argument("--target", help="word file the replay should match")
    p.add_argument("--output", help="write the resulting word here instead of stdout")
    p = add("verify-relations", _cmd_verify_relations, "check every relation instance")
    p.add_argument("--n", type=int, default=6, help="largest strand count to check")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotClosableError as exc:
        print(f"not closable: {exc}", file=sys.stderr)
        return 2
    except (_InputError, ImageCapError) as exc:  # the caps: braid, and the verbs that fold words
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
