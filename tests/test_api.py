"""The public API is part of the compatibility contract: removing or
renaming a name in ``ewb.__all__`` must be a deliberate change here too.
Behind it, the package keeps no private helper that nothing uses."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import ewb

PUBLIC_NAMES = [
    "Arc", "BraidWord", "ClosureTrace", "Endpoint", "FormatError",
    "FreeGroupAutomorphism", "FreeWord", "GaussData", "GaussIsomorphism",
    "Letter", "LetterKind", "MOVE_KINDS", "MarkovMove", "MoveWitness",
    "NotClosableError", "StrandPath", "WenElimination", "apply_move",
    "braid_from_gauss", "closable", "closure", "closure_trace", "component_arcs",
    "components", "compose", "destab_applicable", "eliminate_wens",
    "format_gauss_file", "format_witness", "format_word_file", "full_loop_slide",
    "inverse_move", "is_gauss_isomorphism", "linking_invariant", "markov_search",
    "mirror_word", "parse_gauss_file", "parse_witness", "parse_word",
    "parse_word_file", "permutation_cycles", "presentation_relations",
    "reduce_kinks", "replay_witness", "rho", "same_gauss_data", "sigma",
    "sigma_inv", "sign_profile", "sign_reversal", "sign_reversal_word",
    "slide_wen", "tau", "to_automorphism", "underlying_permutation", "validate",
    "verify_relations", "verify_witness", "wen_parity", "wen_row", "word",
    "words_equal",
]


def test_public_names_are_frozen():
    assert sorted(ewb.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ewb.__all__:
        assert getattr(ewb, name) is not None, name


def test_no_dead_private_helpers():
    # Every module-level private name (``_x``, not a dunder) defined in the
    # package must be read somewhere in it: a NAME token beyond its
    # definitions.  Tokens skip comments and docstrings.
    defined, tokens = Counter(), Counter()
    for path in Path(ewb.__file__).parent.glob("*.py"):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update(n for n in names if n.startswith("_") and not n.startswith("__"))
        tokens.update(
            tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NAME
        )
    assert defined
    assert sorted(name for name, k in defined.items() if tokens[name] <= k) == []
