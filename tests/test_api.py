"""The public API is part of the compatibility contract: removing or
renaming a name in ``ewb.__all__`` must be a deliberate change here too."""

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
