"""Finite-model-theory toolkit: IFP with log-bounded second-order
quantifiers, structure/relation encodings, interpretations, and pebble
games with relation moves."""

from .core import (
    Signature,
    StringStructure,
    Structure,
    ceil_log,
    from_text,
    isomorphic,
    log_pow,
    mention_set,
    render,
)
from .encode import (
    concat_hash,
    dec_structure,
    enc_element,
    enc_structure,
    j_encode,
    j_preimage,
    to_string_structure,
)
from .evaluate import (
    enumerate_bounded_relations,
    evaluate,
    evaluate_via_bitstrings,
    gc_check,
    ifp_fixpoint,
)
from .formula import Metrics, metrics, parse_formula, pretty, validate
from .game import (
    ExpandedStructure,
    GameParams,
    Winner,
    equivalence_sampler,
    even_instance,
    game_winner,
    is_partial_isomorphism,
    pebble_game_winner,
    verify_fresh_strategy,
)
from .interp import (
    Interpretation,
    apply_interpretation,
    build_J_reduction,
    transform_formula,
)

__all__ = [name for name in dir() if not name.startswith("_")]
