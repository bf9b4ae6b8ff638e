"""Finite posets with antitone involution and their residuated extensions."""

from .classify import (
    BooleanAlgebra,
    KleeneVerdict,
    check_pseudo_kleene,
    is_distributive,
    recognize_boolean,
)
from .constructions import (
    ExtensionMode,
    ExtensionResult,
    boolean_residuation,
    chain_residuation,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    structural_equal,
)
from .errors import StructureError
from .involution import (
    Involution,
    InvolutedPoset,
    check_antitone_involution,
    enumerate_antitone_involutions,
    involuted,
    involution_from_mapping,
)
from .miner import MinerOutcome, find_residuations, find_residuations_naive
from .order import (
    Poset,
    chain_poset,
    poset_from_covers,
    poset_from_relation,
)
from .render import export_dot, render_tables
from .report import Check, VerificationReport
from .residuation import (
    ResiduatedStructure,
    check_integrality,
    check_lemma1,
    derived_negation,
    replay_check,
    residual_of,
    structure_from_tables,
    verify_residuated,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanAlgebra", "KleeneVerdict", "check_pseudo_kleene", "is_distributive",
    "recognize_boolean", "ExtensionMode", "ExtensionResult", "boolean_residuation",
    "chain_residuation", "extend_boolean_theorem5", "extend_theorem1", "extend_theorem2",
    "extend_theorem3", "structural_equal", "StructureError", "Involution", "InvolutedPoset",
    "check_antitone_involution", "enumerate_antitone_involutions", "involuted",
    "involution_from_mapping", "MinerOutcome", "find_residuations", "find_residuations_naive",
    "Poset", "chain_poset", "poset_from_covers", "poset_from_relation", "export_dot",
    "render_tables", "Check", "VerificationReport", "ResiduatedStructure", "check_integrality",
    "check_lemma1", "derived_negation", "replay_check", "residual_of", "structure_from_tables",
    "verify_residuated",
]
