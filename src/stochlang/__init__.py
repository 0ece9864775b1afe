"""Exact-rational multiplicity automata toolkit.

Weighted automata over arbitrary-precision rationals, with exact decision
procedures: series evaluation, equivalence with counterexamples, state
elimination and series rank, convergence of series sums, residual automata,
probabilistic classification and deterministic or residual normal forms.
"""

from .analysis import (SumOutcome, prefix_weight, residual_automaton,
                       state_sums, total_sum)
from .automata import (LinearRepresentation, MultiplicityAutomaton, Word,
                       empty_automaton, format_word, from_linear_representation,
                       is_trimmed, parse_word, rep_from_generator_relations,
                       state_series_automaton, weighted_sum, words_up_to)
from .classify import (ClassReport, Dfa, PraVerdict, StochasticityReport,
                       check_stochastic_bounded, classify, is_pa, is_pda,
                       is_pra_reduced, is_semi_pa, pra_hardness_instance)
from .constructions import (ConstructionError, DeterminizationOutcome,
                            determinize_to_pda, minimal_residual_generators,
                            synthesize_pa, to_prefixial_pra)
from .documents import (DocumentError, parse_automaton, parse_dfa,
                        serialize_automaton, serialize_dfa)
from .equivalence import (CombinationOutcome, EquivalenceOutcome,
                          are_equivalent, express_combination)
from .linalg import (Constraint, Matrix, SpanBasis, Vector, lp_feasible,
                     is_positive_definite, rref, solve_affine,
                     spectral_radius_lt_one)
from .reduction import (ReductionMode, ReductionStallError, hankel_rank,
                        is_reduced, reduce)
from . import fixtures

__all__ = [
    "ClassReport", "CombinationOutcome", "Constraint", "ConstructionError",
    "DeterminizationOutcome",
    "Dfa", "DocumentError", "EquivalenceOutcome", "LinearRepresentation",
    "Matrix", "MultiplicityAutomaton", "PraVerdict", "ReductionMode",
    "ReductionStallError", "SpanBasis", "StochasticityReport", "SumOutcome",
    "Vector", "Word", "are_equivalent", "check_stochastic_bounded", "classify",
    "determinize_to_pda", "empty_automaton", "express_combination", "fixtures",
    "format_word", "from_linear_representation", "hankel_rank",
    "is_pa", "is_pda", "is_positive_definite", "is_pra_reduced", "is_reduced",
    "is_semi_pa", "is_trimmed", "lp_feasible",
    "minimal_residual_generators", "parse_automaton", "parse_dfa", "parse_word",
    "pra_hardness_instance", "prefix_weight", "reduce",
    "rep_from_generator_relations", "residual_automaton", "rref",
    "serialize_automaton", "serialize_dfa", "solve_affine",
    "spectral_radius_lt_one", "state_series_automaton", "state_sums",
    "synthesize_pa", "to_prefixial_pra", "total_sum", "weighted_sum",
    "words_up_to",
]
