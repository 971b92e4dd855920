"""Rewriting bases for finitely presented free semirings.

Presentations declare generators and monomial relations in either the
commutative or the noncommutative mode; completion turns them into a
canonical reduced rewriting basis when one exists within bounds, and
normal forms then decide the word problem.
"""

from .terms import (Alphabet, CommMonomial, Polynomial, RigMonomial, THETA,
                    Word, lcm_circ)
from .ordering import RigOrder, default_keyword, order_for
from .rewrite import (Context, Occurrence, ReductionError, ReductionTrace,
                      Relation, System, TraceStep, base_monomials_up_to,
                      enum_irr, find_occurrences, first_occurrence,
                      is_irreducible, normal_form, normal_form_monomial,
                      occurs, orient_pair, pattern_occurrences,
                      split_normal_form)
from .composition import (CompositionRecord, KIND_COMM, KIND_INCLUSION,
                          KIND_INTERSECTION, compositions, is_trivial,
                          triviality)
from .completion import (CompletionLimits, CompletionReport, DISTINCT, EQUAL,
                         STATUS_COMPLETE, STATUS_TRUNCATED, UNKNOWN,
                         autoreduce, complete, decide_eq, minimalize,
                         reduce_system, system_from_pairs, verify)
from .frontend import (Presentation, PresentationError, parse_expr,
                       parse_expr_raw, parse_presentation, render_base,
                       render_monomial, render_polynomial,
                       render_presentation, render_relation,
                       render_system_file, render_trace)
from .oracle import (CONGRUENT, ClosureBounds, ClosureStep, NOT_FOUND,
                     closure_class, closure_eq, replay_path)
from .presets import (Preset, blass_family, blass_family_truncation,
                      blass_even_family, blass_even_map, fl_family,
                      intpoly_add, intpoly_mul, nat_congruence_generator,
                      nat_pair_monomials, noetherian_chain_demo,
                      preset, preset_names, sign_encode, sign_encode_check,
                      transport_check, znc_family, znc_shape)

__version__ = "0.1.0"
