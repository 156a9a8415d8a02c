"""Front end and available-implicit-arguments analyzer for Jeopardy.

Pipeline: ``parse`` -> ``validate`` -> ``desugar_program`` ->
``annotate`` -> ``configurations`` / ``symmetry_hints`` / ``run_main``.
"""

from .analysis import (
    CallConfiguration,
    Direction,
    Hint,
    UndefinedCalleeError,
    call,
    compare_configurations,
    configurations,
    direction_of,
    join_configurations,
    meet_configurations,
    opposite,
    seed_configurations,
    symmetry_hints,
    term_down,
    term_up,
)
from .desugar import DesugarError, desugar_constructor_term, desugar_program
from .evaluator import CallEvent, EvalError, eval_term, match_pattern, run_main
from .labeler import (
    LabeledProgram,
    LabelInfo,
    annotate,
    body_root_label,
    labels_of,
)
from .parser import ParseError, parse, parse_value
from .printer import (
    pretty_funref,
    pretty_pattern,
    pretty_program,
    pretty_term,
    pretty_value,
)
from .syntax import (
    Apply,
    Case,
    Con,
    ConApp,
    ConsTerm,
    DataDef,
    Diagnostic,
    Direct,
    FunDef,
    GeneralApply,
    INPUT,
    Inverted,
    Label,
    LetTerm,
    OUTPUT,
    Pattern,
    PatternTerm,
    Program,
    Span,
    TOP,
    Term,
    TupleTerm,
    Value,
    Var,
    flip,
    invert_depth,
    underlying_name,
    validate,
)

__version__ = "0.1.0"
