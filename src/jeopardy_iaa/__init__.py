"""Front end and available-implicit-arguments analyzer for Jeopardy.

Pipeline: ``parse`` -> ``validate`` -> ``desugar_program`` ->
``annotate`` -> ``configurations`` / ``symmetry_hints`` / ``run_main``.
Every other name is imported from its module.
"""

from .analysis import configurations, symmetry_hints
from .desugar import desugar_program
from .evaluator import run_main
from .labeler import annotate, labels_of
from .parser import parse, parse_value
from .printer import pretty_program
from .syntax import validate

__version__ = "0.1.0"
