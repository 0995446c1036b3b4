"""dreg: exact regularity analyses for differential operators and modules.

Importing the package loads none of its modules.  A submodule loads the
first time it is read as an attribute (`dreg.regularity`), and the names
re-exported here (`from dreg import MPoly`) load theirs on first use.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "corpus", "dmod", "errors", "ideals", "lattices", "linalg",
               "operators", "parser", "polelattice", "polynomials", "regularity",
               "systems", "weyl")


def __getattr__(name: str):
    """A submodule or re-exported name, loaded on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    exports = _exports()
    if name in exports:
        return exports[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _exports() -> dict:
    """The re-exported names, each the object its defining module holds."""
    from .errors import BudgetExceeded, ContradictionError
    from .polynomials import INF, MPoly, Rat, RatFun
    from .ideals import (Ideal, buchberger, groebner_basis, is_radical_squarefree_monomial,
                         krull_dimension, normal_form, radical_membership)
    from .weyl import WeylElement, characteristic_ideal, weyl_groebner, weyl_mul
    from .operators import (ThetaOperator, UnivarOperator, chart_infinity, from_theta_form,
                            to_theta_form)
    from .regularity import (INFINITY, fuchs_regular_at, newton_polygon,
                             regular_on_projective_line, theta_regular_at_zero)
    from .dmod import (CharVariety, CyclicFiltration, characteristic_variety_univar,
                       decompose_symbol_ideal, dimension_report, fuchs_kashiwara_equivalence,
                       kashiwara_regular_at_zero, singular_points,
                       trivial_filtration_annihilator)
    from .polelattice import (LogLattice, NCChart, pole_filtration_annihilator,
                              prop21_inclusion, theorem_backward_extraction,
                              theorem_forward_filtration, theta_XZ_ideal)
    from .systems import (ConnectionSystem, cyclic_vector, regular_system_report,
                          saturate_lattice)
    from .parser import ParseError, format_operator, parse_operator, parse_weyl_generators
    return locals()
