"""dreg: exact regularity analyses for differential operators and modules."""

__version__ = "0.1.0"

from .polynomials import INF, MPoly, Rat, RatFun
from .ideals import (BudgetExceeded, Ideal, buchberger, groebner_basis,
                     is_radical_squarefree_monomial, krull_dimension,
                     normal_form, radical_membership)
from .weyl import WeylElement, characteristic_ideal, weyl_groebner, weyl_mul
from .operators import (ThetaOperator, UnivarOperator, chart_infinity,
                        chart_translate, from_theta_form, to_theta_form)
from .regularity import (INFINITY, fuchs_regular_at, newton_polygon,
                         regular_on_projective_line, theta_regular_at_zero)
from .dmod import (CharVariety, ContradictionError, CyclicFiltration,
                   characteristic_variety_univar, check_good_filtration,
                   decompose_symbol_ideal, dimension_report,
                   fuchs_kashiwara_equivalence, kashiwara_regular_at_zero,
                   singular_points, trivial_filtration_annihilator)
from .polelattice import (LogLattice, NCChart, PoleModuleElement,
                          pole_filtration_annihilator, prop21_inclusion,
                          theorem_backward_extraction,
                          theorem_forward_filtration, theta_XZ_ideal)
from .systems import (ConnectionSystem, cyclic_vector, regular_system_report,
                      saturate_lattice)
from .parser import ParseError, format_operator, parse_operator, parse_weyl_generators
