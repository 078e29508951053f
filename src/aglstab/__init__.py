"""Exact stabilizer-class counts for the affine maps x -> a*x + b on F_q,
with independent brute-force/lattice verification and construction of the
orbit block designs and Johnson-optimal binary constant-weight codes.
"""

from .counting import (BudgetExceededError, ClassParams, StabilizerClass,
                       build_table, class_shapes, classes, count_N,
                       enumerate_params, mult_order, prime_set, s_qk)
from .ffield import Field, Subspace, lines_of_quotient, span, subset_mask
from .agl import (Subgroup, class_representative, immediate_supergroups,
                  join, join_pair)
from .oracle import (count_N_bruteforce, count_N_via_lattice, lattice_terms,
                     stabilizer)
from .designs import (CodeParams, DesignParams, IncidenceMatrix,
                      a2_determinations, design_to_code, johnson_check,
                      orbit_design)

__version__ = "0.1.0"
