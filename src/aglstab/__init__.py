"""Exact stabilizer-class counts for the affine maps x -> a*x + b on F_q,
with independent brute-force/lattice verification and construction of the
orbit block designs and Johnson-optimal binary constant-weight codes.
"""

from .counting import (ClassParams, build_table, class_shapes, class_terms,
                       count_N, enumerate_params, moebius_exponent,
                       mult_order, prime_set, q_binomial, s_qk)
from .ffield import (Field, QuotientSpace, Subfield, Subspace,
                     lines_of_quotient, span, subfield_stabilizer)
from .agl import (Subgroup, class_representative, full_group,
                  immediate_supergroups, join, join_pair, trivial_subgroup)
from .oracle import (BudgetExceededError, all_subgroups, count_N_bruteforce,
                     count_N_via_lattice, full_census, lattice_terms,
                     stabilizer, subset_mask)
from .designs import (CodeParams, DesignParams, IncidenceMatrix,
                      a2_determinations, design_to_code, johnson_check,
                      orbit_design)

__version__ = "0.1.0"
