"""Exact stabilizer-class counts for the affine maps x -> a*x + b on F_q,
with independent brute-force/lattice verification and construction of the
orbit block designs and Johnson-optimal binary constant-weight codes.
"""

from .numtheory import BudgetExceededError, mult_order, prime_set
from .counting import ClassParams, StabilizerClass, classes, count_N, s_qk
from .ffield import Field, Subspace, span, subset_mask
from .agl import Subgroup, class_representative
from .oracle import (count_N_bruteforce, count_N_via_lattice, lattice_terms,
                     stabilizer)
from .designs import (CodeParams, DesignParams, IncidenceMatrix,
                      a2_determinations, design_to_code, johnson_check,
                      johnson_fraction, orbit_design)

__version__ = "0.1.0"
