"""Exact symbolic computation in the Cuntz algebra O_N.

The package works entirely over Q(sqrt 2), with no floating point:
polynomials in the generating isometries and their adjoints, permutative
endomorphisms, branching laws of permutative representations, the
gauge-invariant (UHF) subalgebra, and the fermion algebra embedded in
O_2.
"""

from .scalars import Scalar, ZERO, ONE, MINUS_ONE, SQRT2, INV_SQRT2
from .words import (CycleClass, EvWord, canonical_cycle, make_ev_word,
                    minimal_rotation, parse_ev_word, parse_word,
                    render_word, rotations)
from .algebra import CuntzPoly
from .morphisms import (Morphism, PermEndo, compose, flip, gauge_flip,
                        hadamard, identity, lookup_morphism, nakanishi,
                        perm_from_cycles, rotation, standard_endo,
                        total_gauge_flip, zeta)
from .reps import (BranchResult, ChainRep, Component, CycleRep, UhfCycle,
                   branch, branching, decompose_power, gp_branch, parse_rep,
                   uhf_branch)
from .fermions import (CarExpr, car_generator, fermion_branch, mixture,
                       psi_map, vacuum_check, verify_car)
from .classify import (commutant_witness, fingerprint, theorem14_counts,
                       uhf_restriction_equal)

__version__ = "0.1.0"
