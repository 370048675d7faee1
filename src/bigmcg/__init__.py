"""Finite computational models for big mapping class groups: an l1 space
of binary sequences with prime-line embeddings, a punctured-strip
permutation group with an exactly-witnessed length function, a graded
GF(2) homology norm, and a classifier for shift maps described by
end-class tables."""

from .qinf import BinarySeq, first_odd_primes, l1_distance, prime_line_embed, zn_embed
from .shark import (
    EndPerm,
    GenWord,
    Nu,
    Shift,
    compose,
    crossing_norm,
    frac_twist,
    identity,
    inverse,
    phi,
    shift_power,
    witness_factorization,
    word_ball,
    word_length_oracle,
    zero_stats,
)
from .gf2hom import GradedAut, graded_shift, homology_norm, minimal_hull
from .endspace import (
    Cardinality,
    EndClass,
    EndClassTable,
    EndRef,
    Genus,
    ShiftDescriptor,
    accumulation_closure,
    classify_shift,
    compile_builtin,
    has_essential_shift,
    validate_table,
)

__version__ = "0.1.0"
