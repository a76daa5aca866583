"""coxrep: exact computations with Coxeter quivers.

Fusion-ring arithmetic, unfolding to classical quivers, Coxeter-Dynkin
classification, root systems over fusion rings, reflection functors and the
enumeration of indecomposable representations.  Every value is immutable
and pickles, copies and deep-copies, so it can be sent to worker processes.
"""

from .fusion import (
    FusionElem,
    MismatchedLabelSets,
    SimpleObject,
    chebyshev,
    fusion_mul,
    irr_enumerate,
    is_positive_elem,
    pf_eval,
    tlj_simples,
    tlj_tensor,
)
from .linalg import Mat, NoSolution, cokernel_projection, kernel_basis, rank, solve_all
from .path_algebra import PathGrade, enumerate_paths, grade_class, path_algebra_class
from .quiver import (
    Arrow,
    CoxeterQuiver,
    CyclicQuiver,
    DynkinType,
    InvalidLabel,
    LoopArrow,
    QuiverParseError,
    UnknownVertex,
    admissible_sink_ordering,
    classify_graph,
    is_finite_type,
    parse_quiver,
    reverse_at,
    validate,
)
from .reps import (
    NotAnExtendedRoot,
    NotASink,
    NotASource,
    NotFiniteType,
    SplittingFailed,
    UnfoldedRep,
    apply_reflection_word,
    decompose,
    dim_vector,
    direct_sum,
    end_dim,
    endomorphism_basis,
    enumerate_indecomposables,
    hom_dim,
    indecomposable_for,
    reflect_minus,
    reflect_plus,
    simple_rep,
    zero_rep,
)
from .rootsys import (
    CapExceeded,
    InvalidOrdering,
    MismatchedQuiver,
    OrbitBudgetExceeded,
    RootSet,
    RootVector,
    bilinear_form,
    coxeter_apply,
    coxeter_order,
    depositivize_exponent,
    extended_positive_roots,
    is_positive_vec,
    positive_roots,
    reflect,
    root_orbit,
)
from .unfold import UnfoldedQuiver, fold_dim, unfold, unfolded_arrow_count

__version__ = "0.1.0"
