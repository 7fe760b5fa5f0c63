"""Capacitated d-hitting set: exact solver, 4/3-approximation, reductions."""

from .approx import (
    ENUMERATE,
    GUIDED,
    AnnotatedTuple,
    ExtendedResult,
    Search,
    SolverConfig,
    bucket_values_upto,
    candidate_set,
    ceil43,
    enumerate_tuples,
    expand_multiplicities,
    good_tuple_from_opt,
    info_tuple,
    solve_annotated,
    solve_approx,
    solve_extended,
)
from .colorweights import default_trials, random_colorings, weight_estimates
from .core import (
    UNBOUNDED,
    Assignment,
    Element,
    Instance,
    Result,
    Solution,
    equivalence_classes,
    generate_instance,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    stars,
)
from .domset import BipartiteGraph, min_dominator_forced
from .exact import solve_exact, solve_exact_weighted
from .feasibility import assignment_ok, build_network, check_feasible
from .independence import IndependenceContext, find_independent_set, is_conflicting
from .reductions import (
    Constraint,
    CspInstance,
    MdkInstance,
    build_covering_family,
    csp_to_mdk,
    csp_to_mdk_covering,
    is_three_regular,
    mdk_to_cvc,
    mdk_to_wcvc,
    parse_csp,
    parse_mdk,
    serialize_csp,
    serialize_mdk,
    solve_mdk_exact,
    verify_covering_family,
)

__version__ = "0.1.0"
