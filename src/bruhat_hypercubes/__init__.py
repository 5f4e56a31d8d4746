"""Exact computations on Bruhat intervals of the symmetric group:
Kazhdan-Lusztig R-, P- and R-tilde-polynomials, reflection orders,
strong hypercube decompositions, and the H-tilde polynomial."""

from .errors import (
    ClusterError,
    EmptyIntervalError,
    InvariantViolation,
)
from .hypercubes import (
    HypercubeCluster,
    HypercubeDecomposition,
    build_cluster,
    check_strong_hcd,
    coset_ideal_form,
    diamond_closure,
    enumerate_diamonds,
    first_disagreement,
    htilde,
    is_diamond_closed,
    is_simple,
    special_matchings,
    standard_hcd,
)
from .intervals import (
    AbstractPoset,
    BruhatInterval,
    atoms,
    bruhat_order,
    build_interval,
    interval_to_json,
    poset_isomorphic,
)
from .perms import (
    Perm,
    Reflection,
    Root,
    bruhat_leq,
    compose,
    descents,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
    parse_perm,
    reflections,
    root_of,
)
from .polynomials import (
    QPoly,
    compare_coefficientwise,
    format_qpoly,
    kl_poly,
    r_poly,
    rtilde_from_r,
)
from .reflection_orders import (
    EFlags,
    ReflectionOrder,
    check_E_properties,
    construct_order,
    lex_order,
    make_order,
    reverse_order,
    rtilde_by_paths,
    standard_E_order,
    validate_reflection_order,
)

__version__ = "0.1.0"
