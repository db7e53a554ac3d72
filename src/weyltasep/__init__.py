"""Exact multispecies exclusion processes on classical Weyl groups.

The package computes stationary laws of the multispecies, two-species and
starred exclusion processes attached to the families B, C (and their duals)
and D, the two-row lattice model with its product-form stationary law, the
closed-form partition functions and boundary correlations, and the limiting
directions of reduced alcove walks, each quantity exactly over the
rationals and checked along at least two independent routes.
"""

__version__ = "0.1.0"

from .closedform import (
    ballot,
    b_first_site,
    b_pair_table,
    catalan,
    ccheck_last_density,
    conjecture_b_value,
    d_pair_table,
    DirectionVector,
    limdir_closed,
    limdir_exact_lam,
    m_poly,
    multi_sums,
    semiperm_density,
    v_poly,
    z_b,
    z_d,
    z_semiperm,
)
from .lumping import cut_coloring, project_distribution, star_lift, verify_lumping
from .markov import (
    closed_class,
    Dist,
    exact_stationary,
    Kernel,
)
from .models import (
    build_cut_chain,
    build_dstar,
    build_multi,
    build_semipermeable,
    cut_states,
    DStarParams,
    dstar_states,
    STAR,
)
from .ratio import fmt_ratio, parse_ratio, R
from .tworow import (
    count_segment,
    enumerate_configs,
    label_counts,
    q_weight,
    tstar_bar,
)
from .walk import (
    estimate_direction,
    fundamental_point,
    run_walk,
    separation_count,
)
from .weyl import (
    inverse_act_theta,
    kac_weights,
    reflect,
    root_data,
    theta_raises,
    WeylKind,
)

__all__ = [name for name in dir() if not name.startswith("_")]
