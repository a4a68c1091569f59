"""Binary shadow codes and their verification toolkit."""

__version__ = "0.1.0"

from .binary import (
    BinaryCode,
    exact_min_distance,
    gf2_rank,
    random_linear_code,
    sampled_min_distance_upper,
    weight_distribution,
)
from .bounds import (
    CubicRecord,
    deltacon,
    dg_params,
    fig1_rows,
    fig3_rows,
    fig4_rows,
    gv_min_distance,
    k0,
    s_cubic,
    shadow_lb_deg1,
    shadow_lb_deg2,
)
from .concat import (
    ConcatSpec,
    concat_generator,
    concat_params,
    concat_spec,
    rm1_encode,
    theta_table,
)
from .field import Field, field_create, field_from_json, field_of_order, find_odd_prime_power
from .poly import (
    Poly,
    enumerate_monic_irreducibles,
    is_irreducible,
    poly_from_text,
    poly_to_text,
)
from .shadow import (
    BasicSet,
    EvaluationSet,
    ShadowCode,
    Surd,
    basic_set,
    build_B1,
    build_B2,
    construct,
    construct_deg1,
    construct_deg1_nk,
    construct_deg2,
    delta,
    distance_lower_bound,
    evaluation_set,
    from_descriptor,
    full_evaluation_set,
    lambda_map,
    to_descriptor,
)
from .weil import (
    CurveSpec,
    count_zeros,
    curve_spec,
    random_curve_spec,
)
