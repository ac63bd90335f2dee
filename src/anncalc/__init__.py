"""anncalc: an executable calculus for dense ReLU networks.

Networks are explicit stacks of affine layers; the algebra (composition,
parallelization, sums, identity-mediated concatenation) manipulates them at
the weight level so structural laws hold exactly.  On top sit certified
approximators for squares and products, network representations of
perturbed Euler schemes in space and space-time, and a verification harness
that checks every identity and bound against independent oracles.
"""

from .constructors import (
    ApproxSpec,
    hat_net,
    product_net,
    scalar_vector_product,
    square_refinement_level,
    square_real,
    square_unit,
    tent_f,
    tent_g,
)
from .euler import (
    EulerSpec,
    GrowthBoundInputs,
    euler_nodes,
    euler_oracle,
    euler_space_net,
    gronwall_bound,
    perturbed_iterates,
    product_param_budget,
    residual_chain,
    residual_step,
    scaling_bounds,
    scaling_constant,
    spacetime_net,
    spacetime_param_bound,
    time_hat_nets,
)
from .network import (
    Activation,
    DomainError,
    IDENTITY,
    Layer,
    Network,
    ParseError,
    RELU,
    ShapeError,
    affine,
    deserialize,
    dims,
    forward_states,
    load_network,
    networks_equal,
    param_count,
    realize,
    save_network,
    serialize,
)
from .ops import (
    IdentityEmulator,
    compose,
    concat_identity,
    extend,
    identity_net,
    parallel_equal,
    parallel_general,
    power,
    relu_identity,
    sum_equal,
    sum_general,
)
from .verification import (
    BoundEntry,
    BoundReport,
    SUITES,
    halton,
    run_suite,
    scaling_report,
    sup_error_on_grid,
)

__version__ = "0.1.0"
