"""Learn feedback controls for stochastic differential equations by direct
gradient descent on path-wise cost gradients.

The package integrates controlled Ito/Stratonovich SDEs with Euler and
Milstein schemes, computes exact gradients of the discretized cost through
forward sensitivity and backward adjoint sweeps, and trains small feedback
networks with SGD or Adam.  A finite-horizon portfolio problem with
proportional transaction costs ships as the reference experiment.
"""

from .errors import (
    BatchFailureError,
    CapacityError,
    ConfigurationError,
    DivergenceError,
    SdeControlError,
    UnsupportedSchemeError,
)
from .wiener import (
    TimeGrid,
    WienerPath,
    generate_path,
)
from .sdecore import (
    Calculus,
    ControlledSystem,
    Trajectory,
    convert_calculus,
    integrate,
)
from .policy import Activation, MlpPolicy, init_params, load_policy, save_policy
from .sensitivity import (
    CostFunctional,
    GradientReport,
    adjoint_gradient,
    eval_cost,
    finite_difference_gradient,
    forward_sensitivity,
    gradient_agreement,
)
from .optim import (
    OptimizerState,
    TrainConfig,
    TrainLog,
    adam_update,
    batch_gradient,
    evaluation_seed,
    path_seed,
    sgd_update,
    train,
)
from .portfolio import (
    MarketParams,
    build_cost,
    build_system,
    evaluate_policy,
    policy_grid,
    run_experiment,
)

__version__ = "0.1.0"
