"""Decay-rate analysis and simulation for the single-server queue.

Analytic large-deviations rates for workload, busy period, low-priority
waiting/sojourn, and shortest-remaining-processing-time sojourn tails,
cross-validated by a built-in multi-discipline event simulator with tail
fitting and importance sampling.
"""

from .dist import (
    ConditionedBelow,
    Deterministic,
    DistributionSpec,
    Erlang,
    Exponential,
    FiniteMixture,
    OutOfDomainError,
    OutOfRangeError,
    UniformInterval,
    atom_at,
    cdf,
    ess_inf,
    ess_sup,
    from_json,
    inverse_mgf_neg,
    mgf,
    mgf_abscissa,
    mgf_deriv,
    moments,
    prob_below,
    sample_array,
    split_endpoint_atom,
    stream,
    to_json,
    truncate_below,
)
from .ratecalc import (
    CriticalTruncation,
    DecayReport,
    HeavyTrafficApprox,
    NoDelaysError,
    NumericalFailure,
    PoissonRates,
    PriorityDecay,
    QueueModel,
    Split,
    SrptDecay,
    UnstableError,
    decay_report,
    gamma_p,
    gamma_p_detail,
    gamma_p_trunc,
    gamma_v_srpt,
    gamma_w,
    gamma_w_detail,
    gamma_w2,
    heavy_traffic,
    model_from_json,
    model_to_json,
    poisson_rates,
    psi,
    psi1,
    y_star,
)
from .simqueue import (
    Discipline,
    SimOutput,
    busy_to_csv,
    empirical_psi,
    lindley_workload,
    run,
    service_bins,
)
from .tailest import (
    DegenerateTailError,
    RateComparison,
    TailFit,
    TiltUnavailableError,
    TiltedMeasure,
    compare_rates,
    fit_decay,
    fits_agree,
    is_workload_tail,
    tilt_measure,
)
from .validate import CRITERIA, CriterionResult, run_all, run_criterion

__version__ = "0.1.0"
