"""Decay-rate analysis and simulation for the single-server queue.

Analytic large-deviations rates for workload, busy period, low-priority
waiting/sojourn, and shortest-remaining-processing-time sojourn tails,
cross-validated by a built-in multi-discipline event simulator with tail
fitting and importance sampling.
"""

from .dist import (
    ConditionedBelow,
    Deterministic,
    Erlang,
    Exponential,
    FiniteMixture,
    UniformInterval,
    sample_array,
    stream,
)
from .ratecalc import (
    QueueModel,
    Split,
    decay_report,
    gamma_p,
    gamma_p_trunc,
    gamma_v_srpt,
    gamma_w,
    gamma_w2,
    heavy_traffic,
    y_star,
)
from .simqueue import (
    Discipline,
    run,
)
from .tailest import (
    fit_decay,
    is_workload_tail,
)

__version__ = "0.1.0"
