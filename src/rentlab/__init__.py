"""rentlab: an exact-arithmetic lab for online server rental.

Jobs of fractional size arrive over time and must be packed, online, onto
capacity-1 servers that are paid for from their first start to their last
finish.  The package provides the NextFit and FirstFit policies with full
decision traces, a brute-force optimum for small instances, adversarial and
random instance families, and the weight/layer accounting used to certify
competitive-ratio bounds.  Every value at the API is a
``fractions.Fraction``; the work inside runs on each instance's integer
lattice.
"""

from .algorithms import (
    AlgorithmTrace,
    Decision,
    ServerTypePartition,
    first_fit,
    next_fit,
    server_type_partition,
)
from .analysis import (
    IGNORED_BUDGET,
    LayerProfile,
    MultiplierSequences,
    RatioReport,
    ServerType,
    ServerTypeInfo,
    UtilRatioBound,
    WeightReport,
    check_layer_inequalities,
    classify_servers,
    find_uniform_two_arrival,
    layer_profile,
    multiplier_sequences,
    ratio_report,
    util_ratio_bound,
    verify_weights,
    weight_w1,
    weight_w2,
)
from .generators import (
    ggu_extended,
    long_uniform,
    nf_nemesis,
    random_equal_duration,
    random_two_arrival,
)
from .model import (
    InfeasibleScheduleError,
    Instance,
    Job,
    Schedule,
    Server,
    Violation,
    active_count,
    active_count_integral,
    active_count_profile,
    arrival_mass,
    arrival_mass_at,
    as_rational,
    check_schedule,
    cost,
    event_times,
    format_instance,
    format_rational,
    load,
    make_instance,
    make_schedule,
    mu,
    parse_instance,
    parse_rational,
    read_instance,
    read_schedule,
    require_valid,
    scale_time,
    schedule_from_dict,
    schedule_to_dict,
    span,
    utilization,
    validate,
    write_instance,
    write_schedule,
)
from .optimal import (
    OptResult,
    active_ceil_bound,
    arrival_ceiling_profile,
    brute_force_opt,
    interval_floor,
    lower_bounds,
    verify_certificate,
)

__version__ = "0.1.0"
