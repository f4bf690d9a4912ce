"""pooltest: randomized non-adaptive group testing.

Design random pool matrices (independent-cell or constant-weight rows),
compute the closed-form test counts for the disjunct / separable /
semidisjunct properties, decode defective sets in time linear in the
matrix bit-size, verify properties exhaustively within a subset budget,
and measure end-to-end success rates with a seeded Monte Carlo harness.
"""

from .core import (
    BudgetExceededError,
    DesignSpec,
    InputError,
    ParseError,
    PoolTestError,
    TestMatrix,
    answer_vector,
    dumps_gtm1,
    parse_gtm1,
    read_gtm1,
    write_gtm1,
)
from .decode import (
    AMBIGUOUS,
    DECODED,
    NO_CONSISTENT_SET,
    DecodeOutcome,
    decode_disjunct,
    decode_semidisjunct,
    decode_separable_bruteforce,
    eliminate,
)
from .design import (
    CoefficientRow,
    coefficient_table,
    disjunct_coefficient,
    disjunct_test_count,
    make_design,
    optimal_zero_prob,
    semidisjunct_coefficient,
    semidisjunct_test_count,
    separable_test_count,
)
from .randgen import gen_rid, gen_rrsd
from .simulate import SimulationReport, TrialConfig, estimate_property_rate, run_trials
from .verify import (
    PropertyReport,
    check_property,
    is_disjunct,
    is_separable,
    non_disjunct_items,
)

__version__ = "0.1.0"
