"""Total- and direct-correlation measures for three-variable categorical data.

The joint distribution p(x, y, z) is the universal input.  The measure
family splits in two: removal-based measures compare the joint with a
reconstruction that has the direct X-Y link severed (CMI, PMI, ICMI and
their root-JS regularized analogues), while do-calculus measures compare
the intervened distributions p(y | do(x)) across values of x (ACE, NACE,
RACE, do-based mutual information).  Each measure's public function
lives in ``registry`` next to its id and equals ``evaluate`` for that id.
Achievable upper bounds, sparse-cell strategies, toy models, benchmark
datasets and bootstrap confidence intervals round out the toolkit; the
``directcorr`` CLI fronts all of it.
"""

from .bounds import (
    BOUND_MEASURES,
    BoundReport,
    CouplingIterator,
    achievable_bound,
    achievable_bounds,
    rmi_max_uniform,
)
from .datasets import (
    DatasetSchema,
    builtin_berkeley,
    builtin_titanic,
    load_csv,
    load_schema,
)
from .errors import DirectCorrError
from .models import (
    DecisionParams,
    SimpleParams,
    decision_model_joint,
    fig5_corpus,
    simple_model_joint,
)
from .prob import (
    Alphabet,
    Joint3,
    ObservationTable,
    entropy,
    from_counts,
    js_divergence,
    kl_divergence,
    sqrt_js,
    total_variation,
)
from .registry import (
    MEASURES,
    TABLE_MEASURES,
    DoConditional,
    NumericEncoding,
    ace,
    ace_kl,
    cmi,
    cmi_js,
    do_conditional,
    do_joint,
    evaluate,
    icmi_oneway,
    mi_do,
    mutual_information,
    nace,
    normalized_mi,
    partial_correlation,
    pcc,
    pmi,
    race,
    rcmi,
    regularized_mi,
    ricmi,
    rmi_do,
    rpmi,
)
from .resampling import CiReport, bootstrap_ci, bootstrap_cis
from .sparse import DEFAULT_STRATEGY, SparseStrategy

__version__ = "0.1.0"
