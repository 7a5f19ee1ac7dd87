"""ghn: exact arithmetic for generalized harmonic numbers and their identities.

Everything is computed over arbitrary-precision rationals; the verifier
submodule grades every catalogued identity against brute-force oracles.
"""

from .exact import Rat, binom_int, binom_rat, hockey_stick_sum
from .errors import (
    CompositionDomainError,
    DomainError,
    OutOfValidityRangeError,
    SeqSpecError,
)
from .sequences import (
    SeqSpec,
    bernoulli,
    fibonacci,
    harmonic,
    harmonic_p,
    laguerre,
    lucas,
    materialize,
    parse_seq_spec,
    seq_spec_text,
    skew_harmonic,
    stirling2,
)
from .polyseries import PolyQ, TruncSeries, geometric, harmonic_poly, log_one_minus
from .transforms import (
    binomial_transform,
    inverse_binomial_transform,
    sanchez_transform,
    sanchez_weight,
    weighted_nabla,
)
from .closed_forms import (
    as_np_closed,
    as_p1_closed,
    as_zneg1_alpha1_closed,
    boyadzhiev_ratio_closed,
    concl_item3_lhs,
    concl_item3_rhs,
    concl_item4_lhs,
    concl_item4_rhs,
    generalized_harmonic_relation,
    gould_generalized_rhs,
    idi1_rhs,
    knuth_flajolet_rhs,
    lemma21_lhs,
    lemma21_rhs,
    pan_closed_form,
    thm33_rhs,
)
from .verifier import (
    IdentityEntry,
    VerdictReport,
    certify_alpha_identity,
    run_entry,
    run_suite,
)
from .registry import build_registry

__version__ = "0.1.0"
