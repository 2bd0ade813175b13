"""Well-orders, finite closures and almost-agreeing omega-orders on ordinals.

Arithmetic and literals cover the ordinals below epsilon_0; towers, families
and omega-orders accept ordinals up to ``tower.CAP`` = w^3 and raise
``CapExceededError`` above it.  The one work bound ``CEILING`` (20,000 blocks
per limit's order, 1,000 at an omega-order whose chain takes a new lam at every
stage, descent steps per enumeration or window draws in a row that add no
member, then ``IterationCeilingError``) sets the real reach: closed sets double
per step of w, so the order at w^3 lists only its first 7 points.
"""

from .errors import (
    CapExceededError,
    DomainError,
    GuardExceededError,
    IterationCeilingError,
    NotALimitError,
    OrdTowerError,
    OrdinalSyntaxError,
)
from .family import (
    Entailment,
    FamilyWindow,
    cofinal_extend,
    entails,
    enumerate_family,
    is_closed,
    ladder,
)
from .omega import (
    AAOrders,
    CanonicalOmega,
    ExceptionCert,
    VerifyResult,
    adjust_one,
)
from .ordinals import (
    ONE,
    W,
    ZERO,
    Ordinal,
    add,
    compare,
    difference,
    enum_below,
    enum_prefix,
    fund_seq,
    ordinal,
    oset,
    parse_ordinal,
)
from .rng import Lcg
from .tower import ListOrder, OmegaOrder, Tower
from .vc import (
    RmkResult,
    RmkValue,
    SetSystemWindow,
    cond4_check,
    hunt_shattered,
    is_shattered,
    rmk_eval,
    sauer_check,
    shatter_certificate,
    trace,
    vc_dim,
)
from .verify import CheckResult, VerifyConfig, run_suites

__all__ = [
    "AAOrders", "CanonicalOmega", "CapExceededError", "CheckResult",
    "DomainError", "Entailment", "ExceptionCert", "FamilyWindow",
    "GuardExceededError", "IterationCeilingError", "Lcg", "ListOrder",
    "NotALimitError", "ONE", "OmegaOrder", "OrdTowerError", "Ordinal",
    "OrdinalSyntaxError", "RmkResult", "RmkValue", "SetSystemWindow", "Tower",
    "VerifyConfig", "VerifyResult", "W", "ZERO", "add", "adjust_one",
    "cofinal_extend", "compare", "cond4_check", "difference", "entails",
    "enum_below", "enum_prefix", "enumerate_family", "fund_seq",
    "hunt_shattered", "is_closed", "is_shattered", "ladder", "ordinal", "oset",
    "parse_ordinal", "rmk_eval", "run_suites", "sauer_check",
    "shatter_certificate", "trace", "vc_dim",
]
