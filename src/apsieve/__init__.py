"""apsieve: a deterministic arithmetic sieve for mod-p H-space types.

Exact p-adic valuation arithmetic, a divisibility sieve on windowed
truncated-polynomial degree modules, an odd-prime reduced-power calculus,
and the constraint pipeline that reproduces the rank-3 mod-3 candidate
lists and their final partition.
"""

from .padic import (
    INFINITE,
    PrimeContext,
    Valuation,
    digit_sum,
    nu,
    primitive_root_mod_p2,
    val,
    val_factorial,
)
from .psimod import (
    ConditionReport,
    PsiCertificate,
    PsiModule,
    SpaceType,
    condition_report,
    eliminate_by_psi,
    enumerate_classes,
    gcd_oracle,
    main_lemma_sums,
    theorem_1_1_test,
)
from .steenrod import (
    PowerWord,
    adem_expand,
    binom_mod_p,
    degree_realizable,
    format_expansion,
    normalize,
    verify_relation_42,
    verify_relation_43,
)
from .classifier import (
    CaseTag,
    Verdict,
    VerdictKind,
    case_split,
    check_type,
    classify_theorem_1_2,
    endgame_rules,
    hemmi_forced,
    lemma_4_3,
    proposition_lists,
    quasi_regular,
    top_operation_lemma,
    wilkerson_filter_1,
    wilkerson_filter_2,
)
from .finiteness import FinitenessBound, monomial_count, rank_bound

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "INFINITE",
    "PrimeContext",
    "Valuation",
    "digit_sum",
    "nu",
    "primitive_root_mod_p2",
    "val",
    "val_factorial",
    "ConditionReport",
    "PsiCertificate",
    "PsiModule",
    "SpaceType",
    "condition_report",
    "eliminate_by_psi",
    "enumerate_classes",
    "gcd_oracle",
    "main_lemma_sums",
    "theorem_1_1_test",
    "PowerWord",
    "adem_expand",
    "binom_mod_p",
    "degree_realizable",
    "format_expansion",
    "normalize",
    "verify_relation_42",
    "verify_relation_43",
    "CaseTag",
    "Verdict",
    "VerdictKind",
    "case_split",
    "check_type",
    "classify_theorem_1_2",
    "endgame_rules",
    "hemmi_forced",
    "lemma_4_3",
    "proposition_lists",
    "quasi_regular",
    "top_operation_lemma",
    "wilkerson_filter_1",
    "wilkerson_filter_2",
    "FinitenessBound",
    "monomial_count",
    "rank_bound",
]
