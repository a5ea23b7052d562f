"""Exact rational arithmetic statistics of finite sets.

Sumsets, product/quotient sets, additive and multiplicative energies,
fiber spectra, solution and collinear-triple counting, an inequality
registry with exact pass/fail and tightness ratios, and extremal search
over structured families.  No floating point anywhere in a counting path.
"""

from .counting import (
    ClusterReport,
    ErChain,
    SigmaResult,
    collinear_triples,
    collinear_triples_brute,
    er_chain,
    sigma_count,
    sigma_max,
    solymosi_cluster_report,
)
from .exactset import (
    DomainError,
    FiniteSet,
    ParseError,
    ResourceError,
    Scalar,
    as_scalar,
    dilate,
    format_scalar,
    load_set_file,
    parse_scalar,
    parse_set_text,
)
from .explore import (
    ExtremalRecord,
    GeneratorSpec,
    corpus_load,
    corpus_store,
    generate,
    mutate,
    search_extremal,
)
from .stats import (
    DoublingProfile,
    SpectrumSlice,
    d_exhaustive,
    d_upper,
    differenceset,
    dyadic_slices,
    energy,
    energy_by_quadruples,
    lambda_set,
    pair_counts,
    productset,
    quotientset,
    rep_counts,
    spectrum,
    sumset,
)
from .verify import (
    InequalityReport,
    SmallLReport,
    SolPlusTrace,
    bsg_subset_oracle,
    evaluate,
    katz_koester_check,
    report_json,
    smallL_construction,
    solplus_trace,
    verify_suite,
)

__version__ = "0.1.0"
