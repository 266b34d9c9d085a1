"""Braid words, normal forms, link moves, and diagram templates.

The package models braids on a fixed strand count as signed generator
words, computes Garside left normal forms and a conjugacy verdict,
fingerprints closures by component count and Alexander polynomial,
applies and replays the Markov move vocabulary, expands block-strand
diagram templates, checks foliation census arithmetic, and searches
for complexity-reducing move towers.
"""

from .census import (
    ComplexityTriple,
    ConsistencyReport,
    EdgeCensus,
    VertexCensus,
    edge_vertex_consistency,
    euler_balance_annulus,
    euler_balance_surface,
    minimal_complexity_advisory,
)
from .explorer import (
    SearchConfig,
    SearchOutcome,
    canonical_key,
    proxy_complexity,
    search_reduce,
)
from .garside import (
    ConjugacyReport,
    NormalForm,
    Verdict,
    conjugacy_test,
    is_trivial,
    normal_form,
    normal_form_word,
    words_equal,
)
from .invariants import (
    DivisibilityFailure,
    Fingerprint,
    LaurentPoly,
    alexander,
    burau,
    fingerprint,
    self_linking,
)
from .moves import (
    Conjugate,
    CyclicShift,
    Destabilize,
    Exchange,
    Flype3,
    InvalidSite,
    ReplayReport,
    Stabilize,
    Tower,
    TowerStep,
    apply_move,
    dump_tower,
    extend,
    find_destabilizations,
    find_exchanges,
    flype_admissibility,
    load_tower,
    replay,
    stabilize,
)
from .templates import (
    Assignment,
    Band,
    BlockOnLastStrand,
    BlockRef,
    BlockStrandDiagram,
    CoverageError,
    IndexMismatch,
    Template,
    VerifyReport,
    WeightFlowError,
    band_expand,
    catalog,
    cyclic_tower,
    expand,
    gflype_tower,
    load_template,
    non_carry_certificate,
    sample_assignment,
    sigma_budget,
    verify_template,
)
from .words import (
    BraidWord,
    WordFormatError,
    closure_components,
    concat,
    conjugate,
    cyclic_reduce,
    exponent_sum,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    power,
    rotate,
)

__version__ = "0.1.0"
