"""Workbench for layered recession frames, their exact symbolic complex
algebras, term/formula evaluation, claim audits, and small relation-type
algebra searches."""

from .sparam import SParameter, parse_sparam, default_family, odds_without
from .frames import (
    VertexId,
    TruncationSpec,
    Frame,
    FiniteTenseAlgebra,
    build_truncation,
    edge_present,
    is_reflexive,
    is_total,
    complex_f,
    complex_g,
    as_finite_algebra,
    export_dot,
    frame_to_text,
    parse_frame,
    CapacityError,
)
from .symbolic import (
    SymbolicSet,
    BasisSet,
    Cardinality,
    LevelExtent,
    basis,
    union,
    intersect,
    complement,
    is_equal,
    is_empty,
    is_full,
    member,
    apply_f,
    apply_g,
    apply_f_table,
    apply_g_table,
    decompose_to_basis,
    cardinality,
    atom_test,
    max_level,
    min_level,
    shift,
    restrict_to_window,
    display,
    parse_set,
    validate_canonical,
)
from .terms import (
    Term,
    Formula,
    beta,
    sigma,
    nu,
    alpha,
    phi,
    tau,
    eval_term,
    eval_formula,
    eval_tau,
    exists_tau_witness,
    distinguish,
    SeparationReport,
    FiniteHandle,
    SymbolicHandle,
    parse_term,
    parse_formula,
    format_term,
    format_formula,
    UnsupportedQueryError,
)
from .audit import AuditReport, AuditEntry, ALLOWLIST, AUDITS
from .relalg import (
    AtomStructure,
    FiniteRelAlgebra,
    AxiomReport,
    expand,
    check_axioms,
    minimal_subalgebra,
    proper_algebra,
    minimal_point_algebra,
)
from .search import (
    SearchReport,
    Classification,
    enumerate_total_frames,
    classify_minimal,
    check_discriminator,
    enumerate_atom_structures,
)

__version__ = "0.1.0"
