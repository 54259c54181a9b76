"""Static enforcement and randomized validation of non-interference.

The package covers the whole pipeline for a small ML-like language with
mutable references and first-class functions:

- `parser` turns source text into the `syntax` tree,
- `typechecker` implements the security type system over the `lattice`,
- `interpreter` is the fuel-bounded reference semantics,
- `equivalence` decides what a low observer can distinguish, and
- `harness` generates well-typed programs and related states to test the
  guarantee the checker is supposed to provide.
"""

from .equivalence import EquivConfig, EquivStats, low_equiv, value_equiv
from .interpreter import (
    BoolV,
    ClosV,
    FaultKind,
    FuelExhausted,
    IntV,
    LocV,
    Ok,
    Outcome,
    RuntimeFault,
    State,
    Store,
    UnitV,
    Value,
    evaluate,
    fresh_loc,
    pretty_value,
    run_program,
)
from .harness import (
    CorpusReport,
    CorpusRow,
    Discarded,
    GenConfig,
    Pass,
    SUITES,
    SuiteReport,
    TrialResult,
    Violation,
    default_corpus_dir,
    gen_lowequiv_states,
    gen_tenv,
    gen_welltyped,
    run_corpus,
    run_suite,
)
from .lattice import LatticeError, enumerate_types, join, leq, meet
from .parser import ParseError, parse, parse_type, tokenize
from .syntax import (
    EMPTY,
    HIGH,
    LOW,
    App,
    Assign,
    BinOp,
    Bool,
    Bop,
    Deref,
    Empty,
    Expr,
    For,
    Func,
    FunType,
    High,
    If,
    Let,
    Low,
    Num,
    Pos,
    Ref,
    RefType,
    SecType,
    Seq,
    Unit,
    Var,
    While,
    display_type,
    is_base,
    is_effect,
    pretty,
    pretty_type,
    well_formed,
)
from .typechecker import (
    CheckError,
    Judgment,
    TEnv,
    check,
    check_program,
    error_json,
    judgment_json,
    trace_check,
)

__version__ = "0.1.0"
