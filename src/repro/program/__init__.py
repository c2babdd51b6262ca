"""repro.program — the declarative loop-program front end.

Access patterns in, bound executable loops out: declare what each
iteration reads and writes (:class:`At` descriptors, the ``from_*``
convenience constructors, or :meth:`LoopProgram.record`'s trace
recorder), and the :class:`LoopProgram` owns dependence extraction and
kernel binding.  Compiling a program through
:class:`~repro.runtime.Runtime` returns a
:class:`~repro.runtime.CompiledLoop` carrying the program, whose
``rebind`` swaps data arrays with zero inspector work — the paper's
amortisation argument made first-class.  The transform passes rewrite a
program before it is scheduled; :class:`StagedPlan` is the plan such a
loop runs when a rewrite wins.
"""

from .binding import LoopProgram
from .descriptors import At, ResolvedAccess, Statement
from .extraction import extract_statement_dependences
from .recording import StatementReplayKernel, record_trace
from .transform import (
    IterationMap,
    MappedKernel,
    Stage,
    StagedPlan,
    Variant,
    enumerate_variants,
    fission,
    fuse,
    skew,
)

__all__ = [
    "At",
    "IterationMap",
    "LoopProgram",
    "MappedKernel",
    "ResolvedAccess",
    "Stage",
    "StagedPlan",
    "Statement",
    "StatementReplayKernel",
    "Variant",
    "enumerate_variants",
    "extract_statement_dependences",
    "fission",
    "fuse",
    "record_trace",
    "skew",
]
