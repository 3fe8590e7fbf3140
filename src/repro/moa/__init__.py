"""Moa object algebra (the paper's logical level).

An expression algebra over sets, tuples and objects with an evaluator,
the extension registry the four Cobra extensions plug into, and the
Moa -> MIL rewriting used to push bulk work down to the kernel.
"""

from repro.moa.algebra import (
    Aggregate,
    Apply,
    Arith,
    BoolOp,
    Cmp,
    Const,
    Expr,
    Field,
    Join,
    MakeTuple,
    Map,
    Nest,
    Not,
    Select,
    Semijoin,
    SetOp,
    The,
    Unnest,
    Var,
    evaluate,
)
from repro.moa.extension import ExtensionRegistry, MoaExtension
from repro.moa.rewrite import BulkModule, MilPlan, MoaCompiler

__all__ = [
    "Aggregate", "Apply", "Arith", "BoolOp", "Cmp", "Const", "Expr", "Field",
    "Join", "MakeTuple", "Map", "Nest", "Not", "Select", "Semijoin", "SetOp",
    "The", "Unnest", "Var", "evaluate",
    "ExtensionRegistry", "MoaExtension",
    "BulkModule", "MilPlan", "MoaCompiler",
]
