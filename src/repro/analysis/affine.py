"""Affine analysis of subscript expressions (a small scalar-evolution pass).

Every subscript is rewritten, where possible, as::

    c0 + c1 * iv1 + c2 * iv2 + ... + (symbolic terms)

with integer coefficients over the enclosing induction variables.  The
coefficient of the loop being vectorized gives the access stride, which is
what both legality (dependence distances) and the cost model (contiguous
vs. strided vs. gather) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.ir.expr import (
    BinOp,
    Compare,
    Const,
    Convert,
    Expr,
    LoadOp,
    ScalarRef,
    Select,
    UnaryOpExpr,
)
from repro.ir.nodes import ArrayInfo, MemoryAccess


@dataclass
class AffineForm:
    """``constant + sum(coefficients[var] * var)`` plus optional symbols.

    ``is_affine`` is False when the expression involves memory reads or
    non-linear terms (e.g. ``i*i`` or ``a[b[i]]``); such accesses are treated
    as gathers/scatters.  ``symbols`` records loop-invariant named scalars
    that appear additively (their value is unknown but they do not affect the
    stride).
    """

    constant: int = 0
    coefficients: Dict[str, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    is_affine: bool = True

    def coefficient(self, var: str) -> int:
        return self.coefficients.get(var, 0)

    @property
    def is_constant(self) -> bool:
        return self.is_affine and not self.coefficients and not self.symbols

    # -- arithmetic helpers used by the analyser -------------------------------

    def add(self, other: "AffineForm", sign: int = 1) -> "AffineForm":
        if not (self.is_affine and other.is_affine):
            return AffineForm(is_affine=False)
        coefficients = dict(self.coefficients)
        for var, coefficient in other.coefficients.items():
            coefficients[var] = coefficients.get(var, 0) + sign * coefficient
        symbols = dict(self.symbols)
        for name, coefficient in other.symbols.items():
            symbols[name] = symbols.get(name, 0) + sign * coefficient
        return AffineForm(
            constant=self.constant + sign * other.constant,
            coefficients={k: v for k, v in coefficients.items() if v != 0},
            symbols={k: v for k, v in symbols.items() if v != 0},
        )

    def scale(self, factor: int) -> "AffineForm":
        if not self.is_affine:
            return AffineForm(is_affine=False)
        return AffineForm(
            constant=self.constant * factor,
            coefficients={k: v * factor for k, v in self.coefficients.items() if v * factor != 0},
            symbols={k: v * factor for k, v in self.symbols.items() if v * factor != 0},
        )

    def difference_is_constant(self, other: "AffineForm") -> Optional[int]:
        """If ``self - other`` is a plain integer, return it; else None."""
        if not (self.is_affine and other.is_affine):
            return None
        delta = self.add(other, sign=-1)
        if delta.coefficients or delta.symbols:
            return None
        return delta.constant

    def __str__(self) -> str:
        if not self.is_affine:
            return "<non-affine>"
        parts = []
        for var, coefficient in sorted(self.coefficients.items()):
            parts.append(f"{coefficient}*{var}")
        for name, coefficient in sorted(self.symbols.items()):
            parts.append(f"{coefficient}*{name}")
        parts.append(str(self.constant))
        return " + ".join(parts)


def affine_of(
    expr: Optional[Expr],
    induction_vars: Iterable[str],
    loop_invariants: Optional[Iterable[str]] = None,
) -> AffineForm:
    """Compute the affine form of ``expr`` over the given induction variables.

    Scalars that are not induction variables are treated as loop-invariant
    symbols; loads and products of two variable terms make the form
    non-affine.
    """
    iv_set = set(induction_vars)
    invariant_set = set(loop_invariants) if loop_invariants is not None else None
    return _affine(expr, iv_set, invariant_set)


def _affine(expr: Optional[Expr], ivs: set, invariants: Optional[set]) -> AffineForm:
    if expr is None:
        return AffineForm()
    if isinstance(expr, Const):
        try:
            return AffineForm(constant=int(expr.value))
        except (TypeError, ValueError):
            return AffineForm(is_affine=False)
    if isinstance(expr, ScalarRef):
        if expr.name in ivs:
            return AffineForm(coefficients={expr.name: 1})
        if invariants is not None and expr.name not in invariants:
            # A scalar assigned inside the loop body: not loop-invariant, so
            # the subscript is not a closed-form function of the IVs.
            return AffineForm(is_affine=False)
        return AffineForm(symbols={expr.name: 1})
    if isinstance(expr, Convert):
        return _affine(expr.operand, ivs, invariants)
    if isinstance(expr, UnaryOpExpr):
        inner = _affine(expr.operand, ivs, invariants)
        if expr.op == "-":
            return inner.scale(-1)
        return AffineForm(is_affine=False) if not inner.is_constant else inner
    if isinstance(expr, BinOp):
        lhs = _affine(expr.lhs, ivs, invariants)
        rhs = _affine(expr.rhs, ivs, invariants)
        if expr.op == "+":
            return lhs.add(rhs)
        if expr.op == "-":
            return lhs.add(rhs, sign=-1)
        if expr.op == "*":
            if lhs.is_constant and lhs.is_affine:
                return rhs.scale(lhs.constant)
            if rhs.is_constant and rhs.is_affine:
                return lhs.scale(rhs.constant)
            return AffineForm(is_affine=False)
        if expr.op == "<<" and rhs.is_constant and rhs.is_affine:
            return lhs.scale(2 ** rhs.constant)
        if expr.op == "/" and rhs.is_constant and rhs.is_affine and rhs.constant != 0:
            # Division only stays affine when every coefficient divides evenly.
            if (
                lhs.is_affine
                and lhs.constant % rhs.constant == 0
                and all(v % rhs.constant == 0 for v in lhs.coefficients.values())
                and all(v % rhs.constant == 0 for v in lhs.symbols.values())
            ):
                return AffineForm(
                    constant=lhs.constant // rhs.constant,
                    coefficients={k: v // rhs.constant for k, v in lhs.coefficients.items()},
                    symbols={k: v // rhs.constant for k, v in lhs.symbols.items()},
                )
            return AffineForm(is_affine=False)
        return AffineForm(is_affine=False)
    if isinstance(expr, (LoadOp, Select, Compare)):
        return AffineForm(is_affine=False)
    return AffineForm(is_affine=False)


@dataclass
class AccessPattern:
    """How one memory access behaves with respect to a particular loop."""

    access: MemoryAccess
    forms: Tuple[AffineForm, ...]
    stride_elements: Optional[int]  # None => gather/scatter (unknown stride)
    element_bytes: int
    kind: str  # "contiguous", "strided", "invariant", "gather"

    @property
    def stride_bytes(self) -> Optional[int]:
        if self.stride_elements is None:
            return None
        return self.stride_elements * self.element_bytes


def classify_access(
    access: MemoryAccess,
    loop_var: str,
    induction_vars: Iterable[str],
    array_info: Optional[ArrayInfo] = None,
    loop_step: int = 1,
    loop_invariants: Optional[Iterable[str]] = None,
) -> AccessPattern:
    """Classify one access relative to the loop over ``loop_var``.

    The stride is measured in *elements per iteration of the loop being
    vectorized* (taking the loop step into account) because that is the unit
    in which the vectorizer reasons: a stride of 1 packs into contiguous
    vector loads, larger constant strides need strided/shuffled loads, and a
    non-affine subscript needs a gather (or scatter for stores).
    """
    forms = tuple(
        affine_of(subscript, induction_vars, loop_invariants)
        for subscript in access.subscripts
    )
    element_bytes = access.dtype.size_bytes
    if any(not form.is_affine for form in forms):
        return AccessPattern(access, forms, None, element_bytes, "gather")

    # Linearise the subscripts: only the innermost (last) dimension is
    # contiguous in memory; outer dimensions are scaled by the inner extents.
    dims = array_info.dims if array_info is not None else tuple([None] * len(forms))
    stride = 0
    multiplier = 1
    for form, dim in zip(reversed(forms), reversed(dims)):
        stride += form.coefficient(loop_var) * multiplier
        multiplier *= dim if dim is not None else 1024  # unknown extents: assume large
    stride_per_iteration = stride * loop_step

    if stride_per_iteration == 0:
        kind = "invariant"
    elif abs(stride_per_iteration) == 1:
        kind = "contiguous"
    else:
        kind = "strided"
    return AccessPattern(access, forms, stride_per_iteration, element_bytes, kind)
