"""Per-loop roll-up of every analysis the cost models and agents consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.affine import AccessPattern, classify_access
from repro.analysis.dependence import DependenceGraph, analyze_dependences, max_safe_vf
from repro.analysis.reduction import ReductionInfo, find_reductions
from repro.ir.expr import BinOp, CallOp, Compare, Convert, Expr, Select, UnaryOpExpr
from repro.ir.nodes import Conditional, IRFunction, Loop, Statement


@dataclass
class OperationMix:
    """Counts of the operations executed by one iteration of a loop body."""

    int_add: int = 0
    int_mul: int = 0
    int_div: int = 0
    float_add: int = 0
    float_mul: int = 0
    float_div: int = 0
    bitwise: int = 0
    shift: int = 0
    compare: int = 0
    select: int = 0
    convert: int = 0
    widening_convert: int = 0
    math_call: int = 0
    loads: int = 0
    stores: int = 0

    @property
    def arithmetic(self) -> int:
        return (
            self.int_add + self.int_mul + self.int_div
            + self.float_add + self.float_mul + self.float_div
            + self.bitwise + self.shift
        )

    @property
    def memory(self) -> int:
        return self.loads + self.stores

    @property
    def total(self) -> int:
        return (
            self.arithmetic + self.compare + self.select + self.convert
            + self.math_call + self.memory
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class LoopAnalysis:
    """Everything known about one innermost loop in its nest context."""

    function: IRFunction
    loop: Loop
    enclosing_vars: List[str] = field(default_factory=list)
    reductions: List[ReductionInfo] = field(default_factory=list)
    dependence_graph: Optional[DependenceGraph] = None
    access_patterns: List[AccessPattern] = field(default_factory=list)
    operation_mix: OperationMix = field(default_factory=OperationMix)
    predicate_count: int = 0
    statement_count: int = 0

    # -- derived properties ------------------------------------------------------

    @property
    def trip_count(self) -> Optional[int]:
        return self.loop.trip_count

    @property
    def has_unknown_trip_count(self) -> bool:
        return self.loop.trip_count is None

    @property
    def has_predicates(self) -> bool:
        return self.predicate_count > 0

    @property
    def has_reduction(self) -> bool:
        return bool(self.reductions)

    @property
    def element_bits(self) -> int:
        """The widest element type touched by the loop body (drives max VF)."""
        bits = [p.access.dtype.bits for p in self.access_patterns]
        bits.extend(r.dtype_bits for r in self.reductions)
        return max(bits) if bits else 32

    @property
    def narrowest_element_bits(self) -> int:
        bits = [p.access.dtype.bits for p in self.access_patterns]
        return min(bits) if bits else 32

    @property
    def contiguous_accesses(self) -> int:
        return sum(1 for p in self.access_patterns if p.kind == "contiguous")

    @property
    def strided_accesses(self) -> int:
        return sum(1 for p in self.access_patterns if p.kind == "strided")

    @property
    def gather_accesses(self) -> int:
        return sum(1 for p in self.access_patterns if p.kind == "gather")

    @property
    def is_vectorizable(self) -> bool:
        """Whether *any* VF > 1 is legal for this loop."""
        if self.loop.has_early_exit or self.loop.has_calls:
            return False
        return self.max_legal_vf(64) > 1

    def max_legal_vf(self, hardware_max_vf: int = 64) -> int:
        """Largest legal VF given dependences and structural constraints."""
        if self.loop.has_early_exit or self.loop.has_calls:
            return 1
        if self.dependence_graph is None:
            return hardware_max_vf
        return max_safe_vf(self.dependence_graph, hardware_max_vf)

    def bytes_per_iteration(self) -> int:
        """Memory traffic of one scalar iteration (load + store bytes)."""
        return sum(p.element_bytes for p in self.access_patterns)

    def feature_vector(self) -> List[float]:
        """A fixed-order numeric feature summary of the loop.

        This is the hand-engineered representation the paper contrasts with
        learned embeddings; it is used by the baseline-style heuristics and
        as an auxiliary pretraining target for the embedding network.
        """
        mix = self.operation_mix
        trip = float(self.trip_count) if self.trip_count is not None else -1.0
        return [
            trip,
            float(mix.arithmetic),
            float(mix.float_add + mix.float_mul + mix.float_div),
            float(mix.int_add + mix.int_mul + mix.int_div),
            float(mix.loads),
            float(mix.stores),
            float(mix.compare),
            float(mix.select),
            float(mix.convert),
            float(mix.math_call),
            float(self.contiguous_accesses),
            float(self.strided_accesses),
            float(self.gather_accesses),
            float(self.predicate_count),
            float(len(self.reductions)),
            float(self.element_bits),
            float(self.narrowest_element_bits),
            float(len(self.enclosing_vars)),
            float(self.statement_count),
            float(self.max_legal_vf(64)),
        ]


@dataclass
class LoopNestAnalysis:
    """Analyses for every innermost loop of one function."""

    function: IRFunction
    loops: List[LoopAnalysis] = field(default_factory=list)

    def for_loop(self, loop: Loop) -> Optional[LoopAnalysis]:
        for analysis in self.loops:
            if analysis.loop.loop_id == loop.loop_id:
                return analysis
        return None


def analyze_loop(function: IRFunction, loop: Loop) -> LoopAnalysis:
    """Analyse one innermost loop of ``function``."""
    chain = function.enclosing_loops(loop)
    enclosing_vars = [outer.var for outer in chain[:-1]]
    reductions = find_reductions(loop)
    graph = analyze_dependences(
        loop,
        arrays=function.arrays,
        enclosing_vars=enclosing_vars,
        reduction_vars=[r.variable for r in reductions],
    )
    analysis = LoopAnalysis(
        function=function,
        loop=loop,
        enclosing_vars=enclosing_vars,
        reductions=reductions,
        dependence_graph=graph,
    )

    statements = loop.statements(recursive=True)
    analysis.statement_count = len(statements)
    analysis.predicate_count = len(loop.conditionals(recursive=True))

    all_ivs = set(enclosing_vars) | {loop.var}
    written_scalars = {
        s.target_scalar for s in statements if s.kind == "scalar"
    }
    invariants = None  # classify_access treats non-IV scalars as symbols

    for statement in statements:
        _count_statement(statement, analysis.operation_mix)
        for access in statement.accesses():
            pattern = classify_access(
                access,
                loop.var,
                all_ivs,
                array_info=function.arrays.get(access.array),
                loop_step=loop.step,
                loop_invariants=invariants,
            )
            # Subscripts using scalars defined in the body (e.g. j = a[i];
            # b[j] = ...) are not affine functions of the IVs: force gather.
            subscript_refs = set()
            for subscript in access.subscripts:
                subscript_refs |= {ref.name for ref in subscript.scalar_refs()}
            if subscript_refs & (written_scalars - {loop.var} - set(enclosing_vars)):
                pattern.kind = "gather"
                pattern.stride_elements = None
            analysis.access_patterns.append(pattern)
    return analysis


def analyze_function(function: IRFunction) -> LoopNestAnalysis:
    """Analyse every innermost loop of ``function``."""
    nest = LoopNestAnalysis(function=function)
    for loop in function.innermost_loops():
        nest.loops.append(analyze_loop(function, loop))
    return nest


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------


def _count_statement(statement: Statement, mix: OperationMix) -> None:
    mix.stores += 1 if statement.kind == "store" else 0
    _count_expr(statement.value, mix)
    for subscript in statement.target_subscripts:
        _count_expr(subscript, mix, counting_address=True)


def _count_expr(expr: Expr, mix: OperationMix, counting_address: bool = False) -> None:
    from repro.ir.expr import LoadOp  # local import to avoid cycle noise

    for node in expr.walk():
        if isinstance(node, LoadOp):
            mix.loads += 1
        elif isinstance(node, BinOp):
            _count_binop(node, mix)
        elif isinstance(node, UnaryOpExpr):
            if node.dtype.is_float:
                mix.float_add += 1
            else:
                mix.int_add += 1
        elif isinstance(node, Compare):
            mix.compare += 1
        elif isinstance(node, Select):
            mix.select += 1
        elif isinstance(node, Convert):
            mix.convert += 1
            if node.is_widening:
                mix.widening_convert += 1
        elif isinstance(node, CallOp):
            mix.math_call += 1


def _count_binop(node: BinOp, mix: OperationMix) -> None:
    if node.op in ("&", "|", "^", "&&", "||"):
        mix.bitwise += 1
    elif node.op in ("<<", ">>"):
        mix.shift += 1
    elif node.op in ("*",):
        if node.dtype.is_float:
            mix.float_mul += 1
        else:
            mix.int_mul += 1
    elif node.op in ("/", "%"):
        if node.dtype.is_float:
            mix.float_div += 1
        else:
            mix.int_div += 1
    else:
        if node.dtype.is_float:
            mix.float_add += 1
        else:
            mix.int_add += 1
