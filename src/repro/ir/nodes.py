"""Region-tree nodes of the structured loop IR."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.frontend.pragmas import LoopPragma
from repro.ir.dtypes import DType, INT32
from repro.ir.expr import Expr, LoadOp


@dataclass
class ArrayInfo:
    """What the IR knows about one array (or pointer treated as an array)."""

    name: str
    dtype: DType
    dims: Tuple[Optional[int], ...] = (None,)
    alignment: Optional[int] = None
    is_global: bool = False
    is_parameter: bool = False

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def element_count(self) -> Optional[int]:
        total = 1
        for dim in self.dims:
            if dim is None:
                return None
            total *= dim
        return total


@dataclass
class MemoryAccess:
    """One read or write of an array inside a statement.

    ``subscripts`` are IR expressions (one per dimension, outermost first);
    the affine analysis in :mod:`repro.analysis.affine` interprets them as
    functions of the surrounding induction variables.
    """

    array: str
    subscripts: Tuple[Expr, ...]
    is_write: bool
    dtype: DType = INT32
    statement_id: int = -1

    def __str__(self) -> str:
        kind = "store" if self.is_write else "load"
        indices = "][".join(str(s) for s in self.subscripts)
        return f"{kind} {self.array}[{indices}]"


# A region node is a Statement, Conditional or Loop.
RegionNode = Union["Statement", "Conditional", "Loop"]

_statement_ids = itertools.count()


@dataclass
class Statement:
    """A single store or scalar assignment with an expression RHS."""

    kind: str  # "store" or "scalar"
    value: Expr
    target_array: Optional[str] = None
    target_subscripts: Tuple[Expr, ...] = ()
    target_scalar: Optional[str] = None
    dtype: DType = INT32
    compound_op: Optional[str] = None  # '+' for 'x += v', None for plain '='
    statement_id: int = field(default_factory=lambda: next(_statement_ids))

    def __post_init__(self) -> None:
        if self.kind not in ("store", "scalar"):
            raise ValueError(f"unknown statement kind {self.kind!r}")
        if self.kind == "store" and self.target_array is None:
            raise ValueError("store statement requires a target array")
        if self.kind == "scalar" and self.target_scalar is None:
            raise ValueError("scalar statement requires a target name")

    # -- access collection ---------------------------------------------------

    def reads(self) -> List[MemoryAccess]:
        """All memory reads performed by this statement (RHS + subscripts)."""
        accesses = []
        for load in self.value.loads():
            accesses.append(
                MemoryAccess(
                    array=load.array,
                    subscripts=load.subscripts,
                    is_write=False,
                    dtype=load.dtype,
                    statement_id=self.statement_id,
                )
            )
        for subscript in self.target_subscripts:
            for load in subscript.loads():
                accesses.append(
                    MemoryAccess(
                        array=load.array,
                        subscripts=load.subscripts,
                        is_write=False,
                        dtype=load.dtype,
                        statement_id=self.statement_id,
                    )
                )
        return accesses

    def writes(self) -> List[MemoryAccess]:
        """The memory write performed by this statement, if it is a store."""
        if self.kind != "store":
            return []
        return [
            MemoryAccess(
                array=self.target_array,
                subscripts=self.target_subscripts,
                is_write=True,
                dtype=self.dtype,
                statement_id=self.statement_id,
            )
        ]

    def accesses(self) -> List[MemoryAccess]:
        return self.reads() + self.writes()

    def __str__(self) -> str:
        # ``value`` always holds the complete right-hand side (compound
        # assignments are expanded during lowering), so print plain '='.
        if self.kind == "store":
            indices = "][".join(str(s) for s in self.target_subscripts)
            return f"{self.target_array}[{indices}] = {self.value}"
        return f"{self.target_scalar} = {self.value}"


@dataclass
class Conditional:
    """An if/else region.  Vectorizing across it requires if-conversion."""

    condition: Expr
    then_body: List[RegionNode] = field(default_factory=list)
    else_body: List[RegionNode] = field(default_factory=list)

    def __str__(self) -> str:
        return f"if ({self.condition})"


@dataclass
class Loop:
    """A counted loop: ``for (var = lower; var < upper; var += step)``.

    ``trip_count`` is the number of iterations when it is known statically
    (or after binding default parameter values); ``None`` means unknown at
    compile time, which forces the vectorizer to emit runtime trip-count
    checks and a scalar epilogue.
    """

    var: str
    lower: Expr
    upper: Expr
    step: int = 1
    body: List[RegionNode] = field(default_factory=list)
    pragma: Optional[LoopPragma] = None
    trip_count: Optional[int] = None
    loop_id: int = field(default_factory=lambda: next(_statement_ids))
    condition_op: str = "<"
    has_early_exit: bool = False
    has_calls: bool = False

    # -- structure queries -----------------------------------------------------

    def subloops(self) -> List["Loop"]:
        """Directly nested loops (one level down, including inside ifs)."""
        found: List[Loop] = []

        def visit(nodes: Iterable[RegionNode]) -> None:
            for node in nodes:
                if isinstance(node, Loop):
                    found.append(node)
                elif isinstance(node, Conditional):
                    visit(node.then_body)
                    visit(node.else_body)

        visit(self.body)
        return found

    def all_loops(self) -> List["Loop"]:
        """This loop and every loop nested anywhere below it (pre-order)."""
        result: List[Loop] = [self]
        for sub in self.subloops():
            result.extend(sub.all_loops())
        return result

    @property
    def is_innermost(self) -> bool:
        return not self.subloops()

    def innermost_loops(self) -> List["Loop"]:
        return [loop for loop in self.all_loops() if loop.is_innermost]

    @property
    def depth_below(self) -> int:
        """Nesting depth of the loop tree rooted at this loop (>= 1)."""
        subs = self.subloops()
        if not subs:
            return 1
        return 1 + max(sub.depth_below for sub in subs)

    def statements(self, recursive: bool = True) -> List[Statement]:
        """Statements in this loop's body (optionally including nested loops)."""
        result: List[Statement] = []

        def visit(nodes: Iterable[RegionNode]) -> None:
            for node in nodes:
                if isinstance(node, Statement):
                    result.append(node)
                elif isinstance(node, Conditional):
                    visit(node.then_body)
                    visit(node.else_body)
                elif isinstance(node, Loop) and recursive:
                    visit(node.body)

        visit(self.body)
        return result

    def conditionals(self, recursive: bool = False) -> List[Conditional]:
        result: List[Conditional] = []

        def visit(nodes: Iterable[RegionNode]) -> None:
            for node in nodes:
                if isinstance(node, Conditional):
                    result.append(node)
                    visit(node.then_body)
                    visit(node.else_body)
                elif isinstance(node, Loop) and recursive:
                    visit(node.body)

        visit(self.body)
        return result

    def accesses(self, recursive: bool = True) -> List[MemoryAccess]:
        accesses: List[MemoryAccess] = []
        for statement in self.statements(recursive=recursive):
            accesses.extend(statement.accesses())
        return accesses

    def __str__(self) -> str:
        return (
            f"for ({self.var} = {self.lower}; {self.var} {self.condition_op} "
            f"{self.upper}; {self.var} += {self.step})"
        )


@dataclass
class IRFunction:
    """One function lowered to the loop IR."""

    name: str
    body: List[RegionNode] = field(default_factory=list)
    arrays: Dict[str, ArrayInfo] = field(default_factory=dict)
    scalars: Dict[str, DType] = field(default_factory=dict)
    parameters: Dict[str, DType] = field(default_factory=dict)
    return_dtype: Optional[DType] = None
    source_name: str = "<source>"

    # -- structure queries -----------------------------------------------------

    def top_level_loops(self) -> List[Loop]:
        found: List[Loop] = []

        def visit(nodes: Iterable[RegionNode]) -> None:
            for node in nodes:
                if isinstance(node, Loop):
                    found.append(node)
                elif isinstance(node, Conditional):
                    visit(node.then_body)
                    visit(node.else_body)

        visit(self.body)
        return found

    def all_loops(self) -> List[Loop]:
        loops: List[Loop] = []
        for top in self.top_level_loops():
            loops.extend(top.all_loops())
        return loops

    def innermost_loops(self) -> List[Loop]:
        return [loop for loop in self.all_loops() if loop.is_innermost]

    def statements(self) -> List[Statement]:
        result: List[Statement] = []

        def visit(nodes: Iterable[RegionNode]) -> None:
            for node in nodes:
                if isinstance(node, Statement):
                    result.append(node)
                elif isinstance(node, Conditional):
                    visit(node.then_body)
                    visit(node.else_body)
                elif isinstance(node, Loop):
                    visit(node.body)

        visit(self.body)
        return result

    def array_info(self, name: str) -> Optional[ArrayInfo]:
        return self.arrays.get(name)

    def parent_map(self) -> Dict[int, Optional[Loop]]:
        """Map each loop's ``loop_id`` to its parent loop (None for top level)."""
        parents: Dict[int, Optional[Loop]] = {}

        def visit(nodes: Iterable[RegionNode], parent: Optional[Loop]) -> None:
            for node in nodes:
                if isinstance(node, Loop):
                    parents[node.loop_id] = parent
                    visit(node.body, node)
                elif isinstance(node, Conditional):
                    visit(node.then_body, parent)
                    visit(node.else_body, parent)

        visit(self.body, None)
        return parents

    def enclosing_loops(self, loop: Loop) -> List[Loop]:
        """Loops enclosing ``loop``, outermost first, including ``loop`` itself."""
        parents = self.parent_map()
        chain: List[Loop] = [loop]
        current = parents.get(loop.loop_id)
        while current is not None:
            chain.append(current)
            current = parents.get(current.loop_id)
        chain.reverse()
        return chain
