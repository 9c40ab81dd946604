"""Polyhedral loop transformations on the structured IR: tiling and fusion."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.dtypes import INT32
from repro.ir.evaluate import evaluate_expr, trip_count_of
from repro.ir.expr import BinOp, Const, ScalarRef
from repro.ir.nodes import Conditional, IRFunction, Loop, RegionNode, Statement


# ---------------------------------------------------------------------------
# Cloning (transformations never mutate the input function)
# ---------------------------------------------------------------------------


def clone_region(nodes: Sequence[RegionNode]) -> List[RegionNode]:
    """Structurally clone loops/conditionals; statements are shared.

    Statements and their expression DAGs are immutable in practice, so they
    can be shared between the original and the transformed tree; only the
    region skeleton (which tiling rewrites) is copied.
    """
    cloned: List[RegionNode] = []
    for node in nodes:
        if isinstance(node, Loop):
            cloned.append(clone_loop(node))
        elif isinstance(node, Conditional):
            copy = Conditional(condition=node.condition)
            copy.then_body = clone_region(node.then_body)
            copy.else_body = clone_region(node.else_body)
            cloned.append(copy)
        else:
            cloned.append(node)
    return cloned


def clone_loop(loop: Loop) -> Loop:
    copy = Loop(
        var=loop.var,
        lower=loop.lower,
        upper=loop.upper,
        step=loop.step,
        pragma=loop.pragma,
        trip_count=loop.trip_count,
        condition_op=loop.condition_op,
        has_early_exit=loop.has_early_exit,
        has_calls=loop.has_calls,
    )
    copy.body = clone_region(loop.body)
    return copy


def clone_function(function: IRFunction) -> IRFunction:
    copy = IRFunction(
        name=function.name,
        arrays=dict(function.arrays),
        scalars=dict(function.scalars),
        parameters=dict(function.parameters),
        return_dtype=function.return_dtype,
        source_name=function.source_name,
    )
    copy.body = clone_region(function.body)
    return copy


# ---------------------------------------------------------------------------
# Strip-mining / tiling
# ---------------------------------------------------------------------------


def strip_mine(loop: Loop, tile_size: int, function: Optional[IRFunction] = None) -> Loop:
    """Split ``loop`` into a tile loop and a point loop of ``tile_size``.

    ``for (v = L; v < U; v += s)`` becomes::

        for (v_tile = L; v_tile < U; v_tile += s*T)
            for (v = v_tile; v < v_tile + s*T; v += s)
                <original body>

    The point loop keeps the original body and pragma; the tile loop gets the
    derived trip count.  (The remainder tile is folded into the last full
    tile, a simplification that only matters when the trip count is not a
    multiple of the tile size.)
    """
    if tile_size <= 1:
        return clone_loop(loop)
    tile_var = f"{loop.var}_tile"
    stride = loop.step * tile_size

    point_loop = Loop(
        var=loop.var,
        lower=ScalarRef(dtype=INT32, name=tile_var),
        upper=BinOp(
            dtype=INT32,
            op="+",
            lhs=ScalarRef(dtype=INT32, name=tile_var),
            rhs=Const(dtype=INT32, value=stride),
        ),
        step=loop.step,
        pragma=loop.pragma,
        trip_count=tile_size,
        condition_op="<",
    )
    point_loop.body = clone_region(loop.body)

    tile_loop = Loop(
        var=tile_var,
        lower=loop.lower,
        upper=loop.upper,
        step=stride,
        condition_op=loop.condition_op,
        trip_count=(
            math.ceil(loop.trip_count / tile_size)
            if loop.trip_count is not None
            else None
        ),
    )
    tile_loop.body = [point_loop]
    if function is not None:
        function.scalars.setdefault(tile_var, INT32)
    return tile_loop


def tile_loop_nest(
    function: IRFunction,
    root: Loop,
    tile_size: int = 32,
    min_trip_count: int = 128,
    min_working_set_bytes: float = 32 * 1024,
) -> Loop:
    """Tile every innermost loop of a nest whose trip count is large enough.

    Tiling only the point loops is what shrinks each innermost traversal's
    working set into a nearer cache level, which is where Polly's locality
    win shows up in the simulator (and on real hardware for the PolyBench
    kernels the paper evaluates).  Loops whose working set already fits in
    L1 (``min_working_set_bytes``) are left alone — tiling them would only
    add loop overhead.
    """
    from repro.analysis.loopinfo import analyze_loop
    from repro.simulator.cost import estimate_working_set

    def rewrite(loop: Loop) -> Loop:
        if loop.is_innermost:
            trip = loop.trip_count if loop.trip_count is not None else 0
            working_set = 0.0
            if trip > 0:
                working_set = estimate_working_set(analyze_loop(function, loop), trip)
            if (
                trip >= min_trip_count
                and trip > tile_size
                and working_set > min_working_set_bytes
            ):
                return strip_mine(loop, tile_size, function)
            return clone_loop(loop)
        copy = clone_loop(loop)
        copy.body = [
            rewrite(node) if isinstance(node, Loop) else node for node in copy.body
        ]
        return copy

    return rewrite(root)


# ---------------------------------------------------------------------------
# Loop fusion
# ---------------------------------------------------------------------------


def _loops_fusible(first: Loop, second: Loop) -> bool:
    """Conservative fusion legality: identical iteration ranges and no
    array that one loop writes and the other touches.

    Both directions matter: a second loop that overwrites an array the
    first one reads (``B[i] = A[i-1]`` then ``A[i] = 0``) would, once
    fused, feed the first statement values the second already clobbered.
    """
    if first.step != second.step or first.condition_op != second.condition_op:
        return False
    if first.trip_count is None or first.trip_count != second.trip_count:
        return False
    lower_first = evaluate_expr(first.lower, {})
    lower_second = evaluate_expr(second.lower, {})
    if lower_first is None or lower_first != lower_second:
        return False
    first_accesses = first.accesses(recursive=True)
    second_accesses = second.accesses(recursive=True)
    written_by_first = {access.array for access in first_accesses if access.is_write}
    written_by_second = {access.array for access in second_accesses if access.is_write}
    touched_by_first = {access.array for access in first_accesses}
    touched_by_second = {access.array for access in second_accesses}
    return not (
        written_by_first & touched_by_second or written_by_second & touched_by_first
    )


def fuse_adjacent_loops(nodes: Sequence[RegionNode]) -> List[RegionNode]:
    """Fuse neighbouring innermost loops with identical domains.

    Returns a new node list; the bodies of fused loops are concatenated and
    the second loop's induction variable is assumed to be renameable to the
    first's (our kernels always use fresh index variables per loop, and the
    shared-statement representation keys accesses by variable *name*, so the
    rename is performed by rewriting the loop header only when names match;
    otherwise fusion is skipped).
    """
    result: List[RegionNode] = []
    index = 0
    nodes = list(nodes)
    while index < len(nodes):
        node = nodes[index]
        if (
            isinstance(node, Loop)
            and node.is_innermost
            and index + 1 < len(nodes)
            and isinstance(nodes[index + 1], Loop)
            and nodes[index + 1].is_innermost
            and node.var == nodes[index + 1].var
            and _loops_fusible(node, nodes[index + 1])
        ):
            fused = clone_loop(node)
            fused.body = clone_region(node.body) + clone_region(nodes[index + 1].body)
            result.append(fused)
            index += 2
            continue
        if isinstance(node, Loop):
            copy = clone_loop(node)
            copy.body = fuse_adjacent_loops(copy.body)
            result.append(copy)
        else:
            result.append(node)
        index += 1
    return result
