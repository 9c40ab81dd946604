"""The Polly driver: SCoP detection, tiling and fusion over a whole function."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.nodes import IRFunction, Loop, RegionNode
from repro.polly.scop import ScopInfo, detect_scop
from repro.polly.transforms import clone_function, fuse_adjacent_loops, tile_loop_nest


@dataclass
class PollyConfig:
    """Tunables of the polyhedral pass (Polly's own defaults use 32x32 tiles)."""

    tile_size: int = 32
    min_trip_count_for_tiling: int = 128
    enable_tiling: bool = True
    enable_fusion: bool = True
    #: Only tile nests at least this deep; tiling a lone streaming loop only
    #: adds loop overhead, and Polly's first-level tiling targets nests too.
    min_nest_depth_for_tiling: int = 2
    #: Only tile innermost loops whose working set spills out of L1.
    locality_threshold_bytes: float = 32 * 1024


@dataclass
class PollyReport:
    """What the pass did to one function (for logging and tests)."""

    scops: List[ScopInfo] = field(default_factory=list)
    tiled_nests: int = 0
    fused_loops: int = 0


class PollyOptimizer:
    """Applies Polly-style transformations and reports what it changed."""

    def __init__(self, config: Optional[PollyConfig] = None):
        self.config = config or PollyConfig()
        self.last_report: Optional[PollyReport] = None

    def optimize(self, function: IRFunction) -> IRFunction:
        """Return a transformed copy of ``function`` (the input is untouched)."""
        config = self.config
        report = PollyReport()
        transformed = clone_function(function)

        if config.enable_fusion:
            before = len(transformed.all_loops())
            transformed.body = fuse_adjacent_loops(transformed.body)
            after = len(transformed.all_loops())
            report.fused_loops = max(0, before - after)

        if config.enable_tiling:
            new_body: List[RegionNode] = []
            for node in transformed.body:
                if isinstance(node, Loop):
                    scop = detect_scop(transformed, node)
                    report.scops.append(scop)
                    if scop.is_scop and node.depth_below >= config.min_nest_depth_for_tiling:
                        new_body.append(
                            tile_loop_nest(
                                transformed,
                                node,
                                tile_size=config.tile_size,
                                min_trip_count=config.min_trip_count_for_tiling,
                                min_working_set_bytes=config.locality_threshold_bytes,
                            )
                        )
                        report.tiled_nests += 1
                        continue
                new_body.append(node)
            transformed.body = new_body

        self.last_report = report
        return transformed
