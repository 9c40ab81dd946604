"""Polyhedral substrate tests: polytopes, SCoP detection, tiling, fusion."""

import pytest

from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.frontend import parse_source
from repro.ir.lowering import lower_unit
from repro.ir.verifier import verify_function
from repro.polly.optimizer import PollyConfig, PollyOptimizer
from repro.polly.polytope import constraints_from_loop
from repro.polly.scop import detect_scop, function_scops
from repro.polly.transforms import clone_function, fuse_adjacent_loops, strip_mine, tile_loop_nest


def _ir(source, name=None):
    functions = lower_unit(parse_source(source))
    return next(iter(functions.values())) if name is None else functions[name]


GEMM = """
float A[256][256], B[256][256], C[256][256];
void gemm(float alpha) {
    for (int i = 0; i < 256; i++) {
        for (int j = 0; j < 256; j++) {
            float acc = 0;
            for (int k = 0; k < 256; k++) {
                acc += alpha * A[i][k] * B[k][j];
            }
            C[i][j] = acc;
        }
    }
}
"""


class TestPolytope:
    def test_rectangular_domain(self):
        ir = _ir(
            "float G[8][4];\nvoid f(float x) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < 4; j++) G[i][j] = x; }"
        )
        outer = ir.top_level_loops()[0]
        inner = ir.innermost_loops()[0]
        domain = constraints_from_loop(inner, enclosing=[outer])
        assert domain.variables == ["i", "j"]
        assert domain.count_points() == 32

    def test_membership(self):
        ir = _ir("float a[10];\nvoid f() { for (int i = 2; i < 10; i++) a[i] = 1; }")
        domain = constraints_from_loop(ir.innermost_loops()[0])
        assert domain.contains({"i": 2})
        assert domain.contains({"i": 9})
        assert not domain.contains({"i": 10})
        assert not domain.contains({"i": 1})

    def test_triangular_domain(self):
        ir = _ir(
            "float G[8][8];\nvoid f(float x) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < i; j++) G[i][j] = x; }"
        )
        outer = ir.top_level_loops()[0]
        inner = ir.innermost_loops()[0]
        domain = constraints_from_loop(inner, enclosing=[outer])
        assert domain.count_points() == 28  # 0+1+...+7

    def test_single_loop_point_count_matches_trip(self):
        ir = _ir("float a[100];\nvoid f() { for (int i = 0; i < 100; i++) a[i] = 1; }")
        domain = constraints_from_loop(ir.innermost_loops()[0])
        assert domain.count_points() == 100


class TestScopDetection:
    def test_affine_nest_is_scop(self):
        ir = _ir(GEMM)
        scop = detect_scop(ir, ir.top_level_loops()[0])
        assert scop.is_scop
        assert scop.depth == 3

    def test_gather_subscript_rejects_scop(self):
        ir = _ir(
            "int idx[64];\nfloat a[64], b[64];\n"
            "void f() { for (int i = 0; i < 64; i++) a[idx[i]] = b[i]; }"
        )
        scop = detect_scop(ir, ir.top_level_loops()[0])
        assert not scop.is_scop

    def test_early_exit_rejects_scop(self):
        ir = _ir(
            "int a[64];\nvoid f() { for (int i = 0; i < 64; i++) { if (a[i]) break; a[i] = 1; } }"
        )
        assert not detect_scop(ir, ir.top_level_loops()[0]).is_scop

    def test_call_rejects_scop(self):
        ir = _ir("int a[64];\nvoid f() { for (int i = 0; i < 64; i++) record(a[i]); }")
        assert not detect_scop(ir, ir.top_level_loops()[0]).is_scop

    def test_function_scops_lists_all_nests(self):
        ir = _ir(
            "float a[64], b[64];\nvoid f() {"
            " for (int i = 0; i < 64; i++) a[i] = 1;"
            " for (int j = 0; j < 64; j++) b[j] = 2; }"
        )
        assert len(function_scops(ir)) == 2


class TestTransforms:
    def test_strip_mine_structure(self):
        ir = _ir("float a[1024];\nvoid f() { for (int i = 0; i < 1024; i++) a[i] = 1; }")
        loop = ir.innermost_loops()[0]
        tiled = strip_mine(loop, 32, ir)
        assert tiled.var == "i_tile"
        assert tiled.step == 32
        assert tiled.trip_count == 32
        inner = tiled.subloops()[0]
        assert inner.var == "i"
        assert inner.trip_count == 32

    def test_strip_mine_preserves_statements(self):
        ir = _ir("float a[1024];\nvoid f() { for (int i = 0; i < 1024; i++) a[i] = 1; }")
        loop = ir.innermost_loops()[0]
        tiled = strip_mine(loop, 64, ir)
        assert len(tiled.statements(recursive=True)) == len(loop.statements(recursive=True))

    def test_strip_mine_keeps_pragma_on_point_loop(self):
        ir = _ir(
            "float a[1024];\nvoid f() {\n#pragma clang loop vectorize_width(8)\n"
            "for (int i = 0; i < 1024; i++) a[i] = 1; }"
        )
        loop = ir.innermost_loops()[0]
        tiled = strip_mine(loop, 32, ir)
        assert tiled.pragma is None
        assert tiled.subloops()[0].pragma.vectorize_width == 8

    def test_tile_loop_nest_skips_small_working_sets(self):
        ir = _ir(
            "float G[64][64];\nvoid f(float x) { for (int i = 0; i < 64; i++)"
            " for (int j = 0; j < 64; j++) G[i][j] = x; }"
        )
        root = ir.top_level_loops()[0]
        tiled = tile_loop_nest(ir, root, tile_size=16, min_trip_count=8)
        # Inner 64-float rows (256 bytes) stay untouched.
        assert len(tiled.all_loops()) == len(root.all_loops())

    def test_tile_loop_nest_tiles_large_working_sets(self):
        ir = _ir(GEMM)
        root = ir.top_level_loops()[0]
        tiled = tile_loop_nest(ir, root, tile_size=32)
        # The k loop walks a 256 KB column of B: strip-mined.
        assert len(tiled.all_loops()) == len(root.all_loops()) + 1

    def test_tile_loop_nest_surfaces_analysis_errors(self, monkeypatch):
        import repro.analysis.loopinfo as loopinfo

        def broken(function, loop):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr(loopinfo, "analyze_loop", broken)
        ir = _ir(GEMM)
        with pytest.raises(RuntimeError, match="analysis failed"):
            tile_loop_nest(ir, ir.top_level_loops()[0], tile_size=32)

    def test_clone_function_is_independent(self):
        ir = _ir(GEMM)
        copy = clone_function(ir)
        assert len(copy.all_loops()) == len(ir.all_loops())
        copy.top_level_loops()[0].body.clear()
        assert len(ir.top_level_loops()[0].body) > 0

    def test_fusion_of_identical_streams(self):
        ir = _ir(
            "float a[256], b[256];\nvoid f() {"
            " for (int i = 0; i < 256; i++) a[i] = 1;"
            " for (int i = 0; i < 256; i++) b[i] = 2; }"
        )
        fused = fuse_adjacent_loops(ir.body)
        loops = [node for node in fused if hasattr(node, "var")]
        assert len(loops) == 1
        assert len(loops[0].statements()) == 2

    def test_fusion_refused_for_producer_consumer(self):
        ir = _ir(
            "float a[256], b[256];\nvoid f() {"
            " for (int i = 0; i < 256; i++) a[i] = 1;"
            " for (int i = 0; i < 256; i++) b[i] = a[i]; }"
        )
        fused = fuse_adjacent_loops(ir.body)
        loops = [node for node in fused if hasattr(node, "var")]
        assert len(loops) == 2

    def test_fusion_refused_when_second_loop_overwrites_first_loops_input(self):
        # Fused, iteration i would read A[i-1] after iteration i-1 of the
        # second statement already zeroed it: an anti-dependence the
        # first-writes-only check missed.
        ir = _ir(
            "float A[256], B[256];\nvoid f() {"
            " for (int i = 1; i < 256; i++) B[i] = A[i-1];"
            " for (int i = 1; i < 256; i++) A[i] = 0.0f; }"
        )
        fused = fuse_adjacent_loops(ir.body)
        loops = [node for node in fused if hasattr(node, "var")]
        assert len(loops) == 2

    def test_fusion_refused_for_different_trip_counts(self):
        ir = _ir(
            "float a[256], b[128];\nvoid f() {"
            " for (int i = 0; i < 256; i++) a[i] = 1;"
            " for (int i = 0; i < 128; i++) b[i] = 2; }"
        )
        fused = fuse_adjacent_loops(ir.body)
        loops = [node for node in fused if hasattr(node, "var")]
        assert len(loops) == 2


class TestPollyOptimizer:
    def test_gemm_gets_tiled_and_faster(self):
        kernel = LoopKernel(name="gemm", source=GEMM, function_name="gemm", suite="test")
        pipeline = CompileAndMeasure()
        ir = pipeline.lower_kernel(kernel)
        optimizer = PollyOptimizer()
        transformed = optimizer.optimize(ir)
        assert optimizer.last_report.tiled_nests == 1
        assert len(transformed.all_loops()) > len(ir.all_loops())
        baseline = pipeline.measure_baseline(kernel)
        polly = pipeline.measure_function(kernel, transformed)
        assert polly.cycles < baseline.cycles

    def test_transformed_function_verifies(self):
        ir = _ir(GEMM)
        transformed = PollyOptimizer().optimize(ir)
        assert verify_function(transformed, raise_on_error=False) == []

    def test_original_function_not_mutated(self):
        ir = _ir(GEMM)
        loop_count = len(ir.all_loops())
        PollyOptimizer().optimize(ir)
        assert len(ir.all_loops()) == loop_count

    def test_tiling_can_be_disabled(self):
        ir = _ir(GEMM)
        optimizer = PollyOptimizer(PollyConfig(enable_tiling=False))
        transformed = optimizer.optimize(ir)
        assert len(transformed.all_loops()) == len(ir.all_loops())

    def test_non_scop_left_alone(self):
        ir = _ir(
            "int idx[64];\nfloat a[64][64], b[64];\nvoid f() {"
            " for (int i = 0; i < 64; i++) for (int j = 0; j < 64; j++) a[i][idx[j]] = b[j]; }"
        )
        optimizer = PollyOptimizer()
        transformed = optimizer.optimize(ir)
        assert optimizer.last_report.tiled_nests == 0
        assert len(transformed.all_loops()) == len(ir.all_loops())
