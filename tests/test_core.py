"""Core framework tests: loop extraction, pragma injection, pipeline, facade."""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.agents.baseline import BaselineAgent
from repro.agents.brute_force import BruteForceAgent
from repro.core.framework import NeuroVectorizer, build_embedding_model
from repro.core.loop_extractor import extract_loops
from repro.core.pipeline import CompileAndMeasure
from repro.core.pragma_injector import inject_pragma_line, inject_pragmas, strip_loop_pragmas
from repro.datasets.kernels import LoopKernel
from repro.datasets.motivating import dot_product_kernel
from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset
from repro.frontend.cache import frontend_cache
from repro.frontend.pragmas import LoopPragma, format_pragma, parse_pragma_text
from repro.simulator import cost as cost_memo
from repro.simulator.engine import Simulator
from repro.tasks import get_task
from repro.vectorizer.cost_model import BaselineCostModel
from repro.vectorizer.planner import build_plan


NESTED_SOURCE = """
float A[64][64], B[64][64], C[64][64];
void matmul(float alpha) {
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            float sum = 0;
            for (int k = 0; k < 64; k++) {
                sum += alpha * A[i][k] * B[k][j];
            }
            C[i][j] = sum;
        }
    }
}
"""

TWO_LOOP_SOURCE = """
float a[256], b[256];
void two(float alpha) {
    for (int i = 0; i < 256; i++) {
        a[i] = alpha * a[i];
    }
    for (int j = 0; j < 256; j++) {
        b[j] = a[j] + b[j];
    }
}
"""


class TestLoopExtractor:
    def test_extracts_innermost_loops_only(self):
        loops = extract_loops(NESTED_SOURCE)
        assert len(loops) == 1
        assert loops[0].ast_loop is not loops[0].nest_root
        assert loops[0].nest_depth == 3

    def test_extracts_all_top_level_loops(self):
        loops = extract_loops(TWO_LOOP_SOURCE)
        assert len(loops) == 2
        assert [loop.loop_index for loop in loops] == [0, 1]

    def test_source_line_points_at_innermost_for(self):
        loops = extract_loops(NESTED_SOURCE)
        lines = NESTED_SOURCE.split("\n")
        assert "for (int k" in lines[loops[0].source_line - 1]

    def test_function_filter(self):
        source = TWO_LOOP_SOURCE + "\nvoid other(int *p) { for (int i = 0; i < 4; i++) p[i] = i; }"
        loops = extract_loops(source, function_name="other")
        assert len(loops) == 1
        assert loops[0].function_name == "other"

    def test_source_text_contains_whole_nest(self):
        loops = extract_loops(NESTED_SOURCE)
        assert "for (i = 0" in loops[0].source_text or "for (int i" in loops[0].source_text
        assert "sum" in loops[0].source_text

    def test_extractor_matches_ir_loop_order(self, pipeline):
        kernel = LoopKernel(name="two", source=TWO_LOOP_SOURCE, function_name="two")
        loops = extract_loops(kernel.source, function_name="two")
        ir = pipeline.lower_kernel(kernel)
        assert len(loops) == len(ir.innermost_loops())


class TestPragmaInjection:
    def test_inject_single_pragma(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_line(NESTED_SOURCE, loops[0].source_line, 8, 4)
        pragmas = [parse_pragma_text(line) for line in injected.splitlines()]
        pragmas = [p for p in pragmas if p is not None]
        assert len(pragmas) == 1
        assert pragmas[0].vectorize_width == 8

    def test_injected_pragma_lands_before_innermost_loop(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_line(NESTED_SOURCE, loops[0].source_line, 16, 2)
        lines = injected.splitlines()
        pragma_line = next(i for i, l in enumerate(lines) if "#pragma" in l)
        assert "for (int k" in lines[pragma_line + 1]

    def test_inject_pragmas_for_multiple_loops(self):
        injected = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2), 1: (4, 4)})
        parsed = [parse_pragma_text(line) for line in injected.splitlines()]
        parsed = [p for p in parsed if p is not None]
        assert len(parsed) == 2
        assert {p.vectorize_width for p in parsed} == {8, 4}

    def test_injection_is_idempotent(self):
        once = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2)})
        twice = inject_pragmas(once, {0: (8, 2)})
        assert once == twice

    def test_strip_loop_pragmas(self):
        injected = inject_pragmas(TWO_LOOP_SOURCE, {0: (8, 2)})
        assert strip_loop_pragmas(injected).count("#pragma") == 0

    def test_injected_source_round_trips_through_frontend(self, pipeline):
        injected = inject_pragmas(NESTED_SOURCE, {0: (32, 8)}, function_name="matmul")
        kernel = LoopKernel(name="mm", source=injected, function_name="matmul")
        ir = pipeline.lower_kernel(kernel)
        loop = ir.innermost_loops()[0]
        assert loop.pragma.vectorize_width == 32
        assert loop.pragma.interleave_count == 8

    def test_indentation_matches_target_line(self):
        loops = extract_loops(NESTED_SOURCE)
        injected = inject_pragma_line(NESTED_SOURCE, loops[0].source_line, 8, 2)
        lines = injected.splitlines()
        pragma_line = next(l for l in lines if "#pragma" in l)
        target_line = lines[lines.index(pragma_line) + 1]
        pragma_indent = len(pragma_line) - len(pragma_line.lstrip())
        target_indent = len(target_line) - len(target_line.lstrip())
        assert pragma_indent == target_indent


class TestCompileAndMeasure:
    def test_baseline_vs_scalar(self, pipeline, dot_kernel):
        baseline = pipeline.measure_baseline(dot_kernel)
        scalar = pipeline.measure_scalar(dot_kernel)
        assert baseline.cycles < scalar.cycles
        assert scalar.speedup_over(baseline) < 1.0

    def test_measure_with_factors_beats_baseline_for_good_choice(self, pipeline, dot_kernel):
        baseline = pipeline.measure_baseline(dot_kernel)
        tuned = pipeline.measure_with_factors(dot_kernel, {0: (8, 8)})
        assert tuned.cycles < baseline.cycles

    def test_pragma_and_factor_paths_agree(self, pipeline, dot_kernel):
        by_factors = pipeline.measure_with_factors(dot_kernel, {0: (16, 4)})
        injected = inject_pragmas(dot_kernel.source, {0: (16, 4)},
                                  function_name=dot_kernel.function_name)
        by_pragmas = pipeline.measure_with_pragmas(dot_kernel, source=injected)
        assert by_factors.cycles == pytest.approx(by_pragmas.cycles, rel=1e-9)

    def test_factors_reported_after_clamping(self, pipeline):
        kernel = LoopKernel(
            name="dep",
            source="float a[64];\nvoid f() { for (int i = 4; i < 64; i++) a[i] = a[i-4]; }",
            function_name="f",
        )
        result = pipeline.measure_with_factors(kernel, {0: (64, 2)})
        assert result.factors[0][0] == 4  # clamped by the dependence distance

    def test_compile_seconds_positive(self, pipeline, dot_kernel):
        result = pipeline.measure_baseline(dot_kernel)
        assert result.compile_seconds > 0

    def test_bindings_respected(self, pipeline):
        kernel = LoopKernel(
            name="sym",
            source="void f(float *a, int n) { for (int i = 0; i < n; i++) a[i] = 1; }",
            function_name="f",
            bindings={"n": 64},
        )
        big = LoopKernel(name="sym2", source=kernel.source, function_name="f",
                         bindings={"n": 8192})
        assert pipeline.measure_baseline(big).cycles > pipeline.measure_baseline(kernel).cycles


def _count_analyses(monkeypatch):
    """Count ``analyze_loop`` calls by patching every ``repro`` module that
    imported the name (and the defining module itself)."""
    from repro.analysis import loopinfo

    original = loopinfo.analyze_loop
    calls = []

    def counting(function, loop):
        calls.append(loop.loop_id)
        return original(function, loop)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "analyze_loop", None) is original:
            monkeypatch.setattr(module, "analyze_loop", counting)
    return calls


def _fresh_cycles(pipeline, kernel, result):
    """Re-measure a result's plan with a new simulator and fresh analyses."""
    function = result.plan.function
    decisions = {
        loop_id: (plan.requested_vf, plan.requested_interleave)
        for loop_id, plan in result.plan.plans.items()
    }
    simulator = Simulator(
        machine=pipeline.machine,
        bindings=dict(kernel.bindings),
        default_symbol_value=pipeline.default_symbol_value,
    )
    return simulator.simulate(
        function, build_plan(function, decisions, pipeline.machine)
    ).total_cycles


class TestSharedLoopAnalyses:
    """The pipeline analyses each lowered loop once and shares it with the
    baseline, planner and simulator, without changing a single cycle."""

    def test_brute_force_analyses_each_loop_once(self, monkeypatch):
        calls = _count_analyses(monkeypatch)
        kernel = LoopKernel(name="two", source=TWO_LOOP_SOURCE, function_name="two")
        agent = BruteForceAgent(CompileAndMeasure())
        for loop_index in (0, 1):
            agent.select_factors(np.zeros(1), kernel=kernel, loop_index=loop_index)
        assert len(calls) == 2
        assert len(set(calls)) == 2

    def test_vectorization_grid_fires_a_sweep(self):
        cost_memo.reset_memo_stats()
        agent = BruteForceAgent(CompileAndMeasure())
        agent.select_factors(np.zeros(1), kernel=dot_product_kernel(), loop_index=0)
        assert cost_memo.memo_stats()["sweeps"] >= 1

    @pytest.mark.parametrize("task_name", ["vectorization", "unrolling", "polly-tiling"])
    def test_every_entry_point_matches_a_fresh_path(self, task_name):
        task = get_task(task_name)
        pipeline = CompileAndMeasure()
        kernels = [
            dot_product_kernel(),
            LoopKernel(name="two", source=TWO_LOOP_SOURCE, function_name="two"),
            LoopKernel(name="mm", source=NESTED_SOURCE, function_name="matmul"),
        ]
        actions = task.action_space("discrete").all_actions()
        for kernel in kernels:
            results = [pipeline.measure_baseline(kernel), pipeline.measure_scalar(kernel)]
            sites = range(len(task.decision_sites(kernel)))
            for site in sites:
                results.extend(task.evaluate(pipeline, kernel, site, a) for a in actions)
            # ``apply`` measures through the pragma path (or, for Polly,
            # measure_function on the transformed copy).
            decisions = {site: actions[-1] for site in sites}
            results.append(task.apply(pipeline, kernel, decisions).result)
            ir_function = pipeline.lower_kernel(kernel)
            results.append(pipeline.measure_function(kernel, ir_function))
            for result in results:
                assert result.cycles == _fresh_cycles(pipeline, kernel, result)
            fresh_baseline = BaselineCostModel(machine=pipeline.machine)
            assert results[0].plan.factors() == build_plan(
                ir_function, fresh_baseline.decide_function(ir_function), pipeline.machine
            ).factors()


def count_parses(monkeypatch):
    """Count uncached parses per source text by patching the parser behind
    the process-wide frontend memo."""
    from repro.frontend import cache

    original = cache.parse_source
    calls = Counter()

    def counting(source, filename="<source>", defines=None):
        calls[source] += 1
        return original(source, filename=filename, defines=defines)

    monkeypatch.setattr(cache, "parse_source", counting)
    return calls


class TestParseOnce:
    """Every kernel-owned parse names the kernel's file, so the frontend memo
    parses each distinct text once however many paths ask for it."""

    @pytest.mark.parametrize("task_name", ["vectorization", "unrolling", "polly-tiling"])
    def test_compare_agents_parses_each_distinct_text_once(self, monkeypatch, task_name):
        from repro.core.framework import compare_agents

        kernels = list(
            generate_synthetic_dataset(SyntheticDatasetConfig(count=3, seed=5))
        ) + [dot_product_kernel()]
        frontend_cache().clear()
        calls = count_parses(monkeypatch)
        compare_agents(kernels, task=task_name)
        assert all(kernel.source in calls for kernel in kernels)
        assert max(calls.values()) == 1, calls.most_common(1)

    def test_kernel_paths_share_the_kernel_filename(self):
        kernel = dot_product_kernel()
        loop = kernel.loops()[0]
        assert loop.nest_root.span.start.filename == kernel.filename == "dot_product.c"
        assert kernel.parse() is frontend_cache().parse(
            kernel.source, filename=kernel.filename
        )


class TestNeuroVectorizerFacade:
    @pytest.fixture(scope="class")
    def framework(self):
        kernels = [dot_product_kernel()]
        embedding = build_embedding_model(kernels)
        pipeline = CompileAndMeasure()
        return NeuroVectorizer(embedding, BruteForceAgent(pipeline), pipeline)

    def test_vectorize_kernel_improves_over_baseline(self, framework, dot_kernel):
        result = framework.optimize_kernel(dot_kernel)
        assert result.speedup_over_baseline >= 1.0
        assert result.reward >= 0.0
        assert len(result.decisions) == 1
        assert "#pragma clang loop" in result.transformed_source

    def test_vectorize_source_entry_point(self, framework):
        kernel = LoopKernel(
            name="user_kernel",
            source="float a[1024], b[1024];\nvoid f() { for (int i = 0; i < 1024; i++) a[i] = b[i] * 2; }",
            function_name="f",
            suite="user",
        )
        result = framework.optimize_kernel(kernel)
        assert result.decisions[0][0] >= 1
        assert "#pragma clang loop" in result.transformed_source

    def test_decisions_render_as_pragmas(self, framework, dot_kernel):
        result = framework.optimize_kernel(dot_kernel)
        vf, interleave = result.decisions[0]
        pragma = format_pragma(LoopPragma(vectorize_width=vf, interleave_count=interleave))
        assert pragma.startswith("#pragma clang loop")

    def test_observe_loop_dimension(self, framework, dot_kernel):
        loops = extract_loops(dot_kernel.source, function_name=dot_kernel.function_name)
        observation = framework.observe_loop(loops[0])
        assert observation.shape == (framework.embedding_model.config.code_vector_dim,)

    def test_baseline_agent_framework_is_neutral(self, dot_kernel):
        kernels = [dot_product_kernel()]
        embedding = build_embedding_model(kernels)
        pipeline = CompileAndMeasure()
        framework = NeuroVectorizer(embedding, BaselineAgent(pipeline), pipeline)
        result = framework.optimize_kernel(dot_kernel)
        assert result.speedup_over_baseline == pytest.approx(1.0, rel=1e-9)

    def test_source_without_loops_has_no_decision_sites(self, framework):
        kernel = LoopKernel(
            name="user_kernel", source="int f() { return 3; }", function_name="f"
        )
        assert framework.decide_sites(kernel) == {}
        result = framework.optimize_kernel(kernel)
        assert result.decisions == {}
        assert "#pragma" not in result.transformed_source
