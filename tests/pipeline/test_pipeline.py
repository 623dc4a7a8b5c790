"""Tests for the pass-based compilation pipeline.

The crucial property: the pipeline is a *refactoring* of the hand-wired
decompose → map → schedule → evaluate flow, so its operation streams and
metrics are identical to driving :class:`HybridMapper` directly.
"""

import time

import pytest

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.evaluation import evaluate
from repro.hardware import SiteConnectivity
from repro.hardware.presets import mixed
from repro.mapping import HybridMapper, MapperConfig
from repro.pipeline import (
    CompilationContext,
    CompilationPass,
    DecomposePass,
    EvaluatePass,
    InitialLayoutPass,
    PassManager,
    PipelineError,
    RoutingPass,
    SchedulePass,
    compile_circuit,
    default_passes,
    default_pipeline,
)
from repro.telemetry import get_registry, tracing


@pytest.fixture(scope="module")
def architecture():
    return mixed(lattice_rows=7, num_atoms=30)


@pytest.fixture(scope="module")
def connectivity(architecture):
    return SiteConnectivity(architecture)


@pytest.fixture(scope="module")
def graph_circuit():
    return get_benchmark("graph", num_qubits=20, seed=9)


@pytest.fixture(scope="module")
def reversible_circuit():
    return get_benchmark("gray", num_qubits=12, seed=9)


def _pass_spans(spans):
    """The ``pass.<name>`` spans of a trace, in the order the passes ran."""
    return sorted((record for record in spans
                   if record.name.startswith("pass.")),
                  key=lambda record: record.start_s)


def _pass_names(spans):
    return [record.name[len("pass."):] for record in _pass_spans(spans)]


class ExplodingEvaluatePass(CompilationPass):
    """An ``evaluate`` pass that burns 10 ms and then raises."""

    name = "evaluate"

    def run(self, context):
        time.sleep(0.01)
        raise RuntimeError("boom")


class TestDefaultPipeline:
    def test_pass_order(self):
        names = default_pipeline().pass_names()
        assert names == ["decompose", "initial_layout", "routing",
                         "schedule", "evaluate"]

    def test_routing_only_pipeline_skips_evaluation(self, architecture,
                                                    connectivity, graph_circuit):
        with tracing.start_trace("test") as handle:
            context = compile_circuit(graph_circuit, architecture,
                                      MapperConfig.hybrid(1.0),
                                      connectivity=connectivity, evaluate=False)
        assert context.result is not None
        assert context.metrics is None
        assert context.mapped_schedule is None
        assert _pass_names(handle.spans) == ["decompose", "initial_layout",
                                             "routing"]

    def test_context_products_all_populated(self, architecture, connectivity,
                                            graph_circuit):
        with tracing.start_trace("test") as handle:
            context = compile_circuit(graph_circuit, architecture,
                                      MapperConfig.hybrid(1.0),
                                      connectivity=connectivity,
                                      alpha_ratio=1.0)
        assert context.source_circuit is graph_circuit
        assert context.initial_state is not None
        context.result.verify_complete()
        assert context.reference_schedule is not None
        assert context.mapped_schedule is not None
        assert context.metrics.alpha_ratio == pytest.approx(1.0)
        spans = _pass_spans(handle.spans)
        assert _pass_names(spans) == default_pipeline().pass_names()
        assert all(record.status == "ok" and record.duration_s >= 0
                   and record.parent_id == handle.root.span_id
                   for record in spans)

    def test_connectivity_is_built_once_and_shared(self, architecture,
                                                   graph_circuit):
        context = compile_circuit(graph_circuit, architecture,
                                  MapperConfig.shuttling_only())
        assert context.connectivity is not None
        assert context.connectivity is context.initial_state.connectivity


class TestEquivalenceWithDirectMapping:
    @pytest.mark.parametrize("mode", ["hybrid", "gate_only", "shuttling_only"])
    @pytest.mark.parametrize("circuit_fixture",
                             ["graph_circuit", "reversible_circuit"])
    def test_operations_and_metrics_match_hand_wired_flow(
            self, request, architecture, connectivity, mode, circuit_fixture):
        circuit = request.getfixturevalue(circuit_fixture)
        config = MapperConfig.for_mode(mode)
        alpha = 1.0 if mode == "hybrid" else None

        native = decompose_mcx_to_mcz(circuit)
        mapper = HybridMapper(architecture, config, connectivity=connectivity)
        direct_result = mapper.map(native)
        direct_metrics = evaluate(native, direct_result, architecture,
                                  connectivity=connectivity, alpha_ratio=alpha)

        context = compile_circuit(circuit, architecture, config,
                                  connectivity=connectivity, alpha_ratio=alpha)

        assert context.result.operations == direct_result.operations
        assert context.result.num_swaps == direct_result.num_swaps
        assert context.result.num_moves == direct_result.num_moves
        assert context.metrics.delta_cz == direct_metrics.delta_cz
        assert context.metrics.delta_t_us == pytest.approx(direct_metrics.delta_t_us)
        assert context.metrics.delta_fidelity == pytest.approx(
            direct_metrics.delta_fidelity)
        assert context.metrics.circuit_name == direct_metrics.circuit_name


class TestPassComposition:
    def test_custom_pass_sees_and_extends_context(self, architecture,
                                                  connectivity, graph_circuit):
        class CountEntanglingPass(CompilationPass):
            name = "count_entangling"

            def run(self, context):
                context.artifacts["entangling"] = \
                    context.circuit.num_entangling_gates()

        passes = default_passes(evaluate=False)
        passes.insert(1, CountEntanglingPass())
        with tracing.start_trace("test") as handle:
            context = compile_circuit(graph_circuit, architecture,
                                      MapperConfig.hybrid(1.0),
                                      connectivity=connectivity,
                                      pass_manager=PassManager(passes))
        assert context.artifacts["entangling"] == \
            graph_circuit.num_entangling_gates()
        assert _pass_names(handle.spans) == ["decompose", "count_entangling",
                                             "initial_layout", "routing"]

    def test_caller_supplied_initial_state_is_respected(self, architecture,
                                                        connectivity,
                                                        graph_circuit):
        from repro.mapping.initial_layout import compact_layout
        state = compact_layout(architecture, graph_circuit.num_qubits,
                               connectivity)
        context = CompilationContext(
            circuit=graph_circuit, architecture=architecture,
            config=MapperConfig.hybrid(1.0), connectivity=connectivity,
            initial_state=state)
        default_pipeline(evaluate=False).run(context)
        assert context.initial_state is state
        context.result.verify_complete()

    def test_layout_strategy_must_be_known(self):
        with pytest.raises(ValueError):
            InitialLayoutPass("does-not-exist")

    def test_repeated_pass_accumulates_time(self, architecture, connectivity,
                                            graph_circuit):
        manager = PassManager([DecomposePass(), DecomposePass()])
        context = CompilationContext(
            circuit=graph_circuit, architecture=architecture,
            config=MapperConfig.hybrid(1.0), connectivity=connectivity)
        with tracing.start_trace("test") as handle:
            manager.run(context)
        assert _pass_names(handle.spans) == ["decompose", "decompose"]

    def test_raising_pass_still_books_its_own_time(self, architecture,
                                                   connectivity,
                                                   graph_circuit):
        """A failing pass must record its wall time under its own name.

        If the span were only closed after a successful run, the time burnt
        in a raising ``evaluate`` pass would vanish and harness reports
        would mis-attribute the compile time to the routing pass.
        """
        passes = default_passes(evaluate=False) + [ExplodingEvaluatePass()]
        context = CompilationContext(
            circuit=graph_circuit, architecture=architecture,
            config=MapperConfig.hybrid(1.0), connectivity=connectivity)
        with tracing.start_trace("test") as handle:
            with pytest.raises(RuntimeError, match="boom"):
                PassManager(passes).run(context)
        spans = {record.name: record for record in _pass_spans(handle.spans)}
        assert spans["pass.evaluate"].status == "error"
        assert spans["pass.evaluate"].duration_s >= 0.01
        assert spans["pass.routing"].status == "ok"

    def test_pass_histogram_counts_every_run(self, architecture,
                                             connectivity, graph_circuit):
        """The always-on ``repro_pass_seconds`` clock needs no trace: each
        pass run adds one observation under its name, a raising one too."""
        passes = [DecomposePass(), DecomposePass(), InitialLayoutPass(),
                  RoutingPass(), ExplodingEvaluatePass()]
        registry = get_registry()

        def counts():
            return {name: registry.histogram(
                "repro_pass_seconds", labels={"pass": name}).count
                for name in ("decompose", "initial_layout", "routing",
                             "evaluate")}

        before = counts()
        context = CompilationContext(
            circuit=graph_circuit, architecture=architecture,
            config=MapperConfig.hybrid(1.0), connectivity=connectivity)
        with pytest.raises(RuntimeError, match="boom"):
            PassManager(passes).run(context)
        after = counts()
        assert {name: after[name] - before[name] for name in after} == {
            "decompose": 2, "initial_layout": 1, "routing": 1, "evaluate": 1}


class TestPassOrderingErrors:
    def test_schedule_before_routing_raises(self, architecture, graph_circuit):
        context = CompilationContext(circuit=graph_circuit,
                                     architecture=architecture,
                                     config=MapperConfig.hybrid(1.0))
        with pytest.raises(PipelineError):
            SchedulePass().run(context)

    def test_evaluate_before_schedule_raises(self, architecture, graph_circuit):
        context = CompilationContext(circuit=graph_circuit,
                                     architecture=architecture,
                                     config=MapperConfig.hybrid(1.0))
        RoutingPass().run(context)
        with pytest.raises(PipelineError):
            EvaluatePass().run(context)

    def test_require_metrics_raises_without_evaluation(self, architecture,
                                                       graph_circuit):
        context = compile_circuit(graph_circuit, architecture,
                                  MapperConfig.hybrid(1.0), evaluate=False)
        with pytest.raises(PipelineError):
            context.require_metrics()
