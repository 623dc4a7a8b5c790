"""End-to-end integration tests: benchmark -> mapper -> scheduler -> evaluation.

These tests exercise the full pipeline on scaled-down versions of the paper's
workloads and assert the *qualitative* claims of Section 4.2:

* shuttling-only mapping adds no CZ gates; gate-based mapping is orders of
  magnitude faster in circuit time,
* on shuttling-optimised hardware the shuttling capability gives the smaller
  fidelity decrease; on gate-optimised hardware the gate capability does,
* the hybrid mapper (best decision ratio) never does meaningfully worse than
  the better of the two pure strategies.
"""

import dataclasses

import pytest

from repro.circuit import decompose_mcx_to_mcz
from repro.circuit.library import get_benchmark
from repro.evaluation import evaluate, run_mode_comparison
from repro.hardware import SiteConnectivity
from repro.hardware.presets import gate_optimised, mixed, shuttling_optimised
from repro.mapping import HybridMapper, MapperConfig, shuttling_router
from repro.scheduling import Scheduler, validate_schedule

from routing_reference import reference_routers


QUICK_ALPHAS = (0.05, 1.0, 20.0)


@pytest.fixture(scope="module")
def graph_circuit():
    # 28 qubits on a 30-atom / 49-site lattice: dense enough that routing
    # effort differs clearly between the two capabilities.
    return get_benchmark("graph", num_qubits=28, seed=11)


@pytest.fixture(scope="module")
def reversible_circuit():
    return decompose_mcx_to_mcz(get_benchmark("gray", num_qubits=14, seed=11))


class TestQualitativeClaims:
    def test_shuttling_only_adds_no_cz_and_gate_only_is_fast(self, graph_circuit):
        architecture = mixed(lattice_rows=7, num_atoms=30)
        results = run_mode_comparison(graph_circuit, architecture, alpha_grid=(1.0,))
        shuttle = results["shuttling_only"]
        gate = results["gate_only"]
        assert shuttle.delta_cz == 0
        assert gate.delta_cz > 0
        assert gate.delta_t_us < shuttle.delta_t_us

    def test_shuttling_hardware_prefers_shuttling(self, graph_circuit):
        architecture = shuttling_optimised(lattice_rows=7, num_atoms=30)
        results = run_mode_comparison(graph_circuit, architecture,
                                      alpha_grid=QUICK_ALPHAS)
        assert results["shuttling_only"].delta_fidelity < results["gate_only"].delta_fidelity
        assert results["hybrid"].delta_fidelity <= \
            results["shuttling_only"].delta_fidelity + 1e-6

    def test_gate_hardware_prefers_gates(self, graph_circuit):
        architecture = gate_optimised(lattice_rows=7, num_atoms=30)
        results = run_mode_comparison(graph_circuit, architecture,
                                      alpha_grid=QUICK_ALPHAS)
        assert results["gate_only"].delta_fidelity < results["shuttling_only"].delta_fidelity
        assert results["hybrid"].delta_fidelity <= results["gate_only"].delta_fidelity + 1e-6

    def test_hybrid_never_worse_than_best_pure_mode_on_mixed_hardware(
            self, reversible_circuit):
        architecture = mixed(lattice_rows=7, num_atoms=30)
        results = run_mode_comparison(reversible_circuit, architecture,
                                      alpha_grid=QUICK_ALPHAS)
        best_pure = min(results["shuttling_only"].delta_fidelity,
                        results["gate_only"].delta_fidelity)
        assert results["hybrid"].delta_fidelity <= best_pure + 1e-6


class TestPipelineConsistency:
    @pytest.mark.parametrize("hardware_factory", [shuttling_optimised, gate_optimised,
                                                  mixed])
    def test_full_pipeline_on_multiqubit_benchmark(self, hardware_factory,
                                                   reversible_circuit):
        architecture = hardware_factory(lattice_rows=7, num_atoms=30)
        connectivity = SiteConnectivity(architecture)
        mapper = HybridMapper(architecture, MapperConfig.hybrid(1.0),
                              connectivity=connectivity)
        result = mapper.map(reversible_circuit)
        result.verify_complete()
        schedule = Scheduler(architecture, connectivity).schedule_result(result)
        assert validate_schedule(schedule, architecture) == []
        metrics = evaluate(reversible_circuit, result, architecture,
                           connectivity=connectivity)
        assert metrics.delta_fidelity >= 0
        assert metrics.mapped_makespan_us >= metrics.original_makespan_us

    def test_delta_cz_counts_agree_between_result_and_schedule(self, graph_circuit):
        architecture = mixed(lattice_rows=7, num_atoms=30)
        mapper = HybridMapper(architecture, MapperConfig.gate_only())
        result = mapper.map(graph_circuit)
        metrics = evaluate(graph_circuit, result, architecture)
        assert metrics.delta_cz == result.additional_cz_count()

    def test_qft_and_qpe_complete_on_mixed_hardware(self):
        architecture = mixed(lattice_rows=7, num_atoms=30)
        connectivity = SiteConnectivity(architecture)
        for name in ("qft", "qpe"):
            circuit = get_benchmark(name, num_qubits=12)
            result = HybridMapper(architecture, MapperConfig.hybrid(1.0),
                                  connectivity=connectivity).map(circuit)
            result.verify_complete()
            metrics = evaluate(circuit, result, architecture, connectivity=connectivity)
            assert metrics.delta_fidelity >= 0


class TestIncrementalCostEngineEquivalence:
    """The incremental routing-cost engine must not change one emitted op.

    Perf PRs are only allowed to make the mapper faster: the SWAP/chain
    selections — and therefore the entire operation stream and every Table-1
    metric derived from it — have to stay bit-identical to the naive
    full-recomputation scoring of ``tests/differential/routing_reference.py``.
    The ``forced`` screen arm runs the exact ``best_chain`` screen on every
    round, not only on wide fronts, and must still match the unscreened
    reference scan.
    """

    @staticmethod
    def _config(mode):
        return {"hybrid": MapperConfig.hybrid(1.0),
                "gate_only": MapperConfig.gate_only(),
                "shuttling_only": MapperConfig.shuttling_only()}[mode]

    @pytest.mark.parametrize("screen", ["default", "forced"])
    @pytest.mark.parametrize("mode", ["hybrid", "gate_only", "shuttling_only"])
    @pytest.mark.parametrize("circuit_fixture",
                             ["graph_circuit", "reversible_circuit"])
    def test_operation_stream_bit_identical_without_engine(
            self, request, monkeypatch, mode, circuit_fixture, screen):
        if screen == "forced":
            monkeypatch.setattr(shuttling_router, "_SCREEN_FRONT_WIDTH", 0)
        circuit = request.getfixturevalue(circuit_fixture)
        self._assert_streams_match(circuit, self._config(mode))

    @pytest.mark.parametrize("mode,circuit_fixture", [
        ("gate_only", "graph_circuit"), ("gate_only", "reversible_circuit"),
        ("hybrid", "reversible_circuit")])
    def test_lookahead_and_recency_terms_bit_identical(
            self, request, mode, circuit_fixture):
        """Without commutation the lookahead layer is populated, and with
        ``decay_rate > 0`` the recency factor of Eq. (2) scales every cost:
        the two terms no perfbench workload or golden case exercises.
        (hybrid routes graph_circuit by shuttling alone, so it is left out.)"""
        circuit = request.getfixturevalue(circuit_fixture)
        config = dataclasses.replace(self._config(mode),
                                     use_commutation=False, decay_rate=0.5)
        assert self._assert_streams_match(circuit, config).num_swaps > 0

    @staticmethod
    def _assert_streams_match(circuit, config):
        architecture = mixed(lattice_rows=7, num_atoms=30)
        connectivity = SiteConnectivity(architecture)
        fast_mapper = HybridMapper(architecture, config, connectivity=connectivity)
        naive_mapper = HybridMapper(architecture, config, connectivity=connectivity)

        fast = fast_mapper.map(circuit)
        with reference_routers(naive_mapper):
            naive = naive_mapper.map(circuit)

        assert fast.operations == naive.operations
        assert fast.num_swaps == naive.num_swaps
        assert fast.num_moves == naive.num_moves
        assert fast.final_qubit_map == naive.final_qubit_map
        assert fast.final_atom_map == naive.final_atom_map
        return fast
