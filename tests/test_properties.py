"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.crossover import CoDesignCrossover
from repro.core.genome import (
    CoDesignGenome,
    CoDesignSearchSpace,
    HardwareGenome,
    HardwareSearchSpace,
    MLPGenome,
    MLPSearchSpace,
)
from repro.core.mutation import CoDesignMutator
from repro.core.pareto import pareto_frontier_indices
from repro.hardware.device import ARRIA10_GX1150
from repro.hardware.gemm import block_gemm
from repro.hardware.gpu_model import GPUPerformanceModel
from repro.hardware.device import TITAN_X
from repro.hardware.systolic import GridConfig
from repro.nn.activations import ACTIVATIONS, get_activation
from repro.nn.layers import GemmShape
from repro.nn.mlp import MLPSpec
from repro.nn.preprocessing import one_hot

from tests.conftest import plain_dominates

SETTINGS = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])

grid_strategy = st.builds(
    GridConfig,
    rows=st.sampled_from([1, 2, 4, 8, 16]),
    columns=st.sampled_from([1, 2, 4, 8, 16]),
    interleave_rows=st.sampled_from([1, 2, 4, 8, 16]),
    interleave_columns=st.sampled_from([1, 2, 4, 8, 16]),
    vector_width=st.sampled_from([1, 2, 4, 8]),
)

gemm_strategy = st.builds(
    GemmShape,
    m=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=2048),
    n=st.integers(min_value=1, max_value=2048),
)


class TestBlockedGemmProperties:
    @SETTINGS
    @given(shape=gemm_strategy, config=grid_strategy)
    def test_padding_covers_problem_and_efficiency_bounded(self, shape, config):
        blocked = block_gemm(shape, config)
        assert blocked.padded_m >= shape.m
        assert blocked.padded_n >= shape.n
        assert blocked.padded_k >= shape.k
        assert blocked.padded_m < shape.m + config.block_m
        assert blocked.padded_n < shape.n + config.block_n
        assert blocked.padded_k < shape.k + config.block_k
        assert 0.0 < blocked.padding_efficiency <= 1.0
        assert blocked.useful_flops <= blocked.padded_flops

    @SETTINGS
    @given(shape=gemm_strategy, config=grid_strategy)
    def test_compute_cycles_account_for_all_padded_macs(self, shape, config):
        blocked = block_gemm(shape, config)
        assert blocked.compute_cycles * config.macs_per_cycle == (
            blocked.padded_m * blocked.padded_k * blocked.padded_n
        )

    @SETTINGS
    @given(shape=gemm_strategy, config=grid_strategy)
    def test_dram_traffic_is_at_least_the_result_bytes(self, shape, config):
        blocked = block_gemm(shape, config)
        assert blocked.dram_bytes >= 4 * shape.m * shape.n


class TestParetoProperties:
    vectors = st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1e7, allow_nan=False)),
        min_size=1,
        max_size=30,
    )

    @SETTINGS
    @given(points=vectors)
    def test_frontier_members_are_mutually_non_dominating(self, points):
        frontier = pareto_frontier_indices(points)
        assert frontier  # at least one non-dominated point always exists
        for i in frontier:
            for j in frontier:
                if i != j:
                    assert not plain_dominates(points[i], points[j])

    @SETTINGS
    @given(points=vectors)
    def test_every_non_frontier_point_is_dominated_by_some_frontier_point(self, points):
        frontier = set(pareto_frontier_indices(points))
        for index, point in enumerate(points):
            if index in frontier:
                continue
            assert any(plain_dominates(points[i], point) for i in frontier)

    @SETTINGS
    @given(points=vectors)
    def test_dominance_is_irreflexive_and_antisymmetric(self, points):
        for a in points[:10]:
            assert not plain_dominates(a, a)
            for b in points[:10]:
                if plain_dominates(a, b):
                    assert not plain_dominates(b, a)


@st.composite
def _genomes(draw) -> CoDesignGenome:
    depth = draw(st.integers(min_value=0, max_value=4))
    mlp = MLPGenome(
        hidden_layers=tuple(
            draw(st.lists(st.integers(min_value=1, max_value=100_000), min_size=depth, max_size=depth))
        ),
        activations=tuple(
            draw(st.lists(st.sampled_from(sorted(ACTIVATIONS)), min_size=depth, max_size=depth))
        ),
        use_bias=draw(st.booleans()),
    )
    hardware = HardwareGenome(
        grid=draw(grid_strategy), batch_size=draw(st.integers(min_value=1, max_value=1 << 40))
    )
    return CoDesignGenome(
        mlp=mlp, hardware=hardware, gpu_batch_size=draw(st.integers(min_value=1, max_value=1 << 40))
    )


def _reference_cache_key(genome: CoDesignGenome) -> str:
    """The key as every stored row was written: SHA-256 of the ``json.dumps`` form."""
    canonical = json.dumps(genome.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestGenomeProperties:
    @SETTINGS
    @given(genome=_genomes())
    def test_cache_key_equals_the_json_dumps_form(self, genome):
        assert genome.cache_key() == _reference_cache_key(genome)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bred_children_sharing_a_half_keep_the_json_dumps_key(self, seed):
        space = CoDesignSearchSpace()
        rng = np.random.default_rng(seed)
        mutator = CoDesignMutator(space=space, device=ARRIA10_GX1150)
        crossover = CoDesignCrossover(swap_probability=0.5, device=ARRIA10_GX1150)
        genomes = [space.random_genome(rng, device=ARRIA10_GX1150) for _ in range(4)]
        for genome in genomes:
            genome.cache_key()  # memoize the parents' fragments first
        for _ in range(12):
            first, second = (genomes[int(i)] for i in rng.integers(0, len(genomes), size=2))
            child = mutator.mutate(crossover.recombine(first, second, rng), rng)
            assert child.cache_key() == _reference_cache_key(child)
            genomes.append(child)
        # One half swapped in a copy: the other half (and its fragment) is shared.
        parent, donor = genomes[0], genomes[1]
        child = parent.with_hardware(donor.hardware)
        assert child.mlp is parent.mlp
        assert child.cache_key() == _reference_cache_key(child)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_genomes_always_inside_space_and_feasible(self, seed):
        space = CoDesignSearchSpace()
        rng = np.random.default_rng(seed)
        genome = space.random_genome(rng, device=ARRIA10_GX1150)
        assert space.contains(genome)
        assert genome.hardware.fits(ARRIA10_GX1150)
        # serialization round-trip preserves identity and cache key
        clone = CoDesignGenome.from_dict(genome.to_dict())
        assert clone == genome
        assert clone.cache_key() == genome.cache_key()

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mutation_preserves_space_membership_and_feasibility(self, seed):
        space = CoDesignSearchSpace(
            mlp_space=MLPSearchSpace(max_layers=3, layer_sizes=(16, 64, 256)),
            hardware_space=HardwareSearchSpace(),
        )
        rng = np.random.default_rng(seed)
        mutator = CoDesignMutator(space=space, device=ARRIA10_GX1150)
        genome = space.random_genome(rng, device=ARRIA10_GX1150)
        for _ in range(5):
            genome = mutator.mutate(genome, rng)
            assert space.contains(genome)
            assert genome.hardware.fits(ARRIA10_GX1150)


class TestNNProperties:
    @SETTINGS
    @given(
        batch=st.integers(min_value=1, max_value=64),
        features=st.integers(min_value=1, max_value=64),
        hidden=st.integers(min_value=1, max_value=64),
        classes=st.integers(min_value=2, max_value=10),
        activation=st.sampled_from(["relu", "tanh", "sigmoid", "elu"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_mlp_outputs_are_valid_probability_rows(self, batch, features, hidden, classes, activation, seed):
        from repro.nn.mlp import MLP

        spec = MLPSpec(
            input_size=features,
            output_size=classes,
            hidden_sizes=(hidden,),
            activations=(activation,),
        )
        model = MLP(spec, seed=seed)
        rng = np.random.default_rng(seed)
        out = model.predict_proba(rng.normal(size=(batch, features)))
        assert out.shape == (batch, classes)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)

    @SETTINGS
    @given(
        labels=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100),
    )
    def test_one_hot_round_trip(self, labels):
        labels = np.asarray(labels)
        encoded = one_hot(labels, 10)
        assert encoded.shape == (labels.size, 10)
        np.testing.assert_array_equal(np.argmax(encoded, axis=1), labels)
        np.testing.assert_allclose(encoded.sum(axis=1), 1.0)

    @SETTINGS
    @given(
        name=st.sampled_from(["relu", "tanh", "sigmoid", "elu", "softplus", "leaky_relu"]),
        values=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=50),
    )
    def test_activations_are_finite_and_monotone_nondecreasing(self, name, values):
        activation = get_activation(name)
        z = np.sort(np.asarray(values, dtype=float))
        out = activation.forward(z)
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) >= -1e-9)


class TestHardwareModelProperties:
    @SETTINGS
    @given(
        hidden=st.integers(min_value=8, max_value=512),
        batch=st.sampled_from([128, 256, 512, 1024, 2048]),
    )
    def test_gpu_metrics_invariants(self, hidden, batch):
        spec = MLPSpec(input_size=64, output_size=4, hidden_sizes=(hidden,), activations=("relu",))
        metrics = GPUPerformanceModel(TITAN_X).evaluate(spec, batch_size=batch)
        assert metrics.total_time_seconds > 0
        assert 0 <= metrics.efficiency <= 1
        assert metrics.effective_gflops <= metrics.potential_gflops
        assert metrics.outputs_per_second == pytest.approx(batch / metrics.total_time_seconds)

    @SETTINGS
    @given(
        rows=st.sampled_from([2, 4, 8, 16]),
        columns=st.sampled_from([2, 4, 8, 16]),
        vector=st.sampled_from([2, 4, 8]),
        hidden=st.integers(min_value=8, max_value=512),
    )
    def test_fpga_metrics_invariants(self, rows, columns, vector, hidden):
        from hypothesis import assume

        from repro.hardware.fpga_model import FPGAPerformanceModel

        config = GridConfig(rows=rows, columns=columns, interleave_rows=4, interleave_columns=4, vector_width=vector)
        assume(config.fits(ARRIA10_GX1150))
        spec = MLPSpec(input_size=128, output_size=8, hidden_sizes=(hidden,), activations=("relu",))
        metrics = FPGAPerformanceModel(ARRIA10_GX1150).evaluate(spec, config, batch_size=1024)
        assert metrics.total_time_seconds > 0
        assert metrics.latency_seconds <= metrics.total_time_seconds
        assert 0 < metrics.efficiency <= 1
        assert metrics.effective_gflops <= metrics.potential_gflops * (1 + 1e-9)
        assert metrics.potential_gflops <= config.peak_gflops(ARRIA10_GX1150) + 1e-9


class TestArenaProperties:
    """Arena leaderboard and metric invariants (see tests/test_arena.py)."""

    @SETTINGS
    @given(data=st.data())
    def test_leaderboard_ordering_independent_of_insertion_order(self, data, tmp_path_factory):
        from repro.scenarios import Leaderboard

        entries = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["nsga2", "random", "evolutionary"]),
                    st.sampled_from(["s0", "s1"]),
                    st.integers(min_value=0, max_value=2),
                    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                ),
                min_size=1,
                max_size=8,
                unique_by=lambda e: (e[0], e[1], e[2]),
            )
        )
        shuffled = data.draw(st.permutations(entries))
        base = tmp_path_factory.mktemp("lb")
        with Leaderboard(base / "a.sqlite") as board:
            for strategy, scenario, seed, hv in entries:
                board.record(strategy, scenario, seed, hypervolume=hv)
            first = board.rows()
        with Leaderboard(base / "b.sqlite") as board:
            for strategy, scenario, seed, hv in shuffled:
                board.record(strategy, scenario, seed, hypervolume=hv)
            second = board.rows()
        assert first == second
        # Standings sort is total: scenario asc, then hypervolume desc,
        # ties broken deterministically by (strategy, seed).
        keys = [
            (row["scenario"], -row["hypervolume"], row["strategy"], row["seed"])
            for row in first
        ]
        assert keys == sorted(keys)

    @SETTINGS
    @given(
        frontier=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            ),
            max_size=6,
        ),
        target=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    )
    def test_artifact_metrics_finite_and_non_negative(self, frontier, target):
        import math

        from repro.experiment.artifacts import RunArtifact
        from repro.scenarios import ScenarioPack, artifact_metrics

        artifact = RunArtifact(
            run_id="r",
            dataset="credit_g_like",
            objective="nsga2:codesign",
            seed=0,
            frontier=[
                {"accuracy": accuracy, "fpga_throughput": throughput}
                for accuracy, throughput in frontier
            ],
            statistics={"models_evaluated": len(frontier)},
            best_accuracy=max((a for a, _ in frontier), default=0.0),
        )
        pack = ScenarioPack(
            name="property-metrics-pack",
            description="unregistered scratch pack",
            datasets=("credit_g_like",),
            target_accuracy=target,
        )
        metrics = artifact_metrics(artifact, pack)
        assert math.isfinite(metrics["hypervolume"])
        assert metrics["hypervolume"] >= 0.0
        assert metrics["evals_to_target"] >= 0
        assert metrics["frontier_size"] == len(frontier)

    @SETTINGS
    @given(
        accuracies=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_frontier_archive_best_accuracy_is_running_max(self, accuracies):
        from repro.core.candidate import CandidateEvaluation
        from repro.core.objectives import ObjectiveSpec
        from repro.core.frontier import FrontierArchive
        from repro.core.genome import CoDesignSearchSpace

        space = CoDesignSearchSpace()
        rng = np.random.default_rng(0)
        archive = FrontierArchive(objectives=[ObjectiveSpec.accuracy()])
        running = 0.0
        for accuracy in accuracies:
            evaluation = CandidateEvaluation(
                genome=space.random_genome(rng), accuracy=accuracy
            )
            archive.observe(evaluation)
            running = max(running, accuracy)
            assert archive.best_accuracy == running
        snapshots = archive.snapshots
        best = [snapshot.best_accuracy for snapshot in snapshots]
        assert best == sorted(best)
