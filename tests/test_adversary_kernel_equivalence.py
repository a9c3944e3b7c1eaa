"""Security kernel vs scalar scoring must be estimate-for-estimate identical.

The :class:`~repro.adversary.kernel.SecurityBatchKernel` claims that for a
shared :class:`~repro.adversary.kernel.SecurityTrialBlock` the vectorised
run-length traceable rate and the LUT-based entropy-ratio anonymity equal
the per-trial ``PathTracer`` / ``observed_path_anonymity`` walk exactly —
not statistically, bit-for-bit: both paths consume the same sampled draws,
the run-length sums are small exact integers, and the anonymity values come
from the same ``path_anonymity_exact`` evaluations. These tests check the
claim across grid shapes, compromise models, topologies, figure series, the
legacy per-trial oracle (:func:`tests.oracles.legacy_security_montecarlo`)
for ``sample()``-only models, and the kernel→scalar degradation rung of
the parallel chunk ladder.
"""

import numpy as np
import pytest

from repro.adversary.compromise import (
    CompromiseModel,
    make_compromise_model,
)
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    anonymity_lookup,
    sample_security_block,
)
from repro.analysis.anonymity import path_anonymity_exact
from repro.analysis.traceable import traceable_rate_empirical
from repro.experiments import runners
from repro.experiments.parallel import _run_chunk
from repro.experiments.runners import (
    reference_node_weights,
    security_montecarlo,
    security_sweep_montecarlo,
)
from tests.oracles import legacy_security_montecarlo


def variant(onion_routers=3, copies=1, rate=0.1):
    return SecuritySweepVariant(
        label=f"K={onion_routers} L={copies} c={rate:g}",
        onion_routers=onion_routers,
        copies=copies,
        compromise_rate=rate,
    )


MIXED_GRID = (
    variant(3, 1, 0.10),
    variant(5, 3, 0.30),
    variant(2, 2, 0.02),
    variant(3, 5, 0.50),
)


# ----------------------------------------------------------------------
# single-point equivalence across the parameter space
# ----------------------------------------------------------------------


class TestSinglePointEquivalence:
    @pytest.mark.parametrize("onion_routers", [1, 3, 7])
    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_kernel_matches_scalar_exactly(self, onion_routers, copies, rate):
        args = (100, 3, onion_routers, copies, rate, 400)
        kernel = security_montecarlo(*args, rng=11, kernel=True)
        scalar = security_montecarlo(*args, rng=11, kernel=False)
        assert kernel == scalar

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_is_the_kernel_path(self, seed):
        args = (60, 4, 3, 2, 0.2, 300)
        default = security_montecarlo(*args, rng=seed)
        kernel = security_montecarlo(*args, rng=seed, kernel=True)
        assert default == kernel

    def test_overlapping_groups_equivalence(self):
        # Cambridge scale: disjoint groups impossible at n=12, g=10.
        args = (12, 10, 3, 1, 0.25, 400)
        kernel = security_montecarlo(*args, rng=7, overlapping=True, kernel=True)
        scalar = security_montecarlo(*args, rng=7, overlapping=True, kernel=False)
        assert kernel == scalar

    def test_zero_compromise(self):
        traceable, anonymity = security_montecarlo(
            100, 5, 3, 1, 0.0, 200, rng=3
        )
        assert traceable == 0.0
        assert anonymity == pytest.approx(1.0)

    def test_estimates_lie_in_range(self):
        traceable, anonymity = security_montecarlo(100, 5, 3, 3, 0.3, 500, rng=9)
        assert 0.0 <= traceable <= 1.0
        assert 0.0 <= anonymity <= 1.0


# ----------------------------------------------------------------------
# fused sweeps: shared block, common random numbers
# ----------------------------------------------------------------------


class TestFusedSweepEquivalence:
    @pytest.mark.parametrize("overlapping,n,g", [(False, 100, 3), (True, 12, 10)])
    def test_mixed_grid_matches_scalar(self, overlapping, n, g):
        kernel = security_sweep_montecarlo(
            n, g, MIXED_GRID, 300, rng=5, overlapping=overlapping, kernel=True
        )
        scalar = security_sweep_montecarlo(
            n, g, MIXED_GRID, 300, rng=5, overlapping=overlapping, kernel=False
        )
        assert kernel == scalar
        assert len(kernel) == 2 * len(MIXED_GRID)

    @pytest.mark.parametrize("name", ["uniform", "bernoulli", "targeted", "stake"])
    def test_every_builtin_model_matches_scalar(self, name):
        kernel = security_sweep_montecarlo(
            50, 3, MIXED_GRID, 200, rng=13, kernel=True, compromise_model=name
        )
        scalar = security_sweep_montecarlo(
            50, 3, MIXED_GRID, 200, rng=13, kernel=False, compromise_model=name
        )
        assert kernel == scalar

    def test_common_random_numbers_nest_uniform_masks(self):
        # Same block, rising rates: the uniform model compromises the
        # count smallest keys, so lower-rate sets nest in higher-rate sets.
        block = sample_security_block(
            60, 3, k_max=3, l_max=1, trials=50, rng=np.random.default_rng(1)
        )
        model = CompromiseModel(60, 0.1)
        masks = [
            model.mask_from_keys(block.compromise_keys, rate=rate)
            for rate in (0.1, 0.2, 0.4)
        ]
        assert np.all(masks[0] <= masks[1])
        assert np.all(masks[1] <= masks[2])

    def test_variant_prefix_property(self):
        # A fused grid samples one block at (k_max, l_max); a K=3 variant
        # scored there must match a dedicated K=3 block's leading columns,
        # which the single-variant sweep realises with the same rng.
        grid = (variant(3, 1, 0.1), variant(3, 1, 0.3))
        fused = security_sweep_montecarlo(80, 3, grid, 250, rng=21)
        masks_only_differ = fused[0] != fused[2] or fused[1] != fused[3]
        assert masks_only_differ  # different rates actually score differently

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one variant"):
            security_sweep_montecarlo(100, 3, (), 100, rng=0)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            security_sweep_montecarlo(
                100, 3, (variant(0, 1, 0.1),), 100, rng=0
            )
        with pytest.raises(ValueError):
            security_sweep_montecarlo(
                100, 3, (variant(3, 1, 1.5),), 100, rng=0
            )


# ----------------------------------------------------------------------
# figure series: kernel and scalar produce the same figures
# ----------------------------------------------------------------------


def simulated_values(result):
    """A figure's simulated y values, series by series."""
    return [
        y
        for series in result.series
        if series.label.startswith("Simulation")
        for _, y in series.points
    ]


def scalar_values(n, group_size, grid, seed, metric):
    """The figure's fused grid scored through the per-trial scalar walk."""
    flat = security_sweep_montecarlo(
        n,
        group_size,
        tuple(variant(k, copies, rate) for k, copies, rate in grid),
        150,
        rng=seed,
        kernel=False,
    )
    return list(flat[metric::2])


class TestFigureSeriesEquivalence:
    def test_figure_06_series_identical(self):
        from repro.experiments.config import DEFAULT_CONFIG as config
        from repro.experiments.security_figs import figure_06

        grid = [(k, 1, rate) for k in (3, 5, 10) for rate in config.compromise_rates]
        assert simulated_values(figure_06(trials=150)) == scalar_values(
            config.n, config.group_size, grid, seed=6, metric=0
        )

    def test_figure_12_series_identical(self):
        from repro.experiments.config import DEFAULT_CONFIG
        from repro.experiments.security_figs import figure_12

        config = DEFAULT_CONFIG.with_(group_size=5)
        grid = [
            (config.onion_routers, copies, rate)
            for copies in (1, 3, 5)
            for rate in config.compromise_rates
        ]
        assert simulated_values(figure_12(trials=150)) == scalar_values(
            config.n, 5, grid, seed=12, metric=1
        )

    def test_figure_19_series_identical(self):
        from repro.experiments.trace_figs import figure_19

        rates = tuple(c / 100 for c in range(5, 51, 5))
        grid = [(3, copies, rate) for copies in (1, 3, 5) for rate in rates]
        assert simulated_values(figure_19(trials=150)) == scalar_values(
            41, 5, grid, seed=19, metric=1
        )

    def test_figure_metadata_names_the_adversary(self):
        from repro.experiments.security_figs import figure_08

        result = figure_08(trials=100, compromise_model="targeted")
        assert result.metadata["compromise_model"] == "targeted"


# ----------------------------------------------------------------------
# batch-incapable models: the legacy per-trial loop
# ----------------------------------------------------------------------


class _PerTrialOnly(CompromiseModel):
    """A custom adversary that only knows how to sample one trial."""


class TestIneligibleModels:
    def test_ineligible_model_runs_legacy_loop(self):
        model = _PerTrialOnly(50, 0.2)
        traceable, anonymity = legacy_security_montecarlo(
            50, 3, (variant(3, 1, 0.2),), model, 200, rng=17
        )
        assert 0.0 <= traceable <= 1.0
        assert 0.0 <= anonymity <= 1.0

    def test_ineligible_model_is_deterministic(self):
        model = _PerTrialOnly(50, 0.2)
        first = legacy_security_montecarlo(
            50, 3, (variant(3, 1, 0.2),), model, 200, rng=17
        )
        second = legacy_security_montecarlo(
            50, 3, (variant(3, 1, 0.2),), model, 200, rng=17
        )
        assert first == second

    def test_mixed_grid_rate_mismatch_fails_loudly(self):
        # A per-trial model is pinned to its own rate; a sweep variant
        # asking for a different rate must not silently sample the wrong
        # adversary.
        model = _PerTrialOnly(50, 0.2)
        grid = (variant(3, 1, 0.2), variant(3, 1, 0.4))
        with pytest.raises(ValueError, match="pinned to rate"):
            legacy_security_montecarlo(50, 3, grid, model, 100, rng=0)

    def test_matching_rate_grid_allowed(self):
        model = _PerTrialOnly(50, 0.2)
        grid = (variant(3, 1, 0.2), variant(5, 3, 0.2))
        flat = legacy_security_montecarlo(50, 3, grid, model, 100, rng=0)
        assert len(flat) == 4

    def test_model_population_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n=40"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0,
                compromise_model=CompromiseModel(40, 0.2),
            )

    def test_model_type_rejected(self):
        with pytest.raises(TypeError, match="CompromiseModel"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0, compromise_model=3.14
            )


# ----------------------------------------------------------------------
# the degradation rung: kernel failure falls back to the scalar walk
# ----------------------------------------------------------------------


class TestDegradationRung:
    def test_chunk_ladder_degrades_kernel_to_scalar(self, monkeypatch):
        kwargs = dict(
            n=50, group_size=3, onion_routers=3, copies=1,
            compromise_rate=0.2, kernel=True,
        )
        seed_seq = np.random.SeedSequence(123)
        expected = security_montecarlo(
            trials=150, rng=np.random.default_rng(seed_seq),
            **dict(kwargs, kernel=False),
        )

        def broken_score(self, variants):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(SecurityBatchKernel, "score", broken_score)
        payload = _run_chunk(
            security_montecarlo,
            "trials",
            150,
            np.random.SeedSequence(123),
            None,
            kwargs,
        )
        assert payload.result == expected
        assert payload.events, "the fallback must be recorded"
        assert "injected kernel failure" in payload.events[0]["detail"]

    def test_clean_chunk_records_no_events(self):
        payload = _run_chunk(
            security_montecarlo,
            "trials",
            100,
            np.random.SeedSequence(5),
            None,
            dict(n=50, group_size=3, onion_routers=3, copies=1,
                 compromise_rate=0.2),
        )
        assert payload.events == []


# ----------------------------------------------------------------------
# kernel internals against the reference implementations
# ----------------------------------------------------------------------


class TestKernelInternals:
    def test_anonymity_lookup_matches_exact_formula(self):
        n, eta, group_size = 40, 4, 5
        table = anonymity_lookup(n, eta, group_size)
        assert len(table) == eta + 1
        for exposed in range(eta + 1):
            assert table[exposed] == path_anonymity_exact(
                n, eta, group_size, exposed
            )

    def test_run_length_scoring_matches_empirical(self):
        rng = np.random.default_rng(0)
        block = sample_security_block(
            30, 3, k_max=4, l_max=1, trials=64, rng=rng
        )
        model = CompromiseModel(30, 0.3)
        kernel = SecurityBatchKernel(block, model)
        v = variant(4, 1, 0.3)
        traceable, _ = kernel.score_variant(v)
        mask = model.mask_from_keys(block.compromise_keys, rate=0.3)
        for trial in range(block.trials):
            path = block.copy_paths(trial, 4, 1)[0]
            bits = [1 if node in set(np.flatnonzero(mask[trial])) else 0
                    for node in path]
            assert traceable[trial] == traceable_rate_empirical(bits)

    def test_block_shapes(self):
        block = sample_security_block(
            60, 4, k_max=5, l_max=3, trials=32, rng=np.random.default_rng(1)
        )
        assert block.trials == 32
        assert block.k_max == 5
        assert block.l_max == 3
        assert block.copy_members.shape == (32, 5, 3)
        assert block.compromise_keys.shape == (32, 60)
        assert not np.any(block.sources == block.destinations)

    def test_block_excludes_endpoints_from_routes(self):
        block = sample_security_block(
            12, 10, k_max=3, l_max=2, trials=64,
            rng=np.random.default_rng(2), overlapping=True,
        )
        for trial in range(block.trials):
            members = block.copy_members[trial]
            assert block.sources[trial] not in members
            assert block.destinations[trial] not in members

    def test_variant_wider_than_block_rejected(self):
        block = sample_security_block(
            30, 3, k_max=3, l_max=1, trials=8, rng=np.random.default_rng(0)
        )
        kernel = SecurityBatchKernel(block, CompromiseModel(30, 0.1))
        with pytest.raises(ValueError, match="k_max"):
            kernel.score_variant(variant(5, 1, 0.1))
        with pytest.raises(ValueError, match="l_max"):
            kernel.score_variant(variant(3, 2, 0.1))

    def test_impossible_disjoint_route_rejected(self):
        with pytest.raises(ValueError):
            sample_security_block(
                12, 3, k_max=4, l_max=1, trials=8,
                rng=np.random.default_rng(0),
            )

    def test_impossible_overlapping_group_rejected(self):
        with pytest.raises(ValueError):
            sample_security_block(
                12, 11, k_max=3, l_max=1, trials=8,
                rng=np.random.default_rng(0), overlapping=True,
            )


# ----------------------------------------------------------------------
# parallel merge and reference weights
# ----------------------------------------------------------------------


class TestParallelAndWeights:
    def test_worker_merge_identical_for_kernel_and_scalar(self):
        from repro.experiments.parallel import run_parallel_montecarlo

        common = dict(
            n=50, group_size=3, variants=list(MIXED_GRID), trials=120,
            workers=2, chunks=2,
        )
        kernel = run_parallel_montecarlo(
            security_sweep_montecarlo, rng=31, kernel=True, **common
        )
        scalar = run_parallel_montecarlo(
            security_sweep_montecarlo, rng=31, kernel=False, **common
        )
        assert kernel == scalar

    def test_reference_weights_deterministic(self):
        assert reference_node_weights(30) == reference_node_weights(30)
        assert len(reference_node_weights(30)) == 30
        assert all(w > 0 for w in reference_node_weights(30))

    def test_string_model_resolves_with_weights(self):
        resolved = runners._resolve_compromise_model("targeted", 30)
        assert resolved.n == 30
        assert resolved.name == "targeted"

    def test_unknown_model_name_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0, compromise_model="nonsense"
            )
