"""The one-draw random mapper and the table-based fit check against their oracle.

``repro.mapping.random_mapper`` draws a whole mapping attempt with one
``rng.integers`` call over a cached draw plan, and the capacity functions of
``repro.mapping.constraints`` read one inner-extent table per mapping.  The
scalar code they replaced lives in ``tests/oracles/random_mapper.py``; these
tests hold the fast path to it bit for bit: factor bytes, orderings, fit
decisions, capacity floats and the generator state after every call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from oracles import random_mapper as oracle
from repro.arch import HardwareConfig
from repro.arch.components import LEVEL_DRAM, MEMORY_LEVEL_INDICES
from repro.mapping import constraints, random_mapper
from repro.mapping.mapping import Mapping, NUM_DIMS, NUM_LEVELS
from repro.utils.serialization import canonical_outcome_json
from repro.workloads import LayerDims, get_network

# Size-1 dims draw nothing; 97/101/127/251 are large primes (one draw that
# either fits under the spatial cap whole or not at all); the rest mix small
# primes with multiplicity.
DIM_SIZES = st.sampled_from([1, 1, 2, 3, 4, 7, 12, 16, 56, 64, 97, 101, 127, 251, 384, 768])

layers = st.builds(
    LayerDims,
    R=st.sampled_from([1, 3, 5, 7]),
    S=st.sampled_from([1, 3, 5, 7]),
    P=DIM_SIZES,
    Q=DIM_SIZES,
    C=DIM_SIZES,
    K=DIM_SIZES,
    N=st.sampled_from([1, 1, 2, 3]),
    stride_p=st.sampled_from([1, 2]),
    stride_q=st.sampled_from([1, 2]),
)
# 1 demotes every spatial prime; odd caps leave some prime products straddling
# the cap; 128 is the search default.
max_spatials = st.sampled_from([1, 3, 7, 15, 16, 31, 128])
hardware = st.builds(
    HardwareConfig,
    pe_dim=st.sampled_from([1, 3, 4, 16, 31, 128]),
    accumulator_kb=st.sampled_from([1, 4, 32, 256]),
    scratchpad_kb=st.sampled_from([1, 8, 128, 1024]),
)


def assert_same_mapping(expected: Mapping, actual: Mapping) -> None:
    assert actual.temporal.tobytes() == expected.temporal.tobytes()
    assert actual.spatial.tobytes() == expected.spatial.tobytes()
    assert actual.orderings == expected.orderings


class TestRandomMappingMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(layers, max_spatials, st.booleans()), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_draw_sequence(self, calls, seed):
        """Every call of a shared generator gives the oracle's mapping and state."""
        reference_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for layer, max_spatial, randomize_orderings in calls:
            expected = oracle.random_mapping(
                layer, seed=reference_rng, max_spatial=max_spatial,
                randomize_orderings=randomize_orderings)
            actual = random_mapper.random_mapping(
                layer, seed=rng, max_spatial=max_spatial,
                randomize_orderings=randomize_orderings)
            assert_same_mapping(expected, actual)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(layers, hardware, st.sampled_from([1, 2, 5, 200]),
                              st.booleans()), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_rejection_sampling(self, calls, seed):
        """Fit decisions, accepted mappings and the trailing state all match."""
        reference_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for layer, config, max_attempts, randomize_orderings in calls:
            expected = oracle.random_mapping_for_hardware(
                layer, config, seed=reference_rng, max_attempts=max_attempts,
                randomize_orderings=randomize_orderings)
            actual = random_mapper.random_mapping_for_hardware(
                layer, config, seed=rng, max_attempts=max_attempts,
                randomize_orderings=randomize_orderings)
            assert (actual is None) == (expected is None)
            if expected is not None:
                assert_same_mapping(expected, actual)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_all_unit_layer_draws_only_orderings(self):
        layer = LayerDims()
        for randomize_orderings in (True, False):
            reference_rng = np.random.default_rng(3)
            rng = np.random.default_rng(3)
            assert_same_mapping(
                oracle.random_mapping(layer, seed=reference_rng,
                                      randomize_orderings=randomize_orderings),
                random_mapper.random_mapping(layer, seed=rng,
                                             randomize_orderings=randomize_orderings))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_cap_below_one_is_rejected(self):
        # The scalar cap loop spun forever here: a value of 1 never fits a
        # cap of 0 and has no prime left to demote.
        for max_spatial in (0, 0.5, -3):
            with pytest.raises(ValueError, match="max_spatial"):
                random_mapper.random_mapping(LayerDims(C=4, K=4), seed=0,
                                             max_spatial=max_spatial)


def non_integral_mappings():
    factors = st.floats(0.05, 64.0, allow_nan=False, allow_infinity=False)
    shape = (NUM_LEVELS, NUM_DIMS)
    grids = st.lists(factors, min_size=NUM_LEVELS * NUM_DIMS,
                     max_size=NUM_LEVELS * NUM_DIMS).map(
        lambda values: np.array(values).reshape(shape))
    return st.builds(lambda layer, temporal, spatial: Mapping(
        layer=layer, temporal=temporal, spatial=spatial), layers, grids, grids)


class TestCapacityMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(non_integral_mappings(), hardware)
    def test_non_integral_factors(self, mapping, config):
        for level in MEMORY_LEVEL_INDICES:
            for tensor in ("W", "I", "O"):
                assert (constraints.tensor_tile_words(mapping, level, tensor)
                        == oracle.tensor_tile_words(mapping, level, tensor))
        assert (constraints.capacity_requirements(mapping)
                == oracle.capacity_requirements(mapping))
        assert (constraints.mapping_fits_hardware(mapping, config)
                == oracle.mapping_fits_hardware(mapping, config))

    def test_dram_sum_is_in_tensor_order(self):
        """The DRAM level sums ``(W + I) + O``, whatever the bypass set's hash order."""
        rng = np.random.default_rng(11)
        layer = LayerDims(R=3, S=3, P=14, Q=14, C=64, K=96, N=2)
        discriminating = 0
        for _ in range(200):
            mapping = Mapping(layer=layer,
                              temporal=rng.uniform(0.3, 9.0, (NUM_LEVELS, NUM_DIMS)),
                              spatial=rng.uniform(0.3, 9.0, (NUM_LEVELS, NUM_DIMS)))
            w, i, o = (constraints.tensor_tile_words(mapping, LEVEL_DRAM, tensor)
                       for tensor in ("W", "I", "O"))
            assert constraints.capacity_requirements(mapping)[LEVEL_DRAM] == (w + i) + o
            discriminating += (w + i) + o != (w + o) + i
        # The corpus must contain sums that another order would round differently.
        assert discriminating > 0


class TestSearchesMatchOracle:
    @pytest.mark.parametrize("strategy, kwargs", [
        ("random", {}),
        ("bayesian", {}),
        ("fixed_hw_random", {"hardware": HardwareConfig(16, 32, 128)}),
    ])
    def test_seeded_search_is_byte_identical(self, monkeypatch, strategy, kwargs):
        """A seeded search gives the same canonical bytes with the oracle patched in."""
        import repro.search.bayesian as bayesian_module
        import repro.search.random_mapper_search as fixed_module
        import repro.search.random_search as random_module

        def search():
            return canonical_outcome_json(repro.optimize(
                "bert", strategy=strategy, budget=150, seed=1, **kwargs))

        fast = search()
        for module in (random_module, bayesian_module, fixed_module):
            monkeypatch.setattr(module, "random_mapping_for_hardware",
                                oracle.random_mapping_for_hardware)
        monkeypatch.setattr(fixed_module, "random_mapping", oracle.random_mapping)
        monkeypatch.setattr(bayesian_module, "tensor_tile_words", oracle.tensor_tile_words)
        assert search() == fast


def test_resnet50_draws_match_oracle():
    """Every resnet50 layer, at the search caps, over one shared generator."""
    network = get_network("resnet50")
    reference_rng = np.random.default_rng(5)
    rng = np.random.default_rng(5)
    for step in range(10):
        for layer in network.layers:
            max_spatial = (1, 16, 31, 128)[step % 4]
            assert_same_mapping(
                oracle.random_mapping(layer, seed=reference_rng, max_spatial=max_spatial),
                random_mapper.random_mapping(layer, seed=rng, max_spatial=max_spatial))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
