"""Random valid-mapping generation.

Random mappings serve three roles in the reproduction, mirroring the paper:

* the correlation dataset of Figure 4 (random Gemmini configs x random
  mappings),
* the mapping side of the random-search and Bayesian-optimization baselines
  (Sections 6.1 and 6.3), including the "random-pruned" mapper used to
  evaluate the fixed baseline accelerators of Figure 8,
* the training dataset for the DNN latency-difference predictor (Section 6.5).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.arch.config import HardwareConfig
from repro.mapping.constraints import mapping_fits_hardware
from repro.mapping.mapping import (
    DEFAULT_ORDERINGS,
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_DIMS,
    NUM_LEVELS,
    SPATIAL_DIMS,
)
from repro.utils.math_utils import prime_factorization
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.layer import DIMENSIONS, LayerDims

_ORDERINGS = tuple(LoopOrdering)
_SPATIAL_LEVEL = {DIM_INDEX[dim]: level for level, dim in SPATIAL_DIMS}


@lru_cache(maxsize=4096)
def _draw_plan(layer: LayerDims, randomize_orderings: bool) -> tuple[np.ndarray, tuple]:
    """The bound of every draw one attempt makes, and each prime draw's ``(dim, prime)``.

    Each prime factor of each dimension (ascending, dimensions in canonical
    order) draws its position, a temporal level or the spatial slot
    ``NUM_LEVELS`` of C and K; then each level draws its loop ordering.
    """
    slots = tuple((DIM_INDEX[dim], prime) for dim in DIMENSIONS
                  for prime in prime_factorization(layer.dim(dim)))
    highs = [NUM_LEVELS + (j in _SPATIAL_LEVEL) for j, _ in slots]
    highs = np.array(highs + [len(_ORDERINGS)] * (NUM_LEVELS * randomize_orderings),
                     dtype=np.int64)
    highs.setflags(write=False)  # shared by every caller through the cache
    return highs, slots


def random_mapping(
    layer: LayerDims,
    seed: SeedLike = None,
    max_spatial: int = 128,
    randomize_orderings: bool = True,
) -> Mapping:
    """Sample a structurally valid random mapping for ``layer``.

    Every prime factor lands at a uniformly random position, all drawn by one
    ``rng.integers`` call, so every divisor split is reachable.  Spatial
    factors (C at the accumulator, K at the scratchpad) are capped at
    ``max_spatial``; their smallest primes spill into the same level's
    temporal factor so the per-dimension product stays exact.
    """
    if max_spatial < 1:
        raise ValueError(f"max_spatial must be >= 1, got {max_spatial}")
    highs, slots = _draw_plan(layer, randomize_orderings)
    draws = make_rng(seed).integers(0, highs).tolist()
    temporal = [[1] * NUM_DIMS for _ in range(NUM_LEVELS)]
    spatial_primes: dict[int, list[int]] = {j: [] for j in _SPATIAL_LEVEL}
    for (j, prime), position in zip(slots, draws):
        if position < NUM_LEVELS:
            temporal[position][j] *= prime
        else:
            spatial_primes[j].append(prime)
    spatial = np.ones((NUM_LEVELS, NUM_DIMS))
    for j, primes in spatial_primes.items():
        level = _SPATIAL_LEVEL[j]
        while math.prod(primes) > max_spatial:
            temporal[level][j] *= primes.pop(0)
        spatial[level, j] = math.prod(primes)
    # The draws after the prime slots are the orderings, if any were drawn.
    orderings = tuple(_ORDERINGS[draw] for draw in draws[len(slots):])
    return Mapping(layer=layer, temporal=np.array(temporal, dtype=np.float64),
                   spatial=spatial, orderings=orderings or DEFAULT_ORDERINGS)


def random_mapping_for_hardware(
    layer: LayerDims,
    config: HardwareConfig,
    seed: SeedLike = None,
    max_attempts: int = 200,
    randomize_orderings: bool = True,
) -> Mapping | None:
    """Sample a random mapping that fits ``config``; None if none found.

    This is the inner-loop mapper of the two-loop baselines: mappings are
    rejection-sampled against the hardware's PE-array and SRAM capacities.
    """
    rng = make_rng(seed)
    for _ in range(max_attempts):
        candidate = random_mapping(
            layer,
            seed=rng,
            max_spatial=config.pe_dim,
            randomize_orderings=randomize_orderings,
        )
        if mapping_fits_hardware(candidate, config):
            return candidate
    return None
