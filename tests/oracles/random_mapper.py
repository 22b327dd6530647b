"""Scalar random-mapper and fit-check oracle: the code the draw plan replaced.

Before :mod:`repro.mapping.random_mapper` drew a whole mapping with one
``rng.integers`` call, an attempt made one call per prime factor of every
dimension (:func:`_random_split`) and one ``rng.choice`` per level ordering,
and :func:`mapping_fits_hardware` read every tile extent through its own
:func:`inner_extent` NumPy product.  This module keeps that code as the
reference the fast path is tested against, bit for bit, including the
generator state it leaves behind.

One thing differs from the code it keeps: :func:`capacity_requirements` sums
each level's tensors in ``TENSORS`` order.  The original iterated the
level's ``BYPASS_MATRIX`` frozenset, whose order follows the string hash
seed, so for non-integral factors its float sum depended on
``PYTHONHASHSEED`` and could not anchor a bitwise test.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import (
    BYPASS_MATRIX,
    LEVEL_ACCUMULATOR,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.arch.config import HardwareConfig
from repro.mapping.constraints import spatial_requirement
from repro.mapping.mapping import (
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_LEVELS,
    SPATIAL_DIMS,
)
from repro.utils.math_utils import prime_factorization
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.layer import DIMENSIONS, TENSORS, LayerDims


def _random_split(
    value: int, num_positions: int, rng: np.random.Generator
) -> list[int]:
    """Split ``value`` into ``num_positions`` integer factors whose product is ``value``."""
    factors = [1] * num_positions
    for prime in prime_factorization(value):
        position = int(rng.integers(num_positions))
        factors[position] *= prime
    return factors


def random_mapping(
    layer: LayerDims,
    seed: SeedLike = None,
    max_spatial: int = 128,
    randomize_orderings: bool = True,
) -> Mapping:
    """Sample a structurally valid random mapping for ``layer``.

    A ``max_spatial`` below 1 never returns here (the cap loop spins on a
    spatial value of 1); the fast path rejects it up front instead.
    """
    rng = make_rng(seed)
    mapping = Mapping(layer=layer)
    spatial_levels = {dim: level for level, dim in SPATIAL_DIMS}

    for dim in DIMENSIONS:
        j = DIM_INDEX[dim]
        has_spatial = dim in spatial_levels
        num_positions = NUM_LEVELS + (1 if has_spatial else 0)
        split = _random_split(layer.dim(dim), num_positions, rng)
        for level in range(NUM_LEVELS):
            mapping.temporal[level, j] = float(split[level])
        if has_spatial:
            spatial_value = split[NUM_LEVELS]
            level = spatial_levels[dim]
            while spatial_value > max_spatial:
                for prime in prime_factorization(spatial_value):
                    if spatial_value // prime <= max_spatial or prime > 1:
                        spatial_value //= prime
                        mapping.temporal[level, j] *= prime
                        break
            mapping.spatial[level, j] = float(spatial_value)

    if randomize_orderings:
        orderings = tuple(
            LoopOrdering(rng.choice([o.value for o in LoopOrdering]))
            for _ in range(NUM_LEVELS)
        )
        mapping = mapping.with_orderings(orderings)
    return mapping


def random_mapping_for_hardware(
    layer: LayerDims,
    config: HardwareConfig,
    seed: SeedLike = None,
    max_attempts: int = 200,
    randomize_orderings: bool = True,
) -> Mapping | None:
    """Rejection-sample a mapping that fits ``config``; None if none found."""
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


def inner_extent(mapping: Mapping, level: int, dim: str) -> float:
    """Extent of dimension ``dim`` inside the level-``level`` tile."""
    j = DIM_INDEX[dim]
    extent = float(mapping.spatial[:, j].prod())
    for inner_level in range(level):
        extent *= float(mapping.temporal[inner_level, j])
    return extent


def tensor_tile_words(mapping: Mapping, level: int, tensor: str) -> float:
    """Words of tensor ``tensor`` that level ``level`` must hold (Eq. 2-4)."""
    layer = mapping.layer
    if tensor == "W":
        words = 1.0
        for dim in ("R", "S", "C", "K"):
            words *= inner_extent(mapping, level, dim)
        return words
    if tensor == "O":
        words = 1.0
        for dim in ("P", "Q", "K", "N"):
            words *= inner_extent(mapping, level, dim)
        return words
    if tensor == "I":
        words = inner_extent(mapping, level, "C") * inner_extent(mapping, level, "N")
        height = layer.stride_p * (inner_extent(mapping, level, "P") - 1.0) + inner_extent(
            mapping, level, "R"
        )
        width = layer.stride_q * (inner_extent(mapping, level, "Q") - 1.0) + inner_extent(
            mapping, level, "S"
        )
        return words * height * width
    raise KeyError(f"unknown tensor {tensor!r}")


def capacity_requirements(mapping: Mapping) -> dict[int, float]:
    """Total words each memory level must hold for ``mapping`` (Eq. 5)."""
    requirements: dict[int, float] = {}
    for level in MEMORY_LEVEL_INDICES:
        total = 0.0
        for tensor in TENSORS:
            if tensor in BYPASS_MATRIX[level]:
                total += tensor_tile_words(mapping, level, tensor)
        requirements[level] = total
    return requirements


def mapping_fits_hardware(
    mapping: Mapping, config: HardwareConfig, tolerance: float = 1e-6
) -> bool:
    """True when ``mapping`` fits within ``config``'s PE array and SRAMs."""
    if spatial_requirement(mapping) > config.pe_dim + tolerance:
        return False
    requirements = capacity_requirements(mapping)
    if requirements[LEVEL_REGISTERS] > config.register_words + tolerance:
        return False
    if requirements[LEVEL_ACCUMULATOR] > config.accumulator_words + tolerance:
        return False
    if requirements[LEVEL_SCRATCHPAD] > config.scratchpad_words + tolerance:
        return False
    return True
