"""TAGE folded-index precompute: stream the index/tag pipeline, keep the engine.

TAGE's serial parts — provider selection, USE_ALT_ON_NA, non-consecutive
allocation with the global useful-bit reset — are genuinely sequential,
but everything the per-branch Python loop spends most of its time on is
not: the three folded-history CSRs per tagged table, the path-history
fold and the index/tag hashes are all pure functions of the resolved
trace prefix.  This kernel precomputes the per-branch index and tag
stream of every tagged table — the folds in one fold-bank pass over the
outcomes (:func:`~repro.backends.vector.streams.folded_streams`, shared
across tables and lanes via the per-trace memo), the hashes in a handful
of array passes — and then runs the *real*
:class:`~repro.core.tage.TAGEPredictor` through the real
:class:`~repro.pipeline.engine.SimulationEngine` with the index/tag
computation and the fold bookkeeping replaced by stream lookups.

Because prediction, update, allocation and accounting are the unmodified
interpreter code paths, bit-identity across every scenario (including
allocation order and useful-bit resets) is structural, not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.vector.streams import TraceStreams, fold_bits_stream, plain_int
from repro.common.bits import mask
from repro.core.config import TAGEConfig, make_reference_tage_config
from repro.core.tage import TAGEPredictor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import PredictionInfo
from repro.predictors.registry import PredictorSpec

__all__ = ["TAGEKernel", "TAGELane", "run_tage_lanes", "tage_kernel_for"]


@dataclass(frozen=True)
class TAGEKernel:
    """One supported TAGE configuration (plain ``tage`` specs only)."""

    config: TAGEConfig


def tage_kernel_for(spec: PredictorSpec) -> TAGEKernel | None:
    """The TAGE stream kernel for ``spec``, or None when the config needs interp.

    Mirrors the registry factory's config handling exactly — any spec the
    factory would reject returns None so the interpreter raises today's
    error messages — then gates on what the stream precompute assumes.
    """
    if spec.kind != "tage":
        return None
    raw = spec.config
    try:
        if not raw:
            config = make_reference_tage_config()
        elif "config" in raw:
            if set(raw) != {"config"}:
                return None  # mixed config object + generate keys: factory error
            config = raw["config"]
        else:
            config = TAGEConfig.generate(**raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return None  # the factory will raise its own error on the interp path
    if not isinstance(config, TAGEConfig):
        return None
    if not 1 <= config.path_history_bits <= 62:
        return None
    for length in config.history_lengths:
        if plain_int(length) is None or not 1 <= length <= 100_000:
            return None
    return TAGEKernel(config=config)


class _StreamTAGE(TAGEPredictor):
    """A TAGEPredictor fed precomputed per-branch index/tag streams.

    ``_indices_tags`` becomes a cursor lookup and ``update_history`` only
    advances the cursor — the live folds, history and path registers stay
    untouched (and unread).  Every other code path (prediction
    combination, update, allocation, accounting) is the inherited
    reference implementation.
    """

    def __init__(
        self,
        config: TAGEConfig,
        index_streams: list[list[int]],
        tag_streams: list[list[int]],
    ) -> None:
        super().__init__(config)
        #: Per branch: (indices, tags), as ``_indices_tags`` returns them.
        self._streams = list(zip(zip(*index_streams), zip(*tag_streams)))
        self._cursor = 0

    def _indices_tags(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._streams[self._cursor]

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._cursor += 1


def _streams_for(kernel: TAGEKernel, streams: TraceStreams) -> tuple[list, list]:
    """Per-table index and tag streams for one (config, trace) lane."""
    config = kernel.config
    pcs = streams.arrays.pcs
    path = streams.path_pack(config.path_history_bits)
    tables = range(config.num_tagged_tables)
    lengths = config.history_lengths
    folds = streams.folds(
        [(lengths[t], config.table_log2_entries[t]) for t in tables]
        + [(lengths[t], config.tag_widths[t]) for t in tables]
        + [(lengths[t], max(1, config.tag_widths[t] - 1)) for t in tables]
    )
    index_streams = []
    tag_streams = []
    for table in tables:
        width = config.table_log2_entries[table]
        tag_width = config.tag_widths[table]
        length = lengths[table]
        index_fold, tag_fold_1, tag_fold_2 = folds[table :: len(tables)]
        path_length = min(length, config.path_history_bits)
        path_fold = fold_bits_stream(path & np.int64(mask(path_length)), path_length, width)
        rotation = table % width
        if rotation:
            path_fold = ((path_fold << rotation) | (path_fold >> (width - rotation))) & mask(
                width
            )
        pc_hash = (pcs >> 2) ^ (pcs >> (2 + width)) ^ (pcs >> (2 + 2 * width))
        index_streams.append(((pc_hash ^ index_fold ^ path_fold) & mask(width)).tolist())
        tag_streams.append(
            (((pcs >> 2) ^ tag_fold_1 ^ (tag_fold_2 << 1)) & mask(tag_width)).tolist()
        )
    return index_streams, tag_streams


@dataclass(frozen=True)
class TAGELane:
    """One (configuration, trace) pair for the TAGE stream path."""

    kernel: TAGEKernel
    streams: TraceStreams
    warmup: int


def run_tage_lanes(
    lanes: list[TAGELane], scenario: UpdateScenario, config: PipelineConfig
) -> list[SimulationResult]:
    """Run each lane through the real engine on a stream-fed predictor.

    Allocation is serial state, so lanes run one after another — the win
    is per lane (the fold/index/tag pipeline leaves the inner loop), plus
    the fold streams shared across lanes reading the same trace.
    """
    results = []
    for lane in lanes:
        predictor = _StreamTAGE(lane.kernel.config, *_streams_for(lane.kernel, lane.streams))
        engine = SimulationEngine(predictor, scenario, config)
        results.append(engine.run(lane.streams.trace))
    return results
