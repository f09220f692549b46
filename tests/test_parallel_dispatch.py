"""Chunked dispatch and pool-path determinism."""

from __future__ import annotations

import pytest

from repro.experiments.common import canonical_mix
from repro.parallel import RunPoint, run_many
from repro.parallel.runner import CHUNKS_PER_WORKER, chunk_spans

DURATION_S = 20.0


class TestChunkSpans:
    def test_single_worker_gets_one_chunk(self):
        # One worker has no pool-mates to load-balance against; every
        # extra chunk boundary is pure dispatch overhead.
        assert chunk_spans(17, 1) == [(0, 17)]
        assert chunk_spans(1, 1) == [(0, 1)]

    @pytest.mark.parametrize("count", [1, 5, 16, 17, 100])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_spans_cover_batch_contiguously(self, count, workers):
        spans = chunk_spans(count, workers)
        assert spans[0][0] == 0
        assert spans[-1][1] == count
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start

    def test_chunk_count_targets_chunks_per_worker(self):
        workers = 4
        spans = chunk_spans(1000, workers)
        assert len(spans) == workers * CHUNKS_PER_WORKER

    def test_never_more_chunks_than_items(self):
        assert len(chunk_spans(3, 8)) == 3


class TestPoolPathDeterminism:
    def test_forced_pool_matches_serial_bit_for_bit(self):
        mix = canonical_mix(0.5)
        points = [
            RunPoint(mix, strategy, DURATION_S, DURATION_S / 2)
            for strategy in ("arq", "parties")
        ]
        serial = run_many(points, jobs=1)
        pooled_one = run_many(points, jobs=1, force_pool=True)
        pooled_two = run_many(points, jobs=2, force_pool=True)
        # Equality walks every field including the epoch records, so this
        # also forces the lazy columnar decode of the pooled results.
        assert pooled_one == serial
        assert pooled_two == serial

    def test_forced_pool_records_are_materialised_types(self):
        mix = canonical_mix(0.5)
        point = RunPoint(mix, "arq", DURATION_S, DURATION_S / 2)
        serial = run_many([point], jobs=1)[0]
        pooled = run_many([point], jobs=1, force_pool=True)[0]
        for ours, theirs in zip(pooled.records, serial.records):
            assert type(ours) is type(theirs)
            assert ours == theirs
            assert isinstance(ours.index, int)
            assert isinstance(ours.time_s, float)
            assert isinstance(ours.plan_changed, bool)

