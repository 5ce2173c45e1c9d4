"""Lazily decoded block-cache entries: the store decodes only what reads ask for.

A cache miss loads a block (read, CRC, split) and a read then decodes just
the records it needs that no earlier read decoded.  These tests check every
answer of random read sequences against the per-line reference decode
(``codec.decompress`` of the stored record) across the three serving tiers,
and pin the work done: records decoded, block loads and cache lookups.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ZSmilesEngine
from repro.errors import BlockCorruptionError
from repro.library import AsyncCorpusLibrary, CorpusLibrary, pack_library
from repro.store import BlockCache, CorpusStore, ShardReader, pack_records
from repro.store.format import read_footer
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import set_registry

RECORDS_PER_BLOCK = 8
RECORDS = 100  # 13 blocks, the last one short
SHARDS = 3


@pytest.fixture(scope="module")
def corpus(mixed_corpus_small):
    """Escape-heavy lines: scored ``SMILES<TAB>score``, escaped spaces, noise."""
    rng = random.Random(13)
    lines = []
    for i, smiles in enumerate(mixed_corpus_small[:RECORDS]):
        kind = i % 3
        if kind == 0:
            lines.append(f"{smiles}\t{-rng.uniform(3, 12):.3f}")
        elif kind == 1:
            lines.append(f"{smiles} pose {i} !?")
        else:
            lines.append(f"{smiles}\t{rng.uniform(-9, 0):.2f} a b")
    return lines


@pytest.fixture(scope="module")
def engine(plain_codec):
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as eng:
        yield eng


@pytest.fixture(scope="module")
def shard_path(tmp_path_factory, corpus, engine):
    path = tmp_path_factory.mktemp("lazy") / "corpus.zss"
    pack_records(path, corpus, engine, records_per_block=RECORDS_PER_BLOCK)
    return path


@pytest.fixture(scope="module")
def library_dir(tmp_path_factory, corpus, engine):
    directory = tmp_path_factory.mktemp("lazy_lib") / "corpus.library"
    pack_library(
        directory, corpus, engine, shards=SHARDS, records_per_block=RECORDS_PER_BLOCK
    )
    return directory


@pytest.fixture(scope="module")
def reference(shard_path, plain_codec, corpus):
    """The per-line reference decode of every stored record."""
    with ShardReader(shard_path) as reader:
        stored = [reader.get_raw(i) for i in range(len(reader))]
    assert all(" " in record for record in stored)  # every line has escapes
    decoded = [plain_codec.decompress(record) for record in stored]
    assert decoded == corpus  # plain codec: byte-exact round trips
    return decoded


# --------------------------------------------------------------------------- #
# Random read sequences
# --------------------------------------------------------------------------- #
_INDEX = st.integers(0, RECORDS - 1)
_OPERATION = st.one_of(
    st.tuples(st.just("get"), _INDEX),
    st.tuples(st.just("get_many"), st.lists(_INDEX, max_size=24)),
    st.tuples(st.just("slice"), st.integers(0, RECORDS + 5), st.integers(0, 40)),
    st.tuples(st.just("iter_all")),
    st.tuples(st.just("sample"), st.integers(0, 30), st.integers(0, 2**16)),
)
_OPERATIONS = st.lists(_OPERATION, min_size=1, max_size=8)
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _expected(operation, reference):
    """What *operation* must return, from the reference decode."""
    kind = operation[0]
    if kind == "get":
        return reference[operation[1]]
    if kind == "get_many":
        return [reference[i] for i in operation[1]]
    if kind == "slice":
        start = operation[1]
        return reference[start : start + operation[2]]
    if kind == "iter_all":
        return list(reference)
    n, seed = operation[1], operation[2]
    indices = sorted(random.Random(seed).sample(range(len(reference)), min(n, len(reference))))
    return indices, [reference[i] for i in indices]


def _apply(reader, operation):
    kind = operation[0]
    if kind == "get":
        return reader.get(operation[1])
    if kind == "get_many":
        return reader.get_many(operation[1])
    if kind == "slice":
        start = operation[1]
        return reader.slice(start, start + operation[2])
    if kind == "iter_all":
        return list(reader.iter_all())
    return reader.sample(operation[1], seed=operation[2])


def _requested(operation):
    """The record indices *operation* reads."""
    kind = operation[0]
    if kind == "get":
        return {operation[1]}
    if kind == "get_many":
        return set(operation[1])
    if kind == "slice":
        start = operation[1]
        return set(range(start, min(start + operation[2], RECORDS)))
    if kind == "iter_all":
        return set(range(RECORDS))
    n, seed = operation[1], operation[2]
    return set(random.Random(seed).sample(range(RECORDS), min(n, RECORDS)))


def _library_records_decoded(library):
    return sum(library.shard(n).records_decoded for n in range(library.shard_count))


class TestDifferential:
    @_SETTINGS
    @given(operations=_OPERATIONS, cache_blocks=st.sampled_from([1, 3, 64]))
    def test_shard_reader(self, shard_path, reference, operations, cache_blocks):
        with ShardReader(shard_path, cache_blocks=cache_blocks) as reader:
            requested = set()
            for operation in operations:
                assert _apply(reader, operation) == _expected(operation, reference)
                requested |= _requested(operation)
            if cache_blocks >= reader.block_count:
                # Nothing was evicted, so each record was decoded exactly once.
                assert reader.records_decoded == len(requested)
            else:
                assert reader.records_decoded >= len(requested)

    @_SETTINGS
    @given(operations=_OPERATIONS, cache_blocks=st.sampled_from([1, 3, 64]))
    def test_corpus_library(self, library_dir, reference, operations, cache_blocks):
        with CorpusLibrary.open(library_dir, cache_blocks=cache_blocks) as library:
            requested = set()
            for operation in operations:
                assert _apply(library, operation) == _expected(operation, reference)
                requested |= _requested(operation)
            if cache_blocks >= 64:
                assert _library_records_decoded(library) == len(requested)

    @_SETTINGS
    @given(operations=_OPERATIONS)
    def test_multi_shard_corpus_store(self, library_dir, reference, operations):
        shards = sorted(library_dir.glob("*.zss"))
        with CorpusStore(shards) as store:
            for operation in operations:
                assert _apply(store, operation) == _expected(operation, reference)

    @_SETTINGS
    @given(operations=_OPERATIONS, cache_blocks=st.sampled_from([2, 64]))
    def test_async_pool_under_gather(self, library_dir, reference, operations, cache_blocks):
        async def one(library, operation):
            kind = operation[0]
            if kind == "get":
                return await library.get(operation[1])
            if kind == "get_many":
                return await library.get_many(operation[1])
            if kind == "slice":
                start = min(operation[1], RECORDS)
                return [r async for r in library.stream(start, start + operation[2], batch_size=5)]
            if kind == "iter_all":
                return [r async for r in library.stream(batch_size=17)]
            indices = sorted(
                random.Random(operation[2]).sample(range(RECORDS), min(operation[1], RECORDS))
            )
            return indices, await library.get_many(indices)

        async def main():
            async with AsyncCorpusLibrary.open(
                library_dir, pool_size=4, cache_blocks=cache_blocks
            ) as library:
                # Twice over: the second round reads what the first decoded.
                return await asyncio.gather(
                    *(one(library, op) for op in operations + operations)
                )

        answers = asyncio.run(main())
        expected = [_expected(op, reference) for op in operations + operations]
        assert answers == expected


# --------------------------------------------------------------------------- #
# Pinned work
# --------------------------------------------------------------------------- #
class TestDecodeWork:
    def test_cold_get_decodes_one_record(self, shard_path, reference):
        with ShardReader(shard_path) as reader:
            assert reader.get(21) == reference[21]
            assert reader.blocks_decoded == 1
            assert reader.records_decoded == 1

    def test_slice_decodes_each_record_once(self, shard_path, reference):
        with ShardReader(shard_path) as reader:
            assert reader.slice(3, 45) == reference[3:45]
            assert reader.records_decoded == 42
            assert reader.blocks_decoded == 6
            assert reader.slice(0, 48) == reference[:48]
            assert reader.records_decoded == 48  # only the 6 new ones
            assert list(reader.iter_all()) == reference
            assert reader.records_decoded == RECORDS

    def test_repeated_reads_decode_nothing(self, shard_path, reference):
        with ShardReader(shard_path) as reader:
            batch = [40, 3, 40, 77, 3, 9]
            assert reader.get_many(batch) == [reference[i] for i in batch]
            assert reader.records_decoded == 4  # duplicates decode once
            for _ in range(2):
                assert reader.get(77) == reference[77]
                assert reader.get_many(batch) == [reference[i] for i in batch]
                assert reader.slice(40, 41) == [reference[40]]
            assert reader.records_decoded == 4

    def test_library_get_many_decodes_only_requested(self, library_dir, reference):
        with CorpusLibrary.open(library_dir) as library:
            batch = [99, 0, 50, 51, 0, 34, 33]
            assert library.get_many(batch) == [reference[i] for i in batch]
            assert _library_records_decoded(library) == 6

    def test_records_decoded_metric(self, shard_path, reference):
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        try:
            with ShardReader(shard_path) as reader:
                reader.get_many([0, 1, 2, 17])
                reader.get(1)
            snapshot = registry.snapshot()["metrics"]
        finally:
            set_registry(None)
        values = {
            item["name"]: sum(series["value"] for series in item["series"])
            for item in snapshot
            if item["name"].endswith("decoded_total")
        }
        assert values == {
            "zsmiles_store_records_decoded_total": 4,
            "zsmiles_store_blocks_decoded_total": 2,
        }


class TestCacheLookups:
    """A batched read makes one cache lookup per touched block, not per record."""

    def test_get_many_counts_one_lookup_per_block(self, shard_path):
        with ShardReader(shard_path, cache_blocks=4) as reader:
            batch = [17, 0, 5, 16, 1, 7, 0]  # blocks 2 and 0
            reader.get_many(batch)
            assert (reader.cache_hits, reader.cache_misses) == (0, 2)
            reader.get_many(batch)
            assert (reader.cache_hits, reader.cache_misses) == (2, 2)
            reader.slice(0, 24)  # blocks 0, 1, 2
            assert (reader.cache_hits, reader.cache_misses) == (4, 3)

    def test_get_or_put_keeps_the_resident_entry(self):
        cache = BlockCache(2)
        first, second = ["first"], ["second"]
        assert cache.get_or_put("a", first) is first
        assert cache.get_or_put("a", second) is first  # a racing load adopts it
        cache.get_or_put("b", ["b"])
        cache.get_or_put("c", ["c"])  # evicts "a", the least recently used
        assert "a" not in cache
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 0, 1)

    def test_library_get_many_across_shards(self, library_dir):
        with CorpusLibrary.open(library_dir, cache_blocks=16) as library:
            spans = [library.manifest.shards[n] for n in range(SHARDS)]
            batch = [spans[2].start, spans[0].start + 1, spans[2].start + 1, spans[0].start]
            library.get_many(batch)
            stats = library.cache_stats()
            assert (stats["hits"], stats["misses"]) == (0, 2)


class TestQuarantine:
    @pytest.fixture()
    def damaged(self, tmp_path, shard_path):
        """A copy of the shard with block 2 corrupted."""
        path = tmp_path / "damaged.zss"
        data = bytearray(shard_path.read_bytes())
        with open(shard_path, "rb") as handle:
            block = read_footer(handle).blocks[2]
        data[block.offset + block.length // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        return path

    def test_quarantined_block_fails_fast_and_neighbours_serve(self, damaged, reference):
        with ShardReader(damaged) as reader:
            with pytest.raises(BlockCorruptionError):
                reader.get(17)
            read_after_failure = reader.bytes_read
            with pytest.raises(BlockCorruptionError):
                reader.get_many([18, 0, 30])  # block 2 is touched first
            with pytest.raises(BlockCorruptionError):
                reader.slice(10, 20)
            assert reader.quarantine_hits == 2
            assert reader.quarantine_stats()["blocks"] == [2]
            neighbours = list(range(8, 16)) + list(range(24, 32))
            assert reader.get_many(neighbours) == [reference[i] for i in neighbours]
            assert reader.bytes_read > read_after_failure
            assert reader.records_decoded == len(neighbours)
