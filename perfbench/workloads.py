"""The three workloads and the traced layer ladder.

Every workload walks the same user journey on its own corpus: pack it with
the CLI defaults, unpack it, serve it from a ``zsmiles serve`` child, and
read it back over HTTP with one closed-loop client.  What differs is the
corpus, the read pattern and where the time goes (README.md has the table):

* ``pack``: MIXED SMILES, preprocessing on.  Most of the run repeats
  pack + unpack; the library it serves fits the server cache.
* ``get-cold``: ~49k ``SMILES<TAB>score`` lines (one escape per line),
  12x the server cache, read at uniform indices.
* ``get-hot``: the same library, read from a hot set of half the cache.

A run packs the library, spawns the server, and then interleaves short
slices for ``--seconds``: the set-up again, pack + unpack round trips and
read rounds, each kind for its share of the time.  Each timing is the mean of its value over the fastest
and over the slowest sixth of the operation's groups (README.md, "Noise").
``--trace 1`` traces half the slices, then replays the workload's library
and records through each layer's public entry point and prints per-layer
metrics.
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    AsyncCorpusLibrary,
    CorpusClient,
    CorpusLibrary,
    EngineConfig,
    ShardReader,
    ZSmilesEngine,
    pack_library,
)
from repro.engine.kernel import BlockKernel
from repro.errors import ReproError
from repro.library import DEFAULT_POOL_SIZE
from repro.store.reader import DEFAULT_CACHE_BLOCKS, BlockCache
from repro.store.writer import DEFAULT_RECORDS_PER_BLOCK
from repro.telemetry import metrics as telemetry

from . import inputs
from .measure import (
    Tracer,
    extreme_groups,
    histogram_mean_delta,
    metric_total,
    parse_prometheus,
    percentile,
    two_speed_percentile,
)
from .serve import ServerProcess

#: Library shape: 4 shards of 256-record blocks, packed with backend="auto".
SHARDS = 4
RECORDS_PER_BLOCK = DEFAULT_RECORDS_PER_BLOCK
#: Records each pack + unpack round trip packs (a prefix of the corpus).
PACK_RECORDS = inputs.MIXED_RECORDS
#: Share of the measured time spent repeating the set-up behind setup_s:
#: dictionary training (pack) or a server spawn (get-*).
SETUP_SHARE = 0.15
#: One closed-loop read round: (operation, count).
OP_PLAN: Tuple[Tuple[str, int], ...] = (("get", 40), ("batch", 4), ("scan", 8))
BATCH_SIZE = 32
SCAN_RECORDS = 256
#: The get-hot working set, in blocks: half the server cache.
HOT_BLOCKS = DEFAULT_CACHE_BLOCKS // 2
#: Timed slices of each kind (pack round trip, read round) a run makes at least.
MIN_SLICES = 4
#: Each timing is the mean of its value over the fastest and over the
#: slowest sixth of the operation's groups (README.md, "Noise").
EXTREME_SHARE = 1 / 6
#: Server counters a traced run reads around point lookups: decode amplification.
DECODE_COUNTERS = ("zsmiles_store_blocks_decoded_total", "zsmiles_server_records_served_total")
#: Records sampled for escape counts and per-line engine timings.
ENGINE_SAMPLE = 4096
#: Blocks the traced ladder loads, decodes and fetches in-process.
PROBE_BLOCKS = 48
PROBE_REPEATS = 3
HEALTHZ_PROBES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    #: "mixed" (plain SMILES) or "scored" (``SMILES<TAB>score`` lines).
    corpus: str
    #: Reads come from a hot set of ``HOT_BLOCKS`` blocks, not the library.
    hot: bool
    #: Share of the measured time spent in pack + unpack round trips.
    pack_share: float

    @property
    def preprocessing(self) -> bool:
        # Ring renumbering rejects the score column of scored lines.
        return self.corpus == "mixed"

    @property
    def setup(self) -> str:
        """What setup_s times."""
        return "dictionary training" if self.main == "pack" else "server spawn to first answer"

    @property
    def main(self) -> str:
        """The user path the workload is about, "pack" or "get": its set-up
        is setup_s, and trace.overhead is measured on it."""
        return "pack" if self.name == "pack" else "get"


#: Why each exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pack", "mixed", hot=False, pack_share=0.7),
        Workload("get-cold", "scored", hot=False, pack_share=0.2),
        Workload("get-hot", "scored", hot=True, pack_share=0.2),
    )
}


# --------------------------------------------------------------------------- #
# Bookkeeping
# --------------------------------------------------------------------------- #
@dataclass
class Tally:
    """Operations attempted and failed (an exception or a wrong answer)."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


class Draw:
    """Seeded record indices from ``[lo, hi)``."""

    def __init__(self, lo: int, hi: int, rng: random.Random):
        if hi - lo < SCAN_RECORDS:
            raise ValueError(f"draw range [{lo}, {hi}) is shorter than one scan")
        self.lo, self.hi, self.rng = lo, hi, rng

    def index(self) -> int:
        return self.rng.randrange(self.lo, self.hi)

    def indices(self, n: int) -> List[int]:
        return [self.rng.randrange(self.lo, self.hi) for _ in range(n)]

    def scan_start(self) -> int:
        return self.rng.randrange(self.lo, self.hi - SCAN_RECORDS + 1)


@dataclass
class Samples:
    """Timings in seconds per operation, server cache lookups per read
    operation as ``[hits, misses]``, and server counter deltas."""

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    lookups: Dict[str, List[int]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, op: str, elapsed: float) -> None:
        self.seconds.setdefault(op, []).append(elapsed)

    def count(self, op: str, hits: int, misses: int) -> None:
        counts = self.lookups.setdefault(op, [0, 0])
        counts[0] += hits
        counts[1] += misses

    def hit_rate(self, *ops: str) -> Tuple[float, int]:
        hits = sum(self.lookups.get(op, [0, 0])[0] for op in ops)
        total = hits + sum(self.lookups.get(op, [0, 0])[1] for op in ops)
        return (hits / total if total else 0.0), total

    @classmethod
    def merge(cls, parts: Sequence["Samples"]) -> "Samples":
        merged = cls()
        for part in parts:
            for op, values in part.seconds.items():
                merged.seconds.setdefault(op, []).extend(values)
            for op, (hits, misses) in part.lookups.items():
                merged.count(op, hits, misses)
            for name, value in part.counters.items():
                merged.counters[name] = merged.counters.get(name, 0.0) + value
        return merged


@dataclass
class Slice:
    """One measured step: a pack round trip or a read round."""

    kind: str
    traced: bool
    samples: Samples


# --------------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------------- #
def _traced(tracer: Optional[Tracer], name: str, call: Callable[[], object]) -> object:
    if tracer is None:
        return call()
    with tracer.span(name):
        return call()


def _pack(engine: ZSmilesEngine, directory: Path, records: List[str]):
    return pack_library(
        directory, records, engine, shards=SHARDS,
        records_per_block=RECORDS_PER_BLOCK, backend="auto",
    )


def pack_round_trip(
    engine: ZSmilesEngine,
    records: List[str],
    expected: List[str],
    directory: Path,
    samples: Samples,
    tally: Tally,
    tracer: Optional[Tracer] = None,
) -> None:
    """Pack *records*, unpack them (``iter_all``), check every record."""
    if tracer is not None:
        # A child span under "pack": the engine's share of it.  The rest is
        # the store and library writers.
        inner = engine.compress_batch
        engine.compress_batch = lambda *a, **k: _traced(  # type: ignore[method-assign]
            tracer, "engine.compress_batch", lambda: inner(*a, **k)
        )
    shutil.rmtree(directory, ignore_errors=True)
    try:
        started = time.perf_counter()
        _traced(tracer, "pack", lambda: _pack(engine, directory, records))
        samples.add("pack", time.perf_counter() - started)
    except ReproError as exc:
        tally.record(False, f"pack: {exc}")
        return
    finally:
        if tracer is not None:
            del engine.compress_batch
    tally.record(True)
    try:
        with CorpusLibrary.open(directory) as library:
            started = time.perf_counter()
            unpacked = _traced(tracer, "unpack", lambda: list(library.iter_all()))
            elapsed = time.perf_counter() - started
    except ReproError as exc:
        tally.record(False, f"unpack: {exc}")
        return
    ok = unpacked == expected
    tally.record(ok, "unpack differs from the preprocessed input")
    if ok:
        samples.add("unpack", elapsed)


def _request(
    client: CorpusClient, op: str, expected: List[str], draw: Draw
) -> Tuple[Callable[[], object], object, str]:
    if op == "get":
        i = draw.index()
        return (lambda: client.get(i)), expected[i], f"get {i}"
    if op == "batch":
        batch = draw.indices(BATCH_SIZE)
        return (lambda: client.get_many(batch)), [expected[i] for i in batch], f"batch {batch}"
    start = draw.scan_start()
    stop = start + SCAN_RECORDS
    return (lambda: client.slice(start, stop)), expected[start:stop], f"scan {start}"


def read_round(
    client: CorpusClient,
    expected: List[str],
    draw: Draw,
    samples: Samples,
    tally: Tally,
    tracer: Optional[Tracer] = None,
    scrape: bool = False,
) -> None:
    """One closed-loop round of ``OP_PLAN`` on the client's connection.

    ``/stats`` is read between operation groups, outside every timed call,
    so cache hits and misses are attributed to the operation behind them.
    With *scrape*, ``/metrics`` is read around the point lookups (get and
    batch) too, for the blocks those made the server decode.
    """
    for op, count in OP_PLAN:
        before = client.stats()["cache"]
        if scrape and op != "scan":
            counters = parse_prometheus(client.metrics())
        for _ in range(count):
            call, want, what = _request(client, op, expected, draw)
            started = time.perf_counter()
            try:
                got = _traced(tracer, f"http.{op}", call)
            except (ReproError, OSError) as exc:
                tally.record(False, f"{what}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            ok = got == want
            tally.record(ok, f"{what}: wrong answer")
            if ok:
                samples.add(op, elapsed)
        after = client.stats()["cache"]
        samples.count(op, after["hits"] - before["hits"], after["misses"] - before["misses"])
        if scrape and op != "scan":
            now = parse_prometheus(client.metrics())
            for name in DECODE_COUNTERS:
                samples.counters[name] = (
                    samples.counters.get(name, 0.0)
                    + metric_total(now, name)
                    - metric_total(counters, name)
                )


Step = Callable[[Samples, Optional[Tracer]], None]


def interleave(
    steps: Dict[str, Tuple[Step, float]],
    seconds: float,
    tracer: Optional[Tracer],
    coin: random.Random,
) -> List[Slice]:
    """Run each ``kind: (step, share)`` in short slices for *seconds*.

    The kind furthest behind its share of the time runs next, so every kind
    samples the whole run alike; each makes ``MIN_SLICES`` slices at least.
    With a *tracer*, each kind's slices run in pairs, one traced and one
    not, the order tossed with *coin*: the two halves of a pair see the
    same host, and neither half falls into step with the schedule.
    """
    # Setup's objects are long-lived: keep them out of the collector's full
    # passes, so those cost the same in every run.
    gc.collect()
    gc.freeze()
    slices: List[Slice] = []
    spent = {kind: 0.0 for kind in steps}
    made = {kind: 0 for kind in steps}
    first_traced = {kind: False for kind in steps}
    started = time.perf_counter()
    while min(made.values()) < MIN_SLICES or time.perf_counter() - started < seconds:
        kind = min(steps, key=lambda k: spent[k] / steps[k][1])
        if made[kind] % 2 == 0:
            first_traced[kind] = coin.random() < 0.5
        traced = tracer is not None and first_traced[kind] == (made[kind] % 2 == 0)
        samples = Samples()
        step_started = time.perf_counter()
        steps[kind][0](samples, tracer if traced else None)
        spent[kind] += time.perf_counter() - step_started
        made[kind] += 1
        slices.append(Slice(kind, traced, samples))
    return slices


def paired_overhead(slices: Sequence[Slice], kind: str, op: str) -> float:
    """Median over the *kind* slice pairs of *op*'s traced over untraced
    time, minus 1.  ``interleave`` runs each kind's slices in pairs, one of
    them traced."""
    mine = [s for s in slices if s.kind == kind]
    ratios = []
    for first, second in zip(mine[0::2], mine[1::2]):
        traced, untraced = (first, second) if first.traced else (second, first)
        spent = sum(traced.samples.seconds.get(op, [])), sum(untraced.samples.seconds.get(op, []))
        if all(spent):
            ratios.append(spent[0] / spent[1])
    return median(ratios) - 1


def untraced_groups(slices: Sequence[Slice]) -> Dict[str, List[List[float]]]:
    """Each operation's groups, its samples slice by slice, untraced only."""
    untraced = [s.samples.seconds for s in slices if not s.traced]
    ops = {op for seconds in untraced for op in seconds}
    return {op: [seconds.get(op, []) for seconds in untraced] for op in ops}


def spawn_server(
    library: Path, root: Path, first: str
) -> Tuple[ServerProcess, CorpusClient, float]:
    """Start ``zsmiles serve``; seconds from spawn until record 0 is answered."""
    server = ServerProcess(library, root)
    started = time.perf_counter()
    try:
        client = CorpusClient(server.start())
        answer = client.get(0)
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - started
    if answer != first:
        client.close()
        server.stop()
        raise RuntimeError("the server's first answer differs from the input")
    return server, client, elapsed


# --------------------------------------------------------------------------- #
# Traced layer ladder
# --------------------------------------------------------------------------- #
def engine_probe(engine: ZSmilesEngine, sample: List[str]) -> Dict[str, float]:
    """Preprocessing, and kernel compression without it, per line."""
    pre: List[float] = []
    both: List[float] = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        for line in sample:
            engine.preprocess(line)
        pre.append(time.perf_counter() - started)
        started = time.perf_counter()
        engine.compress_batch(sample, backend="kernel")
        both.append(time.perf_counter() - started)
    per_line = 1e6 / len(sample)
    return {
        "preprocess.us_per_line": median(pre) * per_line,
        "engine.compress_us_per_line": (median(both) - median(pre)) * per_line,
    }


def store_probe(library_dir: Path, blocks: Sequence[int]) -> Dict[str, float]:
    """First ``get_raw`` of a block (read + CRC + split) and its kernel decode.

    *blocks* are local to the first shard, read through a fresh
    :class:`ShardReader` so every first touch loads from the file.
    """
    tracer = Tracer()
    shard = sorted(library_dir.glob("*.zss"))[0]
    decode_per_line: List[float] = []
    with ShardReader(shard) as reader:
        kernel = BlockKernel(reader.codec)
        size = reader.records_per_block
        for block in blocks:
            first = block * size
            with tracer.span("store.block_load"):
                reader.get_raw(first)
            stored = [reader.get_raw(i) for i in range(first, min(first + size, len(reader)))]
            started = time.perf_counter()
            kernel.decompress_block(stored)
            decode_per_line.append((time.perf_counter() - started) / len(stored))
    return {
        "store.block_load_us": median([s.duration for s in tracer.named("store.block_load")]) * 1e6,
        "engine.decompress_us_per_line": median(decode_per_line) * 1e6,
    }


async def _library_ladder(library_dir: Path, indices: Sequence[int], tracer: Tracer) -> None:
    # The server's reader pool: DEFAULT_POOL_SIZE readers sharing one cache.
    cache = BlockCache(DEFAULT_CACHE_BLOCKS)
    raw_cache = BlockCache(DEFAULT_CACHE_BLOCKS)
    readers = [
        CorpusLibrary.open(library_dir, cache=cache, raw_cache=raw_cache)
        for _ in range(DEFAULT_POOL_SIZE)
    ]
    for reader in readers:
        reader.get = (  # type: ignore[method-assign]
            lambda i, inner=reader.get: _traced(tracer, "library.get", lambda: inner(i))
        )
    library = AsyncCorpusLibrary(readers)
    try:
        # Build each shard's decode kernel before the ladder times anything.
        for shard in library.manifest.shards:
            await library.get(shard.start)
        tracer.spans.clear()
        for index in indices:
            for _ in range(2):  # the first touch misses, the second hits
                with tracer.span("async.get"):
                    await library.get(index)
    finally:
        library.close()


def library_probe(library_dir: Path, indices: Sequence[int]) -> Dict[str, float]:
    """Cache-miss and cache-hit ``CorpusLibrary.get``, and the reader-pool hop.

    Each index is fetched twice through an :class:`AsyncCorpusLibrary` built
    like the server's.  The pooled readers' ``get`` runs in a child span, so
    the async span's self time is the hop to the pool thread and back.
    """
    tracer = Tracer()
    asyncio.run(_library_ladder(library_dir, indices, tracer))
    gets = [s.duration for s in tracer.named("library.get")]
    hops = tracer.self_times("async.get")
    return {
        "library.get_miss_us": median(gets[0::2]) * 1e6,
        "library.get_hit_us": median(gets[1::2]) * 1e6,
        "library.async_hop_us": median(hops[1::2]) * 1e6,
    }


def probe_blocks(manifest, rng: random.Random) -> Tuple[List[int], List[int]]:
    """Blocks for the ladder, never a shard's first block (the library probe
    warms those): first-shard local blocks for the store probe, and the
    first record of random blocks for the library probe."""
    local = list(range(1, manifest.shards[0].blocks))[:PROBE_BLOCKS]
    starts = [
        shard.start + b * shard.records_per_block
        for shard in manifest.shards
        for b in range(1, shard.blocks)
    ]
    return local, rng.sample(starts, min(PROBE_BLOCKS, len(starts)))


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def _host() -> str:
    nproc = len(os.sched_getaffinity(0))
    return f"python={platform.python_version()} nproc={nproc} platform={platform.platform()}"


def _pin_to_one_cpu() -> int:
    """Pin this process, and so the server it spawns, to one CPU.

    A closed-loop request alternates between client and server and never
    runs both at once.  On a shared VM, a request that has to wake a second
    vCPU waits whenever the hypervisor has descheduled it, which put
    millisecond stalls into the p90 tail of some runs and not others.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _tail(name: str, seconds: Sequence[float]) -> str:
    if not seconds:
        return f"{name} n=0"
    p50, _ = percentile(seconds, 50)
    p90, beyond90 = percentile(seconds, 90)
    p99, beyond99 = percentile(seconds, 99)
    return (
        f"{name} n={len(seconds)} p50={p50 * 1e6:.0f}us p90={p90 * 1e6:.0f}us "
        f"({beyond90} beyond) p99={p99 * 1e6:.0f}us ({beyond99} beyond)"
    )


def _two_speed(name: str, groups: Sequence[Sequence[float]]) -> str:
    if not any(groups):
        return f"{name} n=0"
    fast, slow = extreme_groups(groups, EXTREME_SHARE)
    parts = [f"{name} n={len(fast)}+{len(slow)}"]
    for q in (50, 90):
        value, beyond = two_speed_percentile(groups, EXTREME_SHARE, q)
        parts.append(
            f"p{q}={value * 1e6:.0f}us (fast {percentile(fast, q)[0] * 1e6:.0f}, "
            f"slow {percentile(slow, q)[0] * 1e6:.0f}; {beyond} beyond)"
        )
    return " ".join(parts)


def _local_fallbacks() -> float:
    return metric_total(
        parse_prometheus(telemetry.get_registry().render()),
        "zsmiles_kernel_reference_fallback_total",
    )


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run *workload* once; returns ``(tally, metric_values, report_lines)``."""
    work = root / "perfbench" / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    report = [
        f"host {_host()}",
        f"workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}",
    ]
    rng = random.Random(f"{workload.name}:{seed}")
    tally = Tally()
    fallbacks_before = _local_fallbacks()
    cache_dir = root / "perfbench" / ".cache"
    corpus = inputs.load(workload.corpus, seed, cache_dir)
    if workload.corpus == "mixed":
        training = corpus[: inputs.TRAINING_RECORDS]
    else:
        training = inputs.load("training", seed, cache_dir)

    # Setup of pack: train the paper-config dictionary (preprocessing on,
    # lmax=8) on a MIXED sample.  get-* reuse it with preprocessing off,
    # because the ring renumbering rejects the score column.
    started = time.perf_counter()
    engine = ZSmilesEngine.train(training, EngineConfig(lmax=8))
    train_s = [time.perf_counter() - started]
    if not workload.preprocessing:
        engine = ZSmilesEngine(engine.table, config=engine.config.replace(preprocessing=False))
    expected = [engine.preprocess(line) for line in corpus]
    sample = corpus[:ENGINE_SAMPLE]
    escapes = engine.compress_batch(sample, backend="kernel").stats.escapes / len(sample)
    report.append(
        f"corpus {len(corpus)} records, preprocessing {'on' if workload.preprocessing else 'off'}, "
        f"escapes/line {escapes:.3f} (first {len(sample)} records)"
    )

    tracer = Tracer() if trace else None
    library_dir = work / "library"
    pack_dir = work / "pack"
    records, records_expected = corpus[:PACK_RECORDS], expected[:PACK_RECORDS]
    with engine:
        info = _pack(engine, library_dir, corpus)
        report.append(f"measured steps pinned to cpu {_pin_to_one_cpu()}, with the server")
        # The server every read goes to; setup_step times further spawns.
        server, client, _ = spawn_server(library_dir, root, expected[0])
        try:
            if workload.hot:
                lo = rng.randrange(info.blocks - HOT_BLOCKS + 1) * RECORDS_PER_BLOCK
                draw = Draw(lo, lo + HOT_BLOCKS * RECORDS_PER_BLOCK, rng)
            else:
                draw = Draw(0, len(corpus), rng)

            def pack_step(into: Samples, span: Optional[Tracer]) -> None:
                pack_round_trip(engine, records, records_expected, pack_dir, into, tally, span)

            def read_step(into: Samples, span: Optional[Tracer]) -> None:
                read_round(client, expected, draw, into, tally, span, scrape=trace)

            def setup_step(into: Samples, span: Optional[Tracer]) -> None:
                # Repeated across the run, so it meets the host as the other
                # steps do, not only in the seconds before them.
                if workload.main == "pack":
                    started = time.perf_counter()
                    ZSmilesEngine.train(training, EngineConfig(lmax=8))
                    elapsed = time.perf_counter() - started
                else:
                    spawned, spawned_client, elapsed = spawn_server(
                        library_dir, root, expected[0]
                    )
                    spawned_client.close()
                    spawned.stop()
                into.add("setup", elapsed)

            # One untimed step each lets lazy set-up finish and caches fill.
            pack_step(Samples(), None)
            read_step(Samples(), None)
            stats0, scrape0 = client.stats(), parse_prometheus(client.metrics())
            rest = 1 - SETUP_SHARE
            slices = interleave(
                {"pack": (pack_step, rest * workload.pack_share),
                 "read": (read_step, rest * (1 - workload.pack_share)),
                 "setup": (setup_step, SETUP_SHARE)},
                seconds,
                tracer,
                random.Random(f"trace:{seed}"),
            )
            stats1, scrape1 = client.stats(), parse_prometheus(client.metrics())
            healthz: List[float] = []
            for _ in range(HEALTHZ_PROBES if trace else 0):
                started = time.perf_counter()
                client.healthz()
                healthz.append(time.perf_counter() - started)
            if trace:
                layer = engine_probe(engine, sample)
        finally:
            client.close()
            server.stop()

    everything = Samples.merge([s.samples for s in slices])
    groups = untraced_groups(slices)
    capacity = stats1["cache"]["capacity"]
    ratio = info.file_bytes / info.original_bytes
    report.append(
        f"library {info.blocks} blocks in {info.shard_count} shards; server cache "
        f"{capacity} blocks (library = {info.blocks / capacity:.1f}x cache); "
        f"stored/input {ratio:.4f} (payload only {info.ratio:.4f})"
    )
    report.append(
        f"slices: {workload.setup} for {SETUP_SHARE:.0%} of the time; of the rest, "
        f"pack + unpack of {len(records)} records for {workload.pack_share:.0%} and read "
        f"rounds of {OP_PLAN}"
    )
    report.append("hit rate " + ", ".join(
        "{} {:.4f} ({} lookups)".format(op, *everything.hit_rate(op)) for op, _ in OP_PLAN
    ))
    counts = {kind: sum(s.kind == kind for s in slices) for kind in ("setup", "pack", "read")}
    report.append("slices made: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
    ops = ("get", "batch", "scan", "pack", "unpack", "setup")
    report.append("all samples: " + "; ".join(
        _tail(op, everything.seconds.get(op, [])) for op in ops
    ))
    report.append(
        "metrics, the mean over the fastest and the slowest sixth of untraced groups: "
        + "; ".join(_two_speed(op, groups.get(op, [])) for op in ops)
    )

    def speed(op: str, q: float) -> float:
        return two_speed_percentile(groups[op], EXTREME_SHARE, q)[0]

    if not trace:
        metrics = {
            "setup_s": speed("setup", 50),
            "get_p50_us": speed("get", 50) * 1e6,
            "get_p90_us": speed("get", 90) * 1e6,
            "batch_p50_us": speed("batch", 50) * 1e6,
            "batch_p90_us": speed("batch", 90) * 1e6,
            "scan_records_per_s": SCAN_RECORDS / speed("scan", 50),
            "pack_records_per_s": PACK_RECORDS / speed("pack", 50),
            "unpack_records_per_s": PACK_RECORDS / speed("unpack", 50),
            "ratio": ratio,
        }
        return tally, metrics, report

    # Traced run: the ladder, from the workload's own library and records.
    assert tracer is not None
    store_blocks, library_indices = probe_blocks(info.manifest, rng)
    layer.update(store_probe(library_dir, store_blocks))
    layer.update(library_probe(library_dir, library_indices))
    # Client-side mean over every get, as the server's handler mean is.
    get_mean = sum(everything.seconds["get"]) / len(everything.seconds["get"])
    handler = {
        route: histogram_mean_delta(
            scrape0, scrape1, "zsmiles_server_request_seconds", route=route
        )[0]
        for route in ("single", "batch", "stream")
    }

    def delta(name: str) -> float:
        return metric_total(scrape1, name) - metric_total(scrape0, name)

    # A scan's later records always hit the block its first record loaded,
    # so the cache hit rate is the point lookups' (get and batch).
    hit_rate, lookups = everything.hit_rate("get", "batch")
    decoded, served = (everything.counters.get(name, 0.0) for name in DECODE_COUNTERS)
    overhead = paired_overhead(
        slices, "pack" if workload.main == "pack" else "read", workload.main
    )
    layer.update({
        "engine.escapes_per_line": escapes,
        "engine.reference_fallbacks": _local_fallbacks() - fallbacks_before
        + delta("zsmiles_kernel_reference_fallback_total"),
        "dictionary.train_s": median(
            train_s + (everything.seconds["setup"] if workload.main == "pack" else [])
        ),
        "store.write_us_per_line": median(tracer.self_times("pack")) / PACK_RECORDS * 1e6,
        "store.decode_amplification": decoded * RECORDS_PER_BLOCK / served,
        "library.cache_evictions": stats1["cache"]["evictions"] - stats0["cache"]["evictions"],
        "library.cache_hit_rate": hit_rate,
        "server.healthz_us": median(healthz) * 1e6,
        "server.client_residual_us": (get_mean - handler["single"]) * 1e6,
        "server.handler_us.single": handler["single"] * 1e6,
        "server.handler_us.batch": handler["batch"] * 1e6,
        "server.handler_us.stream": handler["stream"] * 1e6,
        "server.errors": delta("zsmiles_server_errors_total"),
        "trace.overhead": overhead,
    })
    report.append(
        f"point-lookup hit rate {hit_rate:.4f} over {lookups} lookups; "
        f"decode amplification over {served:.0f} point-lookup records served"
    )
    report.extend(_ladder_lines(layer, get_mean, hit_rate))
    return tally, layer, report


def _ladder_lines(layer: Dict[str, float], get_mean: float, hit_rate: float) -> List[str]:
    """The single-get ladder, outside in, each library rung weighted by the
    workload's hit rate."""
    library_get = (
        hit_rate * layer["library.get_hit_us"] + (1 - hit_rate) * layer["library.get_miss_us"]
    )
    decode = layer["engine.decompress_us_per_line"] * RECORDS_PER_BLOCK
    rungs = [
        ("HTTP get (client mean)", get_mean * 1e6),
        ("server handler (single)", layer["server.handler_us.single"]),
        ("async get", layer["library.async_hop_us"] + library_get),
        ("library get", library_get),
        ("block load + decode", (1 - hit_rate) * (layer["store.block_load_us"] + decode)),
    ]
    lines = [f"ladder at hit rate {hit_rate:.3f} (us; self = rung - next rung):"]
    for (name, total), (_, below) in zip(rungs, rungs[1:] + [("", 0.0)]):
        lines.append(f"  {name:<26} {total:10.1f}  self {total - below:10.1f}")
    lines.append(f"  healthz floor {layer['server.healthz_us']:.1f}")
    return lines
