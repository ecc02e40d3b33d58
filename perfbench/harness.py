"""The three workloads of the end-to-end training-input benchmark.

Every workload drives the real stack from outside, through public APIs:
``core.convert`` -> ``PCRRecordServer`` / ``ClusterCoordinator`` -> wire ->
``PCRClient`` / ``RemoteRecordSource`` / ``ClusterClient`` -> ``DataLoader``
(fetch, entropy + pixel decode, optional ``DecodePool``, collate) ->
``Trainer.train_step``.  The benchmark generates every input from the run's
seed; the program only ever sees those generated images and requests.

* ``train_cold`` -- one full-fidelity epoch (scan group 10) per freshly
  generated dataset, so every timed epoch decodes images this process has
  never seen; decode runs on a 2-process ``DecodePool`` and setup converts
  on a 2-process ``EncodePool``.  At least two such cycles per run.
* ``train_warm`` -- the same stack at scan group 5, decode and conversion
  in-process, a dataset small enough that every Huffman table stays cached;
  one untimed warm-up epoch, then timed epochs for the run's duration.
* ``fetch_mixed`` -- fetch only: a closed loop of one client thread sending
  pipelined ``BATCH`` requests of 16 uniformly random records at scan
  groups drawn from {1, 2, 5, 10} through a ``ClusterClient`` over a
  2-shard, 1-replica ``ClusterCoordinator`` whose caches hold about a
  quarter of the dataset.

Output checks count into ``failed``: a training epoch must deliver exactly
the multiset of ``(label, pixel digest)`` a direct ``PCRReader`` decode of
the same dataset gives at the same scan group (computed after the timed
part, in separate processes, so it cannot warm any cache the timed part
uses); every fetched blob must equal the record file's prefix for its scan
group.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.codecs.parallel import DecodePool
from repro.core.convert import convert_to_pcr
from repro.core.reader import PCRReader
from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec
from repro.obs import diff_snapshots, get_registry, get_tracer
from repro.pipeline.loader import DataLoader, LoaderConfig
from repro.serving.client import PCRClient
from repro.serving.cluster import ClusterClient, ClusterCoordinator
from repro.serving.remote_source import RemoteRecordSource
from repro.serving.server import PCRRecordServer
from repro.training import LinearProbe, Trainer

from sysinfo import RssSampler

IMAGE_SIZE = 224
N_CLASSES = 16
QUALITY = 90
TAXONOMY_SEED = 0
BATCH_SIZE = 32
#: Loader reader threads and client connections: the load comes from one
#: process with at most two of each.
LOADER_THREADS = 2
CLIENT_CONNECTIONS = 2
FETCH_GROUPS = (1, 2, 5, 10)
#: Setups per run (their median is ``setup_s``); a traced run sets up once.
SETUP_REPEATS = 2
#: Calls per latency window: each window's p99 has ten calls above it.
LATENCY_WINDOW = 1000
#: ``train_cold`` runs at least this many (fresh dataset, epoch) cycles.
MIN_COLD_CYCLES = 2
#: ``train_warm`` times at least this many epochs.
MIN_WARM_EPOCHS = 2


@dataclass(frozen=True)
class TrainShape:
    n_images: int
    images_per_record: int
    scan_group: int
    #: ``DecodePool`` processes for the epoch; 0 decodes in-process.
    decode_workers: int
    #: ``EncodePool`` processes for the setup conversion; 0 is in-process.
    encode_workers: int
    cold: bool


@dataclass(frozen=True)
class FetchShape:
    n_images: int
    images_per_record: int
    batch_records: int
    n_shards: int = 2
    n_replicas: int = 1
    #: Cluster cache budget as a share of the dataset's bytes.
    cache_fraction: float = 0.25


SHAPES = {
    "full": {
        "train_cold": TrainShape(256, 32, 10, 2, 2, cold=True),
        "train_warm": TrainShape(64, 32, 5, 0, 0, cold=False),
        "fetch_mixed": FetchShape(128, 8, 16),
    },
    # For the self-test: every code path, a few seconds per workload.
    "tiny": {
        "train_cold": TrainShape(16, 8, 10, 2, 2, cold=True),
        "train_warm": TrainShape(16, 8, 5, 0, 0, cold=False),
        "fetch_mixed": FetchShape(32, 8, 4),
    },
}
#: Length of a training workload's fetch-latency probe (hundreds of calls).
PROBE_SECONDS = {"full": 2.0, "tiny": 0.2}
#: Records per probe call, as in ``fetch_mixed``.
PROBE_BATCH_RECORDS = 16
#: Images the converter converts, untimed, before a run's first set-up.
CONVERTER_WARMUP_IMAGES = 8


def mix_seed(*parts) -> int:
    """A stable 62-bit seed derived from ``parts``."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 2


def pixel_digest(pixels: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(pixels, dtype=np.uint8)).digest()


def batch_digests(batch) -> list[tuple[int, bytes]]:
    """``(label, pixel digest)`` per sample of a collated minibatch.

    ``collate`` hands out float32 pixels scaled to [0, 1]; scaling back and
    rounding recovers the decoded uint8 pixels exactly.
    """
    pixels = (batch.images * np.float32(255.0) + np.float32(0.5)).astype(np.uint8)
    return [(int(label), pixel_digest(image)) for label, image in zip(batch.labels, pixels)]


def build_dataset(directory: Path, sample_seed: int, n_images: int,
                  images_per_record: int, encode_workers: int) -> "Setup":
    """Generate synthetic images and convert them to PCR (converter process).

    The class taxonomy is fixed; ``sample_seed`` draws each image's jitter
    and noise, so datasets from different seeds cost the same to within
    sampling noise while never sharing an image.
    """
    generator = SyntheticImageGenerator(
        N_CLASSES, SyntheticImageSpec(image_size=IMAGE_SIZE), seed=TAXONOMY_SEED
    )
    samples = generator.generate_batch(n_images, seed=sample_seed)
    start = time.perf_counter()
    _, report = convert_to_pcr(
        samples,
        directory,
        images_per_record=images_per_record,
        quality=QUALITY,
        encode_workers=encode_workers,
    )
    return Setup(
        setup_s=0.0,
        convert_s=time.perf_counter() - start,
        n_images=n_images,
        encode_s=report.jpeg_conversion_seconds,
        write_s=report.record_creation_seconds,
        stored_bytes=directory_bytes(directory),
    )


def warm_up_converter(directory: Path, sample_seed: int, encode_workers: int) -> None:
    """Import the program and convert a few images, then delete them (converter process).

    Run before a run's first set-up, so that every set-up measures the same
    steady-state ingest rather than the converter's imports and first-call
    costs.
    """
    build_dataset(directory, sample_seed, CONVERTER_WARMUP_IMAGES, CONVERTER_WARMUP_IMAGES,
                  encode_workers)
    shutil.rmtree(directory)


def reference_record(task: tuple[str, str, int]) -> list[tuple[int, bytes]] | str:
    """Decode one record with a direct ``PCRReader``; runs in a worker process."""
    directory, record_name, scan_group = task
    try:
        with PCRReader(directory, decode=True) as reader:
            samples = reader.read_record(record_name, scan_group)
        return [(s.label, pixel_digest(s.image.pixels)) for s in samples]
    except Exception as exc:  # reported as a failed check, not a crash
        return f"{record_name}: {type(exc).__name__}: {exc}"


def reference_multisets(tasks: list[tuple[str, str, int]]) -> tuple[dict, list[str]]:
    """Expected ``Counter`` of (label, digest) per dataset directory.

    Decoding happens in two fresh processes, so nothing about these
    datasets ever enters this process's codec caches.
    """
    context = multiprocessing.get_context("spawn")
    pool = context.Pool(2)
    try:
        results = pool.map(reference_record, tasks, chunksize=1)
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    expected: dict[str, Counter] = {}
    errors: list[str] = []
    for (directory, _, _), result in zip(tasks, results):
        bucket = expected.setdefault(directory, Counter())
        if isinstance(result, str):
            errors.append(result)
        else:
            bucket.update(result)
    return expected, errors


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for n=1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def windows(values: list, size: int = LATENCY_WINDOW) -> list[list]:
    """Consecutive windows of ``size`` values; a short tail joins the last one."""
    if len(values) < 2 * size:
        return [values]
    chunks = [values[i:i + size] for i in range(0, len(values) - len(values) % size, size)]
    chunks[-1] = chunks[-1] + values[len(values) - len(values) % size:]
    return chunks


def windowed_percentile(latencies: list[float], q: int) -> float:
    """The ``q``-th percentile of each window of calls, median over windows.

    A burst of host noise then moves one window, not the reported value.
    """
    return statistics.median(percentile(window, q) for window in windows(latencies))


def tail_latencies(latencies: list[float]) -> dict:
    """p90 and p99 fetch latency, as per-layer metrics.

    Not end-to-end metrics: the tail of a millisecond localhost round trip
    on a small virtual machine follows how busy the host is, and across
    seeds its spread exceeded any usable regression bound.
    """
    return {
        f"serving.client.fetch_p{q}_ms": 1e3 * windowed_percentile(latencies, q) for q in (90, 99)
    }


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class PrefixCheck:
    """What every fetched blob must be: the record file's prefix for its group."""

    def __init__(self, directory: Path, groups) -> None:
        with PCRReader(directory, decode=False) as reader:
            self.names = reader.record_names
            lengths = {(n, g): reader.bytes_for_group(n, g) for n in self.names for g in groups}
        files = {name: (directory / name).read_bytes() for name in self.names}
        self._expected = {(n, g): files[n][:length] for (n, g), length in lengths.items()}

    def matches(self, name: str, group: int, blob) -> bool:
        # bytes() of a bytes object is that object: no copy on the common path.
        return bytes(blob) == self._expected[name, group]


def random_requests(rng: np.random.Generator, names: list[str], groups, per_call: int):
    """An endless stream of request lists: uniform records, uniform groups."""
    while True:
        picks = rng.integers(0, len(names), size=per_call)
        chosen = rng.choice(groups, size=per_call)
        yield [(names[i], int(g)) for i, g in zip(picks, chosen)]


def closed_loop(fetch, requests, check: PrefixCheck, result: "RunResult", *,
                deadline: float, rss: RssSampler | None = None,
                span_log=None) -> tuple[list[float], int]:
    """One caller, next request only after the previous reply; checks every blob.

    Runs until ``deadline`` (a perf-counter time).  Returns the per-call
    latencies (failed calls included) and the number of records returned
    correctly.
    """
    latencies: list[float] = []
    records_ok = 0
    for batch in requests:
        if time.perf_counter() >= deadline:
            break
        result.attempted += len(batch)
        call_start = time.perf_counter()
        try:
            blobs = fetch(batch)
        except Exception as exc:  # typed or not, it is a failed operation
            latencies.append(time.perf_counter() - call_start)
            result.failed += len(batch)
            result.errors.append(f"fetch: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - call_start)
        for (name, group), blob in zip(batch, blobs):
            if check.matches(name, group, blob):
                records_ok += 1
            else:
                result.failed += 1
                result.errors.append(f"{name}@{group}: fetched bytes differ from the record file")
        if rss is not None and len(latencies) % 16 == 1:
            rss.sample()
        if span_log is not None:
            span_log.drain_if_half_full()  # between calls, every thread is idle
    return latencies, records_ok


class Tally:
    """Registry counter deltas and histogram sums, summed over windows."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.histogram_sums: Counter = Counter()
        self.gauges: dict = {}

    def add(self, before: dict, after: dict) -> None:
        delta = diff_snapshots(after, before)
        self.counters.update(delta["counters"])
        for name, histogram in delta["histograms"].items():
            self.histogram_sums[name] += histogram["sum"]
        self.gauges.update(after.get("gauges", {}))


@dataclass
class Setup:
    setup_s: float
    convert_s: float
    n_images: int
    encode_s: float
    write_s: float
    stored_bytes: int


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    regime: dict = field(default_factory=dict)
    windows: list = field(default_factory=list)
    latency_samples: int = 0
    #: The rate the tracing overhead is judged on.
    rate_metric: str = "samples_per_s"


@dataclass
class _TrainStack:
    directory: Path
    server: PCRRecordServer
    client: PCRClient
    source: RemoteRecordSource
    pool: DecodePool | None
    loader: DataLoader
    trainer: Trainer

    def close(self) -> None:
        self.loader.close()
        if self.pool is not None:
            self.pool.close()
        self.source.close()
        self.client.close()
        self.server.stop()


class Bench:
    """Runs workloads; owns the scratch directory and the dataset counter.

    Every dataset a ``Bench`` builds uses images generated from the run's
    seed *and* a per-process generation number, so a second run in the
    same process (the traced half of a ``--trace 1`` run, or the self-test)
    never decodes images an earlier run already decoded.
    """

    def __init__(self, work_dir: Path, size: str = "full", tamper=None) -> None:
        self.work_dir = work_dir
        self.shapes = SHAPES[size]
        self.probe_seconds = PROBE_SECONDS[size]
        self._generation = itertools.count()
        #: Self-test hook, called with a dataset directory between taking
        #: what the output check compares and what the stack delivers.
        self.tamper = tamper
        #: An ``attribution.SpanLog`` while a traced run collects spans.
        self.span_log = None
        self._converter: ProcessPoolExecutor | None = None
        self._converter_pid = -1

    # -- shared setup ------------------------------------------------------------

    def _convert_fresh(self, seed: int, n_images: int, images_per_record: int,
                       encode_workers: int, run_dir: Path) -> tuple[Path, Setup, float]:
        """Generate fresh images and convert them; returns (dir, setup, start)."""
        start = time.perf_counter()
        generation = next(self._generation)
        directory = Path(tempfile.mkdtemp(prefix=f"gen{generation}-", dir=run_dir))
        with get_tracer().span("bench.convert"):
            setup = self._converter.submit(
                build_dataset, directory, mix_seed(seed, generation),
                n_images, images_per_record, encode_workers,
            ).result()
        return directory, setup, start

    def _setup_train(self, shape: TrainShape, seed: int, run_dir: Path) -> tuple[_TrainStack, Setup]:
        directory, setup, start = self._convert_fresh(
            seed, shape.n_images, shape.images_per_record, shape.encode_workers, run_dir
        )
        with get_tracer().span("bench.server_start"):
            server = PCRRecordServer(directory).start()
        try:
            client = PCRClient(port=server.port, pool_size=CLIENT_CONNECTIONS)
            source = RemoteRecordSource(client=client, scan_group=shape.scan_group)
            # The pool DataLoader(decode_workers=N) would start on its first
            # epoch, started here so its start-up is set-up time and its
            # stats stay readable.
            pool = DecodePool(shape.decode_workers) if shape.decode_workers > 0 else None
            source.set_decode_pool(pool)
            loader = DataLoader(
                source,
                LoaderConfig(batch_size=BATCH_SIZE, n_workers=LOADER_THREADS, seed=seed),
            )
            trainer = Trainer(LinearProbe(N_CLASSES, IMAGE_SIZE, seed=seed))
        except BaseException:
            server.stop()
            raise
        setup.setup_s = time.perf_counter() - start
        return _TrainStack(directory, server, client, source, pool, loader, trainer), setup

    # -- entry point ---------------------------------------------------------------

    def run(self, workload: str, seed: int, seconds: float, setups: int = SETUP_REPEATS) -> RunResult:
        """One measured run; ``setups`` applies to ``train_warm`` and
        ``fetch_mixed`` (``train_cold`` sets up once per cycle)."""
        shape = self.shapes[workload]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.work_dir))
        # Datasets are built in a separate process: serving and training
        # processes do not convert data, and the measured process must not
        # carry the converter's codec caches into its timed part.
        converter = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
        try:
            # Start it outside any set-up; its memory is not the program's.
            self._converter_pid = converter.submit(os.getpid).result()
            encode_workers = shape.encode_workers if isinstance(shape, TrainShape) else 0
            converter.submit(
                warm_up_converter, run_dir / "converter-warmup",
                mix_seed(seed, "converter-warmup"), encode_workers,
            ).result()
            self._converter = converter
            if isinstance(shape, FetchShape):
                return self._fetch(workload, shape, seed, seconds, setups, run_dir)
            return self._train(workload, shape, seed, seconds, setups, run_dir)
        finally:
            self._converter = None
            converter.shutdown(wait=True)
            shutil.rmtree(run_dir, ignore_errors=True)

    # -- training workloads ----------------------------------------------------------

    def _epoch(self, stack: _TrainStack, rss: RssSampler | None) -> Counter:
        """One epoch into ``train_step``; digests every delivered sample."""
        tracer = get_tracer()
        delivered: Counter = Counter()
        epoch = stack.loader.epoch()
        try:
            while True:
                with tracer.span("bench.next"):
                    batch = next(epoch, None)
                if batch is None:
                    break
                if rss is not None:
                    with tracer.span("bench.check"):
                        delivered.update(batch_digests(batch))
                        rss.sample()
                with tracer.span("bench.train_step"):
                    stack.trainer.train_step(batch)
        finally:
            epoch.close()
        return delivered

    def _train(self, workload, shape: TrainShape, seed, seconds, setups, run_dir) -> RunResult:
        result = RunResult(workload)
        rss = RssSampler(exclude={self._converter_pid})
        registry_tally, server_tally = Tally(), Tally()
        done_setups: list[Setup] = []
        #: (dataset directory, delivered multiset or None if the epoch failed, seconds)
        epochs: list[tuple[Path, Counter | None, float]] = []
        probe_latencies: list[float] = []
        pool_stats: Counter = Counter()

        def timed_epoch(stack: _TrainStack) -> None:
            server_before = stack.client.metrics()["registry"]
            before = get_registry().snapshot()
            start = time.perf_counter()
            try:
                delivered = self._epoch(stack, rss)
            except Exception as exc:  # a typed error from any layer: a failed epoch
                result.errors.append(f"epoch on {stack.directory.name}: {type(exc).__name__}: {exc}")
                delivered = None
            elapsed = time.perf_counter() - start
            result.windows.append((start, start + elapsed))
            registry_tally.add(before, get_registry().snapshot())
            server_tally.add(server_before, stack.client.metrics()["registry"])
            epochs.append((stack.directory, delivered, elapsed))
            if self.span_log is not None:
                self.span_log.drain()  # reader threads joined, server idle

        def fetch_probe(stack: _TrainStack) -> None:
            # Fetch latency of this workload's records, timed alone: the
            # fetch_mixed call shape (pipelined BATCH of random records)
            # at the workload's scan group, against the same server.
            check = PrefixCheck(stack.directory, (shape.scan_group,))
            requests = random_requests(
                np.random.default_rng(mix_seed(seed, "fetch-probe")),
                check.names, (shape.scan_group,), PROBE_BATCH_RECORDS,
            )
            latencies, _ = closed_loop(
                stack.client.get_record_batch, requests, check, result,
                deadline=time.perf_counter() + self.probe_seconds,
            )
            probe_latencies.extend(latencies)

        def close_stack(stack: _TrainStack) -> None:
            if stack.pool is not None:
                pool_stats["fallback_batches"] += stack.pool.stats.fallback_batches
                pool_stats["fleet_restarts"] += stack.pool.stats.fleet_restarts
            stack.close()

        stack = None
        try:
            if shape.cold:
                # Each cycle: fresh images -> convert -> serve -> one cold epoch.
                while len(epochs) < MIN_COLD_CYCLES or sum(e[2] for e in epochs) < seconds:
                    if stack is not None:
                        close_stack(stack)
                    stack, setup = self._setup_train(shape, seed, run_dir)
                    done_setups.append(setup)
                    timed_epoch(stack)
            else:
                for _ in range(max(1, setups)):
                    if stack is not None:
                        close_stack(stack)
                    stack, setup = self._setup_train(shape, seed, run_dir)
                    done_setups.append(setup)
                self._epoch(stack, rss=None)  # untimed warm-up
                while len(epochs) < MIN_WARM_EPOCHS or sum(e[2] for e in epochs) < seconds:
                    timed_epoch(stack)
            fetch_probe(stack)
        finally:
            if stack is not None:
                close_stack(stack)

        # Output check, after every timed part.
        directories = sorted({directory for directory, _, _ in epochs})
        if self.tamper is not None:
            self.tamper(directories[0])
        tasks = []
        for directory in directories:
            with PCRReader(directory, decode=False) as reader:
                tasks.extend((str(directory), name, shape.scan_group) for name in reader.record_names)
        expected, reference_errors = reference_multisets(tasks)
        result.errors.extend(f"reference decode {e}" for e in reference_errors)
        for directory, delivered, _ in epochs:
            want = expected[str(directory)]
            result.attempted += shape.n_images
            if delivered is None:
                result.failed += shape.n_images
                continue
            result.failed += max(sum((delivered - want).values()), sum((want - delivered).values()))

        n_samples = shape.n_images * sum(1 for e in epochs if e[1] is not None)
        records = shape.n_images // shape.images_per_record
        result.latency_samples = len(probe_latencies)
        result.end_to_end = {
            "samples_per_s": statistics.median(shape.n_images / e[2] for e in epochs),
            "records_per_s": statistics.median(records / e[2] for e in epochs),
            "bytes_per_sample": server_tally.counters["serving.bytes_sent_total"] / max(1, n_samples),
            "fetch_p50_ms": 1e3 * windowed_percentile(probe_latencies, 50),
            **self._setup_metrics(done_setups),
            "peak_rss_mb": rss.peak_mb,
        }
        result.layers = self._layers(registry_tally, server_tally, done_setups)
        result.layers.update(tail_latencies(probe_latencies))
        result.layers["codecs.parallel.fallback_batches"] = pool_stats["fallback_batches"]
        result.layers["codecs.parallel.fleet_restarts"] = pool_stats["fleet_restarts"]
        result.inputs = {
            "image_size": IMAGE_SIZE,
            "images_per_dataset": shape.n_images,
            "images_per_record": shape.images_per_record,
            "timed_datasets": len(directories),
            "timed_epochs": len(epochs),
            "dataset_bytes": statistics.median(s.stored_bytes for s in done_setups),
            "scan_group": shape.scan_group,
            "decode_workers": shape.decode_workers,
            "encode_workers": shape.encode_workers,
            "batch_size": BATCH_SIZE,
            "seed": seed,
        }
        # Identity scan-group policy: group g holds g scans per image.
        result.regime = regime(registry_tally, server_tally, n_samples * shape.scan_group, cold=shape.cold)
        return result

    @staticmethod
    def _setup_metrics(setups: list[Setup]) -> dict:
        """End-to-end metrics of the set-up phase: medians over its repeats."""
        return {
            "ingest_images_per_s": statistics.median(s.n_images / s.convert_s for s in setups),
            "stored_bytes_per_image": statistics.median(s.stored_bytes / s.n_images for s in setups),
            "setup_s": statistics.median(s.setup_s for s in setups),
        }

    @staticmethod
    def _layers(registry_tally: Tally, server_tally: Tally, setups: list[Setup]) -> dict:
        return {
            "core.convert.encode_s": statistics.median(s.encode_s for s in setups),
            "core.convert.write_s": statistics.median(s.write_s for s in setups),
            **layer_counters(registry_tally, server_tally),
        }

    # -- fetch workload ------------------------------------------------------------------

    def _fetch(self, workload, shape: FetchShape, seed, seconds, setups, run_dir) -> RunResult:
        result = RunResult(workload, rate_metric="records_per_s")
        rss = RssSampler(exclude={self._converter_pid})
        tracer = get_tracer()
        done_setups: list[Setup] = []
        coordinator = client = None
        try:
            for _ in range(max(1, setups)):
                if coordinator is not None:
                    client.close()
                    coordinator.stop()
                directory, setup, start = self._convert_fresh(
                    seed, shape.n_images, shape.images_per_record, 0, run_dir
                )
                cache_bytes = int(directory_bytes(directory) * shape.cache_fraction)
                with tracer.span("bench.server_start"):
                    coordinator = ClusterCoordinator(
                        directory,
                        n_shards=shape.n_shards,
                        n_replicas=shape.n_replicas,
                        cache_bytes=cache_bytes,
                    ).start()
                client = ClusterClient(coordinator.shard_map, pool_size=1)
                setup.setup_s = time.perf_counter() - start
                done_setups.append(setup)

            # Expected bytes come from the record files, read before serving.
            check = PrefixCheck(directory, FETCH_GROUPS)
            if self.tamper is not None:
                self.tamper(directory)
            requests = random_requests(
                np.random.default_rng(mix_seed(seed, "fetch-requests")),
                check.names, FETCH_GROUPS, shape.batch_records,
            )

            def fetch(batch):
                with tracer.span("bench.get_record_batch"):
                    return client.get_record_batch(batch)

            registry_tally, server_tally = Tally(), Tally()
            server_before = coordinator.cluster_stats()["merged"]
            before = get_registry().snapshot()
            start = time.perf_counter()
            latencies, records_ok = closed_loop(
                fetch, requests, check, result, deadline=start + seconds, rss=rss,
                span_log=self.span_log,
            )
            result.windows.append((start, time.perf_counter()))
            rss.sample()
            if self.span_log is not None:
                self.span_log.drain()  # while the replicas' threads still run
            registry_tally.add(before, get_registry().snapshot())
            server_tally.add(server_before, coordinator.cluster_stats()["merged"])
            failovers = client.failovers
        finally:
            if coordinator is not None:
                client.close()
                coordinator.stop()

        # Closed loop, one caller: the rate of a typical call (records per
        # call over the median call latency of each window, median over
        # windows).  A mean-based rate follows the host's CPU steal: on a
        # 2-vCPU VM its spread across seeds was 42%, the median's 21%.
        records_per_s = statistics.median(
            shape.batch_records / statistics.median(window) for window in windows(latencies)
        )
        samples = records_ok * shape.images_per_record
        result.latency_samples = len(latencies)
        result.end_to_end = {
            "samples_per_s": records_per_s * shape.images_per_record,
            "records_per_s": records_per_s,
            "bytes_per_sample": server_tally.counters["serving.bytes_sent_total"] / max(1, samples),
            "fetch_p50_ms": 1e3 * windowed_percentile(latencies, 50),
            **self._setup_metrics(done_setups),
            "peak_rss_mb": rss.peak_mb,
        }
        result.layers = self._layers(registry_tally, server_tally, done_setups)
        result.layers.update(tail_latencies(latencies))
        result.layers["codecs.parallel.fallback_batches"] = 0
        result.layers["codecs.parallel.fleet_restarts"] = 0
        result.layers["serving.cluster.failovers"] = failovers
        result.inputs = {
            "image_size": IMAGE_SIZE,
            "images_per_dataset": shape.n_images,
            "images_per_record": shape.images_per_record,
            "dataset_bytes": done_setups[-1].stored_bytes,
            "cache_bytes_per_replica": cache_bytes,
            "n_shards": shape.n_shards,
            "n_replicas": shape.n_replicas,
            "batch_records": shape.batch_records,
            "scan_groups": list(FETCH_GROUPS),
            "loop": "closed, 1 client thread",
            "seed": seed,
        }
        result.regime = regime(registry_tally, server_tally, 0, cold=None)
        return result


def _ratio(hits: float, misses: float) -> float:
    """Hit ratio; 1.0 when there were no lookups (nothing had to be built)."""
    lookups = hits + misses
    return hits / lookups if lookups else 1.0


def layer_counters(tally: Tally, server: Tally) -> dict:
    """Per-layer metrics that come from counters (present in every run)."""
    c, h = tally.counters, tally.histogram_sums
    sc, sh = server.counters, server.histogram_sums
    server_hits = sc["serving.cache.exact_hits_total"] + sc["serving.cache.prefix_hits_total"]
    wait = c["loader.wait_seconds_total"]
    compute = c["loader.compute_seconds_total"]
    return {
        "codecs.huffman.luts_misses": c["codec.table_cache.luts.misses_total"],
        "codecs.huffman.luts_evictions": c["codec.table_cache.luts.evictions_total"],
        "codecs.huffman.luts_hit_ratio": _ratio(
            c["codec.table_cache.luts.hits_total"], c["codec.table_cache.luts.misses_total"]
        ),
        "codecs.huffman.payload_hit_ratio": _ratio(
            c["codec.table_cache.payload.hits_total"], c["codec.table_cache.payload.misses_total"]
        ),
        "codecs.huffman.luts_bytes": tally.gauges.get("codec.table_cache.luts.bytes", 0),
        "codecs.decode.streams": c["decode.streams_total"],
        "codecs.decode.bytes": c["decode.bytes_total"],
        "codecs.parallel.chunks": c["decode.pool.chunks_total"],
        "codecs.parallel.chunk_s": h["decode.pool.chunk_seconds"],
        "serving.server.cache_hit_ratio": _ratio(server_hits, sc["serving.cache.misses_total"]),
        "serving.server.cache_evictions": sc["serving.cache.evictions_total"],
        "serving.server.storage_reads": sc["serving.cache.misses_total"],
        "serving.server.loop_busy_s": sh["serving.loop.iteration_seconds"],
        "serving.server.bytes_sent": sc["serving.bytes_sent_total"],
        "serving.server.errors": sc["serving.errors_total"],
        "serving.cluster.failovers": 0,
        "pipeline.loader.wait_s": wait,
        "pipeline.loader.stall_fraction": wait / (wait + compute) if wait + compute else 0.0,
        "pipeline.loader.batches": c["loader.batches_total"],
    }


def regime(tally: Tally, server: Tally, image_scans: int, cold: bool | None) -> dict:
    """Evidence of which cache regime the timed part ran in."""
    layers = layer_counters(tally, server)
    misses = layers["codecs.huffman.luts_misses"]
    evidence = {
        "luts_misses": misses,
        "luts_hit_ratio": layers["codecs.huffman.luts_hit_ratio"],
        "payload_hit_ratio": layers["codecs.huffman.payload_hit_ratio"],
        "server_cache_hit_ratio": layers["serving.server.cache_hit_ratio"],
        "image_scans": image_scans,
    }
    if cold is True:
        share = misses / image_scans if image_scans else 0.0
        evidence["luts_misses_per_image_scan"] = share
        evidence["holds"] = share > 0.5
        evidence["expect"] = "cold: table builds for most image-scans"
    elif cold is False:
        evidence["holds"] = misses == 0
        evidence["expect"] = "warm: no table builds in timed epochs"
    return evidence
