"""Process-parallel minibatch codecs through shared-memory pixel slabs.

The fast decode path is >90% entropy-bound (see ``BENCH_codec.json``), and
the sequential per-symbol Huffman loop cannot be vectorized inside one
Python interpreter.  :class:`DecodePool` beats that wall with *software*
parallelism instead: a persistent fleet of worker processes decodes the
streams of a minibatch concurrently, one core per worker, and hands the
pixels back through preallocated ``multiprocessing.shared_memory`` frame
slabs so no pixel data is ever pickled.

:class:`EncodePool` is the same engine with the data flow inverted for
ingest (dataset conversion): the parent lays a chunk of images out in a
shared slab (pixels *in* via shared memory, one memcpy each), workers run
the batched float32 forward path + entropy encoder
(:func:`~repro.codecs.progressive.encode_progressive_batch`), and the
encoded streams — orders of magnitude smaller than the pixels — return
through the ordinary result queue.  Both pools share the worker fleet,
work-stealing chunk queue, slab pooling, and crash-fallback machinery
below (:class:`_PoolState`).

Architecture
------------

* **Long-lived workers.**  ``n_workers`` processes are started once (fork
  where available, spawn otherwise), pin BLAS to one thread, pre-warm the
  Huffman-LUT / scaled-basis caches by decoding a tiny self-encoded image,
  and then loop on a shared task queue until the pool closes.  Worker
  startup cost is paid once per pool, not per batch.  One BLAS thread per
  worker is the policy, not a knob: the fleet already runs one worker per
  core, and a worker inheriting the default (one BLAS thread per CPU)
  oversubscribes the cores.  The parent's BLAS is never touched.
* **Chunked task queue (work stealing).**  A batch is split into several
  chunks per worker, balanced by compressed-stream bytes, and all chunks go
  onto one shared queue.  Workers pull the next chunk whenever they finish
  one, so uneven stream sizes self-balance instead of serializing on the
  slowest pre-assigned partition.
* **Shared-memory frame slabs.**  The parent parses each stream's frame
  header, lays every decoded frame out at a fixed offset inside one slab,
  and sends workers only ``(stream bytes, offset, shape)`` metadata.
  Workers decode with the ordinary in-process fast path
  (:func:`~repro.codecs.progressive.decode_progressive_batch`) and write
  the uint8 pixels straight into the slab.  The parent wraps the filled
  regions as zero-copy numpy views; slabs are pooled and reused across
  batches, and a slab returns to the pool only when every view onto it has
  been garbage collected (a :class:`_SlabLease` finalizer tracks that), so
  a consumer can hold decoded frames as long as it likes.
* **Transparent fallback.**  ``n_workers <= 1``, a closed pool, a worker
  crash, or a worker-side decode error all degrade to the in-process batch
  decoder.  After a crash the whole fleet is restarted with fresh queues
  (a killed process can die holding a queue lock, so the old plumbing is
  never trusted again), and the unfinished part of the batch is decoded
  in-process — the caller sees identical results either way.

Decoded output is *byte-identical* to in-process fast-path decoding:
workers run exactly the same code on exactly the same bytes, and the batch
layout never mixes pixels across images.  ``tests/test_codecs_parallel.py``
pins this across scan groups, worker counts, and mid-batch worker kills.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from queue import Empty

import numpy as np

from repro.codecs import config as codec_config
from repro.codecs.markers import SUBSAMPLING_420, parse_frame_header
from repro.codecs.image import ImageBuffer
from repro.common import blas
from repro.obs import metrics as obs_metrics

__all__ = ["DecodePool", "DecodePoolStats", "EncodePool", "EncodePoolStats"]

#: Chunks created per worker and batch: enough granularity that a worker
#: finishing early steals meaningful work, few enough that queue overhead
#: stays negligible.
CHUNKS_PER_WORKER = 4

#: Smallest slab allocated (new slabs round up to this), so a stream of tiny
#: batches reuses one slab instead of allocating per-batch.
MIN_SLAB_BYTES = 1 << 20

#: How often the parent re-checks worker liveness while waiting on results.
_POLL_SECONDS = 0.05

_SENTINEL = None


def _default_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _frame_geometry(payload: bytes) -> tuple[tuple[int, ...], int]:
    """Decoded shape and byte size of a stream, from its frame header only."""
    header, _ = parse_frame_header(payload)
    if header.n_components == 1:
        shape: tuple[int, ...] = (header.height, header.width)
    else:
        shape = (header.height, header.width, 3)
    nbytes = int(np.prod(shape))
    return shape, nbytes


def _chunk_by_bytes(sizes: list[int], n_chunks: int) -> list[list[int]]:
    """Split stream indices into <= ``n_chunks`` contiguous, byte-balanced runs."""
    n_chunks = max(1, min(n_chunks, len(sizes)))
    total = sum(sizes)
    target = total / n_chunks
    chunks: list[list[int]] = []
    current: list[int] = []
    accumulated = 0
    for index, size in enumerate(sizes):
        current.append(index)
        accumulated += size
        remaining_items = len(sizes) - index - 1
        remaining_chunks = n_chunks - len(chunks) - 1
        if (accumulated >= target * (len(chunks) + 1) and remaining_chunks > 0) or (
            remaining_items == remaining_chunks and remaining_chunks > 0 and current
        ):
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------


def _prewarm(quality: int) -> None:
    """Heat the fastpath caches (Huffman LUT build path, scaled bases).

    Beyond the round-trip decode, the superscalar pair/walk tables of every
    Huffman table in the warmup stream are built explicitly: the standard
    quality tables recur across real streams via the payload-keyed cache
    (``HuffmanTable.cached_from_bytes``), so a forked worker's first real
    chunk probes warm LUTs instead of paying the ``SUPER_BITS``-wide table
    build (milliseconds per table flavour) mid-batch.
    """
    from repro.codecs.huffman import HuffmanTable
    from repro.codecs.markers import find_scan_segments
    from repro.codecs.progressive import ProgressiveCodec, decode_progressive_batch

    ramp = (np.arange(16 * 16 * 3, dtype=np.int64) * 7 % 256).astype(np.uint8)
    image = ImageBuffer(ramp.reshape(16, 16, 3))
    codec = ProgressiveCodec(quality=quality)
    payload = codec.encode(image)
    for segment in find_scan_segments(payload):
        table, _ = HuffmanTable.cached_from_bytes(
            payload[segment.payload_start : segment.end]
        )
        tables = table.scan_tables()
        tables.superscalar_tables()
        tables.walk_tables()
    decode_progressive_batch([payload])


def _decode_chunk(shm, max_scans, jobs) -> None:
    """Decode a chunk of streams straight into their slab regions."""
    from repro.codecs.progressive import decode_progressive_batch

    chunk_started = time.perf_counter()
    images = decode_progressive_batch(
        [payload for payload, _, _, _ in jobs], max_scans=max_scans
    )
    for image, (_, offset, nbytes, shape) in zip(images, jobs):
        pixels = image.pixels
        if pixels.shape != tuple(shape) or pixels.nbytes != nbytes:
            raise ValueError(
                f"decoded frame is {pixels.shape}, slab region expects {shape}"
            )
        region = np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes, offset=offset)
        region[:] = pixels.reshape(-1)
        del region
    registry = obs_metrics.get_registry()
    registry.histogram("decode.pool.chunk_seconds").observe(
        time.perf_counter() - chunk_started
    )
    registry.counter("decode.pool.chunks_total").inc()


def _encode_prewarm(quality: int) -> None:
    """Heat the forward fast-path caches (scaled forward bases, DHT builds).

    One tiny color encode touches the RGB→YCbCr matmul, the forward
    scaled-basis cache for the warmup quality's quant tables, and the
    Huffman table-build path, so a worker's first real chunk runs at steady
    state.
    """
    from repro.codecs.progressive import encode_progressive_batch

    ramp = (np.arange(16 * 16 * 3, dtype=np.int64) * 7 % 256).astype(np.uint8)
    image = ImageBuffer(ramp.reshape(16, 16, 3))
    encode_progressive_batch([image], quality=quality)


def _slab_image(shm, offset: int, nbytes: int, shape) -> ImageBuffer:
    """Wrap a slab region as a zero-copy read-only ImageBuffer.

    Scoped in a helper so no local name keeps a view alive after the
    caller drops its image list (a lingering view blocks ``shm.close``).
    """
    region = np.frombuffer(
        shm.buf, dtype=np.uint8, count=nbytes, offset=offset
    ).reshape(shape)
    # Read-only view: ImageBuffer.from_array wraps read-only arrays without
    # copying, so the encoder reads straight out of the slab.
    region.flags.writeable = False
    return ImageBuffer.from_array(region)


def _encode_chunk(shm, params, jobs) -> list[bytes]:
    """Encode a chunk of images read from the slab; returns the streams.

    The mirror image of :func:`_decode_chunk`: pixels arrive through shared
    memory (zero pickling of the heavy direction) and the compressed
    streams — typically 10-50x smaller — return through the result queue.
    """
    from repro.codecs.progressive import encode_progressive_batch

    quality, subsampling, layout = params
    images = [_slab_image(shm, offset, nbytes, shape) for offset, nbytes, shape in jobs]
    try:
        return encode_progressive_batch(
            images, quality=quality, subsampling=subsampling, layout=layout
        )
    finally:
        # Drop the slab views before the result ships so slab eviction /
        # worker exit can unmap the segment cleanly.
        del images


def _worker_main(
    run_chunk, prewarm, slot, blas_threads, task_queue, result_queue, warmup_quality
) -> None:
    """Long-lived worker loop shared by both pools: pull a chunk, run it.

    Bootstrap, once per process and before any BLAS call: ignore SIGINT (a
    Ctrl-C in the parent tears the fleet down through the pool's shutdown
    protocol — sentinels, then terminate — rather than corrupting a queue
    mid-put), pin BLAS to one thread and report the count the library
    settled on in ``blas_threads[slot]``, and pin the fast path on (the
    pools' contract is identity with in-process *fast-path* coding).  One
    worker per core, each with a single BLAS thread, keeps ``n_workers``
    workers from running ``n_workers × cpu_count`` BLAS threads.  The
    parent's own BLAS setting is never touched.

    ``run_chunk(shm, params, jobs)`` does the pool-specific work; its
    return value and the registry delta since the previous chunk ride back
    in the result tuple.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    blas_threads[slot] = blas.limit_threads(1)
    codec_config.set_fastpath(True)
    # The registry's fork hook already zeroed inherited totals (and a
    # spawned worker starts fresh); reset again defensively so the first
    # chunk's delta is exactly this worker's own work.
    registry = obs_metrics.get_registry()
    registry.reset()
    if warmup_quality is not None:
        try:
            prewarm(warmup_quality)
        except Exception:  # warmup is best-effort; first real batch warms too
            pass
    registry.reset()  # drop warmup counts from the first chunk delta
    last_snapshot = registry.snapshot()
    # Slab attachments are cached (slabs are pooled and recur), but bounded:
    # the parent retires slabs over a long run and an unlinked segment's
    # memory stays resident while any mapping exists, so an unbounded cache
    # would grow worker RSS without limit.  Evicting a slab the parent still
    # pools is safe — the next task naming it simply re-attaches.
    max_attached = 8
    attached: dict[str, shared_memory.SharedMemory] = {}
    try:
        while True:
            task = task_queue.get()
            if task is _SENTINEL:
                break
            batch_id, chunk_id, slab_name, params, jobs = task
            try:
                shm = attached.pop(slab_name, None)
                if shm is None:
                    shm = shared_memory.SharedMemory(name=slab_name)
                attached[slab_name] = shm  # (re)insert as most recently used
                while len(attached) > max_attached:
                    oldest = next(iter(attached))
                    try:
                        attached.pop(oldest).close()
                    except Exception:
                        pass
                output = run_chunk(shm, params, jobs)
                snapshot = registry.snapshot()
                delta = obs_metrics.diff_snapshots(snapshot, last_snapshot)
                # Gauges travel as changes, like counters: the parent adds
                # them, so a gauge there gains exactly this worker's level,
                # and one the worker never set keeps the parent's own value.
                delta["gauges"] = {
                    name: value - last_snapshot["gauges"].get(name, 0)
                    for name, value in snapshot["gauges"].items()
                    if value != last_snapshot["gauges"].get(name, 0)
                }
                last_snapshot = snapshot
                result_queue.put((batch_id, chunk_id, None, output, delta))
            except Exception:
                last_snapshot = registry.snapshot()
                result_queue.put((batch_id, chunk_id, traceback.format_exc(), None, None))
    except (KeyboardInterrupt, EOFError, OSError):
        pass  # parent is gone or tearing down; exit quietly
    finally:
        for shm in attached.values():
            try:
                shm.close()
            except Exception:
                pass


# --------------------------------------------------------------------------
# Slab lifecycle
# --------------------------------------------------------------------------


@dataclass
class _Slab:
    """One shared-memory segment frames are decoded into."""

    shm: shared_memory.SharedMemory
    capacity: int


class _SlabLease:
    """Keeps a slab checked out while any frame view onto it is alive.

    Every :class:`_SlabView` returned from a batch holds a strong reference
    to its lease; a ``weakref.finalize`` on the lease returns the slab to
    the pool's free list (or unlinks it, once the pool is closed) exactly
    when the last view dies.
    """

    __slots__ = ("__weakref__",)


class _SlabView(np.ndarray):
    """A decoded uint8 frame viewing shared slab memory (zero-copy).

    Slices inherit the lease through their ``base`` chain, so arbitrary
    downstream numpy code keeps the slab alive for as long as it can see
    the pixels.
    """


def _slab_view(slab: _Slab, offset: int, shape: tuple[int, ...], lease) -> np.ndarray:
    view = np.ndarray.__new__(
        _SlabView, shape, dtype=np.uint8, buffer=slab.shm.buf, offset=offset
    )
    view._slab_lease = lease
    view.flags.writeable = False
    return view


def _destroy_slab(slab: _Slab) -> None:
    try:
        slab.shm.close()
    except BufferError:
        # A view still references the mapping; its lease finalizer will come
        # back through here once the view dies.
        return
    except OSError:
        pass
    try:
        slab.shm.unlink()
    except FileNotFoundError:
        pass
    except OSError:
        pass


def _release_slab(state: "_PoolState", slab: _Slab) -> None:
    """Return a slab to the free list, or retire it if the pool is done."""
    with state.lock:
        if not state.closed and len(state.free_slabs) < state.max_free_slabs:
            state.free_slabs.append(slab)
            return
    _destroy_slab(slab)


# --------------------------------------------------------------------------
# Pool state (detached from the user-facing object so a GC'd pool can still
# be shut down by its finalizer)
# --------------------------------------------------------------------------


class _PoolState:
    def __init__(
        self,
        ctx,
        n_workers: int,
        warmup_quality: int | None,
        max_free_slabs: int,
        *,
        run_chunk,
        prewarm,
        worker_name: str,
        stats,
    ):
        self.ctx = ctx
        self.n_workers = n_workers
        self.warmup_quality = warmup_quality
        self.max_free_slabs = max_free_slabs
        # The chunk function, its warmup and the stats object are injected
        # so DecodePool and EncodePool share one fleet/slab/fallback engine;
        # any stats object with workers_started / fleet_restarts /
        # slabs_created counters works.
        self.run_chunk = run_chunk
        self.prewarm = prewarm
        self.worker_name = worker_name
        self.lock = threading.RLock()
        self.closed = False
        self.respawn = True  # tests flip this to pin the fallback path
        self.workers: list = []
        self.tasks = None
        self.results = None
        self.free_slabs: list[_Slab] = []
        self.batch_counter = 0
        self.slab_counter = 0
        self.stats = stats
        #: BLAS threads each worker slot reported after pinning; -1 until
        #: the slot's current worker has booted.
        self.blas_threads = ctx.RawArray("i", [-1] * n_workers)
        #: Sum of the gauge changes the live fleet has reported, by name:
        #: the share of each parent gauge that dies with the workers.
        self.worker_gauges: dict[str, float] = {}

    # -- workers ----------------------------------------------------------

    def ensure_workers(self) -> None:
        # A worker that died *between* batches (OOM killer, external SIGKILL)
        # may have been blocked in task_queue.get() holding the queue's
        # shared read lock — forking replacements onto the same queues would
        # deadlock the whole fleet with every process "alive".  Any death
        # therefore discards the old plumbing wholesale, same as a mid-batch
        # crash.
        if any(not worker.is_alive() for worker in self.workers):
            self.restart_fleet()
        if self.tasks is None:
            self.tasks = self.ctx.Queue()
            self.results = self.ctx.Queue()
        if not self.respawn and self.workers:
            return
        while self.respawn and len(self.workers) < self.n_workers:
            slot = len(self.workers)
            self.blas_threads[slot] = -1
            worker = self.ctx.Process(
                target=_worker_main,
                args=(
                    self.run_chunk,
                    self.prewarm,
                    slot,
                    self.blas_threads,
                    self.tasks,
                    self.results,
                    self.warmup_quality,
                ),
                daemon=True,
                name=f"{self.worker_name}-{slot}",
            )
            worker.start()
            self.workers.append(worker)
            self.stats.workers_started += 1

    def worker_blas_threads(self) -> tuple[int, ...]:
        """BLAS threads of every live worker that has booted, in slot order."""
        return tuple(
            self.blas_threads[slot]
            for slot, worker in enumerate(self.workers)
            if worker.is_alive() and self.blas_threads[slot] >= 0
        )

    def restart_fleet(self) -> None:
        """Kill every worker and discard the queues (crash recovery).

        A process that died mid-``put``/``get`` can leave a queue lock held
        forever, so after any failure the old queues are abandoned wholesale
        and the next batch starts from fresh plumbing.
        """
        workers, self.workers = self.workers, []
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=1.0)
        self._discard_queues()
        # The dead workers' levels (cached table bytes, ...) died with them.
        gauges, self.worker_gauges = self.worker_gauges, {}
        obs_metrics.get_registry().merge(
            {"gauges": {name: -level for name, level in gauges.items()}}
        )
        self.stats.fleet_restarts += 1

    def _discard_queues(self) -> None:
        for q in (self.tasks, self.results):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
        self.tasks = None
        self.results = None

    # -- telemetry --------------------------------------------------------

    def fold_delta(self, delta: dict) -> None:
        """Fold one chunk's worker registry delta into the parent registry.

        Everything adds: counters and histograms so fleet totals equal
        in-process totals, gauges because workers ship their changes, so
        each parent gauge reads its own level plus the live workers'.
        """
        obs_metrics.get_registry().merge(delta)
        for name, change in delta.get("gauges", {}).items():
            self.worker_gauges[name] = self.worker_gauges.get(name, 0) + change

    # -- batches ----------------------------------------------------------

    def run_chunks(
        self, slab: _Slab, params, chunk_jobs: list[list], stall_timeout: float
    ) -> tuple[dict, set[int], bool]:
        """Queue one batch's chunks and collect the workers' results.

        Returns ``(outputs, pending, failed)``: each finished chunk's output
        by chunk id, the chunk ids that never finished, and whether the
        batch failed — a worker died, reported an error (its traceback
        lands in ``stats.last_worker_error``), or no chunk finished for
        ``stall_timeout`` seconds.  The caller finishes ``pending`` chunks
        in-process after a failure.
        """
        self.batch_counter += 1
        batch_id = self.batch_counter
        for chunk_id, jobs in enumerate(chunk_jobs):
            self.tasks.put((batch_id, chunk_id, slab.shm.name, params, jobs))
        pending = set(range(len(chunk_jobs)))
        outputs: dict = {}
        failed = not self.workers
        last_progress = time.monotonic()
        while pending and not failed:
            try:
                done_batch, done_chunk, error, output, delta = self.results.get(
                    timeout=_POLL_SECONDS
                )
            except Empty:
                # Dead workers are detected directly; a worker that is alive
                # but wedged (e.g. a respawned fork that inherited a lock
                # held at fork time) trips the stall timeout, so a batch can
                # degrade but never hang.
                if any(not worker.is_alive() for worker in self.workers):
                    failed = True
                elif time.monotonic() - last_progress > stall_timeout:
                    self.stats.last_worker_error = "batch stalled"
                    failed = True
                continue
            if done_batch != batch_id:
                continue  # stale result from an aborted batch
            if error is not None:
                self.stats.last_worker_error = error
                failed = True
                break
            outputs[done_chunk] = output
            pending.discard(done_chunk)
            last_progress = time.monotonic()
            if delta:
                self.fold_delta(delta)
        return outputs, pending, failed

    # -- slabs ------------------------------------------------------------

    def acquire_slab(self, nbytes: int) -> _Slab:
        with self.lock:
            best_index = -1
            for index, slab in enumerate(self.free_slabs):
                if slab.capacity >= nbytes and (
                    best_index < 0 or slab.capacity < self.free_slabs[best_index].capacity
                ):
                    best_index = index
            if best_index >= 0:
                return self.free_slabs.pop(best_index)
            self.slab_counter += 1
            counter = self.slab_counter
        capacity = max(nbytes, MIN_SLAB_BYTES)
        while True:
            name = f"pcrslab_{os.getpid()}_{counter}_{os.urandom(3).hex()}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=capacity)
                break
            except FileExistsError:
                continue
        self.stats.slabs_created += 1
        return _Slab(shm=shm, capacity=capacity)

    # -- shutdown ---------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        with self.lock:
            if self.closed:
                return
            self.closed = True
            workers, self.workers = self.workers, []
            tasks = self.tasks
            slabs, self.free_slabs = list(self.free_slabs), []
        if tasks is not None:
            for _ in workers:
                try:
                    tasks.put(_SENTINEL)
                except Exception:
                    break
        for worker in workers:
            worker.join(timeout=timeout)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=1.0)
        self._discard_queues()
        for slab in slabs:
            _destroy_slab(slab)


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


class _Pool:
    """Lifecycle shared by :class:`DecodePool` and :class:`EncodePool`.

    A subclass names its worker body (``_run_chunk``, ``_prewarm``), its
    process name and its stats type; construction, stats, close and the
    context-manager protocol are the same for both pools.
    """

    _run_chunk = None
    _prewarm = None
    _worker_name = ""
    _stats_type = None

    def __init__(
        self,
        n_workers: int,
        *,
        start_method: str | None = None,
        warmup_quality: int | None = 90,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        max_free_slabs: int = 4,
        stall_timeout: float = 30.0,
    ) -> None:
        self.n_workers = int(n_workers)
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        #: Seconds without any chunk completing (workers alive) before a
        #: batch is declared stalled and finished in-process.  At fast-path
        #: rates the default corresponds to tens of MB of data per chunk —
        #: far beyond any realistic record.
        self.stall_timeout = float(stall_timeout)
        self._closed_inprocess = False
        self._inprocess_lock = threading.Lock()
        if self.n_workers <= 1:
            self._state: _PoolState | None = None
            self._stats = self._stats_type()
            self._finalizer = None
            return
        ctx = multiprocessing.get_context(start_method or _default_start_method())
        # Start the shared-memory resource tracker *before* forking workers:
        # children then inherit the parent's tracker instead of each lazily
        # spawning their own (a per-worker tracker would try to "clean up"
        # the parent's live slabs when its worker exits).  Registrations are
        # set-deduplicated in the tracker, so worker-side attach registers
        # collapse into the parent's single register/unlink pair.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        state = _PoolState(
            ctx,
            self.n_workers,
            warmup_quality,
            max_free_slabs,
            run_chunk=type(self)._run_chunk,
            prewarm=type(self)._prewarm,
            worker_name=self._worker_name,
            stats=self._stats_type(),
        )
        self._state = state
        self._stats = state.stats
        with state.lock:
            state.ensure_workers()
        self._finalizer = weakref.finalize(self, _PoolState.shutdown, state)

    # -- introspection ----------------------------------------------------

    @property
    def stats(self) -> "DecodePoolStats | EncodePoolStats":
        if self._state is not None:
            self._stats.worker_blas_threads = self._state.worker_blas_threads()
        return self._stats

    @property
    def closed(self) -> bool:
        if self._state is not None:
            return self._state.closed
        return self._closed_inprocess

    # -- lifecycle --------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and release every pooled shared-memory slab.

        Slabs still referenced by outstanding frame views are unlinked as
        soon as their last view is garbage collected.  Coding through a
        closed pool transparently runs in-process.
        """
        self._closed_inprocess = True
        if self._state is not None:
            self._state.shutdown(timeout=timeout)
        if self._finalizer is not None:
            self._finalizer.detach()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class DecodePoolStats:
    """Counters a pool accumulates over its lifetime."""

    batches: int = 0
    parallel_batches: int = 0
    fallback_batches: int = 0
    streams_decoded: int = 0
    bytes_decoded: int = 0
    fleet_restarts: int = 0
    workers_started: int = 0
    slabs_created: int = 0
    #: BLAS threads each live, booted worker runs (1 where BLAS is settable,
    #: 0 where no settable BLAS was found); empty without workers.
    worker_blas_threads: tuple[int, ...] = ()
    last_worker_error: str = field(default="", repr=False)


class DecodePool(_Pool):
    """A persistent process pool that decodes minibatches of PCR streams.

    ``decode_batch`` is a drop-in replacement for
    :meth:`repro.codecs.progressive.ProgressiveCodec.decode_batch`: it takes
    the same list of stream bytes and returns the same list of
    :class:`~repro.codecs.image.ImageBuffer`, byte-identical to in-process
    fast-path decoding — except the entropy loops of the batch run on
    ``n_workers`` cores concurrently and the pixels come back through
    shared memory.  Each worker runs BLAS on one thread; the caller's own
    BLAS setting is left alone.

    With ``n_workers <= 1`` the pool is a thin wrapper over the in-process
    batch decoder (no processes, no shared memory), so callers can wire a
    pool unconditionally and control parallelism with one integer.

    One batch is in flight at a time (concurrent callers serialize on an
    internal lock): the pool parallelizes *within* a batch, which is where
    the minibatch-shaped work lives.  Use it as a context manager or call
    :meth:`close`; an abandoned pool is also shut down by a GC finalizer so
    no worker processes or shared-memory segments outlive the interpreter.

    The initial fleet forks at construction time (create the pool before
    starting reader threads, as ``DataLoader`` does).  Respawning after a
    crash may fork from an already-threaded parent; a replacement child
    that wedges on a lock inherited at fork time is caught by the
    ``stall_timeout`` watchdog and the batch finishes in-process.  Pass
    ``start_method="spawn"`` for fully fork-free workers in heavily
    threaded embedders (slower startup, same results).
    """

    _run_chunk = staticmethod(_decode_chunk)
    _prewarm = staticmethod(_prewarm)
    _worker_name = "pcr-decode"
    _stats_type = DecodePoolStats

    # -- decoding ---------------------------------------------------------

    def decode_batch(self, payloads, max_scans: int | None = None) -> list[ImageBuffer]:
        """Decode a minibatch of streams; byte-identical to in-process decode."""
        payloads = list(payloads)
        if not payloads:
            return []
        state = self._state
        if state is None:
            return self._decode_inprocess(payloads, max_scans)
        with state.lock:
            if state.closed:
                return self._decode_inprocess(payloads, max_scans)
            return self._decode_parallel(state, payloads, max_scans)

    def _decode_inprocess(self, payloads: list[bytes], max_scans) -> list[ImageBuffer]:
        from repro.codecs.progressive import decode_progressive_batch

        # The pool's contract is byte-identity with *fast-path* decode
        # (workers pin it on); the in-process degradations must match even
        # when the caller has toggled the scalar reference path globally.
        with codec_config.use_fastpath(True):
            images = decode_progressive_batch(payloads, max_scans=max_scans)
        with self._inprocess_lock:
            self._stats.batches += 1
            self._stats.streams_decoded += len(payloads)
            self._stats.bytes_decoded += sum(image.pixels.nbytes for image in images)
        return images

    def _decode_parallel(
        self, state: _PoolState, payloads: list[bytes], max_scans
    ) -> list[ImageBuffer]:
        from repro.codecs.progressive import decode_progressive_batch

        state.ensure_workers()
        if not state.workers:
            # Respawning is disabled and the fleet is gone: decode in-process
            # without touching the (fresh, empty) queues.
            state.stats.fallback_batches += 1
            return self._decode_inprocess(payloads, max_scans)
        shapes: list[tuple[int, ...]] = []
        sizes: list[int] = []
        offsets: list[int] = []
        total = 0
        for payload in payloads:
            shape, nbytes = _frame_geometry(payload)
            shapes.append(shape)
            sizes.append(nbytes)
            offsets.append(total)
            total += nbytes
        slab = state.acquire_slab(total)
        views_created = False
        try:
            chunks = _chunk_by_bytes(
                [len(p) for p in payloads], state.n_workers * self.chunks_per_worker
            )
            _, pending, failed = state.run_chunks(
                slab,
                max_scans,
                [
                    [(payloads[i], offsets[i], sizes[i], shapes[i]) for i in indices]
                    for indices in chunks
                ],
                self.stall_timeout,
            )
            images: list = [None] * len(payloads)
            if failed:
                # Tear the fleet down to a clean slate (a killed worker can
                # die holding a queue lock), then finish the batch with the
                # ordinary in-process decoder.  A worker that reported a
                # decode *error* re-raises here with the real exception.
                state.stats.fallback_batches += 1
                state.restart_fleet()
                fallback = sorted(
                    index for chunk_id in pending for index in chunks[chunk_id]
                )
                # Pin the fast path: workers decode with it on, and a mixed
                # batch must not differ chunk-by-chunk when the caller has
                # the scalar reference toggled globally.
                with codec_config.use_fastpath(True):
                    decoded = decode_progressive_batch(
                        [payloads[i] for i in fallback], max_scans=max_scans
                    )
                for index, image in zip(fallback, decoded):
                    images[index] = image
            done_indices = [
                index
                for chunk_id, indices in enumerate(chunks)
                if chunk_id not in pending
                for index in indices
            ]
            if done_indices:
                lease = _SlabLease()
                weakref.finalize(lease, _release_slab, state, slab)
                for index in done_indices:
                    images[index] = ImageBuffer(
                        _slab_view(slab, offsets[index], shapes[index], lease)
                    )
                views_created = True
            state.stats.batches += 1
            if done_indices:
                # Only count batches where workers actually decoded chunks;
                # an all-fallback batch must not masquerade as parallel.
                state.stats.parallel_batches += 1
            state.stats.streams_decoded += len(payloads)
            state.stats.bytes_decoded += total
            return images
        finally:
            if not views_created:
                _release_slab(state, slab)


@dataclass
class EncodePoolStats:
    """Counters an :class:`EncodePool` accumulates over its lifetime."""

    batches: int = 0
    parallel_batches: int = 0
    fallback_batches: int = 0
    images_encoded: int = 0
    pixel_bytes_in: int = 0
    encoded_bytes_out: int = 0
    fleet_restarts: int = 0
    workers_started: int = 0
    slabs_created: int = 0
    #: BLAS threads each live, booted worker runs (see DecodePoolStats).
    worker_blas_threads: tuple[int, ...] = ()
    last_worker_error: str = field(default="", repr=False)


class EncodePool(_Pool):
    """A persistent process pool that encodes minibatches of images.

    ``encode_batch`` is a drop-in replacement for
    :func:`repro.codecs.progressive.encode_progressive_batch`: it takes the
    same list of :class:`~repro.codecs.image.ImageBuffer` and returns the
    same list of encoded streams, identical to in-process fast-path
    encoding — except the forward DCT + entropy loops of the batch run on
    ``n_workers`` cores concurrently, and the pixels travel to the workers
    through shared-memory slabs (one parent-side memcpy per image, zero
    pickling of pixel data).  Encoded streams are orders of magnitude
    smaller than pixels, so they return through the ordinary result queue.

    With ``n_workers <= 1`` the pool is a thin wrapper over the in-process
    batch encoder (no processes, no shared memory), so conversion code can
    wire a pool unconditionally and control parallelism with one integer.

    Fleet lifecycle, the one-BLAS-thread worker bootstrap, chunked work
    stealing, slab pooling, crash fallback, and the stall watchdog are
    shared with :class:`DecodePool` (see the module docstring); after any
    worker failure the unfinished remainder of the batch is encoded
    in-process and the caller sees identical streams either way.
    """

    _run_chunk = staticmethod(_encode_chunk)
    _prewarm = staticmethod(_encode_prewarm)
    _worker_name = "pcr-encode"
    _stats_type = EncodePoolStats

    # -- encoding ---------------------------------------------------------

    def encode_batch(
        self,
        images,
        *,
        quality: int = 90,
        subsampling: int = SUBSAMPLING_420,
        layout: str = "progressive",
    ) -> list[bytes]:
        """Encode a minibatch of images; identical to in-process encoding."""
        images = list(images)
        if not images:
            return []
        state = self._state
        if state is None:
            return self._encode_inprocess(images, quality, subsampling, layout)
        with state.lock:
            if state.closed:
                return self._encode_inprocess(images, quality, subsampling, layout)
            return self._encode_parallel(state, images, quality, subsampling, layout)

    def _encode_inprocess(self, images, quality, subsampling, layout) -> list[bytes]:
        from repro.codecs.progressive import encode_progressive_batch

        # The pool's contract is identity with *fast-path* encoding (workers
        # pin it on); the in-process degradations must match even when the
        # caller has toggled the scalar reference path globally.
        with codec_config.use_fastpath(True):
            streams = encode_progressive_batch(
                images, quality=quality, subsampling=subsampling, layout=layout
            )
        with self._inprocess_lock:
            self._stats.batches += 1
            self._stats.images_encoded += len(images)
            self._stats.pixel_bytes_in += sum(im.pixels.nbytes for im in images)
            self._stats.encoded_bytes_out += sum(len(s) for s in streams)
        return streams

    def _encode_parallel(
        self, state: _PoolState, images, quality, subsampling, layout
    ) -> list[bytes]:
        from repro.codecs.progressive import encode_progressive_batch

        state.ensure_workers()
        if not state.workers:
            # Respawning is disabled and the fleet is gone: encode in-process
            # without touching the (fresh, empty) queues.
            state.stats.fallback_batches += 1
            return self._encode_inprocess(images, quality, subsampling, layout)
        shapes: list[tuple[int, ...]] = []
        sizes: list[int] = []
        offsets: list[int] = []
        total = 0
        for image in images:
            pixels = image.pixels
            shapes.append(pixels.shape)
            sizes.append(pixels.nbytes)
            offsets.append(total)
            total += pixels.nbytes
        slab = state.acquire_slab(total)
        try:
            # Lay the chunk's pixels out back-to-back in the slab: one
            # memcpy per image is the only parent-side pixel movement.
            for image, offset, nbytes in zip(images, offsets, sizes):
                region = np.frombuffer(
                    slab.shm.buf, dtype=np.uint8, count=nbytes, offset=offset
                )
                region[:] = image.pixels.reshape(-1)
                del region
            # Balance chunks by *pixel* bytes: encode cost scales with the
            # uncompressed size, unlike decode (compressed bytes).
            chunks = _chunk_by_bytes(sizes, state.n_workers * self.chunks_per_worker)
            chunk_streams, pending, failed = state.run_chunks(
                slab,
                (quality, subsampling, layout),
                [[(offsets[i], sizes[i], shapes[i]) for i in indices] for indices in chunks],
                self.stall_timeout,
            )
            results: list = [None] * len(images)
            for chunk_id, streams in chunk_streams.items():
                for index, stream in zip(chunks[chunk_id], streams):
                    results[index] = stream
            if failed:
                # Completed chunks keep their streams (identical either
                # way); tear the fleet down to a clean slate and encode the
                # unfinished remainder in-process.
                state.stats.fallback_batches += 1
                state.restart_fleet()
                fallback = sorted(
                    index for chunk_id in pending for index in chunks[chunk_id]
                )
                with codec_config.use_fastpath(True):
                    encoded = encode_progressive_batch(
                        [images[i] for i in fallback],
                        quality=quality,
                        subsampling=subsampling,
                        layout=layout,
                    )
                for index, stream in zip(fallback, encoded):
                    results[index] = stream
            state.stats.batches += 1
            if chunk_streams:
                # Only count batches where workers actually encoded chunks.
                state.stats.parallel_batches += 1
            state.stats.images_encoded += len(images)
            state.stats.pixel_bytes_in += total
            state.stats.encoded_bytes_out += sum(len(s) for s in results)
            return results
        finally:
            # Outputs are plain bytes — nothing views the slab after the
            # batch, so it returns to the pool immediately (no leases).
            _release_slab(state, slab)
