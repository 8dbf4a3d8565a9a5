#pragma once
/// \file async_engine.hpp
/// Request/completion I/O engine for the PDM layer (DESIGN.md §9): every
/// block transfer DiskArray makes goes through one of these.
///
/// The parallel disk model charges one I/O step for D blocks moving
/// *concurrently* (§1, Theorem 1), but a sequential loop over the D
/// per-disk transfers serializes exactly the parallelism the model counts
/// as one step. In threaded mode the engine restores the model's physics:
/// one worker thread per disk, each draining a FIFO queue of block
/// requests, so the D transfers of a step really do proceed in parallel
/// and wall-clock can track `io_steps()`. A worker takes every request
/// queued on its disk in one critical section, runs them in order, and
/// completes them under one lock, waking submitters only when a batch
/// finishes (or the engine idles): the thread hand-off is paid once per
/// wakeup, not once per block. Inline mode runs the same
/// requests in order on the submitting thread, with no threads at all —
/// the right engine for memory-speed disks, where a thread hop costs more
/// than the transfer.
///
/// Division of labor (the invariants DiskArray relies on):
///  * A request touches ONLY its own disk's decorator stack plus local
///    counters — never DiskArray shared state (stats, health, allocator,
///    parity). Everything shared is mutated by the submitting thread when
///    it reaps completions.
///  * Per-disk FIFO: requests for one disk execute in submission order,
///    so a read of a block submitted after its write always sees the
///    written data, with no extra synchronization at the call sites.
///  * Transient faults are retried where the request executes (bounded,
///    counted in the completion); any other failure is *deferred* —
///    captured as an exception_ptr and returned to the submitter, who runs
///    the recovery ladder of DESIGN.md §8 (checksum verify, parity
///    reconstruction, degraded mode) serially after `drain()`. Fault-free
///    requests therefore run at full parallelism while recovery keeps its
///    single-threaded, deterministic semantics.
///
/// The engine never performs model accounting: I/O steps are charged by
/// DiskArray at submission time, so `io_steps()` is the same in both
/// modes (the wall-clock-vs-model-cost separation).
///
/// Deadlines (DESIGN.md §13, threaded mode only): with `deadline_us > 0`
/// every READ request carries an absolute deadline and a watchdog thread
/// abandons requests still outstanding past it, completing them with
/// `TimedOutIo` so the submitter can fail over to parity reconstruction
/// instead of blocking on a hung device forever. An abandoned request's
/// worker may still be stuck inside the disk stack; it therefore executes
/// into a private staging buffer and only copies into the caller's buffer
/// — under the engine mutex, after checking it was not abandoned — so a
/// late wakeup can never scribble over data the submitter already
/// reconstructed. Writes are never abandoned: a write that eventually
/// lands is indistinguishable from a successful one, while abandoning it
/// would force parity bookkeeping for data that may yet appear. An inline
/// engine cannot abandon the request its own caller is executing, so it
/// ignores the deadline.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pdm/disk.hpp"

namespace balsort {

class Histogram;
class Tracer;

/// One block transfer handed to the engine. The buffer must stay valid
/// until the request's batch completes (the submitter owns it).
struct IoRequest {
    enum class Kind : std::uint8_t { kRead, kWrite };
    Kind kind = Kind::kRead;
    std::uint32_t disk = 0;
    std::uint64_t block = 0;
    Record* read_buf = nullptr;        ///< kRead: receives block_size() records
    const Record* write_data = nullptr;///< kWrite: block_size() records to persist
};

/// Outcome of one IoRequest, reported back to the submitting thread.
struct IoCompletion {
    std::uint32_t request_index = 0; ///< position within the submitted batch
    std::uint32_t disk = 0;
    std::uint64_t block = 0;
    bool ok = true;
    /// Deferred failure: the first non-transient exception (or the final
    /// transient one once retries are exhausted). The submitter classifies
    /// it and runs the recovery ladder.
    std::exception_ptr error;
    /// Transient faults retried on the worker while executing this request
    /// (counted whether or not the request ultimately succeeded).
    std::uint64_t transient_retries = 0;
};

/// Completion handle for one submitted batch of requests. Move-only;
/// cheap to hold. Dropping a batch without waiting is safe — the engine
/// keeps the shared completion state alive until every request executed.
class AsyncBatch {
public:
    AsyncBatch() = default;
    AsyncBatch(AsyncBatch&&) = default;
    AsyncBatch& operator=(AsyncBatch&&) = default;
    AsyncBatch(const AsyncBatch&) = delete;
    AsyncBatch& operator=(const AsyncBatch&) = delete;

    bool valid() const { return state_ != nullptr; }

private:
    friend class AsyncEngine;
    struct State;
    std::shared_ptr<State> state_;
};

/// Wall-clock observability (DESIGN.md §9): how much the workers worked,
/// how deep their queues got and how often they woke. An inline engine has
/// no workers and leaves all four at zero.
struct AsyncEngineMetrics {
    double busy_seconds = 0;        ///< summed worker time executing requests
    std::uint64_t block_ops = 0;    ///< requests executed by workers
    std::uint64_t max_in_flight = 0;///< peak submitted-but-not-executed depth
    std::uint64_t wakeups = 0;      ///< worker dequeues (block_ops / wakeups = ops per wakeup)
};

/// Where an engine's requests execute.
enum class EngineMode : std::uint8_t {
    kThreaded, ///< one worker thread per disk; submit() returns at once
    kInline,   ///< no threads; submit() executes the batch before returning
};

/// Sleep before retrying a transiently failed block op: `base_us <<
/// min(attempt, 10)` microseconds (none when base_us == 0), scaled with
/// `jitter` by a factor in [0.5, 1.5) drawn from (disk, block, attempt), so
/// concurrent retriers decorrelate while a replay sleeps identically.
/// Wall-clock only. The sleep is recorded in `hist` when non-null. The one
/// backoff rule for the engine and for DiskArray's reconstruction reads.
void retry_backoff(std::uint32_t base_us, bool jitter, std::uint32_t disk, std::uint64_t block,
                   std::uint32_t attempt, Histogram* hist);

/// Per-disk FIFO request queues + completion batches, executed by worker
/// threads or inline (EngineMode).
class AsyncEngine {
public:
    /// `disks[d]` is the top of disk d's decorator stack; the engine does
    /// not own the disks. Retry policy mirrors DiskArray's FaultTolerance:
    /// total attempts = 1 + max_retries, with retry_backoff() between them.
    /// `deadline_us > 0` arms the read watchdog of a threaded engine (see
    /// file comment). An inline engine starts no thread.
    AsyncEngine(std::vector<Disk*> disks, std::uint32_t max_retries,
                std::uint32_t backoff_base_us, std::uint64_t deadline_us = 0,
                bool backoff_jitter = false, EngineMode mode = EngineMode::kThreaded);
    /// Stops the workers. Queued-but-unexecuted requests are completed
    /// with an "engine stopped" error instead of running (destruction
    /// during unwind must not touch possibly-dead disks).
    ~AsyncEngine();

    AsyncEngine(const AsyncEngine&) = delete;
    AsyncEngine& operator=(const AsyncEngine&) = delete;

    std::uint32_t num_disks() const { return static_cast<std::uint32_t>(disks_.size()); }
    EngineMode mode() const { return mode_; }

    /// Submit a batch of requests (any mix of disks/kinds; per-disk FIFO
    /// order is the submission order). Buffers must outlive the batch.
    /// Threaded: enqueue and return. Inline: execute every request in
    /// order on the calling thread (under the engine mutex, so concurrent
    /// submitters serialize) and return a completed batch.
    /// Either way the installed tracer and metrics registry are
    /// re-resolved here, so instruments installed after construction are
    /// picked up from the next submit on.
    AsyncBatch submit(std::vector<IoRequest> requests);

    /// Block until every request of `batch` executed; returns completions
    /// ordered by request_index. Idempotent (a second wait returns the
    /// same completions).
    const std::vector<IoCompletion>& wait(AsyncBatch& batch);

    /// True once every request of `batch` executed (non-blocking).
    bool done(const AsyncBatch& batch) const;

    /// Block until the engine is fully idle: every submitted request has
    /// executed. Completions stay with their batches (drain reaps
    /// nothing); afterwards the submitting thread may safely touch the
    /// disks directly (recovery ladder, parity RMW, direct test access).
    void drain();

    AsyncEngineMetrics metrics() const;

    /// Reads abandoned by the watchdog (completed with TimedOutIo).
    std::uint64_t timeouts() const;

    /// Per-disk in-flight depth right now: queued requests plus those a
    /// worker has dequeued and not yet completed. Live-gauge source for
    /// the stats endpoint (DESIGN.md §16); takes the engine mutex briefly.
    std::vector<std::uint32_t> per_disk_in_flight() const;

private:
    struct WorkItem;
    struct ExecResult;
    struct ObsBinding;

    /// Wait for work, take the disk's whole queue (one request at a time
    /// under a deadline, so `executing_` stays exact for the watchdog),
    /// execute it in FIFO order, complete it under one lock.
    void worker_loop(std::uint32_t disk_index);
    /// One request with its retry loop, latency histogram and trace span —
    /// the same code whether a worker or an inline submit runs it.
    ExecResult execute(const IoRequest& r, Record* read_dst, const ObsBinding& obs);
    void watchdog_loop();
    /// Re-resolve obs_ against the installed tracer/registry (under mutex_).
    void rebind_obs();

    std::vector<Disk*> disks_;
    std::uint32_t max_retries_;
    std::uint32_t backoff_base_us_;
    std::uint64_t deadline_us_;
    bool backoff_jitter_;
    EngineMode mode_;

    // Observability (DESIGN.md §11): the installed tracer/metrics as of
    // the last submit. Replaced, never mutated, so a worker that copied
    // the pointer at dequeue keeps a consistent binding. Never touches
    // model accounting.
    std::shared_ptr<const ObsBinding> obs_;

    mutable std::mutex mutex_;
    std::condition_variable cv_work_;  ///< workers + watchdog: work/stop/tick
    std::condition_variable cv_done_;  ///< submitters: batch/engine completion
    std::vector<std::deque<std::shared_ptr<WorkItem>>> queues_; ///< one FIFO per disk
    /// Per disk, the request a worker is executing (deadline mode only;
    /// null when idle): what the watchdog may abandon.
    std::vector<std::shared_ptr<WorkItem>> executing_;
    std::vector<std::uint32_t> dequeued_; ///< per disk: taken off the queue, not yet completed
    std::uint64_t submitted_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t peak_in_flight_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t wakeups_ = 0;
    double busy_seconds_ = 0; ///< guarded by mutex_ (folded per request)
    /// Written under mutex_; a worker also reads it lock-free between the
    /// requests it dequeued, so a stopping engine runs none it had not begun.
    std::atomic<bool> stop_{false};

    std::thread watchdog_;             ///< running only when deadline_us_ > 0
    std::vector<std::thread> workers_; ///< constructed last, joined first
};

} // namespace balsort
