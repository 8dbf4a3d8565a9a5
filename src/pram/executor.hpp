#pragma once
/// \file executor.hpp
/// The task-parallel compute core: a work-stealing `Executor` of dedicated
/// worker threads, and a borrowed `Parallel` view that algorithms take in
/// place of the old fork-join `ThreadPool`.
///
/// Design (DESIGN.md §15):
///  - Per-worker deques under small per-deque mutexes: owners pop LIFO
///    (cache-warm), thieves and joiners pop FIFO (oldest, largest work
///    first). No global lock/cv handshake per chunk — the old ThreadPool
///    woke every worker through one mutex for every parallel_for.
///  - The submitting thread always helps: chunk 0 runs inline, and `join`
///    drains the job's remaining queued chunks before parking, so nested
///    parallel_for from inside a task cannot deadlock.
///  - Exceptions: the first one wins, later chunks of a failed job are
///    skipped (their accounting still drains), and the winner is rethrown
///    on the submitting thread — same contract as the old pool.
///  - The *logical* PRAM width presented to algorithms (`Parallel::size()`)
///    is decoupled from the physical worker count, so a shared executor
///    can serve many jobs while every WorkMeter/PramCost charge stays
///    bit-identical to a private-pool run (the golden-hash + benchgate
///    pinned invariant).
///
/// The PRAM *cost* of each step is still accounted analytically via
/// `PramCost` — the paper charges PRAM steps, never wall-clock.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"

namespace balsort {

class Executor;

/// Per-job compute accounting channel, mirroring svc's JobIoChannel: a
/// shared executor serves many jobs, and each job's task counts flow into
/// its own channel (surfaced per-run through PhaseProfile / the manifest).
struct ComputeChannel {
    std::atomic<std::uint64_t> tasks{0};  ///< chunks executed for this job
    std::atomic<std::uint64_t> stolen{0}; ///< ran on a worker other than the deque's owner
    std::atomic<std::uint64_t> helped{0}; ///< ran inline on the submitting/joining thread
    /// Nanoseconds this job's *external* joiners (the job's own driver
    /// thread, never a pool worker helping a nested join) spent parked in
    /// Executor::join waiting for the pool to finish — the "pool-wait"
    /// bucket of the job's time budget (DESIGN.md §16). Wall-clock only;
    /// no model quantity reads it.
    std::atomic<std::uint64_t> wait_ns{0};
};

/// A schedulable unit of fork-join work: `run_task(i)` executes chunk i.
/// Jobs live on the submitter's stack for the duration of `Executor::run`;
/// completion is signalled under the job's own mutex so destruction after
/// `join` returns is safe.
class JobBase {
  public:
    virtual ~JobBase() = default;
    virtual void run_task(std::uint32_t idx) = 0;

  protected:
    friend class Executor;
    std::atomic<std::uint64_t> remaining_{0};
    std::atomic<bool> failed_{false};
    std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    std::exception_ptr error_;
    ComputeChannel* channel_ = nullptr;
};

/// Fixed set of worker threads with per-worker work-stealing deques.
/// `workers` == 0 selects hardware_concurrency (at least 1). The typical
/// arrangement is `Executor(p - 1)` serving a width-p `Parallel` view:
/// the submitting thread is the p-th lane.
class Executor {
  public:
    explicit Executor(std::size_t workers = 0);
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Number of dedicated worker threads (the caller of run() is extra).
    std::size_t workers() const { return threads_.size(); }

    /// Run chunks [0, n_tasks) of `job` to completion. The calling thread
    /// executes chunk 0 and then helps with the rest; blocks until every
    /// chunk has drained. Rethrows the first exception a chunk threw.
    void run(JobBase& job, std::uint32_t n_tasks);

    /// Block until `job` completes, executing its queued chunks while any
    /// remain. Rethrows the job's first error.
    void join(JobBase& job);

    struct Stats {
        std::uint64_t tasks = 0;  ///< chunks executed (workers + helpers)
        std::uint64_t steals = 0; ///< chunks popped from a non-own deque
        std::uint64_t parks = 0;  ///< times a worker went to sleep
    };
    Stats stats() const;

    /// Tasks currently queued across all worker deques (live, un-run work).
    /// Takes each per-deque mutex briefly; meant for stats paths, not hot
    /// loops.
    std::size_t queue_depth() const;

    /// Publish a point-in-time snapshot of the executor gauges
    /// (executor.tasks / steals / parks / queue_depth) to the installed
    /// MetricsRegistry (no-op when none is installed). Idempotent — gauges
    /// are set, never added — so a long-lived shared executor can be
    /// re-published from a stats path any number of times without
    /// double-counting. The per-worker task/busy histograms are recorded
    /// exactly once, at destruction.
    void publish_metrics() const;

  private:
    struct Task {
        JobBase* job = nullptr;
        std::uint32_t chunk = 0;
        std::uint32_t home = 0; ///< deque the task was pushed to
    };
    struct WorkerDeque {
        mutable std::mutex m; // mutable: queue_depth() reads under lock from const paths
        std::deque<Task> q;
    };
    struct WorkerStats {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> busy_ns{0};
    };

    void worker_main(std::size_t me);
    void push_batch(JobBase& job, std::uint32_t begin, std::uint32_t end);
    bool try_pop(std::size_t me, Task* out);       // own LIFO, then steal FIFO
    bool try_take_job(const JobBase& job, Task* out); // any deque, job-filtered
    void execute(Task t, bool stolen, bool helped);
    void wake_all();

    std::vector<WorkerDeque> deques_;
    std::vector<WorkerStats> worker_stats_;
    std::vector<std::thread> threads_;

    std::mutex park_m_; ///< guards signal_/stop_; push bumps signal_ under it
    std::condition_variable park_cv_;
    std::uint64_t signal_ = 0;
    bool stop_ = false;

    std::atomic<std::size_t> rr_{0}; ///< round-robin cursor for external pushes
    std::atomic<std::uint64_t> tasks_run_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> parks_{0};
};

/// A borrowed, copyable "parallelism view" — what algorithms now take in
/// place of `ThreadPool&`. Carries the logical PRAM width p (`size()`),
/// an optional executor to actually fan out on, and an optional per-job
/// accounting channel. With no executor (or a width of 1) every chunk runs
/// inline on the calling thread — same chunk geometry, fully sequential —
/// which keeps chunk-indexed algorithms (radix histograms, two-pass prefix
/// sums) bit-identical between serial and parallel execution.
class Parallel {
  public:
    Parallel() = default;
    explicit Parallel(std::size_t width, Executor* exec = nullptr,
                      ComputeChannel* channel = nullptr)
        : width_(width == 0 ? 1 : width), exec_(exec), channel_(channel) {}

    /// The logical processor count p presented to the algorithms. This is
    /// what meters/cost formulas key on — independent of how many physical
    /// workers the executor happens to have.
    std::size_t size() const { return width_; }
    Executor* executor() const { return exec_; }
    ComputeChannel* channel() const { return channel_; }

    /// Run body(chunk_begin, chunk_end, chunk_index) over [begin, end),
    /// split into min(size(), end-begin) contiguous chunks. Blocks until
    /// all chunks finish; the first exception wins and is rethrown here.
    void parallel_for(std::size_t begin, std::size_t end,
                      FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) const;

    /// Run one task per logical lane: body(lane_index), lanes [0, size()).
    void parallel_invoke(FunctionRef<void(std::size_t)> body) const;

  private:
    std::size_t width_ = 1;
    Executor* exec_ = nullptr;
    ComputeChannel* channel_ = nullptr;
};

} // namespace balsort
