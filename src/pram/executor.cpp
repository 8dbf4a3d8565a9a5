#include "pram/executor.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"

namespace balsort {

namespace {

/// Which executor (if any) owns the current thread, and as which worker.
/// Lets push/steal paths distinguish "one of my workers" from an external
/// submitter without any map lookup.
thread_local Executor* tls_executor = nullptr;
thread_local std::size_t tls_worker = 0;

std::size_t resolve_workers(std::size_t w) {
    if (w != 0) return w;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace

Executor::Executor(std::size_t workers)
    : deques_(resolve_workers(workers)), worker_stats_(deques_.size()) {
    threads_.reserve(deques_.size());
    for (std::size_t i = 0; i < deques_.size(); ++i) {
        threads_.emplace_back([this, i] { worker_main(i); });
    }
}

Executor::~Executor() {
    {
        std::lock_guard<std::mutex> l(park_m_);
        stop_ = true;
    }
    park_cv_.notify_all();
    for (auto& t : threads_) t.join();
    publish_metrics();
    // Per-worker distribution histograms are recorded here only: unlike
    // the gauges above they accumulate samples, so re-recording them from
    // a live stats path would multiply the sample count.
    if (MetricsRegistry* m = metrics(); m != nullptr) {
        Histogram& ht = m->histogram("executor.worker_tasks");
        Histogram& hb = m->histogram("executor.worker_busy_us");
        for (const WorkerStats& ws : worker_stats_) {
            ht.record(ws.tasks.load(std::memory_order_relaxed));
            hb.record(ws.busy_ns.load(std::memory_order_relaxed) / 1000);
        }
    }
}

void Executor::wake_all() {
    {
        std::lock_guard<std::mutex> l(park_m_);
        ++signal_;
    }
    park_cv_.notify_all();
}

void Executor::push_batch(JobBase& job, std::uint32_t begin, std::uint32_t end) {
    const std::size_t w = deques_.size();
    if (tls_executor == this) {
        // A worker forking from inside a task keeps its chunks local (LIFO
        // for itself, FIFO-stealable for everyone else).
        WorkerDeque& d = deques_[tls_worker];
        std::lock_guard<std::mutex> l(d.m);
        for (std::uint32_t c = begin; c < end; ++c) {
            d.q.push_back(Task{&job, c, static_cast<std::uint32_t>(tls_worker)});
        }
    } else {
        // External submitters spray round-robin so all workers start warm.
        std::size_t cursor = rr_.fetch_add(end - begin, std::memory_order_relaxed);
        for (std::uint32_t c = begin; c < end; ++c) {
            const std::size_t di = cursor++ % w;
            WorkerDeque& d = deques_[di];
            std::lock_guard<std::mutex> l(d.m);
            d.q.push_back(Task{&job, c, static_cast<std::uint32_t>(di)});
        }
    }
    wake_all();
}

bool Executor::try_pop(std::size_t me, Task* out) {
    {
        WorkerDeque& d = deques_[me];
        std::lock_guard<std::mutex> l(d.m);
        if (!d.q.empty()) {
            *out = d.q.back(); // own pop: LIFO, cache-warm
            d.q.pop_back();
            return true;
        }
    }
    const std::size_t w = deques_.size();
    for (std::size_t i = 1; i < w; ++i) {
        WorkerDeque& d = deques_[(me + i) % w];
        std::lock_guard<std::mutex> l(d.m);
        if (!d.q.empty()) {
            *out = d.q.front(); // steal: FIFO, oldest/biggest work first
            d.q.pop_front();
            return true;
        }
    }
    return false;
}

bool Executor::try_take_job(const JobBase& job, Task* out) {
    const bool is_worker = tls_executor == this;
    const std::size_t w = deques_.size();
    const std::size_t start = is_worker ? tls_worker : 0;
    for (std::size_t i = 0; i < w; ++i) {
        const std::size_t di = (start + i) % w;
        WorkerDeque& d = deques_[di];
        std::lock_guard<std::mutex> l(d.m);
        if (is_worker && i == 0) {
            for (auto it = d.q.rbegin(); it != d.q.rend(); ++it) {
                if (it->job == &job) {
                    *out = *it;
                    d.q.erase(std::next(it).base());
                    return true;
                }
            }
        } else {
            for (auto it = d.q.begin(); it != d.q.end(); ++it) {
                if (it->job == &job) {
                    *out = *it;
                    d.q.erase(it);
                    return true;
                }
            }
        }
    }
    return false;
}

void Executor::execute(Task t, bool stolen, bool helped) {
    JobBase& job = *t.job;
    if (!job.failed_.load(std::memory_order_acquire)) {
        try {
            job.run_task(t.chunk);
        } catch (...) {
            std::lock_guard<std::mutex> l(job.m_);
            if (!job.error_) job.error_ = std::current_exception();
            job.failed_.store(true, std::memory_order_release);
        }
    }
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
    if (job.channel_ != nullptr) {
        job.channel_->tasks.fetch_add(1, std::memory_order_relaxed);
        if (stolen) job.channel_->stolen.fetch_add(1, std::memory_order_relaxed);
        if (helped) job.channel_->helped.fetch_add(1, std::memory_order_relaxed);
    }
    // Last chunk out signals completion under the job's mutex, with the
    // notify inside the critical section: join() returns only after
    // observing done_ under the same mutex, so the joiner cannot destroy
    // the (stack-owned) job until this lock is released — i.e. until this
    // thread is entirely finished touching it.
    if (job.remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> l(job.m_);
        job.done_ = true;
        job.cv_.notify_all();
    }
}

void Executor::worker_main(std::size_t me) {
    tls_executor = this;
    tls_worker = me;
    std::uint64_t seen = 0;
    for (;;) {
        Task t;
        if (try_pop(me, &t)) {
            const auto t0 = std::chrono::steady_clock::now();
            execute(t, /*stolen=*/t.home != me, /*helped=*/false);
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            worker_stats_[me].tasks.fetch_add(1, std::memory_order_relaxed);
            worker_stats_[me].busy_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                                std::memory_order_relaxed);
            continue;
        }
        // Park protocol: pushes bump signal_ under park_m_, so comparing
        // against the last observed epoch under the same mutex cannot lose
        // a wakeup — a push between our failed scan and the wait flips the
        // predicate before we sleep.
        std::unique_lock<std::mutex> l(park_m_);
        if (stop_) return;
        if (signal_ != seen) {
            seen = signal_;
            continue; // something was pushed since the scan — rescan
        }
        parks_.fetch_add(1, std::memory_order_relaxed);
        park_cv_.wait(l, [&] { return stop_ || signal_ != seen; });
        if (stop_) return;
        seen = signal_;
    }
}

void Executor::run(JobBase& job, std::uint32_t n_tasks) {
    if (n_tasks == 0) return;
    job.remaining_.store(n_tasks, std::memory_order_relaxed);
    job.failed_.store(false, std::memory_order_relaxed);
    job.done_ = false;
    job.error_ = nullptr;
    if (n_tasks > 1) push_batch(job, 1, n_tasks);
    execute(Task{&job, 0, 0}, /*stolen=*/false, /*helped=*/tls_executor != this);
    join(job);
}

void Executor::join(JobBase& job) {
    const bool is_worker = tls_executor == this;
    while (job.remaining_.load(std::memory_order_acquire) != 0) {
        Task t;
        if (!try_take_job(job, &t)) break;
        // Draining every queued chunk of the joined job before parking
        // is what makes nested fork-join deadlock-free: a blocked
        // joiner only ever waits on chunks that are actively running
        // on other threads.
        execute(t, /*stolen=*/is_worker && t.home != tls_worker, /*helped=*/!is_worker);
    }
    {
        // Returning on remaining_==0 alone would be a use-after-free: the
        // worker that performed the final fetch_sub may still be inside
        // the completion critical section (locking m_, setting done_,
        // notifying cv_), and the caller destroys the stack-owned job as
        // soon as join() returns. Waiting for done_ under m_ orders our
        // return after the signaller has released the lock, on every exit
        // path — including when this thread ran the final chunk itself.
        std::unique_lock<std::mutex> l(job.m_);
        if (!job.done_ && !is_worker && job.channel_ != nullptr) {
            // Time the park for the job's own driver thread only: that is
            // the job's "pool-wait" budget bucket. A pool worker helping a
            // nested join is pool-internal scheduling, not job wait.
            const auto t0 = std::chrono::steady_clock::now();
            job.cv_.wait(l, [&] { return job.done_; });
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            job.channel_->wait_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                            std::memory_order_relaxed);
        } else {
            job.cv_.wait(l, [&] { return job.done_; });
        }
    }
    if (job.error_) {
        std::exception_ptr e = job.error_;
        job.error_ = nullptr;
        std::rethrow_exception(e);
    }
}

Executor::Stats Executor::stats() const {
    return Stats{tasks_run_.load(std::memory_order_relaxed),
                 steals_.load(std::memory_order_relaxed),
                 parks_.load(std::memory_order_relaxed)};
}

std::size_t Executor::queue_depth() const {
    std::size_t n = 0;
    for (const WorkerDeque& d : deques_) {
        std::lock_guard<std::mutex> l(d.m);
        n += d.q.size();
    }
    return n;
}

void Executor::publish_metrics() const {
    MetricsRegistry* m = metrics();
    if (m == nullptr) return;
    // Gauges set to the running totals, never added: calling this from a
    // live stats path any number of times (and again at destruction) is
    // idempotent, where the old counter-based publish double-counted.
    m->gauge("executor.tasks").set(
        static_cast<std::int64_t>(tasks_run_.load(std::memory_order_relaxed)));
    m->gauge("executor.steals").set(
        static_cast<std::int64_t>(steals_.load(std::memory_order_relaxed)));
    m->gauge("executor.parks").set(
        static_cast<std::int64_t>(parks_.load(std::memory_order_relaxed)));
    m->gauge("executor.queue_depth").set(static_cast<std::int64_t>(queue_depth()));
}

// ---------------------------------------------------------------------------
// Parallel: the borrowed fork-join view.

namespace {

/// One parallel_for submission: chunk geometry identical to the old
/// ThreadPool (first n%p chunks take one extra element), which the
/// two-pass algorithms (radix histograms, prefix sums) depend on for their
/// cross-pass BS_MODEL_CHECKs.
class ParallelForJob final : public JobBase {
  public:
    ParallelForJob(std::size_t begin, std::size_t end, std::size_t n_chunks,
                   FunctionRef<void(std::size_t, std::size_t, std::size_t)> body,
                   ComputeChannel* channel)
        : begin_(begin), n_(end - begin), n_chunks_(n_chunks), body_(body) {
        channel_ = channel;
    }

    void run_task(std::uint32_t idx) override {
        const std::size_t per = n_ / n_chunks_;
        const std::size_t rem = n_ % n_chunks_;
        const std::size_t c = idx;
        const std::size_t lo = begin_ + c * per + std::min(c, rem);
        const std::size_t hi = lo + per + (c < rem ? 1 : 0);
        if (lo < hi) body_(lo, hi, c);
    }

  private:
    std::size_t begin_;
    std::size_t n_;
    std::size_t n_chunks_;
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body_;
};

} // namespace

void Parallel::parallel_for(std::size_t begin, std::size_t end,
                            FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) const {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    const std::size_t n_chunks = std::min(width_, n);
    if (n_chunks <= 1) {
        body(begin, end, 0);
        return;
    }
    if (exec_ == nullptr || exec_->workers() == 0) {
        // Inline fallback with the same chunk geometry: chunk indices (and
        // thus any per-chunk state the caller keys on them) are identical
        // to a parallel run, just executed sequentially.
        const std::size_t per = n / n_chunks;
        const std::size_t rem = n % n_chunks;
        for (std::size_t c = 0; c < n_chunks; ++c) {
            const std::size_t lo = begin + c * per + std::min(c, rem);
            const std::size_t hi = lo + per + (c < rem ? 1 : 0);
            if (lo < hi) body(lo, hi, c);
        }
        return;
    }
    ParallelForJob job(begin, end, n_chunks, body, channel_);
    exec_->run(job, static_cast<std::uint32_t>(n_chunks));
}

void Parallel::parallel_invoke(FunctionRef<void(std::size_t)> body) const {
    parallel_for(0, width_, [&body](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
    });
}

} // namespace balsort
