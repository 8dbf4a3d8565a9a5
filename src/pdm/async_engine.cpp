#include "pdm/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/common.hpp"
#include "util/random.hpp"

namespace balsort {

/// Shared completion state of one submitted batch. Workers fill
/// `completions` slots (each slot touched by exactly one worker);
/// `remaining` is guarded by the engine mutex.
struct AsyncBatch::State {
    std::vector<IoCompletion> completions;
    std::size_t remaining = 0;
};

struct AsyncEngine::WorkItem {
    IoRequest request;
    std::uint32_t request_index = 0;
    std::shared_ptr<AsyncBatch::State> batch;
    /// Deadline machinery (reads under deadline_us_ > 0 only).
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    bool abandoned = false; ///< watchdog already completed it (guarded by mutex_)
    bool completed = false; ///< completion slot filled (guarded by mutex_)
    /// Reads under deadline execute into this private buffer; the worker
    /// copies it to request.read_buf under the mutex only if !abandoned.
    std::vector<Record> staging;
};

/// What execute() observed, reported back to the caller which owns all
/// completion-slot writes (under the mutex, so the watchdog cannot race).
struct AsyncEngine::ExecResult {
    bool ok = true;
    std::exception_ptr error;
    std::uint64_t transient_retries = 0;
    double seconds = 0; ///< execution wall time (measured for workers or obs)
};

/// Instruments resolved from the installed tracer/registry. Epochs, not
/// pointers, identify an installation: a registry freed and another built
/// at the same address must not inherit its histogram pointers.
struct AsyncEngine::ObsBinding {
    std::uint64_t tracer_epoch = 0;  ///< 0 = tracing off
    std::uint64_t metrics_epoch = 0; ///< 0 = metrics off
    Tracer* tracer = nullptr;
    std::vector<std::uint32_t> lane_tids;   ///< per-disk "disk N io" lanes
    std::vector<Histogram*> read_latency;   ///< per-disk, microseconds
    std::vector<Histogram*> write_latency;
    std::vector<Histogram*> backoff_us;     ///< per-disk retry backoff sleeps
    Histogram* queue_depth = nullptr;       ///< sampled at each threaded submit
};

void retry_backoff(std::uint32_t base_us, bool jitter, std::uint32_t disk, std::uint64_t block,
                   std::uint32_t attempt, Histogram* hist) {
    if (base_us == 0) return;
    std::uint64_t us = static_cast<std::uint64_t>(base_us) << std::min<std::uint32_t>(attempt, 10);
    if (jitter) {
        SplitMix64 j(((static_cast<std::uint64_t>(disk) << 32) ^ block) + attempt);
        const double f = 0.5 + static_cast<double>(j.next() >> 11) * 0x1.0p-53;
        us = static_cast<std::uint64_t>(static_cast<double>(us) * f);
    }
    if (hist != nullptr) hist->record(us);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

AsyncEngine::AsyncEngine(std::vector<Disk*> disks, std::uint32_t max_retries,
                         std::uint32_t backoff_base_us, std::uint64_t deadline_us,
                         bool backoff_jitter, EngineMode mode)
    : disks_(std::move(disks)), max_retries_(max_retries), backoff_base_us_(backoff_base_us),
      deadline_us_(mode == EngineMode::kThreaded ? deadline_us : 0),
      backoff_jitter_(backoff_jitter), mode_(mode) {
    BS_REQUIRE(!disks_.empty(), "AsyncEngine: need at least one disk");
    for (const Disk* d : disks_) BS_REQUIRE(d != nullptr, "AsyncEngine: null disk");
    queues_.resize(disks_.size());
    executing_.resize(disks_.size());
    dequeued_.assign(disks_.size(), 0);
    obs_ = std::make_shared<const ObsBinding>();
    rebind_obs();
    if (mode_ == EngineMode::kInline) return;
    if (deadline_us_ > 0) watchdog_ = std::thread([this] { watchdog_loop(); });
    workers_.reserve(disks_.size());
    for (std::uint32_t i = 0; i < disks_.size(); ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

void AsyncEngine::rebind_obs() {
    Tracer* t = balsort::tracer();
    MetricsRegistry* reg = balsort::metrics();
    const std::uint64_t te = t != nullptr ? t->epoch() : 0;
    const std::uint64_t me = reg != nullptr ? reg->epoch() : 0;
    if (te == obs_->tracer_epoch && me == obs_->metrics_epoch) return;
    auto b = std::make_shared<ObsBinding>();
    b->tracer_epoch = te;
    b->metrics_epoch = me;
    b->tracer = t;
    const std::size_t n = disks_.size();
    if (reg != nullptr) {
        for (std::size_t d = 0; d < n; ++d) {
            const std::string prefix = "disk" + std::to_string(d);
            b->read_latency.push_back(&reg->histogram(prefix + ".read_latency_us"));
            b->write_latency.push_back(&reg->histogram(prefix + ".write_latency_us"));
            b->backoff_us.push_back(&reg->histogram(prefix + ".backoff_us"));
        }
        if (mode_ == EngineMode::kThreaded) b->queue_depth = &reg->histogram("engine.queue_depth");
    }
    if (t != nullptr) {
        for (std::size_t d = 0; d < n; ++d) {
            b->lane_tids.push_back(t->lane("disk " + std::to_string(d) + " io"));
        }
    }
    obs_ = std::move(b);
}

namespace {

std::exception_ptr stopped_error(const IoRequest& r) {
    return std::make_exception_ptr(
        IoError("async engine stopped before request executed", r.disk, r.block));
}

} // namespace

AsyncEngine::~AsyncEngine() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        // Unexecuted requests must not run (the submitter is unwinding and
        // its buffers or the disks may be going away) but their batches
        // must still complete, or a stray wait would hang forever. Requests
        // a worker already dequeued get the same error from that worker.
        for (auto& q : queues_) {
            for (auto& item : q) {
                IoCompletion& c = item->batch->completions[item->request_index];
                c.ok = false;
                c.error = stopped_error(item->request);
                item->completed = true;
                --item->batch->remaining;
                ++executed_;
            }
            q.clear();
        }
    }
    cv_work_.notify_all();
    cv_done_.notify_all();
    for (auto& w : workers_) w.join();
    if (watchdog_.joinable()) watchdog_.join();
}

AsyncBatch AsyncEngine::submit(std::vector<IoRequest> requests) {
    AsyncBatch batch;
    batch.state_ = std::make_shared<AsyncBatch::State>();
    batch.state_->completions.resize(requests.size());
    batch.state_->remaining = requests.size();
    if (requests.empty()) return batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        BS_REQUIRE(!stop_, "AsyncEngine::submit after stop");
        rebind_obs();
        const auto now = std::chrono::steady_clock::now();
        for (std::uint32_t i = 0; i < requests.size(); ++i) {
            const IoRequest& r = requests[i];
            BS_REQUIRE(r.disk < disks_.size(), "AsyncEngine: request names nonexistent disk");
            IoCompletion& c = batch.state_->completions[i];
            c.request_index = i;
            c.disk = r.disk;
            c.block = r.block;
            if (mode_ == EngineMode::kInline) {
                const ExecResult res = execute(r, r.read_buf, *obs_);
                c.ok = res.ok;
                c.error = res.error;
                c.transient_retries = res.transient_retries;
                continue;
            }
            auto item = std::make_shared<WorkItem>();
            item->request = r;
            item->request_index = i;
            item->batch = batch.state_;
            if (deadline_us_ > 0 && r.kind == IoRequest::Kind::kRead) {
                item->has_deadline = true;
                item->deadline = now + std::chrono::microseconds(deadline_us_);
                item->staging.resize(disks_[r.disk]->block_size());
            }
            queues_[r.disk].push_back(std::move(item));
        }
        if (mode_ == EngineMode::kInline) {
            batch.state_->remaining = 0;
            return batch;
        }
        submitted_ += requests.size();
        const std::uint64_t in_flight = submitted_ - executed_;
        peak_in_flight_ = std::max(peak_in_flight_, in_flight);
        if (obs_->queue_depth != nullptr) obs_->queue_depth->record(in_flight);
    }
    cv_work_.notify_all();
    return batch;
}

const std::vector<IoCompletion>& AsyncEngine::wait(AsyncBatch& batch) {
    BS_REQUIRE(batch.valid(), "AsyncEngine::wait on empty batch handle");
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return batch.state_->remaining == 0; });
    return batch.state_->completions;
}

bool AsyncEngine::done(const AsyncBatch& batch) const {
    BS_REQUIRE(batch.valid(), "AsyncEngine::done on empty batch handle");
    std::lock_guard<std::mutex> lock(mutex_);
    return batch.state_->remaining == 0;
}

void AsyncEngine::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return executed_ == submitted_; });
}

AsyncEngineMetrics AsyncEngine::metrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    AsyncEngineMetrics m;
    m.busy_seconds = busy_seconds_;
    m.block_ops = executed_;
    m.max_in_flight = peak_in_flight_;
    m.wakeups = wakeups_;
    return m;
}

std::uint64_t AsyncEngine::timeouts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return timeouts_;
}

std::vector<std::uint32_t> AsyncEngine::per_disk_in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t> depth(disks_.size(), 0);
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        depth[d] = static_cast<std::uint32_t>(queues_[d].size()) + dequeued_[d];
    }
    return depth;
}

void AsyncEngine::worker_loop(std::uint32_t disk_index) {
    std::deque<std::shared_ptr<WorkItem>>& queue = queues_[disk_index];
    std::vector<std::shared_ptr<WorkItem>> items;
    std::vector<ExecResult> results;
    for (;;) {
        std::shared_ptr<const ObsBinding> obs;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_work_.wait(lock, [&] { return stop_ || !queue.empty(); });
            if (queue.empty()) return; // stop_ and no work left
            const std::size_t take = deadline_us_ > 0 ? 1 : queue.size();
            for (std::size_t i = 0; i < take; ++i) {
                items.push_back(std::move(queue.front()));
                queue.pop_front();
            }
            if (deadline_us_ > 0) executing_[disk_index] = items.front(); // watchdog's view
            dequeued_[disk_index] = static_cast<std::uint32_t>(take);
            ++wakeups_;
            obs = obs_;
        }
        // Deadline-mode reads land in the item's staging buffer: if the
        // watchdog abandons us mid-read, the caller's buffer is already
        // being refilled from parity and must not be overwritten by a
        // late wakeup.
        results.clear();
        for (const auto& item : items) {
            if (stop_.load(std::memory_order_relaxed)) {
                ExecResult stopped;
                stopped.ok = false;
                stopped.error = stopped_error(item->request);
                results.push_back(std::move(stopped));
                continue;
            }
            results.push_back(execute(
                item->request,
                item->staging.empty() ? item->request.read_buf : item->staging.data(), *obs));
        }
        bool notify = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            executing_[disk_index] = nullptr;
            dequeued_[disk_index] = 0;
            for (std::size_t i = 0; i < items.size(); ++i) {
                WorkItem& item = *items[i];
                const ExecResult& res = results[i];
                busy_seconds_ += res.seconds;
                // A timed-out item was already completed (and counted) by
                // the watchdog, and its caller buffer must stay untouched.
                if (item.abandoned) continue;
                IoCompletion& c = item.batch->completions[item.request_index];
                c.ok = res.ok;
                c.error = res.error;
                c.transient_retries = res.transient_retries;
                if (res.ok && !item.staging.empty()) {
                    std::copy(item.staging.begin(), item.staging.end(), item.request.read_buf);
                }
                item.completed = true;
                ++executed_;
                if (--item.batch->remaining == 0) notify = true;
            }
            // Submitters wait for a whole batch (wait) or for idle (drain);
            // nothing in between is worth a wakeup.
            if (executed_ == submitted_) notify = true;
        }
        items.clear();
        if (notify) cv_done_.notify_all();
    }
}

void AsyncEngine::watchdog_loop() {
    const auto tick = std::chrono::microseconds(std::max<std::uint64_t>(deadline_us_ / 2, 100));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_work_.wait_for(lock, tick);
        if (stop_) return;
        const auto now = std::chrono::steady_clock::now();
        bool fired = false;
        auto expire = [&](const std::shared_ptr<WorkItem>& item) {
            if (item == nullptr || !item->has_deadline || item->abandoned || item->completed ||
                now < item->deadline) {
                return false;
            }
            item->abandoned = true;
            IoCompletion& c = item->batch->completions[item->request_index];
            c.ok = false;
            std::ostringstream os;
            os << "read outstanding past " << deadline_us_ << "us deadline: disk "
               << item->request.disk << " block " << item->request.block;
            c.error = std::make_exception_ptr(
                TimedOutIo(os.str(), item->request.disk, item->request.block));
            item->completed = true;
            ++executed_;
            ++timeouts_;
            --item->batch->remaining;
            fired = true;
            flight_note("io.deadline_expired", "watchdog",
                        static_cast<std::int64_t>(item->request.disk),
                        static_cast<std::int64_t>(item->request.block));
            return true;
        };
        for (auto& q : queues_) {
            // A queued item past its deadline is starved behind a hung
            // request; expire it and drop it so the worker never runs it.
            for (auto it = q.begin(); it != q.end();) {
                it = expire(*it) ? q.erase(it) : std::next(it);
            }
        }
        for (auto& item : executing_) expire(item);
        if (fired) {
            cv_done_.notify_all();
            // Preserve the crash scene while the timeout is fresh. The
            // dump does file I/O, so drop the engine mutex around it —
            // the watchdog holds no other state across the gap.
            lock.unlock();
            flight_auto_dump("io.deadline");
            lock.lock();
        }
    }
}

AsyncEngine::ExecResult AsyncEngine::execute(const IoRequest& r, Record* read_dst,
                                             const ObsBinding& obs) {
    Disk& disk = *disks_[r.disk];
    const std::size_t b = disk.block_size();
    const bool is_read = r.kind == IoRequest::Kind::kRead;
    // Workers always time (busy_seconds); an inline op only when someone
    // records the latency, keeping the unobserved inline path clock-free.
    const bool timed = mode_ == EngineMode::kThreaded || obs.tracer != nullptr ||
                       !obs.read_latency.empty();
    const auto t0 = timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    ExecResult res;
    for (std::uint32_t attempt = 0;; ++attempt) {
        try {
            if (is_read) {
                disk.read_block(r.block, std::span<Record>(read_dst, b));
            } else {
                disk.write_block(r.block, std::span<const Record>(r.write_data, b));
            }
            break; // res.ok stays true
        } catch (const TransientIoError&) {
            if (attempt >= max_retries_) {
                res.ok = false;
                res.error = std::current_exception();
                break;
            }
            ++res.transient_retries;
            retry_backoff(backoff_base_us_, backoff_jitter_, r.disk, r.block, attempt,
                          obs.backoff_us.empty() ? nullptr : obs.backoff_us[r.disk]);
        } catch (...) {
            // Non-transient (DiskFailed, CorruptBlock, IoError, model
            // violations): defer to the submitter, who owns the shared
            // recovery state.
            res.ok = false;
            res.error = std::current_exception();
            break;
        }
    }
    if (!timed) return res;
    const auto t1 = std::chrono::steady_clock::now();
    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    const auto latency_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
    if (!obs.read_latency.empty()) {
        (is_read ? obs.read_latency : obs.write_latency)[r.disk]->record(latency_us);
    }
    if (obs.tracer != nullptr) {
        TraceEvent ev;
        ev.name = is_read ? "read" : "write";
        ev.cat = "io";
        ev.tid = obs.lane_tids[r.disk];
        ev.ts_us = obs.tracer->ts_us(t0);
        ev.dur_us = static_cast<std::int64_t>(latency_us);
        ev.args[0] = {"disk", static_cast<std::int64_t>(r.disk)};
        ev.args[1] = {"block", static_cast<std::int64_t>(r.block)};
        ev.n_args = 2;
        obs.tracer->emit(ev);
    }
    return res;
}

} // namespace balsort
