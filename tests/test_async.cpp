// Tests for the request/completion engine (DESIGN.md §9): AsyncEngine
// semantics (per-disk FIFO, deferred failures, retry counting, inline
// mode, one dequeue per wakeup), DiskArray's engine entry points
// (charge-at-submit accounting, prefetch + charge-at-consume, grouped
// write-behind and its ordering points), and the end-to-end guarantee
// that a sort run through the worker threads is bit-identical to the
// inline engine in everything the model measures — io_steps, structure
// counters, output — while actually routing its blocks through the
// workers.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "balsort.hpp"
#include "pdm/async_engine.hpp"
#include "pdm/faulty_disk.hpp"
#include "pdm/job_channel.hpp"
#include "pdm/mem_disk.hpp"

namespace balsort {
namespace {

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

/// Test decorator: holds the first block op on a latch until release(),
/// and logs the block index of every op in execution order.
class LatchedDisk final : public Disk {
public:
    explicit LatchedDisk(Disk& inner) : inner_(inner) {}

    std::size_t block_size() const override { return inner_.block_size(); }
    std::uint64_t size_blocks() const override { return inner_.size_blocks(); }
    void read_block(std::uint64_t index, std::span<Record> out) const override {
        hold(index);
        inner_.read_block(index, out);
    }
    void write_block(std::uint64_t index, std::span<const Record> in) override {
        hold(index);
        inner_.write_block(index, in);
    }

    /// Block until the first op is being held.
    void wait_entered() const {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return entered_; });
    }
    void release() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            released_ = true;
        }
        cv_.notify_all();
    }
    std::vector<std::uint64_t> order() const {
        std::lock_guard<std::mutex> lock(mu_);
        return order_;
    }

private:
    void hold(std::uint64_t index) const {
        std::unique_lock<std::mutex> lock(mu_);
        order_.push_back(index);
        if (order_.size() > 1) return;
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
    }

    Disk& inner_;
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    mutable bool entered_ = false;
    bool released_ = false;
    mutable std::vector<std::uint64_t> order_;
};

IoRequest read_request(std::uint32_t disk, std::uint64_t block, Record* buf) {
    IoRequest r;
    r.kind = IoRequest::Kind::kRead;
    r.disk = disk;
    r.block = block;
    r.read_buf = buf;
    return r;
}

// ------------------------------------------------------------- AsyncEngine

TEST(AsyncEngine, PerDiskFifoMakesReadAfterWriteSafe) {
    // A read submitted after a write of the same block, in the same batch,
    // must see the written data — the FIFO guarantee call sites rely on.
    constexpr std::size_t kB = 4;
    std::vector<std::unique_ptr<MemDisk>> disks;
    std::vector<Disk*> tops;
    for (int i = 0; i < 2; ++i) {
        disks.push_back(std::make_unique<MemDisk>(kB));
        tops.push_back(disks.back().get());
    }
    AsyncEngine engine(tops, /*max_retries=*/0, /*backoff_base_us=*/0);

    constexpr std::uint64_t kBlocksPerDisk = 16;
    std::vector<std::vector<Record>> images;
    std::vector<Record> readback(2 * kBlocksPerDisk * kB);
    std::vector<IoRequest> requests;
    for (std::uint64_t blk = 0; blk < kBlocksPerDisk; ++blk) {
        for (std::uint32_t d = 0; d < 2; ++d) {
            images.push_back(make_block(kB, blk * 2 + d));
            IoRequest w;
            w.kind = IoRequest::Kind::kWrite;
            w.disk = d;
            w.block = blk;
            w.write_data = images.back().data();
            requests.push_back(w);
            IoRequest r;
            r.kind = IoRequest::Kind::kRead;
            r.disk = d;
            r.block = blk;
            r.read_buf = readback.data() + (blk * 2 + d) * kB;
            requests.push_back(r);
        }
    }
    AsyncBatch batch = engine.submit(std::move(requests));
    const auto& comps = engine.wait(batch);
    ASSERT_EQ(comps.size(), 4 * kBlocksPerDisk);
    for (std::size_t i = 0; i < comps.size(); ++i) {
        EXPECT_TRUE(comps[i].ok);
        EXPECT_EQ(comps[i].request_index, i); // ordered by submission index
    }
    for (std::uint64_t k = 0; k < 2 * kBlocksPerDisk; ++k) {
        EXPECT_EQ(std::vector<Record>(readback.begin() + static_cast<std::ptrdiff_t>(k * kB),
                                      readback.begin() + static_cast<std::ptrdiff_t>((k + 1) * kB)),
                  images[k])
            << "slot " << k;
    }
    const AsyncEngineMetrics m = engine.metrics();
    EXPECT_EQ(m.block_ops, 4 * kBlocksPerDisk);
    // A whole batch in one submit: the queue really got deep.
    EXPECT_GT(m.max_in_flight, 1u);
}

TEST(AsyncEngine, NonTransientFailureIsDeferredNotThrown) {
    auto disk = std::make_unique<MemDisk>(4);
    AsyncEngine engine({disk.get()}, 3, 0);
    std::vector<Record> buf(4);
    IoRequest r;
    r.kind = IoRequest::Kind::kRead;
    r.disk = 0;
    r.block = 7; // never written: ModelViolation below
    r.read_buf = buf.data();
    AsyncBatch batch = engine.submit({r});
    const auto& comps = engine.wait(batch); // does not throw
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_FALSE(comps[0].ok);
    ASSERT_TRUE(comps[0].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(comps[0].error), ModelViolation);
    // wait() is idempotent.
    EXPECT_FALSE(engine.wait(batch)[0].ok);
    EXPECT_TRUE(engine.done(batch));
}

TEST(AsyncEngine, TransientRetriesAreCountedAndDeterministic) {
    auto run_once = [](std::uint64_t& retries_out) {
        FaultSpec spec;
        spec.seed = 404;
        spec.read_transient_rate = 0.3;
        auto base = std::make_unique<MemDisk>(4);
        const auto blk = make_block(4, 1);
        for (std::uint64_t i = 0; i < 64; ++i) base->write_block(i, blk);
        FaultInjectingDisk faulty(std::move(base), spec, 0);
        AsyncEngine engine({&faulty}, /*max_retries=*/16, 0);
        std::vector<Record> buf(64 * 4);
        std::vector<IoRequest> reqs(64);
        for (std::uint64_t i = 0; i < 64; ++i) {
            reqs[i].kind = IoRequest::Kind::kRead;
            reqs[i].disk = 0;
            reqs[i].block = i;
            reqs[i].read_buf = buf.data() + i * 4;
        }
        AsyncBatch batch = engine.submit(std::move(reqs));
        retries_out = 0;
        for (const auto& c : engine.wait(batch)) {
            EXPECT_TRUE(c.ok);
            retries_out += c.transient_retries;
        }
    };
    std::uint64_t a = 0, b = 0;
    run_once(a);
    run_once(b);
    EXPECT_GT(a, 0u); // 64 reads at rate .3: retries essentially certain
    EXPECT_EQ(a, b);  // per-disk FIFO + seeded stream => same fault sequence
}

TEST(AsyncEngine, InlineModeCompletesEachBatchInsideSubmit) {
    constexpr std::size_t kB = 4;
    std::vector<std::unique_ptr<MemDisk>> disks;
    std::vector<Disk*> tops;
    for (int i = 0; i < 2; ++i) {
        disks.push_back(std::make_unique<MemDisk>(kB));
        tops.push_back(disks.back().get());
    }
    AsyncEngine engine(tops, /*max_retries=*/0, /*backoff_base_us=*/0, /*deadline_us=*/0,
                       /*backoff_jitter=*/false, EngineMode::kInline);
    EXPECT_EQ(engine.mode(), EngineMode::kInline);
    // Instruments installed after construction are picked up at submit.
    MetricsRegistry reg;
    MetricsInstallGuard mg(&reg);

    const auto img = make_block(kB, 9);
    std::vector<Record> back(kB);
    std::vector<IoRequest> requests(2);
    requests[0].kind = IoRequest::Kind::kWrite;
    requests[0].disk = 1;
    requests[0].block = 3;
    requests[0].write_data = img.data();
    requests[1].kind = IoRequest::Kind::kRead;
    requests[1].disk = 1;
    requests[1].block = 3;
    requests[1].read_buf = back.data();
    AsyncBatch batch = engine.submit(std::move(requests));
    EXPECT_TRUE(engine.done(batch)); // complete on return, nothing queued
    for (const auto& c : engine.wait(batch)) EXPECT_TRUE(c.ok);
    EXPECT_EQ(back, img);
    EXPECT_EQ(engine.per_disk_in_flight(), (std::vector<std::uint32_t>{0, 0}));
#ifndef BALSORT_NO_OBS // metrics() is constexpr null when compiled out
    EXPECT_EQ(reg.histogram("disk1.write_latency_us").count(), 1u);
    EXPECT_EQ(reg.histogram("disk1.read_latency_us").count(), 1u);
#endif
    // No workers ran, so the worker metrics stay zero.
    const AsyncEngineMetrics m = engine.metrics();
    EXPECT_EQ(m.block_ops, 0u);
    EXPECT_EQ(m.max_in_flight, 0u);
    EXPECT_EQ(m.busy_seconds, 0.0);
}

TEST(AsyncEngine, InlineAndThreadedRetryTheSameFaultSequence) {
    // Both modes run one retry loop, so a seeded fault stream costs the
    // same retries whichever thread executes it.
    auto retries = [](EngineMode mode) {
        FaultSpec spec;
        spec.seed = 404;
        spec.read_transient_rate = 0.3;
        auto base = std::make_unique<MemDisk>(4);
        const auto blk = make_block(4, 1);
        for (std::uint64_t i = 0; i < 64; ++i) base->write_block(i, blk);
        FaultInjectingDisk faulty(std::move(base), spec, 0);
        AsyncEngine engine({&faulty}, /*max_retries=*/16, 0, 0, false, mode);
        std::vector<Record> buf(64 * 4);
        std::vector<IoRequest> reqs(64);
        for (std::uint64_t i = 0; i < 64; ++i) {
            reqs[i].kind = IoRequest::Kind::kRead;
            reqs[i].disk = 0;
            reqs[i].block = i;
            reqs[i].read_buf = buf.data() + i * 4;
        }
        AsyncBatch batch = engine.submit(std::move(reqs));
        std::uint64_t total = 0;
        for (const auto& c : engine.wait(batch)) {
            EXPECT_TRUE(c.ok);
            total += c.transient_retries;
        }
        return total;
    };
    const std::uint64_t inline_retries = retries(EngineMode::kInline);
    EXPECT_GT(inline_retries, 0u);
    EXPECT_EQ(inline_retries, retries(EngineMode::kThreaded));
}

TEST(AsyncEngine, WorkerServesItsWholeQueuePerWakeup) {
    // 63 reads queue up, one submit each, behind a read held on the
    // latch: once released, the worker takes them all in one dequeue and
    // runs them in submission order.
    constexpr std::size_t kB = 4;
    constexpr std::uint64_t kReads = 64;
    MemDisk base(kB);
    for (std::uint64_t i = 0; i < kReads; ++i) base.write_block(i, make_block(kB, i));
    LatchedDisk latched(base);
    AsyncEngine engine({&latched}, /*max_retries=*/0, /*backoff_base_us=*/0);
    std::vector<Record> buf(kReads * kB);
    std::vector<AsyncBatch> batches;
    batches.push_back(engine.submit({read_request(0, 0, buf.data())}));
    latched.wait_entered();
    for (std::uint64_t i = 1; i < kReads; ++i) {
        batches.push_back(engine.submit({read_request(0, i, buf.data() + i * kB)}));
    }
    EXPECT_EQ(engine.per_disk_in_flight(), std::vector<std::uint32_t>{kReads});
    latched.release();
    for (AsyncBatch& b : batches) EXPECT_TRUE(engine.wait(b)[0].ok);
    std::vector<std::uint64_t> fifo(kReads);
    for (std::uint64_t i = 0; i < kReads; ++i) fifo[i] = i;
    EXPECT_EQ(latched.order(), fifo);
    for (std::uint64_t i = 0; i < kReads; ++i) {
        EXPECT_EQ(std::vector<Record>(buf.begin() + static_cast<std::ptrdiff_t>(i * kB),
                                      buf.begin() + static_cast<std::ptrdiff_t>((i + 1) * kB)),
                  make_block(kB, i));
    }
    const AsyncEngineMetrics m = engine.metrics();
    EXPECT_EQ(m.block_ops, kReads);
    EXPECT_GE(m.wakeups, 1u);
    EXPECT_LE(m.wakeups, 2u);
    EXPECT_EQ(engine.per_disk_in_flight(), std::vector<std::uint32_t>{0});
}

TEST(AsyncEngine, InFlightCountsDequeuedButUnfinishedRequests) {
    // One batch of 8: the worker dequeues all of it in one wakeup and is
    // held on the first. Nothing is queued any more, yet all 8 are in
    // flight until they complete.
    constexpr std::size_t kB = 4;
    MemDisk base(kB);
    for (std::uint64_t i = 0; i < 8; ++i) base.write_block(i, make_block(kB, i));
    LatchedDisk latched(base);
    AsyncEngine engine({&latched}, 0, 0);
    std::vector<Record> buf(8 * kB);
    std::vector<IoRequest> reqs;
    for (std::uint64_t i = 0; i < 8; ++i) reqs.push_back(read_request(0, i, buf.data() + i * kB));
    AsyncBatch batch = engine.submit(std::move(reqs));
    latched.wait_entered();
    EXPECT_EQ(engine.metrics().wakeups, 1u);
    EXPECT_EQ(engine.per_disk_in_flight(), std::vector<std::uint32_t>{8});
    EXPECT_FALSE(engine.done(batch));
    latched.release();
    engine.wait(batch);
    EXPECT_EQ(engine.per_disk_in_flight(), std::vector<std::uint32_t>{0});
    EXPECT_EQ(engine.metrics().wakeups, 1u);
}

// ------------------------------------------------- DiskArray async routing

TEST(DiskArrayAsync, EngineOffArrayRunsInlineAndShowsNoWorkers) {
    DiskArray arr(2, 4);
    EXPECT_FALSE(arr.async_enabled());
    auto recs = generate(Workload::kUniform, 64, 3);
    BlockRun run = write_striped(arr, recs);
    // A prefetch on the inline engine is already complete when it returns.
    std::vector<Record> buf(run.blocks.size() * 4);
    DiskArray::ReadTicket t = arr.prefetch_read(run.blocks, buf);
    EXPECT_TRUE(arr.async_in_flight().empty());
    arr.complete_read(t);
    for (std::uint64_t i = 0; i < recs.size(); ++i) EXPECT_EQ(buf[i], recs[i]);
    EXPECT_EQ(read_run(arr, run), recs);
    const IoStats s = arr.stats();
    EXPECT_EQ(s.async_block_ops, 0u);
    EXPECT_EQ(s.engine_wakeups, 0u);
    EXPECT_EQ(s.max_in_flight, 0u);
    EXPECT_EQ(s.engine_busy_seconds, 0.0);
    EXPECT_EQ(s.engine_stall_seconds, 0.0);
}

TEST(DiskArrayAsync, StepAccountingAndDataBitIdenticalToSync) {
    auto recs = generate(Workload::kUniform, 3000, 21);
    IoStats sync_stats, async_stats;
    std::vector<Record> sync_out, async_out;
    {
        DiskArray arr(4, 8);
        BlockRun run = write_striped(arr, recs);
        sync_out = read_run(arr, run);
        sync_stats = arr.stats();
    }
    {
        DiskArray arr(4, 8);
        arr.set_async(true);
        BlockRun run = write_striped(arr, recs);
        async_out = read_run(arr, run);
        arr.drain_async();
        async_stats = arr.stats();
        EXPECT_TRUE(arr.async_enabled());
    }
    EXPECT_EQ(async_out, sync_out);
    EXPECT_EQ(async_stats.read_steps, sync_stats.read_steps);
    EXPECT_EQ(async_stats.write_steps, sync_stats.write_steps);
    EXPECT_EQ(async_stats.blocks_read, sync_stats.blocks_read);
    EXPECT_EQ(async_stats.blocks_written, sync_stats.blocks_written);
    // ... but the async run really went through the engine.
    EXPECT_GT(async_stats.async_block_ops, 0u);
    EXPECT_GT(async_stats.max_in_flight, 1u);
    EXPECT_EQ(sync_stats.async_block_ops, 0u);
}

TEST(DiskArrayAsync, PrefetchChargesAtConsumeNotSubmit) {
    DiskArray arr(2, 4);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 64, 3);
    BlockRun run = write_striped(arr, recs);
    arr.drain_async();
    const IoStats before = arr.stats();

    std::vector<Record> buf(run.blocks.size() * 4);
    DiskArray::ReadTicket t = arr.prefetch_read(run.blocks, buf);
    EXPECT_EQ(arr.stats().read_steps, before.read_steps); // physical only
    arr.complete_read(t);
    EXPECT_EQ(arr.stats().read_steps, before.read_steps); // still uncharged
    arr.charge_read_batch(run.blocks);                    // the model cost
    const IoStats after = arr.stats();
    EXPECT_EQ(after.read_steps - before.read_steps, run.read_steps(2));
    EXPECT_EQ(after.blocks_read - before.blocks_read, run.n_blocks());
    // Data arrived through the uncharged path.
    for (std::uint64_t i = 0; i < recs.size(); ++i) EXPECT_EQ(buf[i], recs[i]);
}

TEST(DiskArrayAsync, WriteBehindPermanentFailureSurfaces) {
    // Without parity a permanently failed write has nowhere to go: the
    // deferred DiskFailed must reach the caller (at a later write or at
    // drain), never be swallowed.
    FaultTolerance ft;
    ft.inject.seed = 5;
    ft.inject.die_after_ops = 6;
    ft.die_disk = 0;
    DiskArray arr(2, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 256, 4);
    EXPECT_THROW(
        {
            BlockRun run = write_striped(arr, recs);
            arr.drain_async();
            (void)run;
        },
        DiskFailed);
    EXPECT_FALSE(arr.health(0).alive);
}

TEST(DiskArrayAsync, SetAsyncOffFoldsMetricsAndRestoresSyncPath) {
    DiskArray arr(2, 4);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 128, 6);
    BlockRun run = write_striped(arr, recs);
    EXPECT_EQ(read_run(arr, run), recs);
    arr.set_async(false);
    EXPECT_FALSE(arr.async_enabled());
    const std::uint64_t ops_after_disable = arr.stats().async_block_ops;
    EXPECT_GT(ops_after_disable, 0u); // folded, not lost
    // Back on the sync path: further I/O charges steps but no engine ops.
    BlockRun run2 = write_striped(arr, recs);
    EXPECT_EQ(read_run(arr, run2), recs);
    EXPECT_EQ(arr.stats().async_block_ops, ops_after_disable);
}

// ------------------------------------------------------ read-path sizes

/// Drain `src` in reads of `size` records and return what came out.
template <class Source>
std::vector<Record> read_in_steps(Source& src, std::size_t size) {
    std::vector<Record> all, step(size);
    while (src.remaining() > 0) {
        const std::uint64_t got = src.read(step);
        all.insert(all.end(), step.begin(), step.begin() + static_cast<std::ptrdiff_t>(got));
    }
    return all;
}

/// Reads land each block's valid prefix in the caller's span and carry
/// the rest: every read size around the block size, and a whole
/// memoryload, must return the written bytes, with the engine inline or
/// threaded, with transient read faults retried underneath, and with a
/// staged prefetch in front of the first read.
TEST(ReadPath, EveryReadSizeReturnsTheWrittenBytes) {
    constexpr std::uint32_t kD = 4, kB = 4, kDv = 2;
    constexpr std::size_t kV = kB * kD / kDv, kM = 40; // V = 8 records
    for (const bool faults : {false, true}) {
        for (const bool async : {false, true}) {
            FaultTolerance ft;
            if (faults) {
                ft.inject.seed = 99;
                ft.inject.read_transient_rate = 0.2;
                ft.max_retries = 32;
            }
            DiskArray arr(kD, kB, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
            arr.set_async(async);
            VirtualDisks vd(arr, kDv);
            // A VRun whose entries are mostly full, with partial ones in
            // the middle and at the end (valid prefix + pad).
            const std::vector<std::uint32_t> counts = {8, 8, 5, 8, 1, 8, 8, 7, 8, 8, 8, 3};
            VRun run;
            std::vector<Record> expected;
            std::uint64_t next = 0;
            for (std::size_t e = 0; e < counts.size(); ++e) {
                std::vector<Record> block(kV, Record{~std::uint64_t{0}, ~std::uint64_t{0}});
                for (std::uint32_t i = 0; i < counts[e]; ++i) {
                    block[i] = {next * 7919 % 1000, next};
                    ++next;
                    expected.push_back(block[i]);
                }
                const std::uint32_t h = static_cast<std::uint32_t>(e % kDv);
                const auto vbs = vd.write_track(std::span<const std::uint32_t>(&h, 1), block);
                run.entries.push_back({vbs[0], counts[e]});
                run.n_records += counts[e];
            }
            const std::vector<Record> striped_in = generate(Workload::kUniform, 61, 5);
            const BlockRun striped = write_striped(arr, striped_in); // partial last block
            for (const std::size_t size : {std::size_t{1}, kV - 1, kV, kV + 1, kM}) {
                const std::string what = std::string(faults ? "faults " : "") +
                                         (async ? "async" : "inline") +
                                         " size=" + std::to_string(size);
                VRunSource vsrc(vd, run);
                EXPECT_EQ(read_in_steps(vsrc, size), expected) << what;
                VRunSource staged(vd, run);
                EXPECT_EQ(staged.start_prefetch(kM), async) << what;
                EXPECT_EQ(read_in_steps(staged, size), expected) << what << " staged";
                RunReader reader(arr, striped);
                EXPECT_EQ(read_in_steps(reader, size), striped_in) << what;
            }
            if (faults) {
                EXPECT_GT(arr.stats().transient_retries, 0u);
            }
        }
    }
}

// -------------------------------------------------- end-to-end balance_sort

TEST(BalanceSortAsync, ReportBitIdenticalToSyncOnMemoryBackend) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 17);
    SortReport sync_rep, async_rep;
    std::vector<Record> sync_sorted, async_sorted;
    {
        DiskArray disks(cfg.d, cfg.b);
        SortJobConfig opt;
        opt.io_policy.async_io = AsyncIo::kOff;
        sync_sorted = balance_sort_records(disks, input, cfg, opt, &sync_rep);
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        SortJobConfig opt;
        opt.io_policy.async_io = AsyncIo::kOn;
        async_sorted = balance_sort_records(disks, input, cfg, opt, &async_rep);
        // The guard restored the array to its pre-sort (sync) state.
        EXPECT_FALSE(disks.async_enabled());
    }
    EXPECT_EQ(async_sorted, sync_sorted);
    EXPECT_EQ(async_rep.io.io_steps(), sync_rep.io.io_steps());
    EXPECT_EQ(async_rep.io.blocks_read, sync_rep.io.blocks_read);
    EXPECT_EQ(async_rep.io.blocks_written, sync_rep.io.blocks_written);
    EXPECT_EQ(async_rep.s_used, sync_rep.s_used);
    EXPECT_EQ(async_rep.levels, sync_rep.levels);
    EXPECT_EQ(async_rep.base_cases, sync_rep.base_cases);
    EXPECT_EQ(async_rep.d_virtual, sync_rep.d_virtual);
    EXPECT_EQ(async_rep.equal_class_records, sync_rep.equal_class_records);
    // Overlap metrics: only the async run shows engine activity.
    EXPECT_GT(async_rep.io.async_block_ops, 0u);
    EXPECT_GT(async_rep.io.max_in_flight, 1u);
    EXPECT_GT(async_rep.io.engine_busy_seconds, 0.0);
    EXPECT_EQ(sync_rep.io.async_block_ops, 0u);
    EXPECT_EQ(sync_rep.io.engine_busy_seconds, 0.0);
}

TEST(BalanceSortAsync, FileBackendAutoEnablesTheEngine) {
    PdmConfig cfg{.n = 6000, .m = 512, .d = 4, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 23);
    const std::string dir = std::filesystem::temp_directory_path().string();
    SortReport auto_rep, off_rep;
    std::vector<Record> auto_sorted, off_sorted;
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, dir);
        SortJobConfig opt; // async_io = kAuto
        auto_sorted = balance_sort_records(disks, input, cfg, opt, &auto_rep);
    }
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, dir);
        SortJobConfig opt;
        opt.io_policy.async_io = AsyncIo::kOff;
        off_sorted = balance_sort_records(disks, input, cfg, opt, &off_rep);
    }
    EXPECT_GT(auto_rep.io.async_block_ops, 0u); // kAuto == on for kFile
    EXPECT_EQ(off_rep.io.async_block_ops, 0u);
    // Every wakeup serves at least one block; inline there are none.
    EXPECT_GT(auto_rep.io.engine_wakeups, 0u);
    EXPECT_LE(auto_rep.io.engine_wakeups, auto_rep.io.async_block_ops);
    EXPECT_EQ(off_rep.io.engine_wakeups, 0u);
    EXPECT_EQ(auto_sorted, off_sorted);
    EXPECT_EQ(auto_rep.io.io_steps(), off_rep.io.io_steps());
}

// -------------------------------------------------- grouped write-behind
// With workers on and parity off, write steps collect per owner and reach
// the engine as one batch (DESIGN.md §9). These pin the ordering points.

std::unique_ptr<DiskArray> threaded_file_array(std::uint32_t d, std::uint32_t b,
                                               FaultTolerance ft = {}, DeviceModel dev = {}) {
    auto arr = std::make_unique<DiskArray>(d, b, DiskBackend::kFile,
                                           std::filesystem::temp_directory_path().string(),
                                           Constraint::kIndependentDisks, ft, dev);
    arr->set_async(true);
    return arr;
}

/// Poll `done` until it holds or 10 s pass; false on timeout.
template <class Pred>
bool eventually(Pred done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

/// One write step putting block `block` on every disk, tagged by step.
void write_all_disks(DiskArray& arr, std::uint64_t block, std::uint64_t tag) {
    const std::uint32_t d = arr.num_disks();
    const std::size_t b = arr.block_size();
    std::vector<BlockOp> ops;
    std::vector<Record> data;
    for (std::uint32_t i = 0; i < d; ++i) {
        ops.push_back({i, block});
        const auto blk = make_block(b, tag * 16 + i);
        data.insert(data.end(), blk.begin(), blk.end());
    }
    arr.write_step(ops, data);
}

TEST(GroupedWriteBehind, ReadOfCollectingBlockReturnsWrittenImage) {
    const auto owned = threaded_file_array(2, 4);
    DiskArray& arr = *owned;
    const std::uint64_t blk = arr.allocate(0, 1);
    arr.allocate(1, 1);
    write_all_disks(arr, blk, 7);
    // The step is still collecting: nothing reached the engine yet.
    EXPECT_EQ(arr.stats().async_block_ops, 0u);
    const std::vector<BlockOp> ops{{0, blk}, {1, blk}};
    std::vector<Record> got(2 * 4);
    arr.read_step(ops, got);
    std::vector<Record> want = make_block(4, 7 * 16);
    const auto second = make_block(4, 7 * 16 + 1);
    want.insert(want.end(), second.begin(), second.end());
    EXPECT_EQ(got, want);
    arr.drain_async();
    EXPECT_EQ(arr.stats().async_block_ops, 4u); // 2 writes, then 2 reads
}

TEST(GroupedWriteBehind, ReleaseSubmitsTheCollectingWriteBeforeReuse) {
    const auto owned = threaded_file_array(2, 4);
    DiskArray& arr = *owned;
    const std::uint64_t blk = arr.allocate(0, 1);
    arr.allocate(1, 1);
    write_all_disks(arr, blk, 3);
    EXPECT_EQ(arr.stats().async_block_ops, 0u);
    // Once free, the block may go to another owner whose write must land
    // after this one: release submits the group holding it.
    arr.release(0, blk);
    EXPECT_TRUE(eventually([&] { return arr.stats_snapshot().async_block_ops == 2; }));
    arr.drain_async();
    EXPECT_EQ(arr.stats().async_block_ops, 2u);
}

TEST(GroupedWriteBehind, FaultInsideGroupSurfacesAtNextDrain) {
    FaultTolerance ft;
    ft.inject.seed = 9;
    ft.inject.die_after_ops = 2; // disk 0's third op fails for good
    ft.die_disk = 0;
    const auto owned = threaded_file_array(2, 4, ft);
    DiskArray& arr = *owned;
    // Three steps fit in one collecting group: no block has moved, so
    // no write can have failed yet.
    for (std::uint64_t step = 0; step < 3; ++step) {
        EXPECT_NO_THROW(write_all_disks(arr, step, step));
    }
    EXPECT_EQ(arr.stats().async_block_ops, 0u);
    EXPECT_THROW(arr.drain_async(), DiskFailed);
    EXPECT_FALSE(arr.health(0).alive);
    EXPECT_EQ(arr.stats().write_steps, 3u); // charged at write_step, unchanged
}

TEST(GroupedWriteBehind, NeighbourDrainParksFaultOnOwnersChannel) {
    // Two jobs on one array, as SortScheduler binds them. Job A fills a
    // group onto a dying disk and leaves it in flight; job B's drain
    // reaps it. The failure is A's: it parks on A's channel, B's drain
    // returns normally, and A's next drain throws it.
    FaultTolerance ft;
    ft.inject.seed = 11;
    ft.inject.die_after_ops = 4;
    ft.die_disk = 0;
    DeviceModel slow;
    slow.latency_us = 1000; // keeps A's group in flight past A's own reap
    const auto owned = threaded_file_array(2, 4, ft, slow);
    DiskArray& arr = *owned;
    JobIoChannel a, b;
    std::thread([&] {
        JobChannelBinding bind(arr, &a);
        const std::uint64_t first = arr.allocate(0, 8);
        arr.allocate(1, 8);
        // Exactly one full group: submitted by the 8th step, not waited.
        for (std::uint64_t step = 0; step < 8; ++step) write_all_disks(arr, first + step, step);
    }).join();
    // Let the workers finish A's group so B's opportunistic reap takes it.
    ASSERT_TRUE(eventually([&] {
        const auto depth = arr.async_in_flight();
        return std::all_of(depth.begin(), depth.end(), [](std::uint32_t n) { return n == 0; });
    }));
    std::thread([&] {
        JobChannelBinding bind(arr, &b);
        EXPECT_NO_THROW(arr.drain_async());
    }).join();
    EXPECT_TRUE(a.deferred_failure != nullptr);
    EXPECT_TRUE(b.deferred_failure == nullptr);
    EXPECT_EQ(arr.channel_stats(a).write_steps, 8u);
    std::thread([&] {
        JobChannelBinding bind(arr, &a);
        EXPECT_THROW(arr.drain_async(), DiskFailed);
    }).join();
    EXPECT_TRUE(a.deferred_failure == nullptr);
}

TEST(GroupedWriteBehind, AsyncInFlightCountsDequeuedUnfinishedOps) {
    DeviceModel slow;
    slow.latency_us = 25000; // four reads on disk 0: ~100 ms to finish
    const auto owned = threaded_file_array(2, 4, {}, slow);
    DiskArray& arr = *owned;
    const std::uint64_t first = arr.allocate(0, 4);
    arr.allocate(1, 4);
    for (std::uint64_t i = 0; i < 4; ++i) write_all_disks(arr, first + i, i);
    arr.drain_async();
    const std::uint64_t wakeups = arr.stats_snapshot().engine_wakeups;
    const std::vector<BlockOp> ops{{0, first}, {0, first + 1}, {0, first + 2}, {0, first + 3}};
    std::vector<Record> buf(4 * 4);
    DiskArray::ReadTicket t = arr.prefetch_read(ops, buf);
    // Wait for the worker to take the reads off its queue: one wakeup
    // dequeues all four, and they stay in flight until all complete.
    ASSERT_TRUE(eventually([&] { return arr.stats_snapshot().engine_wakeups > wakeups; }));
    EXPECT_EQ(arr.async_in_flight(), (std::vector<std::uint32_t>{4, 0}));
    arr.complete_read(t);
    EXPECT_EQ(arr.async_in_flight(), (std::vector<std::uint32_t>{0, 0}));
    EXPECT_EQ(arr.stats_snapshot().engine_wakeups, wakeups + 1);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(std::vector<Record>(buf.begin() + static_cast<std::ptrdiff_t>(i * 4),
                                      buf.begin() + static_cast<std::ptrdiff_t>((i + 1) * 4)),
                  make_block(4, i * 16));
    }
}

// ------------------------------------------------- SortJobConfig::validate()
// The suite keeps the name of the retired flat options type so its test IDs
// stay stable; every case exercises SortJobConfig::validate.

TEST(SortOptionsValidate, RejectsSketchWithSqrtLevelPolicy) {
    SortJobConfig opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    opt.bucket_policy = BucketPolicy::kSqrtLevel;
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
}

TEST(SortOptionsValidate, RejectsSTargetWithoutFixedPolicy) {
    SortJobConfig opt;
    opt.s_target = 4; // policy left at kPaperPdm
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
    opt.bucket_policy = BucketPolicy::kFixed;
    EXPECT_NO_THROW(opt.validate(8));
}

TEST(SortOptionsValidate, RejectsDVirtualNotDividingD) {
    SortJobConfig opt;
    opt.d_virtual = 3;
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
    opt.d_virtual = 4;
    EXPECT_NO_THROW(opt.validate(8));
    opt.d_virtual = 16; // larger than D
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
}

TEST(SortOptionsValidate, BalanceSortRejectsIncoherentOptionsUpFront) {
    PdmConfig cfg{.n = 1000, .m = 256, .d = 4, .b = 4, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 1);
    SortJobConfig opt;
    opt.s_target = 4; // without kFixed: previously silently implied
    EXPECT_THROW((void)balance_sort_records(disks, input, cfg, opt, nullptr),
                 std::invalid_argument);
}

} // namespace
} // namespace balsort
