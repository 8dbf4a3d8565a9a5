// Tests for the work-stealing compute core (pram/executor.hpp): executor
// task coverage and stealing, nested fork-join, exception semantics,
// degenerate worker counts, and the parallel algorithm
// overloads (multi-selection, multiway merge) against their serial forms.
// The whole binary also runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "pram/executor.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/selection.hpp"
#include "util/random.hpp"
#include "util/record.hpp"
#include "util/work_meter.hpp"

namespace balsort {
namespace {

// ---- Executor mechanics ----

class CountingJob : public JobBase {
  public:
    explicit CountingJob(std::size_t n) : hits_(n) {}
    void run_task(std::uint32_t idx) override { hits_[idx].fetch_add(1); }
    std::vector<std::atomic<int>> hits_;
};

TEST(Executor, RunsEveryChunkExactlyOnce) {
    Executor exec(3);
    EXPECT_EQ(exec.workers(), 3u);
    CountingJob job(257); // far more chunks than workers: queues must drain
    exec.run(job, 257);
    for (const auto& h : job.hits_) EXPECT_EQ(h.load(), 1);
    const Executor::Stats s = exec.stats();
    EXPECT_EQ(s.tasks, 257u);
}

TEST(Executor, StealsAcrossDeques) {
    // External pushes spray round-robin; workers finishing early must
    // steal from their neighbours' deques to drain 4096 tasks. Steals are
    // timing-dependent, so correctness (exactly-once) is the hard
    // assertion and the counters are only sanity-checked.
    Executor exec(3);
    std::atomic<std::uint64_t> sum{0};
    CountingJob job(4096);
    exec.run(job, 4096);
    for (const auto& h : job.hits_) sum += static_cast<std::uint64_t>(h.load());
    EXPECT_EQ(sum.load(), 4096u);
    EXPECT_GT(exec.stats().tasks, 0u);
}

TEST(Executor, NestedParallelForDoesNotDeadlock) {
    Executor exec(3);
    Parallel pool(4, &exec);
    std::vector<std::atomic<int>> hits(64 * 64);
    pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
            // Inner fork-join from inside a task: join must help-drain
            // instead of parking, or the workers starve each other.
            pool.parallel_for(0, 64, [&, i](std::size_t jlo, std::size_t jhi, std::size_t) {
                for (std::size_t j = jlo; j < jhi; ++j) hits[i * 64 + j].fetch_add(1);
            });
        }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, FirstExceptionWinsAndLaterChunksAreSkipped) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::atomic<int> ran{0};
    try {
        pool.parallel_for(0, 300, [&](std::size_t lo, std::size_t, std::size_t) {
            if (lo == 0) throw std::runtime_error("first");
            ran.fetch_add(1);
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
    // Still healthy: the failed job's accounting fully drained.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, [&](std::size_t, std::size_t, std::size_t) { ok.fetch_add(1); });
    EXPECT_GT(ok.load(), 0);
}

TEST(Executor, SingleWorkerDegenerate) {
    Executor exec(1);
    Parallel pool(2, &exec);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, NoExecutorRunsInlineWithChunkIndices) {
    // The 0-worker degenerate: a width-p view with no executor must still
    // present p logical chunks (serial, in order) — not one fused call.
    Parallel pool(4);
    std::vector<std::size_t> order;
    pool.parallel_for(0, 100, [&](std::size_t, std::size_t, std::size_t c) {
        order.push_back(c);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Executor, SubmitFromManyThreadsConcurrently) {
    // One shared executor, several non-worker submitters — the svc shape.
    Executor exec(3);
    std::vector<std::thread> submitters;
    std::atomic<std::uint64_t> grand{0};
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&exec, &grand]() {
            Parallel pool(4, &exec);
            std::atomic<std::uint64_t> local{0};
            pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi, std::size_t) {
                local.fetch_add(hi - lo);
            });
            grand.fetch_add(local.load());
        });
    }
    for (auto& th : submitters) th.join();
    EXPECT_EQ(grand.load(), 4000u);
}

TEST(Executor, ChannelAccountsTasksStolenHelped) {
    Executor exec(3);
    ComputeChannel ch;
    Parallel pool(4, &exec, &ch);
    pool.parallel_for(0, 512, [](std::size_t, std::size_t, std::size_t) {});
    const std::uint64_t tasks = ch.tasks.load();
    EXPECT_EQ(tasks, 4u); // min(width, n) chunks
    EXPECT_LE(ch.stolen.load() + ch.helped.load(), tasks);
    EXPECT_GE(ch.helped.load(), 1u); // the caller always runs chunk 0
}

// ---- Parallel algorithm overloads vs their serial forms ----

TEST(ParallelSelection, MatchesSerialKeysAndCharges) {
    Xoshiro256 rng(123);
    Executor exec(3);
    Parallel pool(4, &exec);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 20000 + rng.below(20000);
        std::vector<Record> recs(n);
        for (auto& r : recs) r.key = rng.below(500); // heavy duplicates
        const std::size_t k = 1 + rng.below(16);
        std::set<std::uint64_t> rank_set;
        while (rank_set.size() < k) rank_set.insert(1 + rng.below(n));
        std::vector<std::uint64_t> ranks(rank_set.begin(), rank_set.end());

        std::vector<Record> scratch_serial = recs;
        WorkMeter serial_meter;
        auto serial = multi_select_keys(scratch_serial, ranks, &serial_meter);

        std::vector<Record> scratch_par = recs;
        WorkMeter par_meter;
        auto par = multi_select_keys(scratch_par, ranks, pool, &par_meter);

        EXPECT_EQ(par, serial) << "trial " << trial;
        // The recursion tree and its analytic charges are schedule-
        // independent: bit-identical accounting, not just close.
        EXPECT_EQ(par_meter.comparisons(), serial_meter.comparisons()) << "trial " << trial;
        EXPECT_EQ(par_meter.moves(), serial_meter.moves()) << "trial " << trial;
    }
}

std::vector<std::vector<Record>> make_adversarial_runs(Xoshiro256& rng, int k) {
    // Duplicate-heavy, skewed-length runs: long stretches of equal keys
    // spanning run boundaries stress the rank-splitting tie-break.
    std::vector<std::vector<Record>> runs(static_cast<std::size_t>(k));
    std::uint64_t payload = 0;
    for (auto& run : runs) {
        const std::size_t len = 1 + rng.below(4000);
        run.resize(len);
        for (auto& rec : run) rec = {rng.below(8), payload++}; // keys in [0,8)
        std::sort(run.begin(), run.end(), KeyLess{});
    }
    return runs;
}

TEST(ParallelMerge, ByteIdenticalToSerialOnDuplicateHeavyRuns) {
    Xoshiro256 rng(7);
    Executor exec(3);
    Parallel pool(4, &exec);
    for (int trial = 0; trial < 8; ++trial) {
        auto runs_data = make_adversarial_runs(rng, 2 + static_cast<int>(rng.below(9)));
        std::vector<std::span<const Record>> runs;
        std::size_t total = 0;
        for (const auto& r : runs_data) {
            runs.emplace_back(r);
            total += r.size();
        }
        std::vector<Record> serial(total), par(total);
        WorkMeter serial_meter, par_meter;
        multiway_merge(runs, serial, &serial_meter);
        multiway_merge(runs, par, pool, &par_meter);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < total; ++i) {
            ASSERT_EQ(par[i].key, serial[i].key) << "trial " << trial << " i=" << i;
            // Stability across the splits: equal keys keep run order, which
            // the payload stamp makes observable.
            ASSERT_EQ(par[i].payload, serial[i].payload) << "trial " << trial << " i=" << i;
        }
        EXPECT_EQ(par_meter.moves(), serial_meter.moves());
    }
}

TEST(ParallelMerge, EmptyAndSingleRunDegenerates) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::vector<std::span<const Record>> empty_runs;
    std::vector<Record> out;
    multiway_merge(empty_runs, out, pool); // no-op
    std::vector<Record> single = {{3, 0}, {5, 0}};
    std::vector<std::span<const Record>> one_run = {std::span<const Record>(single)};
    out.resize(2);
    multiway_merge(one_run, out, pool);
    EXPECT_EQ(out[0].key, 3u);
    EXPECT_EQ(out[1].key, 5u);
}

TEST(ParallelClassification, BucketOfMatchesSerial) {
    Xoshiro256 rng(55);
    Executor exec(3);
    Parallel pool(4, &exec);
    std::vector<Record> recs(50000);
    for (auto& r : recs) r.key = rng.below(100000);
    std::vector<std::uint64_t> pivots = {10, 10000, 40000, 90000};
    WorkMeter serial_meter, par_meter;
    auto serial = bucket_of(recs, pivots, &serial_meter);
    auto par = bucket_of(recs, pivots, pool, &par_meter);
    EXPECT_EQ(par, serial);
    EXPECT_EQ(par_meter.comparisons(), serial_meter.comparisons());
}

#ifndef BALSORT_NO_OBS
// Signal-safety smoke, run under TSan by CI: SIGPROF sampling hammers the
// executor's workers mid-steal while a parallel sort runs. The handler's
// contract (no locks, no allocation, relaxed ring stores) means TSan must
// stay silent and the sorted output must be exactly what an unprofiled
// run produces. A high prime hz maximizes handler/steal interleavings.
TEST(Executor, SamplingProfilerIsSignalSafeAcrossWorkers) {
    Xoshiro256 rng(99);
    std::vector<Record> recs(200000);
    for (auto& r : recs) r.key = rng.below(1u << 30);
    std::vector<Record> expected = recs;
    std::sort(expected.begin(), expected.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });

    ProfilerConfig cfg;
    cfg.hz = 4999; // well above the default: stress the handler path
    cfg.ring_slots = 256;
    Profiler profiler(cfg);
    std::vector<Record> sorted = recs;
    {
        ProfilerScope scope(&profiler);
        Executor exec(4);
        Parallel pool(4, &exec);
        WorkMeter meter;
        parallel_merge_sort(sorted, pool, &meter);
    }
    EXPECT_EQ(sorted, expected);
    // No samples may have been lost to a blocked handler; drops are only
    // legal for ring exhaustion, which 4 threads cannot hit (64 rings).
    EXPECT_EQ(profiler.dropped_samples(), 0u);
}
#endif // BALSORT_NO_OBS

} // namespace
} // namespace balsort
