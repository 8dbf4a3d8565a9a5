// Tests for src/pram: the Parallel view over the executor, prefix sums,
// monotone routing, deterministic selection, parallel sorts, PRAM cost
// accounting. The executor's own mechanics (stealing, nesting, TaskGroup)
// are covered by tests/test_executor.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "pram/executor.hpp"
#include "pram/monotone_route.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/pram_cost.hpp"
#include "pram/prefix.hpp"
#include "pram/selection.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(Parallel, SizeIsAtLeastOne) {
    Parallel p1(1);
    EXPECT_EQ(p1.size(), 1u);
    Executor exec(3);
    Parallel p4(4, &exec);
    EXPECT_EQ(p4.size(), 4u);
    Parallel p0(0);
    EXPECT_EQ(p0.size(), 1u);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce) {
    Executor exec(3);
    Parallel pool(4, &exec);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksAreContiguousAndOrdered) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(10, 110, [&](std::size_t lo, std::size_t hi, std::size_t) {
        std::lock_guard<std::mutex> g(mu);
        chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks.front().first, 10u);
    EXPECT_EQ(chunks.back().second, 110u);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
        EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
    }
}

TEST(Parallel, SerialFallbackKeepsChunkGeometry) {
    // A width-p Parallel with no executor must produce the same chunks
    // (bounds and indices) as an executor-backed one — the invariant that
    // keeps chunk-indexed algorithms identical between serial and parallel.
    Executor exec(2);
    for (std::size_t width : {2u, 3u, 5u}) {
        std::mutex mu;
        std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> par, ser;
        Parallel(width, &exec).parallel_for(
            7, 103, [&](std::size_t lo, std::size_t hi, std::size_t c) {
                std::lock_guard<std::mutex> g(mu);
                par.emplace_back(lo, hi, c);
            });
        Parallel(width).parallel_for(7, 103,
                                     [&](std::size_t lo, std::size_t hi, std::size_t c) {
                                         ser.emplace_back(lo, hi, c);
                                     });
        std::sort(par.begin(), par.end());
        std::sort(ser.begin(), ser.end());
        EXPECT_EQ(par, ser) << "width=" << width;
    }
}

TEST(Parallel, EmptyRangeIsNoop) {
    Executor exec(1);
    Parallel pool(2, &exec);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, ExceptionsPropagate) {
    Executor exec(3);
    Parallel pool(4, &exec);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [&](std::size_t lo, std::size_t, std::size_t) {
                                       if (lo == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Executor is still usable afterwards.
    std::atomic<int> sum{0};
    pool.parallel_for(0, 10, [&](std::size_t lo, std::size_t hi, std::size_t) {
        sum += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(sum.load(), 10);
}

TEST(Parallel, ParallelInvokeRunsPerLane) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::vector<std::atomic<int>> hit(3);
    pool.parallel_invoke([&](std::size_t w) { hit[w].fetch_add(1); });
    int total = 0;
    for (auto& h : hit) total += h.load();
    EXPECT_EQ(total, 3);
}

TEST(Prefix, SequentialExclusive) {
    std::vector<std::uint64_t> v = {3, 1, 4, 1, 5};
    EXPECT_EQ(exclusive_prefix_sum(v), 14u);
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(Prefix, ParallelMatchesSequential) {
    Executor exec(3);
    Parallel pool(4, &exec);
    for (std::size_t n : {0u, 1u, 7u, 100u, 1000u}) {
        std::vector<std::uint64_t> a(n), b;
        Xoshiro256 rng(n);
        for (auto& x : a) x = rng.below(100);
        b = a;
        const auto t1 = exclusive_prefix_sum(std::span<std::uint64_t>(b));
        PramCost cost(4);
        const auto t2 = exclusive_prefix_sum_parallel(a, pool, &cost);
        EXPECT_EQ(a, b) << "n=" << n;
        EXPECT_EQ(t1, t2);
        if (n > 0) {
            EXPECT_GT(cost.steps(), 0u);
        }
    }
}

TEST(Prefix, Segmented) {
    std::vector<std::uint64_t> v = {1, 1, 1, 1, 1};
    std::vector<std::uint8_t> f = {1, 0, 1, 0, 0};
    segmented_prefix_sum(v, f);
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 1, 0, 1, 2}));
}

TEST(Prefix, SegmentHeads) {
    std::vector<std::uint64_t> keys = {4, 4, 7, 9, 9, 9};
    auto heads = segment_heads(keys);
    EXPECT_EQ(heads, (std::vector<std::uint32_t>{0, 0, 2, 3, 3, 3}));
}

TEST(MonotoneRoute, RoutesAndValidates) {
    std::vector<Record> items = {{10, 0}, {20, 1}, {30, 2}, {40, 3}};
    std::vector<Record> out(6);
    std::vector<std::uint32_t> src = {0, 2, 3};
    std::vector<std::uint32_t> dst = {1, 2, 5};
    PramCost cost(2);
    monotone_route<Record>(items, src, dst, out, &cost);
    EXPECT_EQ(out[1].key, 10u);
    EXPECT_EQ(out[2].key, 30u);
    EXPECT_EQ(out[5].key, 40u);
    EXPECT_GT(cost.steps(), 0u);
}

TEST(MonotoneRoute, RejectsNonMonotone) {
    std::vector<Record> items = {{1, 0}, {2, 1}};
    std::vector<Record> out(2);
    std::vector<std::uint32_t> src = {0, 1};
    std::vector<std::uint32_t> dst = {1, 0}; // decreasing: illegal
    EXPECT_THROW(monotone_route<Record>(items, src, dst, out, nullptr), ModelViolation);
}

TEST(MonotoneRoute, Compaction) {
    std::vector<Record> items(10);
    for (std::size_t i = 0; i < 10; ++i) items[i] = {i, i};
    std::vector<std::uint8_t> keep = {1, 0, 0, 1, 1, 0, 0, 0, 1, 0};
    std::vector<Record> out(10);
    const std::size_t n = monotone_compact<Record>(items, keep, out, nullptr);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(out[0].key, 0u);
    EXPECT_EQ(out[1].key, 3u);
    EXPECT_EQ(out[2].key, 4u);
    EXPECT_EQ(out[3].key, 8u);
}

TEST(Selection, SelectKth) {
    std::vector<std::uint64_t> v = {9, 3, 7, 1, 5};
    EXPECT_EQ(select_kth(v, 1), 1u);
    EXPECT_EQ(select_kth(v, 3), 5u);
    EXPECT_EQ(select_kth(v, 5), 9u);
    EXPECT_THROW(select_kth(v, 0), std::invalid_argument);
    EXPECT_THROW(select_kth(v, 6), std::invalid_argument);
}

TEST(Selection, MatchesSortOnRandomInputs) {
    Xoshiro256 rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(200);
        std::vector<std::uint64_t> v(n);
        for (auto& x : v) x = rng.below(50); // duplicates likely
        std::vector<std::uint64_t> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t k = 1 + rng.below(n);
        EXPECT_EQ(select_kth(v, k), sorted[k - 1]);
    }
}

TEST(Selection, PaperMedianConvention) {
    // Footnote 3: the median is the ceil(n/2)-th *smallest*, not the
    // statistics convention.
    std::vector<std::uint64_t> even = {1, 2, 3, 4};
    EXPECT_EQ(paper_median(even), 2u); // ceil(4/2)=2nd smallest
    std::vector<std::uint64_t> odd = {5, 1, 9};
    EXPECT_EQ(paper_median(odd), 5u);
    std::vector<std::uint64_t> one = {42};
    EXPECT_EQ(paper_median(one), 42u);
}

TEST(Selection, MultiSelectMatchesSortedRanks) {
    Xoshiro256 rng(31);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 5 + rng.below(500);
        std::vector<Record> recs(n);
        for (auto& r : recs) r.key = rng.below(1000); // duplicates likely
        std::vector<Record> sorted = recs;
        std::sort(sorted.begin(), sorted.end(), KeyLess{});
        // random strictly increasing ranks
        const std::size_t k = 1 + rng.below(std::min<std::size_t>(n, 8));
        std::set<std::uint64_t> rank_set;
        while (rank_set.size() < k) rank_set.insert(1 + rng.below(n));
        std::vector<std::uint64_t> ranks(rank_set.begin(), rank_set.end());
        std::vector<Record> scratch = recs;
        auto keys = multi_select_keys(scratch, ranks);
        ASSERT_EQ(keys.size(), ranks.size());
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            EXPECT_EQ(keys[i], sorted[ranks[i] - 1].key) << "trial " << trial;
        }
    }
}

TEST(Selection, MultiSelectValidation) {
    std::vector<Record> recs(10);
    std::vector<std::uint64_t> bad_order = {5, 3};
    EXPECT_THROW(multi_select_keys(recs, bad_order), std::invalid_argument);
    std::vector<std::uint64_t> out_of_range = {11};
    EXPECT_THROW(multi_select_keys(recs, out_of_range), std::invalid_argument);
    std::vector<std::uint64_t> zero = {0};
    EXPECT_THROW(multi_select_keys(recs, zero), std::invalid_argument);
    std::vector<std::uint64_t> empty;
    EXPECT_TRUE(multi_select_keys(recs, empty).empty());
}

TEST(Selection, MultiSelectIsLinearish) {
    // O(n log k) comparisons: for k = 8 this is far below n log n.
    WorkMeter meter;
    std::vector<Record> recs(20000);
    Xoshiro256 rng(7);
    for (auto& r : recs) r.key = rng();
    std::vector<std::uint64_t> ranks = {2500, 5000, 7500, 10000, 12500, 15000, 17500, 20000};
    multi_select_keys(recs, ranks, &meter);
    EXPECT_LT(meter.comparisons(), 20000u * 16u); // << n log2 n ~ 14.3 n... but well under sort+const
}

TEST(Selection, CountsWork) {
    WorkMeter meter;
    std::vector<std::uint64_t> v(500);
    Xoshiro256 rng(5);
    for (auto& x : v) x = rng();
    select_kth(v, 250, &meter);
    EXPECT_GT(meter.ops(), 0u);
    // Linear-time selection: work should be O(n), well under n log^2 n.
    EXPECT_LT(meter.ops(), 500u * 90u);
}

class ParallelSortTest : public ::testing::TestWithParam<std::tuple<Workload, std::size_t, int>> {
};

TEST_P(ParallelSortTest, MergeSortSortsEverything) {
    auto [w, n, threads] = GetParam();
    Executor exec(static_cast<std::size_t>(threads > 1 ? threads - 1 : 1));
    Parallel pool(static_cast<std::size_t>(threads), &exec);
    auto in = generate(w, n, 123);
    auto data = in;
    WorkMeter meter;
    PramCost cost(static_cast<std::uint64_t>(threads));
    parallel_merge_sort(data, pool, &meter, &cost);
    EXPECT_TRUE(is_sorted_permutation_of(in, data)) << to_string(w) << " n=" << n;
    if (n > 1) {
        EXPECT_GT(meter.ops(), 0u);
        EXPECT_GT(cost.steps(), 0u);
    }
}

TEST_P(ParallelSortTest, RadixSortSortsEverything) {
    auto [w, n, threads] = GetParam();
    Executor exec(static_cast<std::size_t>(threads > 1 ? threads - 1 : 1));
    Parallel pool(static_cast<std::size_t>(threads), &exec);
    auto in = generate(w, n, 321);
    auto data = in;
    parallel_radix_sort(data, pool);
    EXPECT_TRUE(is_sorted_permutation_of(in, data)) << to_string(w) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortTest,
    ::testing::Combine(::testing::Values(Workload::kUniform, Workload::kSorted,
                                         Workload::kReverse, Workload::kDuplicateHeavy,
                                         Workload::kOrganPipe, Workload::kAllEqual),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{17}, std::size_t{1000}),
                       ::testing::Values(1, 4)));

TEST(ParallelSort, MergeSortIsStableOnKeys) {
    // Equal keys keep their input order (payload ascending given our
    // generator assigns payload = index).
    std::vector<Record> data(100);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = {i % 5, i};
    Executor exec(3);
    Parallel pool(4, &exec);
    parallel_merge_sort(data, pool);
    for (std::size_t i = 1; i < data.size(); ++i) {
        if (data[i].key == data[i - 1].key) {
            EXPECT_LT(data[i - 1].payload, data[i].payload);
        }
    }
}

TEST(ParallelSort, BinaryMerge) {
    std::vector<Record> a = {{1, 0}, {4, 0}, {9, 0}};
    std::vector<Record> b = {{2, 0}, {3, 0}, {10, 0}};
    std::vector<Record> out(6);
    binary_merge(a, b, out);
    EXPECT_TRUE(is_sorted_by_key(out));
    EXPECT_THROW(binary_merge(a, b, std::span<Record>(out.data(), 5)), std::invalid_argument);
}

TEST(ParallelSort, MultiwayMerge) {
    std::vector<std::vector<Record>> runs_data;
    Xoshiro256 rng(9);
    std::vector<Record> all;
    for (int r = 0; r < 7; ++r) {
        std::vector<Record> run(20 + rng.below(30));
        for (auto& rec : run) rec = {rng.below(1000), 0};
        std::sort(run.begin(), run.end(), KeyLess{});
        all.insert(all.end(), run.begin(), run.end());
        runs_data.push_back(std::move(run));
    }
    std::vector<std::span<const Record>> runs;
    for (const auto& r : runs_data) runs.emplace_back(r);
    std::vector<Record> out(all.size());
    WorkMeter meter;
    multiway_merge(runs, out, &meter);
    EXPECT_TRUE(is_sorted_by_key(out));
    std::sort(all.begin(), all.end(), KeyLess{});
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(out[i].key, all[i].key);
    EXPECT_GT(meter.comparisons(), 0u);
}

TEST(ParallelSort, MultiwayMergeEdgeCases) {
    std::vector<std::span<const Record>> empty_runs;
    std::vector<Record> out;
    multiway_merge(empty_runs, out); // no-op
    std::vector<Record> single = {{3, 0}, {5, 0}};
    std::vector<std::span<const Record>> one_run = {std::span<const Record>(single)};
    out.resize(2);
    multiway_merge(one_run, out);
    EXPECT_EQ(out[0].key, 3u);
}

TEST(ParallelSort, BucketOf) {
    std::vector<Record> recs = {{0, 0}, {5, 0}, {10, 0}, {15, 0}, {20, 0}};
    std::vector<std::uint64_t> pivots = {5, 15};
    auto idx = bucket_of(recs, pivots);
    // upper_bound semantics: key < 5 -> 0, 5 <= key < 15 -> 1, >= 15 -> 2.
    EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1, 1, 2, 2}));
}

// ---- Kernel equivalence: the radix kernels against sort-and-index and
// std::stable_sort references, and the model charges pinned to fixed
// numbers so a physical kernel change cannot move them. The pinned
// numbers were recorded from the comparison kernels the radix kernels
// replaced (nth_element selection, stable_sort + merge cascade, full-key
// radix). ----

std::vector<std::uint64_t> reference_select(std::span<const Record> records,
                                            std::span<const std::uint64_t> ranks) {
    std::vector<std::uint64_t> keys;
    keys.reserve(records.size());
    for (const Record& r : records) keys.push_back(r.key);
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint64_t> out;
    for (std::uint64_t r : ranks) out.push_back(keys[r - 1]);
    return out;
}

/// Centered stride ranks, as the pivot pass requests them, plus 1 and n.
std::vector<std::uint64_t> probe_ranks(std::size_t n, std::size_t stride) {
    std::set<std::uint64_t> s = {1, n};
    for (std::uint64_t r = (stride + 1) / 2; r <= n; r += stride) s.insert(r);
    return {s.begin(), s.end()};
}

void expect_select_matches(std::span<const Record> records, std::span<const std::uint64_t> ranks,
                           const std::string& what) {
    const auto expected = reference_select(records, ranks);
    EXPECT_EQ(multi_select_keys(records, ranks), expected) << what;
    Executor exec(3);
    EXPECT_EQ(multi_select_keys(records, ranks, Parallel(4, &exec)), expected) << what;
}

std::vector<Record> from_keys(const std::vector<std::uint64_t>& keys) {
    std::vector<Record> recs(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) recs[i] = {keys[i], i};
    return recs;
}

TEST(SelectionKernel, MatchesSortAndIndexOnEveryWorkload) {
    for (Workload w : all_workloads()) {
        for (std::size_t n : {std::size_t{3000}, std::size_t{70000}}) {
            const auto recs = generate(w, n, 17);
            expect_select_matches(recs, probe_ranks(n, 997), to_string(w) + " n=" + std::to_string(n));
        }
    }
}

TEST(SelectionKernel, MatchesSortAndIndexOnHandMadeKeySets) {
    Xoshiro256 rng(2024);
    const std::size_t n = 5000;
    std::vector<std::uint64_t> keys(n);

    std::fill(keys.begin(), keys.end(), 0xABCDEF0123456789ull);
    expect_select_matches(from_keys(keys), probe_ranks(n, 101), "all equal");

    for (auto& k : keys) k = rng.below(2) == 0 ? 5 : 0xFFFF'FFFF'FFFF'FFF0ull;
    expect_select_matches(from_keys(keys), probe_ranks(n, 101), "two values");

    for (auto& k : keys) k = (rng.below(2) << 63) | 0x1234;
    expect_select_matches(from_keys(keys), probe_ranks(n, 101), "bit 63 only");

    for (auto& k : keys) k = 0x7777'0000'0000'0000ull | rng.below(2);
    expect_select_matches(from_keys(keys), probe_ranks(n, 101), "bit 0 only");

    // 2^11 + 1 distinct keys that share the top digit of the varying bits
    // (one far-away key sets the highest varying bit to 63).
    std::vector<std::uint64_t> deep;
    for (std::uint64_t i = 0; i <= 2048; ++i) deep.push_back(i * 3 + 1);
    deep.push_back(~std::uint64_t{0});
    std::shuffle(deep.begin(), deep.end(), std::mt19937_64(5));
    std::vector<std::uint64_t> all_ranks(deep.size());
    std::iota(all_ranks.begin(), all_ranks.end(), 1);
    expect_select_matches(from_keys(deep), all_ranks, "deep digit");
}

TEST(SelectionKernel, MatchesSortAndIndexAcrossSizes) {
    Xoshiro256 rng(99);
    for (std::size_t n : {1u, 2u, 95u, 96u, 97u, 4095u, 4097u, 65535u, 65537u}) {
        std::vector<std::uint64_t> keys(n);
        for (auto& k : keys) k = rng();
        std::vector<std::uint64_t> ranks;
        if (n <= 97) {
            ranks.resize(n);
            std::iota(ranks.begin(), ranks.end(), 1);
        } else {
            ranks = probe_ranks(n, 255);
        }
        expect_select_matches(from_keys(keys), ranks, "n=" + std::to_string(n));
        for (auto& k : keys) k = rng.below(40); // and with heavy duplicates
        expect_select_matches(from_keys(keys), ranks, "dup n=" + std::to_string(n));
    }
}

TEST(SelectionKernel, MatchesSortAndIndexOnFewDistinctKeys) {
    // Inputs whose digit buckets hold one key each: every rank lands in an
    // all-equal bucket, answered without a gather.
    Xoshiro256 rng(314);
    for (std::size_t n : {std::size_t{5000}, std::size_t{1} << 17}) {
        std::vector<std::uint64_t> keys(n, 0x0123'4567'89AB'CDEFull);
        expect_select_matches(from_keys(keys), probe_ranks(n, 97), "all equal");
        for (auto& k : keys) k = rng.below(2) == 0 ? 11 : 0x8000'0000'0000'0011ull;
        expect_select_matches(from_keys(keys), probe_ranks(n, 97), "two keys");
        std::vector<std::uint64_t> sixteen(16);
        for (auto& k : sixteen) k = rng();
        for (auto& k : keys) k = sixteen[rng.below(16)];
        expect_select_matches(from_keys(keys), probe_ranks(n, 97), "16 keys");
        // 16 keys, two pairs of which share a top digit: their buckets are
        // not all-equal and are gathered next to the all-equal ones.
        sixteen[1] = sixteen[0] + 1;
        sixteen[3] = sixteen[2] ^ 0x10;
        for (auto& k : keys) k = sixteen[rng.below(16)];
        expect_select_matches(from_keys(keys), probe_ranks(n, 97), "16 keys, shared digits");
    }
}

TEST(PivotProbe, MatchesStdBoundsForEveryPivotCount) {
    Xoshiro256 rng(7);
    for (std::size_t count = 0; count <= 130; ++count) {
        for (bool dups : {false, true}) {
            std::vector<std::uint64_t> pivots(count);
            for (auto& p : pivots) p = dups ? rng.below(count / 2 + 1) * 1000 : rng();
            std::sort(pivots.begin(), pivots.end());
            std::vector<std::uint64_t> probes = {0, 1, ~std::uint64_t{0}, ~std::uint64_t{0} - 1};
            for (std::uint64_t p : pivots) {
                probes.insert(probes.end(), {p, p - 1, p + 1});
            }
            for (int i = 0; i < 16; ++i) probes.push_back(rng());
            while (probes.size() % 8 != 0) probes.push_back(rng());
            for (std::size_t i = 0; i < probes.size(); i += 8) {
                std::uint64_t batch[8];
                std::uint32_t got[8];
                std::copy_n(probes.begin() + static_cast<std::ptrdiff_t>(i), 8, batch);
                pivot_lower_bound_batch(pivots, batch, got);
                for (std::size_t j = 0; j < 8; ++j) {
                    const std::uint64_t key = batch[j];
                    const auto lower = static_cast<std::uint32_t>(
                        std::lower_bound(pivots.begin(), pivots.end(), key) - pivots.begin());
                    const auto upper = static_cast<std::uint32_t>(
                        std::upper_bound(pivots.begin(), pivots.end(), key) - pivots.begin());
                    ASSERT_EQ(pivot_lower_bound(pivots, key), lower) << count << " " << key;
                    ASSERT_EQ(pivot_upper_bound(pivots, key), upper) << count << " " << key;
                    ASSERT_EQ(got[j], lower) << count << " " << key;
                }
            }
        }
    }
}

/// Payload = input index, so equal keys witness stability.
std::vector<Record> indexed(std::vector<Record> recs) {
    for (std::size_t i = 0; i < recs.size(); ++i) recs[i].payload = i;
    return recs;
}

void expect_sorts_stably(const std::vector<Record>& in, const std::string& what) {
    std::vector<Record> expected = in;
    std::stable_sort(expected.begin(), expected.end(), KeyLess{});
    Executor exec(3);
    for (std::size_t width : {1u, 2u, 4u}) {
        const Parallel pool(width, &exec);
        std::vector<Record> merge = in, radix = in;
        parallel_merge_sort(merge, pool);
        parallel_radix_sort(radix, pool);
        EXPECT_TRUE(merge == expected) << what << " merge width=" << width;
        EXPECT_TRUE(radix == expected) << what << " radix width=" << width;
    }
}

TEST(SortKernel, ByteIdenticalToStableSortOnEveryWorkload) {
    for (Workload w : all_workloads()) {
        for (std::size_t n : {0u, 1u, 2u, 3u, 1000u, 70000u}) {
            expect_sorts_stably(indexed(generate(w, n, 41)),
                                to_string(w) + " n=" + std::to_string(n));
        }
    }
}

TEST(SortKernel, ByteIdenticalToStableSortOnHandMadeKeySets) {
    Xoshiro256 rng(8);
    for (std::size_t n : {500u, 20000u, 70000u}) {
        std::vector<Record> recs(n);
        for (auto& r : recs) r.key = (rng.below(2) << 63) | 0x55;
        expect_sorts_stably(indexed(recs), "bit 63 only");
        for (auto& r : recs) r.key = 0x4000'0000'0000'0000ull | rng.below(2);
        expect_sorts_stably(indexed(recs), "bit 0 only");
        const std::uint64_t base = rng();
        for (auto& r : recs) r.key = base + rng.below(1u << 20);
        expect_sorts_stably(indexed(recs), "narrow range");
        for (auto& r : recs) r.key = rng.below(3) << 40;
        expect_sorts_stably(indexed(recs), "three values, one varying digit");
    }
}

struct Charges {
    std::uint64_t comparisons = 0;
    std::uint64_t moves = 0;
    std::uint64_t steps = 0;
};

TEST(KernelCharges, MultiSelectChargesArePinned) {
    auto uniform = generate(Workload::kUniform, 50000, 3);
    auto dups = generate(Workload::kDuplicateHeavy, 50000, 3);
    const auto ranks = probe_ranks(50000, 1250);
    Executor exec(3);
    for (std::size_t width : {1u, 4u}) {
        WorkMeter a, b;
        multi_select_keys(uniform, ranks, Parallel(width, &exec), &a);
        multi_select_keys(dups, ranks, Parallel(width, &exec), &b);
        EXPECT_EQ(a.comparisons(), 551176u) << "width=" << width;
        EXPECT_EQ(a.moves(), 137776u) << "width=" << width;
        EXPECT_EQ(b.comparisons(), 551176u) << "width=" << width;
        EXPECT_EQ(b.moves(), 137776u) << "width=" << width;
    }
    WorkMeter serial;
    multi_select_keys(uniform, ranks, &serial);
    EXPECT_EQ(serial.comparisons(), 551176u);
    EXPECT_EQ(serial.moves(), 137776u);
}

Charges sort_charges(bool radix, std::size_t width) {
    auto recs = generate(Workload::kZipf, 30011, 5);
    Executor exec(3);
    const Parallel pool(width, &exec);
    WorkMeter meter;
    PramCost cost(width);
    if (radix) {
        parallel_radix_sort(recs, pool, &meter, &cost);
    } else {
        parallel_merge_sort(recs, pool, &meter, &cost);
    }
    return {meter.comparisons(), meter.moves(), cost.steps()};
}

TEST(KernelCharges, MergeSortChargesArePinned) {
    const Charges w1 = sort_charges(false, 1);
    EXPECT_EQ(w1.comparisons, 450165u);
    EXPECT_EQ(w1.moves, 0u);
    EXPECT_EQ(w1.steps, 450166u);
    const Charges w4 = sort_charges(false, 4);
    EXPECT_EQ(w4.comparisons, 450126u);
    EXPECT_EQ(w4.moves, 60022u);
    EXPECT_EQ(w4.steps, 142560u);
}

TEST(KernelCharges, RadixSortChargesArePinned) {
    const Charges w1 = sort_charges(true, 1);
    EXPECT_EQ(w1.comparisons, 0u);
    EXPECT_EQ(w1.moves, 360132u);
    EXPECT_EQ(w1.steps, 360138u);
    const Charges w4 = sort_charges(true, 4);
    EXPECT_EQ(w4.comparisons, 0u);
    EXPECT_EQ(w4.moves, 360132u);
    EXPECT_EQ(w4.steps, 90048u);
}

TEST(PramCost, ChargesMatchModel) {
    PramCost erew(8, PramKind::kErew);
    erew.charge_parallel_work(80);
    EXPECT_EQ(erew.steps(), 10u);
    erew.charge_collective();
    EXPECT_EQ(erew.steps(), 13u); // + ceil(log2 8) = 3
    PramCost crcw(8, PramKind::kCrcw);
    crcw.charge_collective();
    EXPECT_EQ(crcw.steps(), 1u);
}

TEST(WorkMeter, PramTimeFormula) {
    WorkMeter m;
    m.add_comparisons(700);
    m.add_moves(300);
    m.add_collectives(10);
    // ops/P + collectives * log2(P): 1000/4 + 10*2 = 270.
    EXPECT_DOUBLE_EQ(m.pram_time(4), 270.0);
    m.reset();
    EXPECT_EQ(m.ops(), 0u);
}

TEST(WorkMeter, CountingLessCounts) {
    WorkMeter m;
    CountingLess<KeyLess> less(KeyLess{}, &m);
    Record a{1, 0}, b{2, 0};
    EXPECT_TRUE(less(a, b));
    EXPECT_FALSE(less(b, a));
    EXPECT_EQ(m.comparisons(), 2u);
}

} // namespace
} // namespace balsort
