// Tests for src/core/partition and Algorithm 2: pivot quality (bucket-size
// bounds), equal-class bucketing, stride formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/hier_sort.hpp"
#include "core/partition.hpp"
#include "core/vrun.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(PivotSet, BucketOfSemantics) {
    PivotSet p;
    p.keys = {10, 20, 30};
    EXPECT_EQ(p.n_buckets(), 7u);
    EXPECT_EQ(p.bucket_of(5), 0u);   // (-inf, 10)
    EXPECT_EQ(p.bucket_of(10), 1u);  // == 10
    EXPECT_EQ(p.bucket_of(15), 2u);  // (10, 20)
    EXPECT_EQ(p.bucket_of(20), 3u);
    EXPECT_EQ(p.bucket_of(25), 4u);
    EXPECT_EQ(p.bucket_of(30), 5u);
    EXPECT_EQ(p.bucket_of(31), 6u);  // (30, inf)
    EXPECT_TRUE(p.is_equal_class(1));
    EXPECT_FALSE(p.is_equal_class(2));
}

TEST(PivotSet, BucketOrderMatchesKeyOrder) {
    PivotSet p;
    p.keys = {100, 200};
    Xoshiro256 rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t a = rng.below(300), b = rng.below(300);
        if (a < b) {
            EXPECT_LE(p.bucket_of(a), p.bucket_of(b));
        }
    }
}

TEST(PivotSet, ClassifyMatchesReferenceForEveryPivotCount) {
    // bucket_of and the batched classify against a std::lower_bound
    // reference, for 0-130 distinct pivots, with keys equal to a pivot,
    // next to one, 0 and UINT64_MAX, and record counts that leave a
    // remainder after the eight-key batches.
    Xoshiro256 rng(11);
    for (std::size_t count = 0; count <= 130; ++count) {
        PivotSet p;
        for (std::size_t i = 0; i < count; ++i) p.keys.push_back(rng() | 1);
        std::sort(p.keys.begin(), p.keys.end());
        p.keys.erase(std::unique(p.keys.begin(), p.keys.end()), p.keys.end());
        std::vector<Record> recs = {{0, 0}, {~std::uint64_t{0}, 0}};
        for (std::uint64_t k : p.keys) {
            recs.insert(recs.end(), {Record{k, 0}, Record{k - 1, 0}, Record{k + 1, 0}});
        }
        for (std::size_t i = 0; i < 13; ++i) recs.push_back({rng(), 0});
        std::vector<std::uint32_t> got(recs.size());
        p.classify(recs, got.data());
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const std::uint64_t key = recs[i].key;
            const auto at = std::lower_bound(p.keys.begin(), p.keys.end(), key);
            const std::uint32_t want = 2 * static_cast<std::uint32_t>(at - p.keys.begin()) +
                                       (at != p.keys.end() && *at == key ? 1 : 0);
            ASSERT_EQ(p.bucket_of(key), want) << count << " " << key;
            ASSERT_EQ(got[i], want) << count << " " << key;
        }
    }
}

TEST(Partition, StrideFormula) {
    // t = max(ceil(M/(8S)), 1): 8S samples per sorted memoryload,
    // independent of N.
    EXPECT_EQ(sampling_stride(1 << 20, 1 << 16, 8), (1u << 16) / 64);
    EXPECT_EQ(sampling_stride(1 << 26, 1 << 10, 4), (1u << 10) / 32);
    EXPECT_EQ(sampling_stride(100, 2, 64), 1u); // floor at 1
    EXPECT_THROW(sampling_stride(100, 10, 1), std::invalid_argument);
}

TEST(Partition, SelectFromSortedSamples) {
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 100; ++i) samples.push_back(i);
    auto p = select_pivots_from_sorted_samples(samples, 4);
    EXPECT_EQ(p.keys.size(), 3u);
    EXPECT_EQ(p.keys[0], 25u);
    EXPECT_EQ(p.keys[1], 50u);
    EXPECT_EQ(p.keys[2], 75u);
    // Dedup: constant samples yield one pivot.
    std::vector<std::uint64_t> flat(50, 7);
    auto q = select_pivots_from_sorted_samples(flat, 8);
    EXPECT_EQ(q.keys.size(), 1u);
    EXPECT_EQ(q.keys[0], 7u);
    // Unsorted input rejected.
    std::vector<std::uint64_t> bad = {3, 1};
    EXPECT_THROW(select_pivots_from_sorted_samples(bad, 2), std::invalid_argument);
}

class PivotQualityTest : public ::testing::TestWithParam<std::tuple<Workload, std::uint32_t>> {};

TEST_P(PivotQualityTest, BucketSizesWithinBound) {
    auto [w, s_target] = GetParam();
    const std::uint64_t n = 40000, m = 2048;
    Parallel pool(2);
    auto recs = generate_distinct(w, n, 7);
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, s_target, pool);
    ASSERT_FALSE(pivots.keys.empty());
    // Count bucket sizes.
    std::vector<std::uint64_t> sizes(pivots.n_buckets(), 0);
    for (const auto& r : recs) sizes[pivots.bucket_of(r.key)]++;
    const std::uint64_t bound = bucket_size_bound(n, m, s_target);
    for (std::size_t b = 0; b < sizes.size(); ++b) {
        EXPECT_LE(sizes[b], bound) << to_string(w) << " bucket " << b;
    }
    // The paper's looser guarantee 0 < N_b < 2N/S also holds for the
    // combined open+equal range around each pivot.
    EXPECT_LE(bound, 2 * n / s_target + m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PivotQualityTest,
    ::testing::Combine(::testing::Values(Workload::kUniform, Workload::kGaussian,
                                         Workload::kZipf, Workload::kSorted,
                                         Workload::kReverse, Workload::kOrganPipe),
                       ::testing::Values(2u, 4u, 8u, 16u)));

TEST(Partition, DuplicateHeavyKeysLandInEqualClasses) {
    const std::uint64_t n = 20000, m = 1024;
    Parallel pool(1);
    auto recs = generate(Workload::kDuplicateHeavy, n, 3); // 16 distinct keys
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, 8, pool);
    ASSERT_FALSE(pivots.keys.empty());
    // Every pivot key's mass sits in an equal-class bucket; open-range
    // buckets stay small even though keys repeat ~1250x each.
    std::map<std::uint32_t, std::uint64_t> open_sizes;
    for (const auto& r : recs) {
        const auto b = pivots.bucket_of(r.key);
        if (!pivots.is_equal_class(b)) open_sizes[b] += 1;
    }
    for (const auto& [b, size] : open_sizes) {
        EXPECT_LE(size, bucket_size_bound(n, m, 8)) << "open bucket " << b;
    }
}

TEST(Partition, AllEqualYieldsSingleEqualClass) {
    const std::uint64_t n = 5000, m = 512;
    Parallel pool(1);
    auto recs = generate(Workload::kAllEqual, n, 1);
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, 4, pool);
    ASSERT_EQ(pivots.keys.size(), 1u);
    for (const auto& r : recs) {
        EXPECT_TRUE(pivots.is_equal_class(pivots.bucket_of(r.key)));
    }
}

TEST(Partition, ConsumesSourceExactly) {
    const std::uint64_t n = 3000, m = 256;
    Parallel pool(1);
    auto recs = generate(Workload::kUniform, n, 5);
    VectorSource src(recs);
    (void)compute_pivots_sampling(src, n, m, 4, pool);
    EXPECT_EQ(src.remaining(), 0u);
    VectorSource src2(recs);
    EXPECT_THROW(compute_pivots_sampling(src2, n + 1, m, 4, pool), std::invalid_argument);
}

TEST(Algorithm2, BucketBoundHolds) {
    // Choose G with G log N <= N/S (the paper's condition for
    // 0 < N_b < 2N/S).
    const std::uint64_t n = 32768;
    const std::uint32_t s = 8;
    const auto logn = static_cast<std::uint64_t>(paper_log(static_cast<double>(n)));
    const std::uint32_t g = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, n / (s * logn * 2)));
    Parallel pool(2);
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kSorted,
                       Workload::kReverse}) {
        auto recs = generate_distinct(w, n, 9);
        auto pivots = algorithm2_partition_elements(recs, g, s, pool);
        ASSERT_FALSE(pivots.keys.empty()) << to_string(w);
        std::vector<std::uint64_t> sizes(pivots.n_buckets(), 0);
        for (const auto& r : recs) sizes[pivots.bucket_of(r.key)]++;
        for (std::size_t b = 0; b < sizes.size(); ++b) {
            EXPECT_LT(sizes[b], 2 * n / s + 2 * logn * g)
                << to_string(w) << " bucket " << b;
        }
    }
}

TEST(Algorithm2, InputValidation) {
    Parallel pool(1);
    std::vector<Record> recs(10);
    EXPECT_THROW(algorithm2_partition_elements(recs, 0, 4, pool), std::invalid_argument);
    EXPECT_THROW(algorithm2_partition_elements(recs, 2, 1, pool), std::invalid_argument);
    auto empty = algorithm2_partition_elements(std::span<const Record>{}, 2, 4, pool);
    EXPECT_TRUE(empty.keys.empty());
}

TEST(Partition, BucketBoundFormulaSanity) {
    // bound(n) is ~(3/2) n/S for n >> m and shrinks with larger S.
    const std::uint64_t n = 1 << 20, m = 1 << 14;
    EXPECT_LT(bucket_size_bound(n, m, 16), bucket_size_bound(n, m, 4));
    EXPECT_LE(bucket_size_bound(n, m, 4), 2 * n / 4);
}

} // namespace
} // namespace balsort
