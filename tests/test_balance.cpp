// Tests for src/core/balance: the Balance/Rebalance/Rearrange machinery —
// Invariants 1-2 per track, Theorem 4's ~2x bucket-read bound, defer
// policies, matching strategies, aux rules, and record conservation.
#include <gtest/gtest.h>

#include <memory>

#include "core/balance.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

struct BalanceRun {
    std::vector<BucketOutput> buckets;
    BalanceStats stats;
    IoStats io;
};

BalanceRun run_balance(std::vector<Record> recs, std::uint32_t d, std::uint32_t dv,
                       std::uint32_t b, std::uint64_t m, std::uint32_t s_target,
                       BalanceOptions opt) {
    DiskArray disks(d, b);
    VirtualDisks vd(disks, dv);
    Parallel pool(2);
    BalanceRun out;
    VectorSource src_for_pivots(recs);
    auto pivots = compute_pivots_sampling(src_for_pivots, recs.size(), m, s_target, pool);
    VectorSource src(recs);
    opt.check_invariants = true; // hard-verify Invariants 1-2 on every track
    const IoStats before = disks.stats();
    out.buckets = balance_pass(src, pivots, vd, m, opt, pool, nullptr, nullptr, &out.stats);
    out.io = disks.stats() - before;
    return out;
}

/// Read every bucket back (via the retained arena disks is awkward; we
/// instead verify conservation on counts and balance on the metadata).
std::uint64_t total_records(const std::vector<BucketOutput>& buckets) {
    std::uint64_t n = 0;
    for (const auto& b : buckets) n += b.run.n_records;
    return n;
}

class BalanceWorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(BalanceWorkloadTest, InvariantsAndConservation) {
    const Workload w = GetParam();
    auto recs = generate(w, 6000, 21);
    auto r = run_balance(recs, /*d=*/8, /*dv=*/4, /*b=*/8, /*m=*/512, /*s=*/4,
                         BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), recs.size()) << to_string(w);
    EXPECT_TRUE(r.stats.invariant1_held);
    EXPECT_TRUE(r.stats.invariant2_held);
    EXPECT_GT(r.stats.tracks, 0u);
}

std::string test_safe(std::string s) {
    for (char& c : s) {
        if (c == '-') c = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BalanceWorkloadTest,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto& pinfo) { return test_safe(to_string(pinfo.param)); });

TEST(Balance, Theorem4BucketReadBound) {
    // Every bucket with at least one full round of virtual blocks reads in
    // at most ~2x the optimal number of steps.
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf,
                       Workload::kSorted}) {
        auto recs = generate(w, 20000, 33);
        auto r = run_balance(recs, 8, 4, 8, 1024, 4, BalanceOptions{});
        for (std::size_t b = 0; b < r.buckets.size(); ++b) {
            const auto& run = r.buckets[b].run;
            if (run.entries.size() < 8) continue; // rounding regime
            const double ratio = static_cast<double>(run.read_steps(4)) /
                                 static_cast<double>(run.optimal_read_steps(4));
            EXPECT_LE(ratio, 2.25) << to_string(w) << " bucket " << b;
        }
    }
}

TEST(Balance, BucketKeyRangesAreDisjointAndOrdered) {
    auto recs = generate(Workload::kUniform, 8000, 5);
    auto r = run_balance(recs, 4, 2, 4, 512, 4, BalanceOptions{});
    std::uint64_t last_max = 0;
    bool first = true;
    for (const auto& b : r.buckets) {
        if (b.run.n_records == 0) continue;
        if (!first) {
            EXPECT_GT(b.min_key, last_max);
        }
        last_max = b.max_key;
        first = false;
        EXPECT_LE(b.min_key, b.max_key);
    }
}

TEST(Balance, EqualClassBucketsAreSingleKey) {
    auto recs = generate(Workload::kDuplicateHeavy, 5000, 8);
    auto r = run_balance(recs, 4, 2, 4, 512, 8, BalanceOptions{});
    for (const auto& b : r.buckets) {
        if (b.is_equal_class && b.run.n_records > 0) {
            EXPECT_EQ(b.min_key, b.max_key);
        }
    }
}

TEST(Balance, MatchingStrategiesAllMaintainInvariants) {
    auto recs = generate(Workload::kGaussian, 10000, 13);
    for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                       MatchStrategy::kDerandomized}) {
        BalanceOptions opt;
        opt.matching = strat;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_EQ(total_records(r.buckets), recs.size()) << to_string(strat);
        EXPECT_TRUE(r.stats.invariant2_held) << to_string(strat);
    }
}

TEST(Balance, DeferPoliciesBothConverge) {
    auto recs = generate(Workload::kZipf, 12000, 17);
    for (auto defer : {DeferPolicy::kPaperDefer, DeferPolicy::kRebalanceAll}) {
        BalanceOptions opt;
        opt.defer = defer;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_EQ(total_records(r.buckets), recs.size());
        EXPECT_TRUE(r.stats.invariant2_held);
        if (defer == DeferPolicy::kRebalanceAll) {
            // Greedy matching + rebalance-all places everything: nothing
            // is ever deferred.
            EXPECT_EQ(r.stats.deferred_blocks, 0u);
        }
    }
}

TEST(Balance, ArgAuxRuleWorksToo) {
    auto recs = generate(Workload::kUniform, 8000, 23);
    BalanceOptions opt;
    opt.aux = AuxRule::kArgTwiceAvg;
    auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
    EXPECT_EQ(total_records(r.buckets), recs.size());
    // Theorem-4-style bound under the [Arg] rule: factor ~2 of average.
    for (const auto& b : r.buckets) {
        if (b.run.entries.size() < 8) continue;
        const double ratio = static_cast<double>(b.run.read_steps(4)) /
                             static_cast<double>(b.run.optimal_read_steps(4));
        EXPECT_LE(ratio, 2.5);
    }
}

TEST(Balance, LeastLoadedAssignmentReducesMatching) {
    auto recs = generate(Workload::kGaussian, 16000, 29);
    BalanceOptions cyclic;
    cyclic.assign = AssignPolicy::kCyclic;
    auto rc = run_balance(recs, 8, 4, 4, 512, 4, cyclic);
    BalanceOptions least;
    least.assign = AssignPolicy::kLeastLoaded;
    auto rl = run_balance(recs, 8, 4, 4, 512, 4, least);
    EXPECT_EQ(total_records(rl.buckets), recs.size());
    // Least-loaded placement should need at most as much rebalancing.
    EXPECT_LE(rl.stats.matched_blocks + rl.stats.deferred_blocks,
              rc.stats.matched_blocks + rc.stats.deferred_blocks + 8);
}

TEST(Balance, RearrangeRoundsBounded) {
    // Algorithm 5's loop "will thus execute at most twice" per track under
    // the paper defer policy with a quarter-guarantee matcher; allow a
    // small safety margin over the paper's 2 for the deterministic
    // engines' conflict patterns.
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf}) {
        auto recs = generate(w, 10000, 31);
        BalanceOptions opt;
        opt.defer = DeferPolicy::kPaperDefer;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_LE(r.stats.max_rounds_per_track, 3u) << to_string(w);
    }
}

TEST(Balance, WritesOneVBlockPerVdiskPerStep) {
    // I/O accounting: block writes / write steps <= D' per step by the
    // model; with healthy tracks it should also be close to D' on average.
    auto recs = generate(Workload::kUniform, 20000, 37);
    auto r = run_balance(recs, 8, 4, 4, 1024, 4, BalanceOptions{});
    ASSERT_GT(r.io.write_steps, 0u);
    const double blocks_per_step = static_cast<double>(r.io.blocks_written) /
                                   static_cast<double>(r.io.write_steps);
    EXPECT_LE(blocks_per_step, 8.0 + 1e-9); // D physical blocks per step max
    EXPECT_GE(blocks_per_step, 2.0);        // decent utilization
}

TEST(Balance, TinyInputsAndEdgeCases) {
    // Fewer records than one virtual block; single bucket.
    auto recs = generate(Workload::kUniform, 3, 41);
    auto r = run_balance(recs, 4, 2, 4, 64, 2, BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), 3u);
    // Empty input.
    auto r0 = run_balance({}, 4, 2, 4, 64, 2, BalanceOptions{});
    EXPECT_EQ(total_records(r0.buckets), 0u);
    EXPECT_EQ(r0.stats.tracks, 0u);
}

TEST(Balance, SingleVirtualDisk) {
    auto recs = generate(Workload::kUniform, 2000, 43);
    auto r = run_balance(recs, 4, 1, 4, 256, 4, BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), recs.size());
    // With one virtual disk the auxiliary matrix is identically zero.
    EXPECT_EQ(r.stats.matched_blocks, 0u);
    EXPECT_EQ(r.stats.deferred_blocks, 0u);
}

TEST(Balance, MemorySmallerThanVBlockRejected) {
    auto recs = generate(Workload::kUniform, 100, 47);
    EXPECT_THROW(run_balance(recs, 8, 1, 8, 32, 2, BalanceOptions{}),
                 std::invalid_argument); // vblock = 64 > m = 32
}


// ---------------------------------------------------------------------------
// balance_pass goldens: everything a pass produces — every bucket's VRun
// entries (virtual block ops and valid counts), key range, sketch pivots
// and records, the BalanceTimeline JSON, the stats and the step-observer
// sequence — folded into one FNV-1a digest per configuration. Captured
// from the push_back scatter, so the counting-sort partition must
// reproduce it byte for byte.
// ---------------------------------------------------------------------------

struct PassCase {
    const char* name;
    Workload w;
    std::size_t n;
    std::uint32_t d, dv, b;
    std::uint64_t m;
    std::uint32_t s;
    BalanceOptions opt;
    std::uint32_t sketch_s = 0;
    std::size_t lanes = 2; ///< > 2 runs on an Executor with lanes-1 workers
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

struct PassDigest {
    std::uint64_t digest = kFnvOffset;
    BalanceStats stats;
};

PassDigest balance_pass_digest(const PassCase& c) {
    auto recs = generate(c.w, c.n, 77);
    DiskArray disks(c.d, c.b);
    VirtualDisks vd(disks, c.dv);
    std::unique_ptr<Executor> exec;
    if (c.lanes > 2) exec = std::make_unique<Executor>(c.lanes - 1);
    Parallel pool(c.lanes, exec.get());
    VectorSource pivot_src(recs);
    const PivotSet pivots = compute_pivots_sampling(pivot_src, recs.size(), c.m, c.s, pool);
    std::uint64_t step_hash = kFnvOffset;
    disks.set_step_observer([&step_hash](bool is_read, std::span<const BlockOp> ops) {
        step_hash = fnv(step_hash, is_read ? 1 : 2);
        step_hash = fnv(step_hash, ops.size());
        for (const auto& op : ops) {
            step_hash = fnv(fnv(step_hash, op.disk), op.block);
        }
    });
    BalanceTimeline timeline;
    BalanceOptions opt = c.opt;
    opt.check_invariants = true;
    opt.timeline = &timeline;
    VectorSource src(recs);
    PassDigest out;
    auto buckets = balance_pass(src, pivots, vd, c.m, opt, pool, nullptr, nullptr, &out.stats,
                                c.sketch_s);
    std::uint64_t h = fnv(kFnvOffset, step_hash);
    for (const char ch : timeline.to_json()) h = fnv(h, static_cast<unsigned char>(ch));
    const BalanceStats& st = out.stats;
    for (std::uint64_t x : {st.tracks, st.direct_blocks, st.matched_blocks, st.deferred_blocks,
                            st.rearrange_rounds, st.max_rounds_per_track, st.match_draws}) {
        h = fnv(h, x);
    }
    h = fnv(fnv(h, st.invariant1_held), st.invariant2_held);
    for (const BucketOutput& bo : buckets) {
        h = fnv(fnv(fnv(h, bo.is_equal_class), bo.min_key), bo.max_key);
        h = fnv(fnv(h, bo.run.n_records), bo.run.entries.size());
        for (const VRun::Entry& e : bo.run.entries) {
            h = fnv(fnv(h, e.vblock.vdisk), e.count);
            for (const BlockOp& op : e.vblock.ops) h = fnv(fnv(h, op.disk), op.block);
        }
        h = fnv(h, bo.has_sketch_pivots);
        for (std::uint64_t k : bo.sketch_pivots.keys) h = fnv(h, k);
    }
    disks.set_step_observer(nullptr);
    for (const BucketOutput& bo : buckets) {
        std::vector<Record> back(bo.run.n_records);
        VRunSource reader(vd, bo.run);
        EXPECT_EQ(reader.read(back), bo.run.n_records) << c.name;
        for (const Record& r : back) h = fnv(fnv(h, r.key), r.payload);
    }
    out.digest = h;
    return out;
}

BalanceOptions with_policies(AssignPolicy assign, DeferPolicy defer) {
    BalanceOptions opt;
    opt.assign = assign;
    opt.defer = defer;
    return opt;
}

TEST(BalancePassGolden, MatchesCapturedDigests) {
    const BalanceOptions base;
    const std::vector<std::pair<PassCase, std::uint64_t>> cases = {
        // V = 16, memoryloads of 500 records end mid-block.
        {{"uniform_cyclic", Workload::kUniform, 6000, 8, 4, 4, 500, 4, base}, 14051591178040602131ull},
        {{"single_vdisk", Workload::kUniform, 3000, 4, 1, 4, 250, 4, base}, 14142689430473587087ull},
        {{"least_loaded", Workload::kGaussian, 6000, 8, 4, 4, 500, 4,
          with_policies(AssignPolicy::kLeastLoaded, DeferPolicy::kPaperDefer)},
         11376546159916163382ull},
        {{"min_cost", Workload::kZipf, 6000, 8, 4, 4, 500, 4,
          with_policies(AssignPolicy::kMinCostMatching, DeferPolicy::kPaperDefer)},
         10776699739477584785ull},
        {{"rebalance_all", Workload::kZipf, 6000, 8, 4, 4, 500, 4,
          with_policies(AssignPolicy::kCyclic, DeferPolicy::kRebalanceAll)},
         12043714879431218096ull},
        {{"sketch", Workload::kUniform, 6000, 8, 4, 4, 500, 4, base, 4}, 17502863200748761036ull},
        {{"dup_heavy", Workload::kDuplicateHeavy, 6000, 8, 4, 4, 500, 8, base}, 1593799825706039896ull},
        // V = 4 on 8 virtual disks and 10 blocks per memoryload: deferred
        // blocks are still queued when the next memoryload arrives.
        {{"deferred_across_loads", Workload::kGaussian, 6000, 8, 8, 4, 42, 8, base}, 10475371062986846557ull},
        // Memoryloads above the 2^16-record cutoff run on four lanes.
        {{"lanes_uniform", Workload::kUniform, 300000, 8, 4, 16, 131112, 8, base, 4, 4}, 4229891720932704404ull},
        {{"lanes_dup_heavy", Workload::kDuplicateHeavy, 300000, 8, 4, 16, 131112, 8, base, 0,
          4},
         13017244265229696080ull},
    };
    for (const auto& [c, want] : cases) {
        const PassDigest got = balance_pass_digest(c);
        EXPECT_EQ(got.digest, want) << c.name;
        EXPECT_TRUE(got.stats.invariant2_held) << c.name;
    }
    // The deferral case really defers.
    EXPECT_GT(balance_pass_digest(cases[7].first).stats.deferred_blocks, 0u);
}

} // namespace
} // namespace balsort
