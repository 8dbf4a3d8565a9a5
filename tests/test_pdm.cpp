// Tests for src/pdm: disks (memory & file backed), the D-disk parallel I/O
// step semantics and its model checks, batching, striping, run streaming,
// partial striping (virtual disks), and the PdmConfig formulas.
#include <gtest/gtest.h>

#include <filesystem>

#include "pdm/config.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/file_disk.hpp"
#include "pdm/mem_disk.hpp"
#include "pdm/striping.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

TEST(MemDisk, ReadBackWhatWasWritten) {
    MemDisk d(8);
    EXPECT_EQ(d.size_blocks(), 0u);
    auto blk = make_block(8, 3);
    d.write_block(2, blk); // grows with zero-filled gap
    EXPECT_EQ(d.size_blocks(), 3u);
    std::vector<Record> out(8);
    d.read_block(2, out);
    EXPECT_EQ(out, blk);
    d.read_block(0, out); // gap block is zero-filled
    EXPECT_EQ(out[0], (Record{0, 0}));
}

TEST(MemDisk, ReadingUnallocatedIsModelViolation) {
    MemDisk d(4);
    std::vector<Record> out(4);
    EXPECT_THROW(d.read_block(0, out), ModelViolation);
    std::vector<Record> small(3);
    EXPECT_THROW(d.read_block(0, small), std::invalid_argument);
}

TEST(FileDisk, RoundTripAndCleanup) {
    const std::string path = "/tmp/balsort_test_disk.bin";
    {
        FileDisk d(path, 16);
        auto blk = make_block(16, 7);
        d.write_block(5, blk);
        std::vector<Record> out(16);
        d.read_block(5, out);
        EXPECT_EQ(out, blk);
        EXPECT_TRUE(std::filesystem::exists(path));
        EXPECT_THROW(d.read_block(6, out), ModelViolation);
    }
    EXPECT_FALSE(std::filesystem::exists(path)); // unlinked on close
}

TEST(FileDisk, MatchesMemDiskBehaviour) {
    MemDisk m(4);
    FileDisk f("/tmp/balsort_parity_disk.bin", 4);
    Xoshiro256 rng(1);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t idx = rng.below(20);
        auto blk = make_block(4, rng.below(1000));
        m.write_block(idx, blk);
        f.write_block(idx, blk);
    }
    EXPECT_EQ(m.size_blocks(), f.size_blocks());
    std::vector<Record> a(4), b(4);
    for (std::uint64_t i = 0; i < m.size_blocks(); ++i) {
        m.read_block(i, a);
        f.read_block(i, b);
        EXPECT_EQ(a, b) << "block " << i;
    }
}

TEST(DiskArray, StepSemanticsEnforced) {
    DiskArray arr(4, 2);
    std::vector<Record> buf(4);
    // Two ops on the same disk in one step: the D-disk model violation.
    std::vector<BlockOp> bad = {{1, 0}, {1, 1}};
    EXPECT_THROW(arr.write_step(bad, buf), ModelViolation);
    // More ops than disks.
    std::vector<BlockOp> too_many = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}};
    std::vector<Record> buf5(10);
    EXPECT_THROW(arr.write_step(too_many, buf5), ModelViolation);
    // Nonexistent disk.
    std::vector<BlockOp> ghost = {{9, 0}};
    std::vector<Record> buf1(2);
    EXPECT_THROW(arr.write_step(ghost, buf1), std::invalid_argument);
}

TEST(DiskArray, AgvModeAllowsSameDisk) {
    DiskArray arr(4, 2, DiskBackend::kMemory, ".", Constraint::kAggarwalVitter);
    std::vector<Record> buf(4, Record{1, 1});
    std::vector<BlockOp> ops = {{1, 0}, {1, 1}};
    EXPECT_NO_THROW(arr.write_step(ops, buf));
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 2u);
}

TEST(DiskArray, StatsCountStepsAndBlocks) {
    DiskArray arr(4, 2);
    std::vector<Record> buf(6, Record{5, 5});
    std::vector<BlockOp> ops = {{0, 0}, {2, 0}, {3, 0}};
    arr.write_step(ops, buf);
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 3u);
    std::vector<Record> in(6);
    arr.read_step(ops, in);
    EXPECT_EQ(arr.stats().read_steps, 1u);
    EXPECT_EQ(arr.stats().io_steps(), 2u);
    EXPECT_EQ(in, buf);
    EXPECT_DOUBLE_EQ(arr.stats().utilization(4), 6.0 / 8.0);
}

TEST(DiskArray, BatchUsesMinimalSteps) {
    DiskArray arr(3, 2);
    // Lay down blocks: disk 0 gets 3 blocks, disks 1-2 get 1 each.
    std::vector<BlockOp> ops;
    for (std::uint64_t i = 0; i < 3; ++i) ops.push_back({0, i});
    ops.push_back({1, 0});
    ops.push_back({2, 0});
    std::vector<Record> data(ops.size() * 2);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = {i, i};
    arr.write_batch(ops, data);
    // max-per-disk = 3 -> exactly 3 write steps.
    EXPECT_EQ(arr.stats().write_steps, 3u);
    std::vector<Record> in(data.size());
    arr.read_batch(ops, in);
    EXPECT_EQ(arr.stats().read_steps, 3u);
    EXPECT_EQ(in, data);
}

TEST(DiskArray, AllocatorBumpsPerDisk) {
    DiskArray arr(2, 4);
    EXPECT_EQ(arr.allocate(0), 0u);
    EXPECT_EQ(arr.allocate(0, 3), 1u);
    EXPECT_EQ(arr.allocate(0), 4u);
    EXPECT_EQ(arr.allocate(1), 0u);
    EXPECT_EQ(arr.high_water(0), 5u);
    EXPECT_EQ(arr.high_water(1), 1u);
}

TEST(DiskArray, StepObserverSeesSteps) {
    DiskArray arr(2, 2);
    int reads = 0, writes = 0;
    arr.set_step_observer([&](bool is_read, std::span<const BlockOp> ops) {
        (is_read ? reads : writes) += static_cast<int>(ops.size());
    });
    std::vector<Record> buf(2, Record{1, 1});
    std::vector<BlockOp> op = {{0, 0}};
    arr.write_step(op, buf);
    std::vector<Record> in(2);
    arr.read_step(op, in);
    EXPECT_EQ(writes, 1);
    EXPECT_EQ(reads, 1);
}

class StripingRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> {};

TEST_P(StripingRoundTrip, WriteThenReadBack) {
    auto [d, b, n] = GetParam();
    DiskArray arr(d, b);
    auto recs = generate(Workload::kUniform, n, n + d + b);
    BlockRun run = write_striped(arr, recs);
    EXPECT_EQ(run.n_records, n);
    EXPECT_EQ(run.n_blocks(), ceil_div(n, b));
    auto out = read_run(arr, run);
    EXPECT_EQ(out, recs);
    // Striped runs read at full parallelism: steps == ceil(blocks / D).
    EXPECT_EQ(run.read_steps(d), run.optimal_read_steps(d));
}

INSTANTIATE_TEST_SUITE_P(Sweep, StripingRoundTrip,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                                            ::testing::Values(1u, 3u, 8u),
                                            ::testing::Values(std::uint64_t{0},
                                                              std::uint64_t{1},
                                                              std::uint64_t{17},
                                                              std::uint64_t{256})));

TEST(RunWriter, StripesAcrossDisksInOrder) {
    DiskArray arr(4, 2);
    auto recs = generate(Workload::kSorted, 24, 5); // 12 blocks = 3 stripes
    BlockRun run = write_striped(arr, recs);
    ASSERT_EQ(run.blocks.size(), 12u);
    for (std::size_t i = 0; i < run.blocks.size(); ++i) {
        EXPECT_EQ(run.blocks[i].disk, i % 4) << "block " << i;
    }
    // 3 full stripes -> 3 write steps.
    EXPECT_EQ(arr.stats().write_steps, 3u);

    // Ragged appends (chunks of 1, 5 and 13 records, cycling) lay out the
    // same stripes with the same steps as the one-shot write above.
    DiskArray ragged_arr(4, 2);
    RunWriter w(ragged_arr);
    const std::size_t chunks[] = {1, 5, 13};
    for (std::size_t pos = 0, k = 0; pos < recs.size(); ++k) {
        const std::size_t n = std::min(chunks[k % 3], recs.size() - pos);
        w.append(std::span<const Record>(recs).subspan(pos, n));
        pos += n;
    }
    BlockRun ragged = w.finish();
    ASSERT_EQ(ragged.blocks.size(), run.blocks.size());
    for (std::size_t i = 0; i < run.blocks.size(); ++i) {
        EXPECT_EQ(ragged.blocks[i].disk, run.blocks[i].disk) << "block " << i;
        EXPECT_EQ(ragged.blocks[i].block, run.blocks[i].block) << "block " << i;
    }
    EXPECT_EQ(ragged_arr.stats().write_steps, 3u);
    EXPECT_EQ(read_run(ragged_arr, ragged), recs);
}

TEST(RunWriter, AppendAfterFinishThrows) {
    DiskArray arr(2, 2);
    RunWriter w(arr);
    w.append(Record{1, 1});
    (void)w.finish();
    EXPECT_THROW(w.append(Record{2, 2}), std::invalid_argument);
    EXPECT_THROW(w.finish(), std::invalid_argument);
}

TEST(RunReader, ChunkedReadsAnySize) {
    DiskArray arr(3, 4);
    auto recs = generate(Workload::kUniform, 101, 77);
    BlockRun run = write_striped(arr, recs);
    for (std::uint64_t chunk : {1ull, 2ull, 5ull, 13ull, 101ull}) {
        RunReader r(arr, run);
        std::vector<Record> out;
        std::vector<Record> buf;
        while (r.remaining() > 0) {
            buf.resize(std::min<std::uint64_t>(chunk, r.remaining()));
            const auto got = r.read(buf);
            out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(got));
        }
        EXPECT_EQ(out, recs) << "chunk=" << chunk;
    }
}

TEST(VirtualDisks, DefaultCountIsDivisorNearCubeRoot) {
    EXPECT_EQ(VirtualDisks::default_virtual_count(1), 1u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(8), 2u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(64), 4u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(27), 3u);
    // Always a divisor:
    for (std::uint32_t d = 1; d <= 64; ++d) {
        EXPECT_EQ(d % VirtualDisks::default_virtual_count(d), 0u) << d;
    }
    // Exponent 1.0 means full independence (D' = D).
    EXPECT_EQ(VirtualDisks::default_virtual_count(12, 1.0), 12u);
}

TEST(VirtualDisks, RejectsNonDivisor) {
    DiskArray arr(6, 2);
    EXPECT_THROW(VirtualDisks(arr, 4), std::invalid_argument);
    EXPECT_THROW(VirtualDisks(arr, 0), std::invalid_argument);
    EXPECT_NO_THROW(VirtualDisks(arr, 3));
}

TEST(VirtualDisks, WriteTrackIsOneStepAndReadsBack) {
    DiskArray arr(8, 2);
    VirtualDisks vd(arr, 2); // group = 4, vblock = 8 records
    EXPECT_EQ(vd.group_size(), 4u);
    EXPECT_EQ(vd.vblock_records(), 8u);
    auto recs = generate(Workload::kUniform, 16, 3);
    std::vector<std::uint32_t> vds = {0, 1};
    auto vbs = vd.write_track(vds, recs);
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 8u);
    std::vector<Record> out(16);
    vd.read_vblocks(vbs, out);
    EXPECT_EQ(out, recs);
    EXPECT_EQ(arr.stats().read_steps, 1u);
}

TEST(VirtualDisks, DuplicateVdiskInTrackIsViolation) {
    DiskArray arr(4, 2);
    VirtualDisks vd(arr, 2);
    auto recs = generate(Workload::kUniform, 8, 4);
    std::vector<std::uint32_t> vds = {1, 1};
    EXPECT_THROW(vd.write_track(vds, recs), ModelViolation);
}

TEST(VirtualDisks, BatchedVblockReadsMinimalSteps) {
    DiskArray arr(4, 2);
    VirtualDisks vd(arr, 2); // group 2, vblock = 4 records
    // Write 3 vblocks on vdisk 0, 1 on vdisk 1 (4 tracks... do 3 tracks).
    std::vector<VirtualDisks::VBlock> all;
    auto recs = generate(Workload::kUniform, 4, 5);
    for (int i = 0; i < 3; ++i) {
        std::vector<std::uint32_t> vds = {0};
        auto vbs = vd.write_track(vds, recs);
        all.push_back(vbs[0]);
    }
    {
        std::vector<std::uint32_t> vds = {1};
        auto vbs = vd.write_track(vds, recs);
        all.push_back(vbs[0]);
    }
    const auto before = arr.stats().read_steps;
    std::vector<Record> out(16);
    vd.read_vblocks(all, out);
    // 3 vblocks on vdisk 0 gate the batch: 3 steps.
    EXPECT_EQ(arr.stats().read_steps - before, 3u);
}

TEST(PdmConfig, Validation) {
    PdmConfig ok{.n = 1000, .m = 64, .d = 4, .b = 8, .p = 2};
    EXPECT_NO_THROW(ok.validate());
    EXPECT_NO_THROW(ok.validate(true));
    PdmConfig big_db{.n = 1000, .m = 64, .d = 8, .b = 8, .p = 2}; // DB > M/2
    EXPECT_THROW(big_db.validate(), std::invalid_argument);
    PdmConfig bad_p{.n = 1000, .m = 64, .d = 4, .b = 8, .p = 100}; // P > M
    EXPECT_THROW(bad_p.validate(), std::invalid_argument);
    PdmConfig internal{.n = 50, .m = 64, .d = 4, .b = 8, .p = 1}; // N <= M
    EXPECT_NO_THROW(internal.validate());
    EXPECT_THROW(internal.validate(true), std::invalid_argument);
}

TEST(PdmConfig, FormulasMatchHand) {
    PdmConfig cfg{.n = 1 << 20, .m = 1 << 16, .d = 8, .b = 64, .p = 1};
    // optimal = (N/DB) * log(N/B) / log(M/B) = 2048 * 14/10.
    EXPECT_NEAR(cfg.optimal_ios(), 2048.0 * 14.0 / 10.0, 1e-6);
    EXPECT_NEAR(cfg.optimal_work(), static_cast<double>(1 << 20) * 20.0, 1e-6);
    EXPECT_EQ(cfg.blocks(), (1u << 20) / 64);
    EXPECT_EQ(cfg.memoryloads(), 16u);
    EXPECT_GT(cfg.striped_merge_ios(), 2.0 * 2048.0); // at least 2 passes
}

TEST(IoStats, Arithmetic) {
    IoStats a{10, 5, 100, 50};
    IoStats b{4, 2, 40, 20};
    IoStats d = a - b;
    EXPECT_EQ(d.read_steps, 6u);
    EXPECT_EQ(d.io_steps(), 9u);
    b += d;
    EXPECT_EQ(b.read_steps, a.read_steps);
    d.reset();
    EXPECT_EQ(d.io_steps(), 0u);
}

TEST(FileBackedArray, EndToEndRoundTrip) {
    DiskArray arr(4, 8, DiskBackend::kFile, "/tmp");
    auto recs = generate(Workload::kUniform, 500, 12);
    BlockRun run = write_striped(arr, recs);
    auto out = read_run(arr, run);
    EXPECT_EQ(out, recs);
}

} // namespace
} // namespace balsort
