#include "pdm/striping.hpp"

#include <algorithm>
#include <cmath>

namespace balsort {

std::uint64_t BlockRun::read_steps(std::uint32_t d) const {
    std::vector<std::uint64_t> per_disk(d, 0);
    for (const auto& op : blocks) {
        BS_REQUIRE(op.disk < d, "BlockRun::read_steps: disk out of range");
        per_disk[op.disk]++;
    }
    return *std::max_element(per_disk.begin(), per_disk.end());
}

std::uint64_t BlockRun::optimal_read_steps(std::uint32_t d) const {
    return ceil_div(blocks.size(), d);
}

RunWriter::RunWriter(DiskArray& disks, std::uint32_t start_disk, bool synchronized)
    : disks_(disks), next_disk_(start_disk % disks.num_disks()), synchronized_(synchronized) {}

void RunWriter::append(std::span<const Record> records) {
    BS_REQUIRE(!finished_, "RunWriter::append after finish");
    buffer_.insert(buffer_.end(), records.begin(), records.end());
    run_.n_records += records.size();
    flush_full_blocks(false);
}

void RunWriter::flush_full_blocks(bool final_flush) {
    const std::uint32_t b = disks_.block_size();
    const std::uint32_t d = disks_.num_disks();
    if (final_flush && buffer_.size() % b != 0) {
        buffer_.resize(round_up(buffer_.size(), b)); // zero-pad the tail block
    }
    // Write in stripes of up to D blocks; keep a partial stripe buffered
    // unless finishing (a stripe = one parallel I/O step). The stripes are
    // written from an advancing offset and the written prefix is erased
    // once, so flushing costs linear time in the buffered records.
    std::size_t off = 0;
    for (;;) {
        const std::size_t left = buffer_.size() - off;
        if (left < b || (!final_flush && left < static_cast<std::size_t>(b) * d)) break;
        const std::size_t stripe_blocks = std::min<std::size_t>(left / b, d);
        std::vector<BlockOp> ops;
        ops.reserve(stripe_blocks);
        // §6 synchronized mode: the stripe shares one fresh index across
        // the array (>= every disk's high-water mark), so each member
        // block is at the same relative position — parity-friendly.
        std::uint64_t synced_index = 0;
        if (synchronized_) {
            for (std::uint32_t k = 0; k < d; ++k) {
                synced_index = std::max(synced_index, disks_.high_water(k));
            }
        }
        for (std::size_t k = 0; k < stripe_blocks; ++k) {
            const std::uint32_t disk = next_disk_;
            next_disk_ = (next_disk_ + 1) % d;
            ops.push_back(BlockOp{disk, synchronized_ ? synced_index : disks_.allocate(disk)});
        }
        disks_.write_step(ops, std::span<const Record>(buffer_.data() + off, stripe_blocks * b));
        run_.blocks.insert(run_.blocks.end(), ops.begin(), ops.end());
        off += stripe_blocks * b;
    }
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(off));
}

BlockRun RunWriter::finish() {
    BS_REQUIRE(!finished_, "RunWriter::finish called twice");
    flush_full_blocks(true);
    BS_MODEL_CHECK(buffer_.empty(), "RunWriter left unflushed records");
    finished_ = true;
    return std::move(run_);
}

RunReader::RunReader(DiskArray& disks, const BlockRun& run)
    : disks_(disks), run_(run), remaining_(run.n_records) {}

RunReader::~RunReader() {
    // A dropped reader must not leave the engine writing into freed
    // prefetch buffers; recovery failures of a run nobody reads die here.
    if (pending_.ticket.valid()) {
        try {
            disks_.complete_read(pending_.ticket);
        } catch (...) {
        }
    }
}

void RunReader::fetch_blocks(std::uint64_t first, std::uint64_t n,
                             FunctionRef<void(std::uint64_t, const Record*)> deliver) {
    const std::uint32_t b = disks_.block_size();
    const std::span<const BlockOp> ops(run_.blocks.data() + first, n);
    if (!disks_.async_enabled()) {
        stage_.resize(n * b);
        disks_.read_batch(ops, stage_);
        for (std::uint64_t k = 0; k < n; ++k) deliver(first + k, stage_.data() + k * b);
        return;
    }
    // Model cost of this fetch, charged as one batch exactly like the sync
    // path (splitting it around the prefetch boundary could inflate the
    // step count — two half-stripes cost two steps, one full stripe one).
    disks_.charge_read_batch(ops);
    std::uint64_t served = 0;
    if (pending_.n_blocks > pending_.consumed) {
        BS_MODEL_CHECK(pending_.first_block + pending_.consumed == first,
                       "RunReader: prefetch out of sequence");
        if (!pending_.waited) {
            disks_.complete_read(pending_.ticket);
            pending_.waited = true;
        }
        served = std::min<std::uint64_t>(n, pending_.n_blocks - pending_.consumed);
        for (std::uint64_t k = 0; k < served; ++k) {
            deliver(first + k, pending_.buf.data() + (pending_.consumed + k) * b);
        }
        pending_.consumed += served;
    }
    if (served < n) {
        // The prefetch fell short (first fetch, or a grown request): issue
        // the remainder as an uncharged physical read and wait for it.
        stage_.resize((n - served) * b);
        DiskArray::ReadTicket rest = disks_.prefetch_read(ops.subspan(served), stage_);
        disks_.complete_read(rest);
        for (std::uint64_t k = served; k < n; ++k) {
            deliver(first + k, stage_.data() + (k - served) * b);
        }
    }
    if (pending_.consumed >= pending_.n_blocks) {
        // Pending exhausted: start the next prefetch, sized like this
        // fetch and clamped to the run end, so a steady consumer always
        // finds its next memoryload already in flight. It reuses the
        // consumed prefetch buffer (or, after the first fetch, the staging
        // buffer it just read).
        RecordBuffer buf = std::move(pending_.buf.capacity() != 0 ? pending_.buf : stage_);
        pending_ = Prefetch{};
        const std::uint64_t next_first = first + n;
        const std::uint64_t left = run_.blocks.size() - next_first;
        const std::uint64_t next_n = std::min<std::uint64_t>(n, left);
        if (next_n > 0) {
            pending_.buf = std::move(buf);
            pending_.buf.resize(next_n * b);
            pending_.first_block = next_first;
            pending_.n_blocks = next_n;
            pending_.ticket = disks_.prefetch_read(
                std::span<const BlockOp>(run_.blocks.data() + next_first, next_n), pending_.buf);
        }
    }
}

std::uint64_t RunReader::read(std::span<Record> out) {
    const std::uint32_t b = disks_.block_size();
    const std::uint64_t want = std::min<std::uint64_t>(out.size(), remaining_);
    // Serve from the carry (tail of the last fetched block) first.
    const std::uint64_t from_carry = std::min<std::uint64_t>(want, carry_.size() - carry_pos_);
    std::copy_n(carry_.begin() + static_cast<std::ptrdiff_t>(carry_pos_), from_carry, out.begin());
    carry_pos_ += from_carry;
    if (from_carry < want) {
        // Carry is drained, so run position of block `next_block_` is
        // exactly next_block_ * b.
        std::uint64_t room = want - from_carry;
        const std::uint64_t n_fetch = ceil_div(room, b);
        BS_MODEL_CHECK(next_block_ + n_fetch <= run_.blocks.size(),
                       "RunReader: run exhausted prematurely");
        carry_.clear();
        carry_pos_ = 0;
        Record* dst = out.data() + from_carry;
        fetch_blocks(next_block_, n_fetch, [&](std::uint64_t blk, const Record* src) {
            // Records of the block that are real data (not pad).
            const std::uint64_t valid = std::min<std::uint64_t>(b, run_.n_records - blk * b);
            const std::uint64_t take = std::min(valid, room);
            dst = std::copy_n(src, take, dst);
            room -= take;
            carry_.insert(carry_.end(), src + take, src + valid);
        });
        BS_MODEL_CHECK(room == 0, "RunReader: fetched range shorter than requested");
        next_block_ += n_fetch;
    }
    remaining_ -= want;
    return want;
}

BlockRun write_striped(DiskArray& disks, std::span<const Record> records,
                       std::uint32_t start_disk) {
    RunWriter w(disks, start_disk);
    w.append(records);
    return w.finish();
}

std::vector<Record> read_run(DiskArray& disks, const BlockRun& run) {
    std::vector<Record> out(run.n_records);
    RunReader r(disks, run);
    std::uint64_t got = r.read(out);
    BS_MODEL_CHECK(got == run.n_records, "read_run: short read");
    return out;
}

VirtualDisks::VirtualDisks(DiskArray& disks, std::uint32_t n_virtual, bool synchronized_writes)
    : disks_(disks), n_virtual_(n_virtual), synchronized_writes_(synchronized_writes) {
    BS_REQUIRE(n_virtual >= 1 && n_virtual <= disks.num_disks(),
               "VirtualDisks: need 1 <= D' <= D");
    BS_REQUIRE(disks.num_disks() % n_virtual == 0, "VirtualDisks: D' must divide D");
    group_ = disks.num_disks() / n_virtual;
}

std::vector<VirtualDisks::VBlock> VirtualDisks::write_track(
    std::span<const std::uint32_t> vdisks, std::span<const Record> data) {
    BS_REQUIRE(data.size() == vdisks.size() * static_cast<std::size_t>(vblock_records()),
               "write_track: data size mismatch");
    std::vector<bool> used(n_virtual_, false);
    std::vector<VBlock> out;
    out.reserve(vdisks.size());
    std::vector<BlockOp> ops;
    ops.reserve(vdisks.size() * group_);
    // Synchronized (fully striped) writes: one common index, free across
    // the WHOLE array, so the step is a same-relative-position stripe.
    std::uint64_t synced_index = 0;
    if (synchronized_writes_) {
        for (std::uint32_t d = 0; d < disks_.num_disks(); ++d) {
            synced_index = std::max(synced_index, disks_.high_water(d));
        }
    }
    for (std::size_t k = 0; k < vdisks.size(); ++k) {
        const std::uint32_t h = vdisks[k];
        BS_REQUIRE(h < n_virtual_, "write_track: vdisk out of range");
        BS_MODEL_CHECK(!used[h], "write_track: two virtual blocks on one virtual disk");
        used[h] = true;
        VBlock vb;
        vb.vdisk = h;
        for (std::uint32_t g = 0; g < group_; ++g) {
            const std::uint32_t disk = h * group_ + g;
            const std::uint64_t index =
                synchronized_writes_ ? synced_index : disks_.allocate(disk);
            vb.ops.push_back(BlockOp{disk, index});
            ops.push_back(vb.ops.back());
        }
        out.push_back(std::move(vb));
    }
    disks_.write_step(ops, data);
    return out;
}

void VirtualDisks::read_vblocks(std::span<const VBlock> vblocks, std::span<Record> out) {
    BS_REQUIRE(out.size() == vblocks.size() * static_cast<std::size_t>(vblock_records()),
               "read_vblocks: buffer size mismatch");
    std::vector<BlockOp> ops;
    ops.reserve(vblocks.size() * group_);
    for (const auto& vb : vblocks) {
        BS_REQUIRE(vb.ops.size() == group_, "read_vblocks: malformed virtual block");
        ops.insert(ops.end(), vb.ops.begin(), vb.ops.end());
    }
    disks_.read_batch(ops, out);
}

std::uint32_t VirtualDisks::default_virtual_count(std::uint32_t d, double exponent) {
    BS_REQUIRE(d >= 1, "default_virtual_count: d must be >= 1");
    const double target = std::pow(static_cast<double>(d), exponent);
    std::uint32_t best = 1;
    double best_dist = std::abs(1.0 - target);
    for (std::uint32_t c = 1; c <= d; ++c) {
        if (d % c != 0) continue;
        const double dist = std::abs(static_cast<double>(c) - target);
        if (dist < best_dist || (dist == best_dist && c > best)) {
            best = c;
            best_dist = dist;
        }
    }
    return best;
}

} // namespace balsort
