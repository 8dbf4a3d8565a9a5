#pragma once
/// \file vrun.hpp
/// Record sources and virtual-block runs — the plumbing between recursion
/// levels of Balance Sort.
///
/// The top-level input is a striped BlockRun; each recursive call's input
/// is a bucket: a list of virtual blocks spread over the virtual disks by
/// Balance. Both are exposed to the sorter through the `RecordSource`
/// streaming interface. Reading a bucket costs max-blocks-per-vdisk steps,
/// and Theorem 4 (via Invariant 2) bounds that within ~2x of optimal —
/// `VRun::read_steps`/`optimal_read_steps` expose both numbers so tests
/// and benches can check the bound directly.

#include <chrono>
#include <cstdint>
#include <vector>

#include "pdm/striping.hpp"
#include "util/buffer_pool.hpp"
#include "util/function_ref.hpp"

namespace balsort {

/// Streaming source of records (one recursion level's input).
class RecordSource {
public:
    virtual ~RecordSource() = default;
    /// Records not yet delivered.
    virtual std::uint64_t remaining() const = 0;
    /// Deliver up to out.size() records; returns the count delivered.
    virtual std::uint64_t read(std::span<Record> out) = 0;
};

/// Adapts a striped BlockRun (the top-level input).
class StripedSource final : public RecordSource {
public:
    StripedSource(DiskArray& disks, const BlockRun& run) : reader_(disks, run) {}
    std::uint64_t remaining() const override { return reader_.remaining(); }
    std::uint64_t read(std::span<Record> out) override { return reader_.read(out); }

private:
    RunReader reader_;
};

/// One bucket's storage: virtual blocks (with per-block valid-record
/// counts) in the order Balance emitted them.
struct VRun {
    struct Entry {
        VirtualDisks::VBlock vblock;
        std::uint32_t count = 0; ///< valid records (rest of the block is pad)
    };
    std::vector<Entry> entries;
    std::uint64_t n_records = 0;

    /// Parallel I/O steps to read the whole run: max blocks on one vdisk.
    std::uint64_t read_steps(std::uint32_t n_vdisks) const;
    /// ceil(#vblocks / D'): the unavoidable minimum.
    std::uint64_t optimal_read_steps(std::uint32_t n_vdisks) const;
    /// Return every physical block of the run to the array's allocator
    /// (call once the run has been fully consumed; keeps total simulated
    /// space O(N), which the depth-priced hierarchy models rely on).
    void release(DiskArray& disks) const;
};

/// Streams a VRun; fetches pending virtual blocks with maximal parallelism.
/// Double-buffers through the array's async engine when it is enabled,
/// charging model costs at consumption time exactly as the synchronous
/// path would (see RunReader; DESIGN.md §9). Each block's valid prefix is
/// copied once, from the buffer the engine read it into (the prefetch
/// lease, or a staging lease for what no prefetch covered) straight into
/// the caller's span; only the tail a read does not take goes to a carry
/// for the next read. With `buffers`, the leases come from the pool.
class VRunSource final : public RecordSource {
public:
    VRunSource(VirtualDisks& vdisks, const VRun& run, BufferPool* buffers = nullptr);
    ~VRunSource() override;
    VRunSource(const VRunSource&) = delete;
    VRunSource& operator=(const VRunSource&) = delete;
    std::uint64_t remaining() const override { return remaining_; }
    std::uint64_t read(std::span<Record> out) override;

    /// Cross-bucket staging (DESIGN.md §10): physically issue the first
    /// ~`max_records` of the run through the async engine *now*, so the
    /// transfers overlap whatever the caller computes before the first
    /// read(). Charges nothing — model costs land at consumption time
    /// exactly as without staging, so io_steps() and the observer sequence
    /// are unchanged. `hidden_sink`, if given, accumulates the seconds
    /// between issue and the first wait (engine time hidden behind the
    /// caller's compute). Returns false (no-op) when the engine is off,
    /// the run is empty, or reading has already begun.
    bool start_prefetch(std::uint64_t max_records, double* hidden_sink = nullptr);

private:
    /// Read entries [first, first+n), charged as one batch, and hand
    /// each to `deliver(entry index, its vblock_records() records)` in
    /// run order.
    void fetch_entries(std::size_t first, std::size_t n,
                       FunctionRef<void(std::size_t, const Record*)> deliver);
    /// Fill ops_ with the physical block ops of entries [first, first+n),
    /// in read order.
    void entry_ops(std::size_t first, std::size_t n);
    /// `lease`, sized to n records (acquired if it holds no buffer yet).
    void size_lease(BufferPool::Lease& lease, std::size_t n);

    VirtualDisks& vdisks_;
    const VRun& run_;
    BufferPool* buffers_;
    std::size_t next_entry_ = 0;
    std::uint64_t remaining_;
    std::vector<Record> carry_; ///< fetched, not yet returned (< one vblock)
    std::size_t carry_pos_ = 0;
    std::vector<BlockOp> ops_;  ///< entry_ops scratch
    BufferPool::Lease stage_;   ///< reads no prefetch covered land here

    /// The single in-flight prefetch (async engine only).
    struct Prefetch {
        DiskArray::ReadTicket ticket;
        BufferPool::Lease buf;
        std::size_t first_entry = 0;
        std::size_t n_entries = 0;
        std::size_t consumed = 0;
        bool waited = false;
    };
    Prefetch pending_;

    /// Cross-bucket staging bookkeeping (start_prefetch).
    double* hidden_sink_ = nullptr;
    std::chrono::steady_clock::time_point staged_at_{};
    bool staged_ = false;
    /// Async trace pair spanning staged-issue to first-wait (0 = untraced).
    std::uint64_t staged_trace_id_ = 0;
};

/// In-memory source (tests, the hierarchy driver's track feed).
class VectorSource final : public RecordSource {
public:
    explicit VectorSource(std::vector<Record> records) : records_(std::move(records)) {}
    std::uint64_t remaining() const override { return records_.size() - pos_; }
    std::uint64_t read(std::span<Record> out) override;

private:
    std::vector<Record> records_;
    std::size_t pos_ = 0;
};

} // namespace balsort
