#include "core/vrun.hpp"

#include <algorithm>

#include "obs/tracer.hpp"

namespace balsort {

namespace {

/// Close a staged-prefetch trace pair (issue..first-wait) if one is open.
void end_staged_span(std::uint64_t& id) {
    if (id == 0) return;
    if (Tracer* t = tracer(); t != nullptr) {
        t->async_end("staged_prefetch", "staging", id, t->lane("staging"));
    }
    id = 0;
}

} // namespace

std::uint64_t VRun::read_steps(std::uint32_t n_vdisks) const {
    std::vector<std::uint64_t> per(n_vdisks, 0);
    for (const auto& e : entries) {
        BS_REQUIRE(e.vblock.vdisk < n_vdisks, "VRun::read_steps: vdisk out of range");
        per[e.vblock.vdisk]++;
    }
    return per.empty() ? 0 : *std::max_element(per.begin(), per.end());
}

std::uint64_t VRun::optimal_read_steps(std::uint32_t n_vdisks) const {
    return ceil_div(entries.size(), n_vdisks);
}

void VRun::release(DiskArray& disks) const {
    for (const auto& e : entries) {
        for (const auto& op : e.vblock.ops) disks.release(op);
    }
}

VRunSource::VRunSource(VirtualDisks& vdisks, const VRun& run, BufferPool* buffers)
    : vdisks_(vdisks), run_(run), buffers_(buffers), remaining_(run.n_records) {}

VRunSource::~VRunSource() {
    end_staged_span(staged_trace_id_);
    if (pending_.ticket.valid()) {
        try {
            vdisks_.array().complete_read(pending_.ticket);
        } catch (...) {
        }
    }
}

void VRunSource::entry_ops(std::size_t first, std::size_t n) {
    ops_.clear();
    for (std::size_t e = first; e < first + n; ++e) {
        const auto& vb = run_.entries[e].vblock;
        BS_REQUIRE(vb.ops.size() == vdisks_.group_size(), "VRunSource: malformed virtual block");
        ops_.insert(ops_.end(), vb.ops.begin(), vb.ops.end());
    }
}

void VRunSource::size_lease(BufferPool::Lease& lease, std::size_t n) {
    if (lease->capacity() == 0) {
        lease = BufferPool::acquire_from(buffers_, n);
    } else {
        lease->resize(n);
    }
}

bool VRunSource::start_prefetch(std::uint64_t max_records, double* hidden_sink) {
    DiskArray& array = vdisks_.array();
    if (!array.async_enabled() || run_.entries.empty()) return false;
    if (next_entry_ != 0 || pending_.n_entries != 0) return false; // reading already began
    const std::uint32_t v = vdisks_.vblock_records();
    const std::size_t n = std::min<std::size_t>(
        run_.entries.size(),
        static_cast<std::size_t>(std::max<std::uint64_t>(1, ceil_div(max_records, v))));
    size_lease(pending_.buf, n * v);
    pending_.first_entry = 0;
    pending_.n_entries = n;
    entry_ops(0, n);
    pending_.ticket = array.prefetch_read(ops_, std::span<Record>(*pending_.buf));
    hidden_sink_ = hidden_sink;
    staged_at_ = std::chrono::steady_clock::now();
    staged_ = true;
    if (Tracer* t = tracer(); t != nullptr) {
        staged_trace_id_ = t->next_async_id();
        t->async_begin("staged_prefetch", "staging", staged_trace_id_, t->lane("staging"),
                       {{"vblocks", static_cast<std::int64_t>(n)}});
    }
    return true;
}

void VRunSource::fetch_entries(std::size_t first, std::size_t n,
                               FunctionRef<void(std::size_t, const Record*)> deliver) {
    DiskArray& array = vdisks_.array();
    const std::uint32_t v = vdisks_.vblock_records();
    entry_ops(first, n);
    if (!array.async_enabled()) {
        size_lease(stage_, n * v);
        array.read_batch(ops_, std::span<Record>(*stage_));
        for (std::size_t k = 0; k < n; ++k) deliver(first + k, stage_->data() + k * v);
        return;
    }
    // One charge for the whole fetch — the exact batch the inline engine
    // would read.
    array.charge_read_batch(ops_);
    std::size_t served = 0;
    if (pending_.n_entries > pending_.consumed) {
        BS_MODEL_CHECK(pending_.first_entry + pending_.consumed == first,
                       "VRunSource: prefetch out of sequence");
        if (!pending_.waited) {
            if (staged_) {
                // The window between issuing the staged prefetch and this
                // first wait is time the engine worked under the caller's
                // computation (DESIGN.md §10).
                if (hidden_sink_ != nullptr) {
                    *hidden_sink_ += std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() - staged_at_)
                                         .count();
                }
                staged_ = false;
                end_staged_span(staged_trace_id_);
            }
            array.complete_read(pending_.ticket);
            pending_.waited = true;
        }
        served = std::min(n, pending_.n_entries - pending_.consumed);
        for (std::size_t k = 0; k < served; ++k) {
            deliver(first + k, pending_.buf->data() + (pending_.consumed + k) * v);
        }
        pending_.consumed += served;
    }
    if (served < n) {
        // The prefetch fell short (first fetch, or a grown request): read
        // the rest now, uncharged, into the staging lease.
        size_lease(stage_, (n - served) * v);
        DiskArray::ReadTicket ticket = array.prefetch_read(
            std::span<const BlockOp>(ops_).subspan(served * vdisks_.group_size()),
            std::span<Record>(*stage_));
        array.complete_read(ticket);
        for (std::size_t k = served; k < n; ++k) {
            deliver(first + k, stage_->data() + (k - served) * v);
        }
    }
    if (pending_.consumed >= pending_.n_entries) {
        // Start the next prefetch, sized like this fetch and clamped to
        // the run end, in the consumed prefetch lease (or, after the first
        // fetch, in the staging lease it just read).
        BufferPool::Lease buf = std::move(pending_.buf->capacity() != 0 ? pending_.buf : stage_);
        pending_ = Prefetch{};
        const std::size_t next_first = first + n;
        const std::size_t next_n = std::min(n, run_.entries.size() - next_first);
        if (next_n > 0) {
            pending_.buf = std::move(buf);
            size_lease(pending_.buf, next_n * v);
            pending_.first_entry = next_first;
            pending_.n_entries = next_n;
            entry_ops(next_first, next_n);
            pending_.ticket = array.prefetch_read(ops_, std::span<Record>(*pending_.buf));
        }
    }
}

std::uint64_t VRunSource::read(std::span<Record> out) {
    const std::uint64_t want = std::min<std::uint64_t>(out.size(), remaining_);
    const std::uint64_t from_carry = std::min<std::uint64_t>(want, carry_.size() - carry_pos_);
    std::copy_n(carry_.begin() + static_cast<std::ptrdiff_t>(carry_pos_), from_carry, out.begin());
    carry_pos_ += from_carry;
    if (from_carry < want) {
        // Decide how many whole virtual blocks cover the deficit.
        std::uint64_t room = want - from_carry;
        std::uint64_t covered = 0;
        std::size_t last = next_entry_;
        while (covered < room) {
            BS_MODEL_CHECK(last < run_.entries.size(), "VRunSource: run exhausted prematurely");
            covered += run_.entries[last].count;
            ++last;
        }
        carry_.clear();
        carry_pos_ = 0;
        Record* dst = out.data() + from_carry;
        // Each block's valid prefix goes to the caller; what the caller
        // has no room for goes to the carry.
        fetch_entries(next_entry_, last - next_entry_, [&](std::size_t e, const Record* block) {
            const std::uint32_t count = run_.entries[e].count;
            const std::uint64_t take = std::min<std::uint64_t>(count, room);
            dst = std::copy_n(block, take, dst);
            room -= take;
            carry_.insert(carry_.end(), block + take, block + count);
        });
        next_entry_ = last;
    }
    remaining_ -= want;
    return want;
}

std::uint64_t VectorSource::read(std::span<Record> out) {
    const std::uint64_t want =
        std::min<std::uint64_t>(out.size(), records_.size() - pos_);
    std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), want, out.begin());
    pos_ += want;
    return want;
}

} // namespace balsort
