#include "core/balance.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "pram/hungarian.hpp"
#include "pram/quantile_sketch.hpp"
#include "util/math.hpp"

namespace balsort {

std::string BalanceTimeline::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

bool BalanceTimeline::write_json_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os);
    return os.good();
}

void BalanceStats::merge(const BalanceStats& o) {
    tracks += o.tracks;
    direct_blocks += o.direct_blocks;
    matched_blocks += o.matched_blocks;
    deferred_blocks += o.deferred_blocks;
    rearrange_rounds += o.rearrange_rounds;
    max_rounds_per_track = std::max(max_rounds_per_track, o.max_rounds_per_track);
    match_draws += o.match_draws;
    invariant1_held = invariant1_held && o.invariant1_held;
    invariant2_held = invariant2_held && o.invariant2_held;
}

namespace {

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// A bucket-homogeneous virtual block waiting to be placed, as a view: its
/// first `head` records sit in side-store slot `slot` (the partial block
/// carried over from earlier memoryloads, or the whole block once
/// spilled), the other `count - head` in the partition buffer from
/// `offset`.
struct PendingBlock {
    std::uint32_t bucket = 0;
    std::uint32_t count = 0; // <= V; the rest of a final block is pad
    std::uint32_t head = 0;
    std::uint32_t slot = kNoSlot;
    std::size_t offset = 0;
};

/// The ready queue: FIFO, plus deferred blocks going back to the front. A
/// deferred block was popped by the same track, so the front always has
/// room for it; one vector serves the whole pass.
class BlockQueue {
public:
    std::size_t size() const { return q_.size() - head_; }
    bool empty() const { return head_ == q_.size(); }
    PendingBlock pop_front() { return q_[head_++]; }
    void push_front(const PendingBlock& b) {
        BS_MODEL_CHECK(head_ > 0, "balance_pass: deferred a block the track never took");
        q_[--head_] = b;
    }
    void push_back(const PendingBlock& b) { q_.push_back(b); }
    /// Forget the consumed prefix (called once per memoryload).
    void compact() {
        q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    std::span<PendingBlock> queued() { return std::span<PendingBlock>(q_).subspan(head_); }

private:
    std::vector<PendingBlock> q_;
    std::size_t head_ = 0;
};

/// V-record slots for the records that must outlive a memoryload's
/// partition buffer: each bucket's partial block, carried into the next
/// memoryload, and blocks still queued when the next memoryload is
/// partitioned.
class SlotStore {
public:
    explicit SlotStore(std::uint32_t v) : v_(v) {}
    std::uint32_t acquire() {
        if (!free_.empty()) {
            const std::uint32_t s = free_.back();
            free_.pop_back();
            return s;
        }
        data_.resize(data_.size() + v_);
        return static_cast<std::uint32_t>(data_.size() / v_ - 1);
    }
    void release(std::uint32_t s) { free_.push_back(s); }
    Record* slot(std::uint32_t s) { return data_.data() + static_cast<std::size_t>(s) * v_; }

private:
    std::uint32_t v_;
    RecordBuffer data_;
    std::vector<std::uint32_t> free_;
};

/// Algorithm 3 line (1) for one memoryload: a stable counting-sort
/// partition of the chunk by bucket into one bucket-contiguous buffer.
/// Classification (with per-bucket counts and key ranges) and then the
/// scatter each run over the lanes when the load has at least
/// kParallelCutoff records, serially below; per-lane histograms laid out
/// bucket-major, lane-minor keep the scatter stable, so every bucket's
/// slice is in chunk order. The scatter also notes, in chunk order, the
/// bucket of every record that completes a virtual block — given the
/// records each bucket carried in — which is exactly the order in which a
/// record-at-a-time fill would complete the blocks.
class LoadPartition {
public:
    LoadPartition(std::uint32_t s_eff, std::uint32_t v) : start(s_eff + 1), s_(s_eff), v_(v) {}

    void run(std::span<const Record> chunk, const PivotSet& pivots,
             std::span<const std::uint32_t> carry, Record* part, const Parallel& pool) {
        const std::size_t n = chunk.size();
        const std::size_t n_lanes =
            n >= kParallelCutoff ? std::min<std::size_t>(pool.size(), n) : 1;
        const auto each_lane = [&](auto&& body) {
            if (n_lanes == 1) {
                body(std::size_t{0});
                return;
            }
            pool.parallel_for(0, n_lanes, [&](std::size_t lo, std::size_t hi, std::size_t) {
                for (std::size_t w = lo; w < hi; ++w) body(w);
            });
        };
        if (lanes_.size() < n_lanes) lanes_.resize(n_lanes);
        cls_.resize(n);
        for (std::size_t w = 0; w < n_lanes; ++w) {
            Lane& ln = lanes_[w];
            ln.lo = w * n / n_lanes;
            ln.hi = (w + 1) * n / n_lanes;
            ln.count.assign(s_, 0);
            ln.min_key.assign(s_, ~std::uint64_t{0});
            ln.max_key.assign(s_, 0);
            ln.pos.resize(s_);
            ln.next_end.resize(s_);
        }

        each_lane([&](std::size_t w) {
            Lane& ln = lanes_[w];
            constexpr std::size_t kTile = 512; // classify a tile, then count it from cache
            for (std::size_t t = ln.lo; t < ln.hi; t += kTile) {
                const std::size_t te = std::min(t + kTile, ln.hi);
                pivots.classify(chunk.subspan(t, te - t), cls_.data() + t);
                for (std::size_t i = t; i < te; ++i) {
                    const std::uint32_t b = cls_[i];
                    const std::uint64_t key = chunk[i].key;
                    ++ln.count[b];
                    ln.min_key[b] = std::min(ln.min_key[b], key);
                    ln.max_key[b] = std::max(ln.max_key[b], key);
                }
            }
        });

        // Bucket slices, each lane's first position in them, and where each
        // lane meets its next block end: the local ranks r of bucket b with
        // (carry[b] + r + 1) % V == 0.
        std::size_t at = 0, blocks = 0;
        for (std::uint32_t b = 0; b < s_; ++b) {
            start[b] = at;
            const std::size_t first_end = v_ - 1 - carry[b];
            const auto ends_below = [&](std::size_t r) -> std::size_t {
                return r > first_end ? (r - 1 - first_end) / v_ + 1 : 0;
            };
            for (std::size_t w = 0; w < n_lanes; ++w) {
                Lane& ln = lanes_[w];
                const std::size_t r = at - start[b];
                const std::size_t below = ends_below(r);
                ln.pos[b] = at;
                ln.next_end[b] = start[b] + first_end + below * v_;
                at += ln.count[b];
                ln.count[b] = ends_below(at - start[b]) - below; // now: blocks it ends
            }
        }
        start[s_] = at;
        for (std::size_t w = 0; w < n_lanes; ++w) {
            lanes_[w].done_at = blocks;
            for (std::uint32_t b = 0; b < s_; ++b) blocks += lanes_[w].count[b];
        }
        done.resize(blocks);

        each_lane([&](std::size_t w) {
            Lane& ln = lanes_[w];
            std::size_t* pos = ln.pos.data();
            std::size_t* next_end = ln.next_end.data();
            std::uint32_t* out = done.data() + ln.done_at;
            for (std::size_t i = ln.lo; i < ln.hi; ++i) {
                const std::uint32_t b = cls_[i];
                const std::size_t p = pos[b]++;
                part[p] = chunk[i];
                if (p == next_end[b]) {
                    *out++ = b;
                    next_end[b] += v_;
                }
            }
        });

        min_key.assign(s_, ~std::uint64_t{0});
        max_key.assign(s_, 0);
        for (std::size_t w = 0; w < n_lanes; ++w) {
            for (std::uint32_t b = 0; b < s_; ++b) {
                min_key[b] = std::min(min_key[b], lanes_[w].min_key[b]);
                max_key[b] = std::max(max_key[b], lanes_[w].max_key[b]);
            }
        }
    }

    /// Bucket b's records are part[start[b], start[b+1]).
    std::vector<std::size_t> start;
    /// Key range of each bucket's records in this memoryload.
    std::vector<std::uint64_t> min_key, max_key;
    /// The bucket of every block this memoryload completes, in completion
    /// order.
    std::vector<std::uint32_t> done;

private:
    struct Lane {
        std::size_t lo = 0, hi = 0;
        std::vector<std::size_t> count; // records per bucket, then blocks ended
        std::vector<std::uint64_t> min_key, max_key;
        std::vector<std::size_t> pos;      // scatter cursor per bucket
        std::vector<std::size_t> next_end; // position of the next block end
        std::size_t done_at = 0;           // first entry of `done` it writes
    };

    std::uint32_t s_, v_;
    std::vector<Lane> lanes_;
    std::vector<std::uint32_t> cls_;
};

constexpr Record kPadRecord{~std::uint64_t{0}, ~std::uint64_t{0}};

} // namespace

std::vector<BucketOutput> balance_pass(RecordSource& input, const PivotSet& pivots,
                                       VirtualDisks& vdisks, std::uint64_t memory_records,
                                       const BalanceOptions& opt, const Parallel& pool,
                                       WorkMeter* meter, PramCost* cost, BalanceStats* stats,
                                       std::uint32_t sketch_child_s, BufferPool* buffers) {
    const std::uint32_t s_eff = pivots.n_buckets();
    const std::uint32_t dv = vdisks.count();
    const std::uint32_t v = vdisks.vblock_records();
    BS_REQUIRE(memory_records >= v, "balance_pass: memoryload smaller than a virtual block");

    BalanceMatrices matrices(s_eff, dv, opt.aux);
    Xoshiro256 rng(opt.seed);
    BalanceStats local_stats;

    // Balance-quality observation (DESIGN.md §12): the per-track timeline
    // recorder (opt-in via BalanceOptions) and the installed metrics
    // registry. Both only *read* matrices and stats after each track, so
    // model quantities are untouched (pinned by the overhead-guard test).
    BalanceTimeline* timeline = opt.timeline;
    std::uint32_t pass_id = 0;
    if (timeline != nullptr) pass_id = timeline->passes++;
    MetricsRegistry* mreg = metrics();
    Histogram* h_rounds = nullptr;
    Histogram* h_skew = nullptr;
    Counter* c_matched = nullptr;
    Counter* c_deferred = nullptr;
    Counter* c_direct = nullptr;
    Counter* c_tracks = nullptr;
    if (mreg != nullptr) {
        h_rounds = &mreg->histogram("balance.rebalance_rounds");
        h_skew = &mreg->histogram("balance.track_skew");
        c_matched = &mreg->counter("balance.matched_blocks");
        c_deferred = &mreg->counter("balance.deferred_blocks");
        c_direct = &mreg->counter("balance.direct_blocks");
        c_tracks = &mreg->counter("balance.tracks");
    }

    std::vector<BucketOutput> buckets(s_eff);
    for (std::uint32_t b = 0; b < s_eff; ++b) {
        buckets[b].is_equal_class = pivots.is_equal_class(b);
    }
    // Streaming-sketch pivots for the next level (PivotMethod::
    // kStreamingSketch): one deterministic quantile sketch per open-range
    // bucket, fed during partitioning below.
    std::vector<std::unique_ptr<QuantileSketch>> sketches;
    if (sketch_child_s >= 2) {
        sketches.resize(s_eff);
        const std::size_t k = std::max<std::size_t>(64, 32ull * sketch_child_s);
        for (std::uint32_t b = 0; b < s_eff; ++b) {
            if (!buckets[b].is_equal_class) {
                sketches[b] = std::make_unique<QuantileSketch>(k);
            }
        }
    }

    // Each memoryload is read into `chunk` and partitioned into `part`;
    // queued blocks are views into `part` and `slots` (DESIGN.md §10).
    // `carry[b]` records of bucket b's partial block wait in slot
    // `carry_slot[b]`.
    const std::size_t load_records =
        static_cast<std::size_t>(std::min<std::uint64_t>(memory_records, input.remaining()));
    auto chunk = BufferPool::acquire_from(buffers, load_records);
    auto part = BufferPool::acquire_from(buffers, load_records);
    auto wbuf = BufferPool::acquire_from(buffers, static_cast<std::size_t>(dv) * v);
    LoadPartition partition(s_eff, v);
    SlotStore slots(v);
    std::vector<std::uint32_t> carry(s_eff, 0), carry_slot(s_eff, kNoSlot), formed(s_eff);
    BlockQueue ready;
    bool tails_flushed = false;
    std::uint32_t rr_cursor = 0; // cyclic assignment cursor
    std::uint64_t stalled_tracks = 0;
    // Per-track scratch, hoisted so a pass allocates it once, not per
    // track or per placement round.
    std::vector<PendingBlock> track;
    std::vector<std::uint32_t> assigned, pending, writable, offender_js, now, later, hs;
    std::vector<bool> was_matched, used;

    auto append_output = [&](std::uint32_t b, const VirtualDisks::VBlock& vb, std::uint32_t count) {
        buckets[b].run.entries.push_back(VRun::Entry{vb, count});
        buckets[b].run.n_records += count;
    };
    // Copy the part of `blk` still in `part` behind its head, into its slot.
    auto spill = [&](PendingBlock& blk) {
        if (blk.head == blk.count) return;
        if (blk.slot == kNoSlot) blk.slot = slots.acquire();
        std::copy_n(part->begin() + static_cast<std::ptrdiff_t>(blk.offset), blk.count - blk.head,
                    slots.slot(blk.slot) + blk.head);
        blk.head = blk.count;
    };

    while (true) {
        // ---- Refill the ready queue from the input (one memoryload). ----
        if (ready.size() < dv && input.remaining() > 0) {
            const std::uint64_t want = std::min<std::uint64_t>(memory_records, input.remaining());
            chunk->resize(want);
            const std::uint64_t got = input.read(*chunk);
            BS_MODEL_CHECK(got == want, "balance_pass: short read from source");
            // Blocks still queued from the last memoryload keep their
            // records: `part` is about to be overwritten.
            ready.compact();
            for (PendingBlock& blk : ready.queued()) spill(blk);
            // Partition the memoryload into buckets (Algorithm 3 line (1)).
            part->resize(got);
            partition.run(*chunk, pivots, carry, part->data(), pool);
            if (meter != nullptr) {
                meter->add_comparisons(got * std::max<std::uint64_t>(1, ilog2_ceil(s_eff)));
                meter->add_moves(got);
            }
            if (cost != nullptr) {
                cost->charge_parallel_work(got * std::max<std::uint64_t>(1, ilog2_ceil(s_eff)));
                cost->charge_collective();
            }
            for (std::uint32_t b = 0; b < s_eff; ++b) {
                const std::size_t lo = partition.start[b], hi = partition.start[b + 1];
                if (lo == hi) continue;
                buckets[b].min_key = std::min(buckets[b].min_key, partition.min_key[b]);
                buckets[b].max_key = std::max(buckets[b].max_key, partition.max_key[b]);
                if (!sketches.empty() && sketches[b] != nullptr) {
                    for (std::size_t i = lo; i < hi; ++i) sketches[b]->add((*part)[i].key);
                }
            }
            // Completed blocks join the queue in completion order. Bucket
            // b's first block takes its carried records as its head; its
            // k-th ends k·V - carry records into its slice.
            std::fill(formed.begin(), formed.end(), 0);
            for (const std::uint32_t b : partition.done) {
                PendingBlock blk{b, v, 0, kNoSlot, partition.start[b]};
                if (formed[b] == 0) {
                    blk.head = carry[b];
                    blk.slot = carry_slot[b];
                } else {
                    blk.offset += static_cast<std::size_t>(formed[b]) * v - carry[b];
                }
                ++formed[b];
                ready.push_back(blk);
            }
            // What is left of each bucket's slice becomes (or extends) its
            // carried partial block.
            for (std::uint32_t b = 0; b < s_eff; ++b) {
                std::size_t lo = partition.start[b];
                if (formed[b] > 0) {
                    lo += static_cast<std::size_t>(formed[b]) * v - carry[b];
                    carry[b] = 0;
                    carry_slot[b] = kNoSlot;
                }
                const std::size_t tail = partition.start[b + 1] - lo;
                if (tail == 0) continue;
                if (carry_slot[b] == kNoSlot) carry_slot[b] = slots.acquire();
                std::copy_n(part->begin() + static_cast<std::ptrdiff_t>(lo), tail,
                            slots.slot(carry_slot[b]) + carry[b]);
                carry[b] += static_cast<std::uint32_t>(tail);
            }
        }
        // ---- Input exhausted: final partial blocks join the queue. ----
        if (input.remaining() == 0 && !tails_flushed) {
            for (std::uint32_t b = 0; b < s_eff; ++b) {
                if (carry[b] == 0) continue;
                ready.push_back(PendingBlock{b, carry[b], carry[b], carry_slot[b], 0});
                carry[b] = 0;
                carry_slot[b] = kNoSlot;
            }
            tails_flushed = true;
        }
        if (ready.empty()) {
            if (input.remaining() == 0) break;
            continue;
        }

        // ---- Form a track of up to D' blocks (Algorithm 3). ----
        const BalanceStats before_track = local_stats; // observer deltas
        const std::uint32_t k = static_cast<std::uint32_t>(
            std::min<std::size_t>(dv, ready.size()));
        track.clear();
        for (std::uint32_t j = 0; j < k; ++j) track.push_back(ready.pop_front());
        // Tentative assignment to distinct virtual disks.
        assigned.assign(k, 0);
        if (opt.assign == AssignPolicy::kCyclic) {
            for (std::uint32_t j = 0; j < k; ++j) assigned[j] = (rr_cursor + j) % dv;
            rr_cursor = (rr_cursor + 1) % dv;
        } else if (opt.assign == AssignPolicy::kMinCostMatching) {
            // §6 conjecture: cost of placing block j (bucket b_j) on vdisk
            // h is the current histogram load x_{b_j,h}; the Hungarian
            // assignment spreads the track with globally minimal imbalance.
            std::vector<std::int64_t> cost_matrix(static_cast<std::size_t>(k) * dv);
            for (std::uint32_t j = 0; j < k; ++j) {
                for (std::uint32_t h = 0; h < dv; ++h) {
                    cost_matrix[static_cast<std::size_t>(j) * dv + h] =
                        matrices.x(track[j].bucket, h);
                }
            }
            assigned = min_cost_assignment(cost_matrix, k, dv);
            if (cost != nullptr) cost->charge_collectives(k); // the matching work
        } else {
            used.assign(dv, false);
            for (std::uint32_t j = 0; j < k; ++j) {
                std::uint32_t best = dv, best_x = ~std::uint32_t{0};
                for (std::uint32_t h = 0; h < dv; ++h) {
                    if (!used[h] && matrices.x(track[j].bucket, h) < best_x) {
                        best = h;
                        best_x = matrices.x(track[j].bucket, h);
                    }
                }
                BS_MODEL_CHECK(best < dv, "assignment ran out of virtual disks");
                used[best] = true;
                assigned[j] = best;
            }
        }
        for (std::uint32_t j = 0; j < k; ++j) {
            matrices.increment(track[j].bucket, assigned[j]); // line (3)
        }
        matrices.compute_aux(); // Algorithm 4
        if (cost != nullptr) {
            cost->charge_parallel_work(static_cast<std::uint64_t>(s_eff) * dv);
            cost->charge_collective();
        }

        // ---- Place every block of the track: direct writes, Rebalance
        // (Algorithm 5) rounds of Rearrange (Algorithm 6), or deferral.
        // A block's own status is aux(bucket, assigned-vdisk): <= 1 means
        // its placement is acceptable (writable), >= 2 means it is an
        // offender that must be matched away or deferred. Matched moves can
        // raise a row's median and thereby *free* other offenders — those
        // simply become writable in a later round.
        auto write_blocks = [&](const std::vector<std::uint32_t>& js) {
            if (js.empty()) return;
            // Gathers each block's head and partition range into the
            // pass-level `wbuf` lease; only the tail of a final partial
            // block needs pad.
            wbuf->resize(js.size() * static_cast<std::size_t>(v));
            hs.resize(js.size());
            for (std::size_t q = 0; q < js.size(); ++q) {
                const PendingBlock& blk = track[js[q]];
                Record* dst = wbuf->data() + q * v;
                if (blk.slot != kNoSlot) {
                    std::copy_n(slots.slot(blk.slot), blk.head, dst);
                    slots.release(blk.slot);
                }
                std::copy_n(part->begin() + static_cast<std::ptrdiff_t>(blk.offset),
                            blk.count - blk.head, dst + blk.head);
                std::fill(dst + blk.count, dst + v, kPadRecord);
                hs[q] = assigned[js[q]];
            }
            auto vbs = vdisks.write_track(hs, *wbuf); // one parallel I/O step
            for (std::size_t q = 0; q < js.size(); ++q) {
                append_output(track[js[q]].bucket, vbs[q], track[js[q]].count);
            }
        };

        pending.resize(k);
        for (std::uint32_t j = 0; j < k; ++j) pending[j] = j;
        was_matched.assign(k, false);
        std::uint64_t rounds = 0;
        std::uint64_t written_this_track = 0;
        const std::uint64_t defer_threshold = std::max<std::uint64_t>(1, dv / 2);
        std::uint64_t safety = 0;
        while (!pending.empty()) {
            BS_MODEL_CHECK(++safety <= 4ull * dv + 16, "track placement failed to converge");
            // Classify pending blocks by their own aux entry.
            writable.clear();
            offender_js.clear();
            for (std::uint32_t j : pending) {
                if (matrices.aux(track[j].bucket, assigned[j]) <= 1) {
                    writable.push_back(j);
                } else {
                    offender_js.push_back(j);
                }
            }
            // Write the writable ones — at most one per virtual disk per
            // parallel step (vdisk duplicates wait one round; they only
            // arise when a matched move targets a vdisk that still carries
            // another pending block).
            {
                used.assign(dv, false);
                now.clear();
                later.clear();
                for (std::uint32_t j : writable) {
                    if (!used[assigned[j]]) {
                        used[assigned[j]] = true;
                        now.push_back(j);
                    } else {
                        later.push_back(j);
                    }
                }
                for (std::uint32_t j : now) {
                    if (was_matched[j]) {
                        local_stats.matched_blocks += 1;
                    } else {
                        local_stats.direct_blocks += 1;
                    }
                }
                written_this_track += now.size();
                write_blocks(now); // Algorithm 3 line (6) / Algorithm 6 line (5)
                pending.assign(later.begin(), later.end());
                pending.insert(pending.end(), offender_js.begin(), offender_js.end());
            }
            if (offender_js.empty()) continue; // only vdisk collisions left
            // ---- Rebalance decision (Algorithm 5). ----
            const bool defer_now = opt.defer == DeferPolicy::kPaperDefer &&
                                   offender_js.size() < defer_threshold;
            // U := the next floor(D'/2) offenders with at least one
            // candidate (capping |U| preserves Invariant 1's free-candidate
            // guarantee under the paper rule; the [Arg] rule can produce
            // candidate-less offenders, which are deferred).
            std::vector<std::uint32_t> u;
            std::vector<std::vector<std::uint32_t>> candidates;
            if (!defer_now) {
                for (std::uint32_t j : offender_js) {
                    if (u.size() >= std::max<std::uint32_t>(1, dv / 2)) break;
                    std::vector<std::uint32_t> cand;
                    for (std::uint32_t h = 0; h < dv; ++h) {
                        if (matrices.aux(track[j].bucket, h) == 0) cand.push_back(h);
                    }
                    if (!cand.empty()) {
                        u.push_back(j);
                        candidates.push_back(std::move(cand));
                    }
                }
            }
            if (defer_now || u.empty()) {
                // Defer every remaining offender (Algorithm 3 line (7)):
                // roll X back and conceptually return the block to the
                // input. The entries removed sit above their row medians,
                // so the rollback cannot create new 2s.
                std::size_t kept = 0;
                for (std::uint32_t j : pending) {
                    if (matrices.aux(track[j].bucket, assigned[j]) >= 2) {
                        matrices.decrement(track[j].bucket, assigned[j]);
                        ready.push_front(track[j]);
                        local_stats.deferred_blocks += 1;
                    } else {
                        pending[kept++] = j;
                    }
                }
                pending.resize(kept);
                matrices.compute_aux();
                continue;
            }
            MatchResult match = fast_partial_match(candidates, dv, opt.matching, rng);
            local_stats.match_draws += match.draws;
            if (cost != nullptr) cost->charge_collectives(2); // sort + route of §4.2
            std::uint32_t applied = 0;
            for (std::size_t i = 0; i < u.size(); ++i) {
                if (match.matched[i] == MatchResult::kUnmatched) continue;
                const std::uint32_t j = u[i];
                const std::uint32_t h_to = match.matched[i];
                matrices.decrement(track[j].bucket, assigned[j]);
                matrices.increment(track[j].bucket, h_to);
                assigned[j] = h_to;
                was_matched[j] = true;
                ++applied;
            }
            matrices.compute_aux();
            ++rounds;
            if (applied == 0) {
                // Matcher stalled (possible under the randomized engine
                // only via conflicts — retry is allowed next round; the
                // safety counter above bounds the total).
                continue;
            }
        }
        local_stats.rearrange_rounds += rounds;
        local_stats.max_rounds_per_track = std::max(local_stats.max_rounds_per_track, rounds);

        // ---- Track bookkeeping & invariants. ----
        // Invariant 1 is definitional only under the paper's median rule
        // (the [Arg] ablation rule does not promise ceil(H'/2) zeros);
        // Invariant 2 must hold after every track under either rule.
        local_stats.tracks += 1;
        if (opt.aux == AuxRule::kPaperMedian) {
            local_stats.invariant1_held = local_stats.invariant1_held && matrices.invariant1();
        }
        local_stats.invariant2_held = local_stats.invariant2_held && matrices.invariant2();
        if (opt.check_invariants) {
            if (opt.aux == AuxRule::kPaperMedian) {
                BS_MODEL_CHECK(matrices.invariant1(), "Invariant 1 violated after track");
            }
            BS_MODEL_CHECK(matrices.invariant2(), "Invariant 2 violated after track");
        }
        if (written_this_track == 0) {
            BS_MODEL_CHECK(++stalled_tracks <= 4ull * dv + 8,
                           "Balance made no progress for many consecutive tracks");
        } else {
            stalled_tracks = 0;
        }

        // ---- Balance-quality sample (timeline and/or metrics). ----
        if (timeline != nullptr || mreg != nullptr) {
            BalanceTrackSample smp;
            smp.pass = pass_id;
            smp.track = static_cast<std::uint32_t>(local_stats.tracks - 1);
            std::uint32_t col_min = ~std::uint32_t{0}, col_max = 0;
            for (std::uint32_t h = 0; h < dv; ++h) {
                std::uint32_t col = 0;
                for (std::uint32_t b = 0; b < s_eff; ++b) col += matrices.x(b, h);
                col_min = std::min(col_min, col);
                col_max = std::max(col_max, col);
            }
            smp.occupancy_spread = col_max - col_min;
            for (std::uint32_t b = 0; b < s_eff; ++b) {
                std::uint64_t row_sum = 0;
                for (std::uint32_t h = 0; h < dv; ++h) {
                    const std::uint32_t a = matrices.aux(b, h);
                    smp.max_a = std::max(smp.max_a, a);
                    row_sum += a;
                }
                smp.a_row_sum_max = std::max(smp.a_row_sum_max, row_sum);
            }
            smp.rounds = static_cast<std::uint32_t>(rounds);
            smp.direct =
                static_cast<std::uint32_t>(local_stats.direct_blocks - before_track.direct_blocks);
            smp.matched = static_cast<std::uint32_t>(local_stats.matched_blocks -
                                                     before_track.matched_blocks);
            smp.deferred = static_cast<std::uint32_t>(local_stats.deferred_blocks -
                                                      before_track.deferred_blocks);
            if (timeline != nullptr) timeline->tracks.push_back(smp);
            if (mreg != nullptr) {
                h_rounds->record(smp.rounds);
                h_skew->record(smp.occupancy_spread);
                c_matched->add(smp.matched);
                c_deferred->add(smp.deferred);
                c_direct->add(smp.direct);
                c_tracks->add(1);
            }
        }
    }

    // Emit the per-bucket sketch pivots for the next level.
    for (std::uint32_t b = 0; b < s_eff; ++b) {
        if (sketches.empty() || sketches[b] == nullptr || buckets[b].run.n_records == 0) {
            continue;
        }
        buckets[b].sketch_pivots.keys = sketches[b]->quantiles(sketch_child_s - 1);
        buckets[b].has_sketch_pivots = !buckets[b].sketch_pivots.keys.empty();
        if (meter != nullptr) {
            // Sketch maintenance: amortized O(log(n/k)) comparisons/record.
            meter->add_comparisons(buckets[b].run.n_records *
                                   std::max<std::size_t>(1, sketches[b]->levels()));
        }
    }
    if (stats != nullptr) stats->merge(local_stats);
    return buckets;
}

} // namespace balsort
