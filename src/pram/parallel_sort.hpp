#pragma once
/// \file parallel_sort.hpp
/// Internal (in-memory) sorting used at the recursion base and inside
/// Balance, with work metering and PRAM cost accounting.
///
/// Two sorts, mirroring the paper's §5 toolbox. Each is charged as the
/// paper's model says; both run the same physical kernel, a stable radix
/// sort over the key bits that vary, which returns exactly what a stable
/// comparison sort would:
///  * `parallel_merge_sort` — charged as Cole's EREW PRAM merge sort [Col]:
///    log(n/P) local phase + log P cascaded parallel merges, O(n log n)
///    work, O((n/P) log n) charged PRAM time.
///  * `parallel_radix_sort` — charged as an LSD radix sort playing the
///    Rajasekaran–Reif [RaR] role: O(n · ceil(64/r)) work.
/// Plus `multiway_merge`, used by the merge-sort baselines and Algorithm 2's
/// "binary merge sort" of sample sets — serial loser-tree form, and a
/// splitter-partitioned parallel form (Rahn/Sanders-style: each lane merges
/// an independent key range of all k runs, byte-identical output).

#include <cstdint>
#include <span>
#include <vector>

#include "pram/executor.hpp"
#include "pram/pram_cost.hpp"
#include "util/record.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// Stable sort by key, charged to `meter` and `cost` (if given) as the
/// Cole merge sort above; the physical kernel is the radix kernel.
void parallel_merge_sort(std::span<Record> records, const Parallel& pool,
                         WorkMeter* meter = nullptr, PramCost* cost = nullptr);

/// Stable sort by key, charged as the full-key LSD radix sort above; the
/// physical kernel is the same radix kernel as `parallel_merge_sort`'s.
void parallel_radix_sort(std::span<Record> records, const Parallel& pool,
                         WorkMeter* meter = nullptr, PramCost* cost = nullptr);

/// Merge `runs` (each sorted by key) into `out` (sized to the total).
/// Loser-tree k-way merge: O(n log k) comparisons.
void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    WorkMeter* meter = nullptr);

/// Parallel k-way merge: the output is split into `pool.size()` key ranges
/// at ranks i·n/p (ties broken by run index, matching the loser tree's
/// emission order), and each part is merged independently. The output is
/// byte-identical to the serial form; metered comparisons are the sum of
/// the per-part loser-tree path comparisons (deterministic for a given
/// input and width, but not equal to the serial count).
void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    const Parallel& pool, WorkMeter* meter = nullptr);

/// Binary merge of exactly two sorted runs (Algorithm 1 step (3) helper).
void binary_merge(std::span<const Record> a, std::span<const Record> b, std::span<Record> out,
                  WorkMeter* meter = nullptr);

/// Partition sorted-or-not `records` among `s` buckets delimited by
/// `pivots` (sorted, size s-1): bucket i gets keys in [pivots[i-1], pivots[i]).
/// Returns bucket index per record. O(n log s) comparisons via branchless
/// binary search (no data-dependent branches in the probe loop).
std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots,
                                     WorkMeter* meter = nullptr);

/// Data-parallel form of `bucket_of`: classification fans out over the
/// lanes of `pool`; identical output and identical metered charges.
std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, const Parallel& pool,
                                     WorkMeter* meter = nullptr);

/// Memoryloads of at least this many records are split over the lanes
/// (the radix base case and the Balance partition); smaller ones run
/// serially, since a fork-join costs more than the work it would spread.
inline constexpr std::size_t kParallelCutoff = std::size_t{1} << 16;

/// Number of `pivots` (sorted ascending) that are <= key — a branchless
/// upper_bound. The step is an all-ones/all-zeros mask ANDed into the
/// offset, so the loop's only branch is its trip count, which depends on
/// pivots.size() alone. The building block of every classification loop.
inline std::uint32_t pivot_upper_bound(std::span<const std::uint64_t> pivots,
                                       std::uint64_t key) {
    if (pivots.empty()) return 0;
    const std::uint64_t* base = pivots.data();
    std::size_t n = pivots.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base += half & (std::size_t{0} - static_cast<std::size_t>(base[half - 1] <= key));
        n -= half;
    }
    return static_cast<std::uint32_t>(base - pivots.data()) +
           static_cast<std::uint32_t>(*base <= key);
}

/// Number of `pivots` (sorted ascending) that are < key — the branchless
/// lower_bound twin, in the same mask form (PivotSet::bucket_of).
inline std::uint32_t pivot_lower_bound(std::span<const std::uint64_t> pivots,
                                       std::uint64_t key) {
    if (pivots.empty()) return 0;
    const std::uint64_t* base = pivots.data();
    std::size_t n = pivots.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base += half & (std::size_t{0} - static_cast<std::size_t>(base[half - 1] < key));
        n -= half;
    }
    return static_cast<std::uint32_t>(base - pivots.data()) +
           static_cast<std::uint32_t>(*base < key);
}

/// `pivot_lower_bound` of K keys at once. The K searches walk the same
/// sequence of widths, so their probes interleave and the pivot loads of
/// one key overlap those of the others instead of forming one long
/// dependency chain per key.
template <std::size_t K>
inline void pivot_lower_bound_batch(std::span<const std::uint64_t> pivots,
                                    const std::uint64_t (&keys)[K], std::uint32_t (&out)[K]) {
    if (pivots.empty()) {
        for (std::size_t j = 0; j < K; ++j) out[j] = 0;
        return;
    }
    const std::uint64_t* const data = pivots.data();
    std::size_t at[K] = {};
    std::size_t n = pivots.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        for (std::size_t j = 0; j < K; ++j) {
            at[j] += half & (std::size_t{0} -
                             static_cast<std::size_t>(data[at[j] + half - 1] < keys[j]));
        }
        n -= half;
    }
    for (std::size_t j = 0; j < K; ++j) {
        out[j] = static_cast<std::uint32_t>(at[j]) +
                 static_cast<std::uint32_t>(data[at[j]] < keys[j]);
    }
}

} // namespace balsort
