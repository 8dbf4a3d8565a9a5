#pragma once
/// \file selection.hpp
/// Deterministic linear-time selection (Blum–Floyd–Pratt–Rivest–Tarjan
/// [BFP], cited by the paper). Used by ComputeAux to find the median of a
/// histogram row, and by partition-element selection.
///
/// Note the paper's median convention (§4, footnote 3): "the median is
/// always the ⌈D/2⌉-th smallest element", *not* the statistics convention.
/// `paper_median` implements exactly that.

#include <cstdint>
#include <span>
#include <vector>

#include "pram/executor.hpp"
#include "util/record.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// Return the k-th smallest (1-based) of `values` using deterministic
/// median-of-medians. Does not modify the input. O(n) comparisons.
std::uint64_t select_kth(std::span<const std::uint64_t> values, std::size_t k,
                         WorkMeter* meter = nullptr);

/// The paper's median: the ⌈n/2⌉-th smallest element of the row.
std::uint64_t paper_median(std::span<const std::uint64_t> values, WorkMeter* meter = nullptr);

/// Deterministic multi-selection: the record keys at the given 1-based
/// ranks (sorted ascending, in [1, records.size()]) in key order. Leaves
/// `records` untouched.
///
/// The charge is the paper's model: a rank-splitting selection recursion
/// at 2n comparisons and n/2 moves per node, O(n log k) in all — what
/// keeps the pivot pass within Theorem 1's O((N/P) log N) work budget,
/// since each memoryload is *selected at 8S ranks*, not fully sorted. The
/// node sizes depend only on (n, ranks), so the charge is computed from
/// them. The physical kernel is a radix multi-select over the key bits
/// that vary: it histograms an 11-bit digit, keeps only the buckets a rank
/// lands in, and recurses on those. Order statistics are unique, so it
/// returns the same keys as any comparison-based selector.
std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             WorkMeter* meter = nullptr);

/// The same selection for callers that hold a compute view: same keys,
/// same charge. The kernel runs on the calling thread; `pool` is unused.
std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             const Parallel& pool, WorkMeter* meter = nullptr);

} // namespace balsort
