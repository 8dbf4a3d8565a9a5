#include "pram/selection.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/common.hpp"
#include "util/math.hpp"

namespace balsort {

namespace {

// In-place deterministic select on a scratch vector, 0-based k.
std::uint64_t select_impl(std::vector<std::uint64_t>& v, std::size_t lo, std::size_t hi,
                          std::size_t k, WorkMeter* meter) {
    while (true) {
        const std::size_t n = hi - lo;
        if (n <= 10) {
            std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
                      v.begin() + static_cast<std::ptrdiff_t>(hi));
            if (meter != nullptr) meter->add_comparisons(n * 4); // ~n log n, n<=10
            return v[lo + k];
        }
        // Median of medians of groups of 5.
        std::size_t n_groups = 0;
        for (std::size_t g = lo; g < hi; g += 5) {
            std::size_t ge = std::min(g + 5, hi);
            std::sort(v.begin() + static_cast<std::ptrdiff_t>(g),
                      v.begin() + static_cast<std::ptrdiff_t>(ge));
            std::swap(v[lo + n_groups], v[g + (ge - g) / 2]);
            ++n_groups;
        }
        if (meter != nullptr) meter->add_comparisons(n * 2);
        std::uint64_t pivot =
            select_impl(v, lo, lo + n_groups, (n_groups - 1) / 2, meter);
        // 3-way partition around pivot.
        std::size_t lt = lo, i = lo, gt = hi;
        while (i < gt) {
            if (v[i] < pivot) {
                std::swap(v[lt++], v[i++]);
            } else if (v[i] > pivot) {
                std::swap(v[i], v[--gt]);
            } else {
                ++i;
            }
        }
        if (meter != nullptr) {
            meter->add_comparisons(n);
            meter->add_moves(n);
        }
        const std::size_t n_lt = lt - lo;
        const std::size_t n_eq = gt - lt;
        if (k < n_lt) {
            hi = lt;
        } else if (k < n_lt + n_eq) {
            return pivot;
        } else {
            k -= n_lt + n_eq;
            lo = gt;
        }
    }
}

} // namespace

std::uint64_t select_kth(std::span<const std::uint64_t> values, std::size_t k, WorkMeter* meter) {
    BS_REQUIRE(k >= 1 && k <= values.size(), "select_kth: k out of range");
    std::vector<std::uint64_t> scratch(values.begin(), values.end());
    if (meter != nullptr) meter->add_moves(values.size());
    return select_impl(scratch, 0, scratch.size(), k - 1, meter);
}

std::uint64_t paper_median(std::span<const std::uint64_t> values, WorkMeter* meter) {
    BS_REQUIRE(!values.empty(), "paper_median: empty input");
    return select_kth(values, ceil_div(values.size(), 2), meter);
}

namespace {

/// Sets of at most this many keys are sorted and indexed directly.
constexpr std::size_t kSelectSortCutoff = 96;
/// Digit width of the radix multi-select: 2^11 buckets per level.
constexpr unsigned kSelectDigitBits = 11;

/// One pending subproblem of the radix multi-select: `n` keys at
/// buffer `which`, offsets [lo, lo + n), holding the requested ranks
/// [r_lo, r_hi) of the caller's list; `base` keys of the whole input rank
/// below every key of the set.
struct SelectTask {
    unsigned which;
    std::size_t lo, n;
    std::size_t r_lo, r_hi;
    std::uint64_t base;
};

/// The charge of the comparison-based rank-splitting recursion the model
/// is stated in: each node selects its middle rank from `n` records at
/// 2n comparisons and n/2 moves, then recurses on both sides. Node sizes
/// depend only on (n, ranks), so the walk needs no keys.
void charge_rank_splitting(std::uint64_t n, std::span<const std::uint64_t> ranks,
                           std::uint64_t offset, std::uint64_t& comparisons,
                           std::uint64_t& moves) {
    while (!ranks.empty()) {
        const std::size_t mid = ranks.size() / 2;
        const std::uint64_t local = ranks[mid] - offset;
        comparisons += 2 * n;
        moves += n / 2;
        charge_rank_splitting(local - 1, ranks.first(mid), offset, comparisons, moves);
        n -= local;
        offset += local;
        ranks = ranks.subspan(mid + 1);
    }
}

/// Radix multi-select. Each subproblem histograms the top digit of its
/// varying bits, maps every requested rank to its digit bucket, and
/// gathers only the needed buckets into the other buffer (all-equal ones
/// answer their ranks without a gather), at offsets inside the range it
/// occupies itself, so two n-key buffers serve every level. The first
/// level reads the records in place. Order statistics are unique, so the
/// keys equal any other selector's.
std::vector<std::uint64_t> radix_multi_select(std::span<const Record> records,
                                              std::span<const std::uint64_t> ranks) {
    std::vector<std::uint64_t> out(ranks.size());
    if (ranks.empty()) return out;
    const std::size_t n = records.size();
    std::unique_ptr<std::uint64_t[]> buf[2] = {std::make_unique_for_overwrite<std::uint64_t[]>(n),
                                               std::make_unique_for_overwrite<std::uint64_t[]>(n)};
    constexpr std::size_t kNotNeeded = ~std::size_t{0};
    std::vector<std::size_t> table(std::size_t{1} << kSelectDigitBits);
    std::vector<std::uint64_t> key_and(table.size()), key_or(table.size());
    std::vector<SelectTask> stack;

    // Splits the set `t` whose i-th key is key(i) into the buckets its
    // ranks land in, queueing one subproblem per bucket.
    const auto split = [&](const SelectTask& t, auto key) {
        const std::uint64_t first = key(0);
        std::uint64_t varying = 0;
        for (std::size_t i = 0; i < t.n; ++i) varying |= key(i) ^ first;
        if (varying == 0) {
            std::fill(out.begin() + static_cast<std::ptrdiff_t>(t.r_lo),
                      out.begin() + static_cast<std::ptrdiff_t>(t.r_hi), first);
            return;
        }
        const unsigned top = 63 - static_cast<unsigned>(std::countl_zero(varying));
        const unsigned bits = std::min({kSelectDigitBits, top + 1,
                                        static_cast<unsigned>(std::bit_width(t.n))});
        const unsigned shift = top + 1 - bits;
        const std::uint64_t digit_mask = (std::uint64_t{1} << bits) - 1;
        const std::size_t buckets = std::size_t{1} << bits;

        std::fill_n(table.begin(), buckets, 0);
        for (std::size_t i = 0; i < t.n; ++i) ++table[(key(i) >> shift) & digit_mask];

        // Calls f(d, count, r_first, r_end, below) for each bucket d in key
        // order: its `count` keys, the ranks [r_first, r_end) landing in
        // it, and the `below` keys in the buckets before it.
        const auto each_bucket = [&](auto f) {
            std::size_t below = 0;
            std::size_t r = t.r_lo;
            for (std::size_t d = 0; d < buckets; ++d) {
                const std::size_t count = table[d];
                const std::size_t r_first = r;
                while (r < t.r_hi && ranks[r] - t.base <= below + count) ++r;
                f(d, count, r_first, r, below);
                below += count;
            }
        };
        // A gather of most of the set means a few large buckets, as with
        // duplicate-heavy keys. Then one more pass finds the buckets whose
        // keys are all equal (AND == OR): they answer their ranks at once
        // and are not gathered. The pass is not folded into the histogram
        // above: on uniform keys that slowed the whole kernel by a quarter.
        std::size_t needed = 0;
        each_bucket([&](std::size_t, std::size_t count, std::size_t r_first, std::size_t r_end,
                        std::size_t) {
            if (r_end != r_first) needed += count;
        });
        const bool test_equal = 2 * needed > t.n;
        if (test_equal) {
            std::fill_n(key_and.begin(), buckets, ~std::uint64_t{0});
            std::fill_n(key_or.begin(), buckets, 0);
            for (std::size_t i = 0; i < t.n; ++i) {
                const std::uint64_t k = key(i);
                key_and[(k >> shift) & digit_mask] &= k;
                key_or[(k >> shift) & digit_mask] |= k;
            }
        }

        // Turn each count into the bucket's offset in the other buffer if
        // it must be gathered, or kNotNeeded if not.
        const unsigned other = 1 - t.which;
        std::size_t gathered = 0; // keys of gathered buckets before d
        each_bucket([&](std::size_t d, std::size_t count, std::size_t r_first, std::size_t r_end,
                        std::size_t below) {
            if (r_end == r_first) {
                table[d] = kNotNeeded;
            } else if (test_equal && key_and[d] == key_or[d]) {
                std::fill(out.begin() + static_cast<std::ptrdiff_t>(r_first),
                          out.begin() + static_cast<std::ptrdiff_t>(r_end), key_or[d]);
                table[d] = kNotNeeded;
            } else {
                table[d] = t.lo + gathered;
                stack.push_back({other, t.lo + gathered, count, r_first, r_end, t.base + below});
                gathered += count;
            }
        });
        std::uint64_t* dst = buf[other].get();
        for (std::size_t i = 0; i < t.n; ++i) {
            const std::uint64_t k = key(i);
            std::size_t& slot = table[(k >> shift) & digit_mask];
            if (slot != kNotNeeded) dst[slot++] = k;
        }
    };

    if (n <= kSelectSortCutoff) {
        for (std::size_t i = 0; i < n; ++i) buf[0][i] = records[i].key;
        stack.push_back({0, 0, n, 0, ranks.size(), 0});
    } else {
        // The records stand in for buffer 1, so the first level's buckets
        // land in buffer 0.
        split(SelectTask{1, 0, n, 0, ranks.size(), 0},
              [&records](std::size_t i) { return records[i].key; });
    }
    while (!stack.empty()) {
        const SelectTask t = stack.back();
        stack.pop_back();
        std::uint64_t* keys = buf[t.which].get() + t.lo;
        if (t.n <= kSelectSortCutoff) {
            std::sort(keys, keys + t.n);
            for (std::size_t r = t.r_lo; r < t.r_hi; ++r) out[r] = keys[ranks[r] - t.base - 1];
            continue;
        }
        split(t, [keys](std::size_t i) { return keys[i]; });
    }
    return out;
}

} // namespace

std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             WorkMeter* meter) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        BS_REQUIRE(ranks[i] >= 1 && ranks[i] <= records.size(),
                   "multi_select_keys: rank out of range");
        BS_REQUIRE(i == 0 || ranks[i] > ranks[i - 1],
                   "multi_select_keys: ranks must be strictly increasing");
    }
    if (meter != nullptr) {
        std::uint64_t comparisons = 0, moves = 0;
        charge_rank_splitting(records.size(), ranks, 0, comparisons, moves);
        meter->add_comparisons(comparisons);
        meter->add_moves(moves);
    }
    return radix_multi_select(records, ranks);
}

std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             const Parallel& /*pool*/, WorkMeter* meter) {
    return multi_select_keys(records, ranks, meter);
}

} // namespace balsort
