#include "pram/parallel_sort.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/common.hpp"
#include "util/math.hpp"

namespace balsort {

namespace {

/// Charged comparisons of a comparison sort on n elements, about n·log2 n.
std::uint64_t nlogn(std::uint64_t n) {
    return n == 0 ? 0 : n * std::max<std::uint64_t>(1, ilog2_ceil(n | 1));
}

} // namespace

void binary_merge(std::span<const Record> a, std::span<const Record> b, std::span<Record> out,
                  WorkMeter* meter) {
    BS_REQUIRE(out.size() == a.size() + b.size(), "binary_merge: output size mismatch");
    std::size_t i = 0, j = 0, k = 0;
    while (i < a.size() && j < b.size()) {
        if (b[j].key < a[i].key) {
            out[k++] = b[j++];
        } else {
            out[k++] = a[i++];
        }
    }
    while (i < a.size()) out[k++] = a[i++];
    while (j < b.size()) out[k++] = b[j++];
    if (meter != nullptr) {
        meter->add_comparisons(out.size());
        meter->add_moves(out.size());
    }
}

namespace {

/// Widest digit of the radix kernel: 2^11 buckets.
constexpr unsigned kRadixDigitBits = 11;
/// The parallel split aims at buckets of about 2^12 records: large enough
/// that a bucket's digit histograms cost little per record, small enough
/// to stay in cache while its passes run.
constexpr unsigned kSplitBucketBits = 12;
/// Sets this small are insertion-sorted: a digit histogram would cost more
/// than the records.
constexpr std::size_t kInsertionCutoff = 32;

/// OR of `key ^ first key`: the key bits that vary across `records`.
std::uint64_t varying_bits(std::span<const Record> records) {
    std::uint64_t varying = 0;
    for (const Record& r : records) varying |= r.key ^ records[0].key;
    return varying;
}

/// Serial stable LSD radix sort of `data` by key over its varying bits,
/// with `tmp` (same size) as the other buffer. Digits are at most 11 bits,
/// and no wider than the record count's bit width, so a histogram never
/// outweighs its records; the passes split the varying span evenly, and a
/// pass whose histogram puts every record in one bucket is skipped.
/// Returns whichever of the two buffers holds the sorted records.
std::span<Record> lsd_radix_sort(std::span<Record> data, std::span<Record> tmp,
                                 std::vector<std::size_t>& count) {
    const std::size_t n = data.size();
    if (n <= kInsertionCutoff) {
        for (std::size_t i = 1; i < n; ++i) {
            const Record r = data[i];
            std::size_t j = i;
            for (; j > 0 && r.key < data[j - 1].key; --j) data[j] = data[j - 1];
            data[j] = r;
        }
        return data;
    }
    const std::uint64_t varying = varying_bits(data);
    if (varying == 0) return data;
    const unsigned low = static_cast<unsigned>(std::countr_zero(varying));
    const unsigned span_bits = 64 - static_cast<unsigned>(std::countl_zero(varying)) - low;
    const unsigned max_bits =
        std::min(kRadixDigitBits, static_cast<unsigned>(std::bit_width(n)));
    const unsigned passes = (span_bits + max_bits - 1) / max_bits;
    const unsigned bits = (span_bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << bits;
    const std::uint64_t digit_mask = buckets - 1;
    count.resize(buckets);
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = low + pass * bits;
        std::fill(count.begin(), count.end(), 0);
        for (const Record& r : data) ++count[(r.key >> shift) & digit_mask];
        std::size_t acc = 0;
        bool one_bucket = false;
        for (std::size_t& c : count) {
            one_bucket = one_bucket || c == n;
            acc += std::exchange(c, acc);
        }
        if (one_bucket) continue;
        for (const Record& r : data) tmp[count[(r.key >> shift) & digit_mask]++] = r;
        std::swap(data, tmp);
    }
    return data;
}

/// The radix kernel behind both internal sorts. Small inputs take the
/// serial LSD sort. Larger ones first split on a top digit of the varying
/// bits, sized for buckets of about 2^12 records: per-lane histograms laid
/// out digit-major, lane-minor make that scatter stable. Each lane then
/// LSD-sorts whole buckets, chosen by where their first record falls, so
/// no two lanes write near each other. Every step is stable, so the output
/// equals std::stable_sort's byte for byte.
void radix_sort_kernel(std::span<Record> records, const Parallel& pool) {
    const std::size_t n = records.size();
    if (n <= 1) return;
    std::vector<Record> scratch(n);
    if (n < kParallelCutoff) { // one serial LSD sort
        std::vector<std::size_t> count;
        const std::span<Record> out = lsd_radix_sort(records, scratch, count);
        if (out.data() != records.data()) std::copy(out.begin(), out.end(), records.begin());
        return;
    }

    const std::size_t p = pool.size();
    std::vector<std::uint64_t> lane_varying(p, 0);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        std::uint64_t v = 0;
        for (std::size_t i = lo; i < hi; ++i) v |= records[i].key ^ records[0].key;
        lane_varying[w] = v;
    });
    std::uint64_t varying = 0;
    for (std::uint64_t v : lane_varying) varying |= v;
    if (varying == 0) return; // all keys equal: already stably sorted

    const unsigned top = 63 - static_cast<unsigned>(std::countl_zero(varying));
    const unsigned low = static_cast<unsigned>(std::countr_zero(varying));
    const unsigned bits =
        std::min({kRadixDigitBits, top - low + 1,
                  static_cast<unsigned>(std::bit_width(n)) - kSplitBucketBits});
    const unsigned shift = top + 1 - bits;
    const std::size_t buckets = std::size_t{1} << bits;
    const std::uint64_t digit_mask = buckets - 1;

    std::vector<std::size_t> hist(p * buckets); // hist[w * buckets + digit]
    std::vector<std::pair<std::size_t, std::size_t>> ranges(p, {0, 0});
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        ranges[w] = {lo, hi};
        std::size_t* h = hist.data() + w * buckets;
        for (std::size_t i = lo; i < hi; ++i) ++h[(records[i].key >> shift) & digit_mask];
    });
    std::vector<std::size_t> bucket_start(buckets + 1);
    std::size_t acc = 0;
    for (std::size_t d = 0; d < buckets; ++d) {
        bucket_start[d] = acc;
        for (std::size_t w = 0; w < p; ++w) acc += std::exchange(hist[w * buckets + d], acc);
    }
    bucket_start[buckets] = n;
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        BS_MODEL_CHECK(ranges[w] == std::make_pair(lo, hi),
                       "radix chunking changed between passes");
        std::size_t* h = hist.data() + w * buckets;
        for (std::size_t i = lo; i < hi; ++i) {
            scratch[h[(records[i].key >> shift) & digit_mask]++] = records[i];
        }
    });
    pool.parallel_for(0, p, [&](std::size_t lo, std::size_t hi, std::size_t) {
        std::vector<std::size_t> count;
        for (std::size_t w = lo; w < hi; ++w) {
            for (std::size_t d = 0; d < buckets; ++d) {
                const std::size_t b_lo = bucket_start[d], b_hi = bucket_start[d + 1];
                if (b_lo == b_hi || b_lo * p / n != w) continue;
                const std::span<Record> home = records.subspan(b_lo, b_hi - b_lo);
                const std::span<Record> out = lsd_radix_sort(
                    std::span<Record>(scratch).subspan(b_lo, b_hi - b_lo), home, count);
                if (out.data() != home.data()) std::copy(out.begin(), out.end(), home.begin());
            }
        }
    });
}

} // namespace

void parallel_merge_sort(std::span<Record> records, const Parallel& pool, WorkMeter* meter,
                         PramCost* cost) {
    const std::size_t n = records.size();
    if (n <= 1) return;
    radix_sort_kernel(records, pool);

    // Charged as Cole's merge sort: each of p processors sorts its slice,
    // then log p rounds of pairwise merges, each a parallel collective.
    const std::size_t p = std::min<std::size_t>(pool.size(), (n + 1) / 2);
    if (meter != nullptr) meter->add_comparisons(nlogn(n / p) * p);
    if (cost != nullptr) {
        cost->charge_parallel_work(nlogn(n));
        cost->charge_collective();
    }
    for (std::size_t runs = p; runs > 1; runs = runs / 2 + runs % 2) {
        if (meter != nullptr) {
            meter->add_comparisons(n);
            meter->add_moves(n);
        }
        if (cost != nullptr) {
            cost->charge_parallel_work(2 * n);
            cost->charge_collective();
        }
    }
}

void parallel_radix_sort(std::span<Record> records, const Parallel& pool, WorkMeter* meter,
                         PramCost* cost) {
    const std::size_t n = records.size();
    if (n <= 1) return;
    radix_sort_kernel(records, pool);

    // Charged as a full-key LSD radix sort: radix 2^11, 6 counting passes.
    constexpr unsigned kChargedPasses = 6;
    for (unsigned pass = 0; pass < kChargedPasses; ++pass) {
        if (meter != nullptr) meter->add_moves(2 * n);
        if (cost != nullptr) {
            cost->charge_parallel_work(2 * n);
            cost->charge_collective();
        }
    }
}

void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    WorkMeter* meter) {
    const std::size_t k = runs.size();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    BS_REQUIRE(out.size() == total, "multiway_merge: output size mismatch");
    if (k == 0) return;
    if (k == 1) {
        std::copy(runs[0].begin(), runs[0].end(), out.begin());
        if (meter != nullptr) meter->add_moves(total);
        return;
    }

    // Loser tree over k runs. Leaves hold the current head of each run.
    const std::size_t width = std::size_t{1} << ilog2_ceil(k | 1);
    constexpr std::uint64_t kInfKey = ~std::uint64_t{0};
    struct Head {
        std::uint64_t key;
        std::uint32_t run;
    };
    std::vector<std::size_t> pos(k, 0);
    auto head_key = [&](std::size_t r) -> std::uint64_t {
        if (r >= k || pos[r] >= runs[r].size()) return kInfKey;
        return runs[r][pos[r]].key;
    };
    // Simple winner tree (rebuilt path per pop): tree[i] = run index of winner.
    std::vector<std::uint32_t> tree(2 * width, 0);
    for (std::size_t i = 0; i < width; ++i) tree[width + i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = width - 1; i >= 1; --i) {
        std::uint32_t a = tree[2 * i], b = tree[2 * i + 1];
        tree[i] = head_key(a) <= head_key(b) ? a : b;
        if (i == 1) break;
    }
    std::uint64_t comparisons = 0;
    for (std::size_t o = 0; o < total; ++o) {
        std::uint32_t r = tree[1];
        BS_MODEL_CHECK(head_key(r) != kInfKey, "loser tree produced exhausted run");
        out[o] = runs[r][pos[r]++];
        // Replay the path from leaf r upward.
        std::size_t node = (width + r) / 2;
        while (node >= 1) {
            std::uint32_t a = tree[2 * node], b = tree[2 * node + 1];
            tree[node] = head_key(a) <= head_key(b) ? a : b;
            ++comparisons;
            if (node == 1) break;
            node /= 2;
        }
    }
    if (meter != nullptr) {
        meter->add_comparisons(comparisons);
        meter->add_moves(total);
    }
}

namespace {

/// Count of records with key <= x (resp. < x) across all runs.
std::size_t count_leq(std::span<const std::span<const Record>> runs, std::uint64_t x) {
    std::size_t n = 0;
    for (const auto& r : runs) {
        n += static_cast<std::size_t>(
            std::upper_bound(r.begin(), r.end(), x,
                             [](std::uint64_t k, const Record& rec) { return k < rec.key; }) -
            r.begin());
    }
    return n;
}

std::size_t run_lower_bound(std::span<const Record> r, std::uint64_t x) {
    return static_cast<std::size_t>(
        std::lower_bound(r.begin(), r.end(), x,
                         [](const Record& rec, std::uint64_t k) { return rec.key < k; }) -
        r.begin());
}

std::size_t run_upper_bound(std::span<const Record> r, std::uint64_t x) {
    return static_cast<std::size_t>(
        std::upper_bound(r.begin(), r.end(), x,
                         [](std::uint64_t k, const Record& rec) { return k < rec.key; }) -
        r.begin());
}

} // namespace

void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    const Parallel& pool, WorkMeter* meter) {
    const std::size_t k = runs.size();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    BS_REQUIRE(out.size() == total, "multiway_merge: output size mismatch");

    // The serial loser tree emits records in (key, run index, position)
    // order: equal keys tie-break toward the left subtree, i.e. the lower
    // run index. Splitting the *output rank space* along that same order
    // makes every part independent and the concatenation byte-identical.
    constexpr std::size_t kMinPart = 1024; // don't fan out trivial merges
    const std::size_t parts =
        std::min(pool.size(), std::max<std::size_t>(1, total / kMinPart));
    if (parts <= 1 || k <= 1) {
        multiway_merge(runs, out, meter);
        return;
    }

    // bounds[i][r]: index into runs[r] where part i begins. Part i covers
    // output ranks [total·i/parts, total·(i+1)/parts). The split key for a
    // rank target is found by binary search over the u64 key domain; the
    // residue of equal keys is assigned to runs in run-index order.
    std::vector<std::vector<std::size_t>> bounds(parts + 1, std::vector<std::size_t>(k, 0));
    for (std::size_t r = 0; r < k; ++r) bounds[parts][r] = runs[r].size();
    for (std::size_t i = 1; i < parts; ++i) {
        const std::size_t t = total * i / parts;
        std::uint64_t lo = 0, hi = ~std::uint64_t{0};
        while (lo < hi) { // minimal x with count_leq(x) >= t
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (count_leq(runs, mid) >= t) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        const std::uint64_t x = lo;
        std::size_t count_less = 0;
        for (std::size_t r = 0; r < k; ++r) count_less += run_lower_bound(runs[r], x);
        std::size_t q = t - count_less; // ==x records in the prefix, run order
        for (std::size_t r = 0; r < k; ++r) {
            const std::size_t lb = run_lower_bound(runs[r], x);
            const std::size_t ub = run_upper_bound(runs[r], x);
            const std::size_t take = std::min(q, ub - lb);
            bounds[i][r] = lb + take;
            q -= take;
        }
        BS_MODEL_CHECK(q == 0, "multiway_merge: rank split lost equal-key records");
    }

    std::vector<WorkMeter> part_meters(parts);
    pool.parallel_for(0, parts, [&](std::size_t plo, std::size_t phi, std::size_t) {
        for (std::size_t part = plo; part < phi; ++part) {
            std::vector<std::span<const Record>> sub(k);
            std::size_t out_lo = 0, part_total = 0;
            for (std::size_t r = 0; r < k; ++r) {
                out_lo += bounds[part][r];
                const std::size_t len = bounds[part + 1][r] - bounds[part][r];
                sub[r] = runs[r].subspan(bounds[part][r], len);
                part_total += len;
            }
            multiway_merge(std::span<const std::span<const Record>>(sub),
                           out.subspan(out_lo, part_total), &part_meters[part]);
        }
    });
    if (meter != nullptr) {
        std::uint64_t comparisons = 0;
        for (const WorkMeter& pm : part_meters) comparisons += pm.comparisons();
        meter->add_comparisons(comparisons);
        meter->add_moves(total);
    }
}

std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, WorkMeter* meter) {
    std::vector<std::uint32_t> idx(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        // bucket = number of pivots <= key (keys equal to a pivot go right,
        // so bucket i covers [pivots[i-1], pivots[i]) exclusive of pivot).
        idx[i] = pivot_upper_bound(pivots, records[i].key);
    }
    if (meter != nullptr) {
        meter->add_comparisons(records.size() *
                               std::max<std::uint64_t>(1, ilog2_ceil(pivots.size() | 1)));
    }
    return idx;
}

std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, const Parallel& pool,
                                     WorkMeter* meter) {
    std::vector<std::uint32_t> idx(records.size());
    pool.parallel_for(0, records.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
            idx[i] = pivot_upper_bound(pivots, records[i].key);
        }
    });
    if (meter != nullptr) {
        meter->add_comparisons(records.size() *
                               std::max<std::uint64_t>(1, ilog2_ceil(pivots.size() | 1)));
    }
    return idx;
}

} // namespace balsort
