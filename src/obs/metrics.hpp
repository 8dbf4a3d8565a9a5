#pragma once
// Metrics registry: named counters, gauges, and fixed-bucket log-scale
// histograms with a JSON snapshot exporter.
//
// Histograms use 65 power-of-two buckets keyed by bit width — bucket 0
// holds the value 0 and bucket k holds [2^(k-1), 2^k) — so recording is one
// `bit_width` plus a relaxed atomic increment, with no configuration and no
// allocation on the hot path. That resolution (one bucket per doubling) is
// the right grain for latency distributions: per-disk read/write latency,
// engine queue depth, pool acquire sizes.
//
// Instruments are created (or looked up) by name under a mutex and then
// live for the registry's lifetime, so call sites resolve `Histogram*` once
// and record lock-free afterwards. All instruments are thread-safe.
//
// Like the tracer, the registry is published through one process-wide
// atomic slot: `balsort::metrics()` returns the installed registry or
// nullptr, and BALSORT_NO_OBS makes the accessor constexpr nullptr so all
// instrumentation compiles out.
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace balsort {

class Counter {
  public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

class Gauge {
  public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

class Histogram {
  public:
    static constexpr int kBuckets = 65;

    /// Bucket index for a value: 0 for 0, otherwise bit_width(v) (so bucket
    /// k counts values in [2^(k-1), 2^k)).
    static int bucket_of(std::uint64_t v) { return v == 0 ? 0 : std::bit_width(v); }

    /// Inclusive upper bound of a bucket's value range.
    static std::uint64_t bucket_upper_bound(int b) {
        if (b <= 0) return 0;
        if (b >= 64) return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    void record(std::uint64_t v) {
        buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        // High-water max; relaxed CAS loop — contention here is rare.
        std::uint64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
    }
    std::uint64_t bucket_count(int b) const { return buckets_[b].load(std::memory_order_relaxed); }

    /// Approximate percentile: the upper bound of the bucket containing the
    /// q-th sample (q in [0, 100]). Accurate to one doubling.
    std::uint64_t percentile_upper_bound(double q) const;

  private:
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
  public:
    MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Process-unique instance id (never 0), as Tracer::epoch().
    std::uint64_t epoch() const { return epoch_; }

    /// Create-or-lookup by name. Returned references stay valid for the
    /// registry's lifetime. Thread-safe; resolve once, record lock-free.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
    /// {name: {count, sum, mean, max, p50, p95, p99, buckets: [[ub, n]...]}}}.
    /// Non-empty buckets only.
    void write_json(std::ostream& os) const;
    std::string to_json() const;
    bool write_json_file(const std::string& path) const;

    /// Name→instrument listing for exporters (exposition.hpp). Instruments
    /// live for the registry's lifetime, so the pointers stay valid after
    /// the call; the listing itself is a point-in-time copy of the name
    /// sets, taken under the registry mutex.
    struct Snapshot {
        std::vector<std::pair<std::string, const Counter*>> counters;
        std::vector<std::pair<std::string, const Gauge*>> gauges;
        std::vector<std::pair<std::string, const Histogram*>> histograms;
    };
    Snapshot snapshot() const;

  private:
    std::uint64_t epoch_;
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics;
/// Count of MetricsRegistry objects ever constructed — the same install-slot
/// validity cross-check as detail::g_tracer_epoch (see tracer.hpp): a slot
/// value with no registry ever built reads as "metrics off", not garbage.
extern std::atomic<std::uint64_t> g_metrics_epoch;
} // namespace detail

/// The installed registry, or nullptr when metrics are off (constexpr
/// nullptr under BALSORT_NO_OBS — see tracer.hpp).
#ifdef BALSORT_NO_OBS
constexpr MetricsRegistry* metrics() { return nullptr; }
#else
inline MetricsRegistry* metrics() {
    MetricsRegistry* m = detail::g_metrics.load(std::memory_order_acquire);
    if (m != nullptr && detail::g_metrics_epoch.load(std::memory_order_relaxed) == 0) {
        return nullptr; // slot holds a value no code in this process wrote
    }
    return m;
}
#endif

/// Scoped install mirroring TracerInstallGuard; null registry → no-op guard.
class MetricsInstallGuard {
  public:
    explicit MetricsInstallGuard(MetricsRegistry* m);
    ~MetricsInstallGuard();
    MetricsInstallGuard(const MetricsInstallGuard&) = delete;
    MetricsInstallGuard& operator=(const MetricsInstallGuard&) = delete;

  private:
    MetricsRegistry* prev_ = nullptr;
    bool active_ = false;
};

} // namespace balsort
