#include "obs/metrics.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace balsort {

namespace detail {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
std::atomic<std::uint64_t> g_metrics_epoch{0};
} // namespace detail

namespace {

// Escaping is the shared obs/json.hpp helper (DESIGN.md §12).
void write_escaped(std::ostream& os, const std::string& s) { write_json_escaped(os, s); }

} // namespace

std::uint64_t Histogram::percentile_upper_bound(double q) const {
    // Snapshot the buckets once; concurrent recording can only make the
    // answer approximate, which it already is by bucket resolution.
    std::uint64_t counts[kBuckets];
    std::uint64_t total = 0;
    for (int b = 0; b < kBuckets; ++b) {
        counts[b] = bucket_count(b);
        total += counts[b];
    }
    if (total == 0) return 0;
    if (q < 0) q = 0;
    if (q > 100) q = 100;
    // Nearest-rank on the cumulative bucket counts.
    const auto rank = static_cast<std::uint64_t>(q / 100.0 * static_cast<double>(total - 1)) + 1;
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
        cum += counts[b];
        if (cum >= rank) return bucket_upper_bound(b);
    }
    return bucket_upper_bound(kBuckets - 1);
}

MetricsRegistry::MetricsRegistry()
    : epoch_(detail::g_metrics_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

Counter& MetricsRegistry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c.get());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g.get());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) snap.histograms.emplace_back(name, h.get());
    return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
    std::lock_guard<std::mutex> lk(mu_);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first) os << ',';
        first = false;
        os << '"';
        write_escaped(os, name);
        os << "\":" << c->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first) os << ',';
        first = false;
        os << '"';
        write_escaped(os, name);
        os << "\":" << g->value();
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first) os << ',';
        first = false;
        os << '"';
        write_escaped(os, name);
        os << "\":{\"count\":" << h->count() << ",\"sum\":" << h->sum()
           << ",\"mean\":" << h->mean() << ",\"max\":" << h->max()
           << ",\"p50\":" << h->percentile_upper_bound(50)
           << ",\"p95\":" << h->percentile_upper_bound(95)
           << ",\"p99\":" << h->percentile_upper_bound(99) << ",\"buckets\":[";
        bool bfirst = true;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t n = h->bucket_count(b);
            if (n == 0) continue;
            if (!bfirst) os << ',';
            bfirst = false;
            os << '[' << Histogram::bucket_upper_bound(b) << ',' << n << ']';
        }
        os << "]}";
    }
    os << "}}\n";
}

std::string MetricsRegistry::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os);
    return os.good();
}

MetricsInstallGuard::MetricsInstallGuard(MetricsRegistry* m) {
    if (m != nullptr) {
        prev_ = detail::g_metrics.exchange(m, std::memory_order_acq_rel);
        active_ = true;
    }
}

MetricsInstallGuard::~MetricsInstallGuard() {
    if (active_) detail::g_metrics.store(prev_, std::memory_order_release);
}

} // namespace balsort
