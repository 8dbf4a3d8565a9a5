// Layer replay and machine ceilings for a traced run.
//
// The replay calls each layer's public kernels directly on the workload's
// own first memoryloads, so a per-layer row moves only when that layer's
// code does. The ceilings run in the same binary on the same records: what
// the machine gives without the library in the way.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/partition.hpp"
#include "pram/executor.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/selection.hpp"

namespace perfbench {

using namespace balsort;

namespace {

// Replay at most this many records (whole memoryloads, at least one).
constexpr std::uint64_t kReplayRecords = 1u << 20;
// Each replayed kernel runs this many times; rows report the median.
constexpr int kReps = 3;
// Cap on the bytes a raw-I/O ceiling moves per direction.
constexpr std::uint64_t kCeilingBytesCap = 1ull << 30;
constexpr double kMB = 1e6;

template <class F>
double time_once(F&& f) {
    const auto t0 = Clock::now();
    f();
    return seconds_since(t0);
}

/// Median over kReps of the summed time `per_load(load)` reports for every
/// replayed load. `per_load` copies its load, if it must, outside the time
/// it returns.
template <class F>
double median_pass(std::uint64_t loads, F&& per_load) {
    std::vector<double> passes;
    for (int rep = 0; rep < kReps; ++rep) {
        double total = 0;
        for (std::uint64_t l = 0; l < loads; ++l) total += per_load(l);
        passes.push_back(total);
    }
    return median(passes);
}

} // namespace

void replay_layers(const Shape& s, const std::vector<Record>& records,
                   const std::string& scratch, MetricSheet& out) {
    const std::uint64_t m = std::min<std::uint64_t>(s.m, records.size());
    const std::uint64_t loads =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(records.size(), kReplayRecords) / m);
    const double n_replay = static_cast<double>(loads * m);
    auto load = [&](std::uint64_t l) {
        return std::span<const Record>(records.data() + l * m, m);
    };
    std::vector<Record> work(m);
    auto fresh = [&](std::uint64_t l) {
        std::copy_n(load(l).begin(), m, work.begin());
        return std::span<Record>(work);
    };

    Executor exec(3);
    const Parallel par4(4, &exec);
    const Parallel par1(1);
    const Parallel& sort_width = s.threads > 1 ? par4 : par1;

    // Pivot selection exactly as the top level samples: the sort's S and
    // stride, centered ranks, multi-selection per memoryload.
    const PdmConfig cfg{.n = s.n, .m = s.m, .d = s.d, .b = s.b, .p = s.threads};
    const std::uint32_t group = s.d / VirtualDisks::default_virtual_count(s.d);
    const std::uint32_t s_target = default_bucket_count(cfg, group * s.b);
    const std::uint64_t stride = sampling_stride(s.n, s.m, s_target);
    std::vector<std::uint64_t> ranks;
    for (std::uint64_t r = (stride + 1) / 2; r <= m; r += stride) ranks.push_back(r);
    if (ranks.empty()) ranks.push_back((m + 1) / 2);
    std::vector<std::uint64_t> samples;
    const double select_s = median_pass(loads, [&](std::uint64_t l) {
        const std::span<Record> w = fresh(l);
        std::vector<std::uint64_t> keys;
        const double t = time_once([&] { keys = multi_select_keys(w, ranks, sort_width); });
        if (samples.size() < loads * ranks.size()) { // first pass only
            samples.insert(samples.end(), keys.begin(), keys.end());
        }
        return t;
    });
    std::sort(samples.begin(), samples.end());
    const PivotSet pivots = select_pivots_from_sorted_samples(samples, s_target);

    const double classify_s = median_pass(loads, [&](std::uint64_t l) {
        return time_once([&] { bucket_of(load(l), pivots.keys); });
    });
    const double merge4_s = median_pass(loads, [&](std::uint64_t l) {
        const std::span<Record> w = fresh(l);
        return time_once([&] { parallel_merge_sort(w, par4); });
    });
    const double merge1_s = median_pass(loads, [&](std::uint64_t l) {
        const std::span<Record> w = fresh(l);
        return time_once([&] { parallel_merge_sort(w, par1); });
    });
    const double radix4_s = median_pass(loads, [&](std::uint64_t l) {
        const std::span<Record> w = fresh(l);
        return time_once([&] { parallel_radix_sort(w, par4); });
    });
    out.add("pram.select_ns_per_record", select_s * 1e9 / n_replay, "ns");
    out.add("pram.classify_ns_per_record", classify_s * 1e9 / n_replay, "ns");
    out.add("pram.merge_sort_ns_per_record", merge4_s * 1e9 / n_replay, "ns");
    out.add("pram.radix_sort_ns_per_record", radix4_s * 1e9 / n_replay, "ns");
    out.add("pram.merge_sort_speedup_4t", merge4_s > 0 ? merge1_s / merge4_s : 0, "ratio");

    // Engine replay: the same records as full stripes, written and read
    // back with write_batch/read_batch through the async engine.
    DiskArray disks(s.d, s.b, DiskBackend::kFile, scratch);
    disks.set_async(true);
    const std::uint64_t stripe = static_cast<std::uint64_t>(s.d) * s.b;
    const std::uint64_t stripes = std::max<std::uint64_t>(1, (loads * m) / stripe);
    if (stripes * stripe > records.size()) throw std::runtime_error("replay: input below one stripe");
    std::vector<BlockOp> ops;
    for (std::uint64_t st = 0; st < stripes; ++st) {
        for (std::uint32_t j = 0; j < s.d; ++j) ops.push_back({j, disks.allocate(j)});
    }
    const std::span<const Record> src(records.data(), stripes * stripe);
    std::vector<Record> dest(src.size());
    std::vector<double> wr, rd;
    for (int rep = 0; rep < kReps; ++rep) {
        wr.push_back(time_once([&] {
            disks.write_batch(ops, src);
            disks.drain_async();
        }));
        rd.push_back(time_once([&] { disks.read_batch(ops, dest); }));
        if (!std::equal(src.begin(), src.end(), dest.begin())) {
            throw std::runtime_error("engine replay read back different records");
        }
    }
    const double bytes = static_cast<double>(src.size_bytes());
    out.add("pdm.engine_write_mb_s", bytes / kMB / median(wr), "MB/s");
    out.add("pdm.engine_read_mb_s", bytes / kMB / median(rd), "MB/s");
}

void replay_service_staging(const Shape& s, const std::vector<std::vector<Record>>& inputs,
                            const std::string& scratch, MetricSheet& out) {
    DiskArray disks(s.d, s.b, DiskBackend::kFile, scratch);
    disks.set_async(true);
    double layout = 0, readback = 0;
    for (const std::vector<Record>& in : inputs) {
        BlockRun run;
        layout += time_once([&] {
            run = write_striped(disks, in);
            disks.drain_async();
        });
        std::vector<Record> back;
        readback += time_once([&] { back = read_run(disks, run); });
        if (back != in) throw std::runtime_error("staging replay read back different records");
        for (const BlockOp& op : run.blocks) disks.release(op);
    }
    out.add("pdm.layout_s", layout, "s");
    out.add("pdm.readback_s", readback, "s");
}

namespace {

/// D scratch files opened for raw I/O, closed and removed on every exit
/// path.
class RawFiles {
public:
    RawFiles(const std::string& scratch, std::uint32_t d) {
        try {
            for (std::uint32_t j = 0; j < d; ++j) {
                paths_.push_back(scratch + "/ceiling_" + std::to_string(j) + ".bin");
                const int fd = ::open(paths_.back().c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
                if (fd < 0) throw std::runtime_error("cannot open " + paths_.back());
                fds_.push_back(fd);
            }
        } catch (...) {
            release();
            throw;
        }
    }
    ~RawFiles() { release(); }
    RawFiles(const RawFiles&) = delete;
    RawFiles& operator=(const RawFiles&) = delete;

    const std::vector<int>& fds() const { return fds_; }

private:
    void release() {
        for (const int fd : fds_) ::close(fd);
        FileCleanup remove(paths_);
    }

    std::vector<std::string> paths_;
    std::vector<int> fds_;
};

/// One thread per file, each moving `per_file` bytes in `block`-byte
/// requests at sequential offsets. Returns the wall time of the slowest.
double raw_io(const std::vector<int>& fds, std::uint64_t per_file, std::size_t block,
              const std::vector<Record>& source, bool write) {
    std::atomic<bool> failed{false};
    const auto* src = reinterpret_cast<const char*>(source.data());
    const std::size_t src_bytes = source.size() * sizeof(Record) / block * block;
    const double t = time_once([&] {
        std::vector<std::thread> threads;
        for (const int fd : fds) {
            threads.emplace_back([&, fd] {
                std::vector<char> buf(block);
                for (std::uint64_t off = 0; off < per_file && !failed; off += block) {
                    const ssize_t got =
                        write ? ::pwrite(fd, src + off % src_bytes, block, static_cast<off_t>(off))
                              : ::pread(fd, buf.data(), block, static_cast<off_t>(off));
                    if (got != static_cast<ssize_t>(block)) failed = true;
                }
            });
        }
        for (std::thread& th : threads) th.join();
    });
    if (failed) throw std::runtime_error(write ? "ceiling pwrite failed" : "ceiling pread failed");
    return t;
}

} // namespace

void measure_ceilings(const Shape& s, const std::vector<std::vector<Record>>& inputs,
                      std::uint64_t bytes_read, std::uint64_t bytes_written,
                      const std::string& scratch, MetricSheet& out) {
    std::vector<double> sorts;
    for (int rep = 0; rep < kReps; ++rep) {
        double total = 0;
        for (const std::vector<Record>& in : inputs) {
            std::vector<Record> copy = in;
            total += time_once([&] { std::sort(copy.begin(), copy.end(), KeyLess{}); });
        }
        sorts.push_back(total);
    }
    out.add("ceiling.std_sort_s", median(sorts), "s");

    // The files get what the sort wrote; reads cover what it read.
    const std::size_t block = static_cast<std::size_t>(s.b) * sizeof(Record);
    auto per_file = [&](std::uint64_t bytes) {
        const std::uint64_t per = std::min(bytes, kCeilingBytesCap) / s.d / block * block;
        return std::max<std::uint64_t>(per, block);
    };
    const std::uint64_t write_per = per_file(bytes_written);
    const std::uint64_t read_per = per_file(bytes_read);
    const RawFiles files(scratch, s.d);
    const double w = raw_io(files.fds(), write_per, block, inputs.front(), true);
    // Reads past what was written wrap: full passes over the written
    // files, then a tail.
    double r = 0;
    for (std::uint64_t done = 0; done < read_per;) {
        const std::uint64_t chunk = std::min(read_per - done, write_per);
        r += raw_io(files.fds(), chunk, block, inputs.front(), false);
        done += chunk;
    }
    out.add("ceiling.pwrite_mb_s", static_cast<double>(write_per) * s.d / kMB / w, "MB/s");
    out.add("ceiling.pread_mb_s", static_cast<double>(read_per) * s.d / kMB / r, "MB/s");
}

} // namespace perfbench
