#pragma once
/// \file bench.hpp
/// Shared vocabulary of the file-to-file sort benchmark: workload shapes,
/// the metric sheet, span timing, and the order-independent output check.
/// See README.md for what each workload and metric means.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "balsort.hpp"

namespace perfbench {

using balsort::Record;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload's machine and input. `jobs` > 0 marks the service workload:
/// `jobs` sorts of `n` records each go through one SortScheduler.
struct Shape {
    std::string name;
    balsort::Workload input = balsort::Workload::kUniform;
    std::uint64_t n = 0;
    std::uint64_t m = 0;
    std::uint32_t d = 8;
    std::uint32_t b = 256;
    std::uint32_t threads = 4;
    std::uint32_t jobs = 0;
};

/// The four named workloads at full size, or scaled down for --smoke.
std::vector<Shape> all_shapes(bool smoke);

/// Named metrics with units. Each add() records one sample; a metric's
/// reported value is the median of its samples. Names keep first-add order.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};
class MetricSheet {
public:
    void add(const std::string& name, double value, const std::string& unit);
    /// Median of the named metric's samples (0 when it has none).
    double value(const std::string& name) const;
    std::vector<Metric> medians() const;

private:
    struct Entry {
        std::string name;
        std::string unit;
        std::vector<double> samples;
    };
    std::vector<Entry> entries_;
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// Adds the wall time of a scope to `acc` and, when `tr` is set, records a
/// trace span of the same name around it.
class Timed {
public:
    Timed(double& acc, balsort::Tracer* tr, const char* name)
        : acc_(acc), span_(tr, name, "perfbench"), t0_(Clock::now()) {}
    ~Timed() { acc_ += seconds_since(t0_); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

private:
    double& acc_;
    balsort::Span span_;
    Clock::time_point t0_;
};

/// Order-independent fingerprint of a record multiset: equal for any two
/// permutations of the same records, different (with high probability)
/// once one record is lost, duplicated or altered.
struct MultisetHash {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t sum_sq = 0;

    void add(const Record& r);
    void add(const std::vector<Record>& rs) {
        for (const Record& r : rs) add(r);
    }
    friend bool operator==(const MultisetHash&, const MultisetHash&) = default;
};

/// Removes the listed files when it goes out of scope, on every exit path.
class FileCleanup {
public:
    explicit FileCleanup(std::vector<std::string> paths) : paths_(std::move(paths)) {}
    ~FileCleanup();
    FileCleanup(const FileCleanup&) = delete;
    FileCleanup& operator=(const FileCleanup&) = delete;

private:
    std::vector<std::string> paths_;
};

/// A record file opened with fopen(`mode`), read or written a span at a
/// time; closed on every exit path.
class RecordFile {
public:
    RecordFile(const std::string& path, const char* mode);
    ~RecordFile();
    RecordFile(const RecordFile&) = delete;
    RecordFile& operator=(const RecordFile&) = delete;

    /// Fills `buf` from the file; returns the records read (0 at its end).
    std::size_t read(std::span<Record> buf);
    void write(std::span<const Record> recs);
    /// Closes the file now, throwing if the final flush fails.
    void close();

private:
    std::string path_;
    std::FILE* f_ = nullptr;
};

void write_records(const std::string& path, const std::vector<Record>& recs);
std::vector<Record> read_records(const std::string& path);

/// Whether the file holds exactly `n` records in key order whose multiset
/// hash is `expect`. Streams the file, so it holds no copy of the output.
bool check_output(const std::string& path, std::uint64_t n, const MultisetHash& expect);

/// What one workload run hands back to main().
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// With RunConfig::corrupt: whether the deliberately corrupted sort was
    /// caught by the output check (it is not counted in attempted/failed).
    bool corruption_caught = false;
    MetricSheet metrics;
};

/// Knobs of one invocation.
struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Corrupt one output per run on purpose (smoke mode's proof that the
    /// correctness check bites); the corrupted sort must count as failed.
    bool corrupt = false;
    std::string scratch;   ///< directory for scratch, input and output files
    std::string trace_out; ///< Chrome trace written here by traced runs
};

/// Run one workload; end-to-end metrics untraced, per-layer metrics traced.
RunResult run_workload(const Shape& shape, const RunConfig& rc);

// ---- layer replay and machine ceilings (layers.cpp) ----

/// Replays the workload's first memoryloads through the pram kernels
/// (selection, classification, merge and radix sort) and its first
/// stripes through the async engine; adds the pram.*_ns_per_record,
/// pram.merge_sort_speedup_4t and pdm.engine_*_mb_s rows.
void replay_layers(const Shape& shape, const std::vector<Record>& records,
                   const std::string& scratch, MetricSheet& out);

/// Times the service's one-shot staging path (write_striped) and read-back
/// (read_run) for each job input on an array shaped like the service's;
/// adds pdm.layout_s and pdm.readback_s (summed over inputs).
void replay_service_staging(const Shape& shape, const std::vector<std::vector<Record>>& inputs,
                            const std::string& scratch, MetricSheet& out);

/// Machine ceilings on the same records: std::sort of each input in RAM
/// (summed), and raw pwrite/pread MB/s with one thread per file over D
/// files, in block-sized requests, for the scratch bytes the sort moved.
/// Adds ceiling.std_sort_s, ceiling.pread_mb_s and ceiling.pwrite_mb_s.
void measure_ceilings(const Shape& shape, const std::vector<std::vector<Record>>& inputs,
                      std::uint64_t bytes_read, std::uint64_t bytes_written,
                      const std::string& scratch, MetricSheet& out);

} // namespace perfbench
