// The four workloads as file-to-file runs, and the per-run bookkeeping:
// untraced iterations give the end-to-end metrics, traced iterations
// (interleaved with untraced ones in a --trace 1 run) the per-layer rows.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "pram/executor.hpp"

namespace perfbench {

using namespace balsort;

std::vector<Shape> all_shapes(bool smoke) {
    // Full sizes are the ROADMAP reference instance and its variants;
    // smoke sizes keep D and B (so every code path runs) and shrink N and M
    // as far as DB <= M/2 allows.
    if (!smoke) {
        return {
            {"uniform_4m", Workload::kUniform, 1u << 22, 1u << 18, 8, 256, 4, 0},
            {"smallblock_2m", Workload::kUniform, 1u << 21, 1u << 14, 8, 32, 4, 0},
            {"dupkeys_4m", Workload::kDuplicateHeavy, 1u << 22, 1u << 18, 8, 256, 4, 0},
            {"service_8x", Workload::kUniform, 1u << 19, 1u << 16, 8, 64, 1, 8},
        };
    }
    return {
        {"uniform_4m", Workload::kUniform, 1u << 15, 1u << 12, 8, 256, 4, 0},
        {"smallblock_2m", Workload::kUniform, 1u << 14, 1u << 10, 8, 32, 4, 0},
        {"dupkeys_4m", Workload::kDuplicateHeavy, 1u << 15, 1u << 12, 8, 256, 4, 0},
        {"service_8x", Workload::kUniform, 1u << 13, 1u << 11, 8, 64, 1, 8},
    };
}

void MetricSheet::add(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
        if (e.name == name) {
            e.samples.push_back(value);
            return;
        }
    }
    entries_.push_back({name, unit, {value}});
}

double MetricSheet::value(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.name == name) return median(e.samples);
    }
    return 0;
}

std::vector<Metric> MetricSheet::medians() const {
    std::vector<Metric> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back({e.name, median(e.samples), e.unit});
    return out;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void MultisetHash::add(const Record& r) {
    const std::uint64_t h = mix64(r.key ^ mix64(r.payload));
    ++count;
    sum += h;
    sum_sq += h * h;
}

FileCleanup::~FileCleanup() {
    for (const std::string& p : paths_) {
        std::error_code ec;
        std::filesystem::remove(p, ec);
    }
}

RecordFile::RecordFile(const std::string& path, const char* mode)
    : path_(path), f_(std::fopen(path.c_str(), mode)) {
    if (f_ == nullptr) throw std::runtime_error("cannot open " + path);
}

RecordFile::~RecordFile() {
    if (f_ != nullptr) std::fclose(f_);
}

std::size_t RecordFile::read(std::span<Record> buf) {
    const std::size_t got = std::fread(buf.data(), sizeof(Record), buf.size(), f_);
    if (got < buf.size() && std::ferror(f_)) throw std::runtime_error("cannot read " + path_);
    return got;
}

void RecordFile::write(std::span<const Record> recs) {
    if (std::fwrite(recs.data(), sizeof(Record), recs.size(), f_) != recs.size()) {
        throw std::runtime_error("short write to " + path_);
    }
}

void RecordFile::close() {
    std::FILE* f = std::exchange(f_, nullptr);
    if (f != nullptr && std::fclose(f) != 0) throw std::runtime_error("cannot close " + path_);
}

void write_records(const std::string& path, const std::vector<Record>& recs) {
    RecordFile f(path, "wb");
    f.write(recs);
    f.close();
}

bool check_output(const std::string& path, std::uint64_t n, const MultisetHash& expect) {
    RecordFile f(path, "rb");
    std::vector<Record> buf(1u << 16);
    MultisetHash h;
    bool ordered = true;
    std::uint64_t prev = 0;
    for (std::size_t got; (got = f.read(buf)) > 0;) {
        for (std::size_t i = 0; i < got; ++i) {
            ordered = ordered && (h.count == 0 || prev <= buf[i].key);
            prev = buf[i].key;
            h.add(buf[i]);
        }
    }
    return ordered && h.count == n && h == expect;
}

std::vector<Record> read_records(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("cannot open " + path);
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec || bytes % sizeof(Record) != 0) {
        std::fclose(f);
        throw std::runtime_error(path + ": size is not a whole number of records");
    }
    std::vector<Record> recs(bytes / sizeof(Record));
    const std::size_t got = std::fread(recs.data(), sizeof(Record), recs.size(), f);
    std::fclose(f);
    if (got != recs.size()) throw std::runtime_error("short read from " + path);
    return recs;
}

namespace {

// Constructions per setup block. A run times one block before it writes
// any input and one after each iteration, and setup_s is the fastest of all
// of them: host interference (hypervisor steal, neighbours' I/O) only ever
// adds time, and of the statistics tried (median, median of per-block
// minima, fastest) the fastest varied least from run to run. A change that
// adds work to every construction still moves it.
constexpr int kSetupBlock = 48;
// A negative residual smaller than this is clock resolution, not double
// counting.
constexpr double kClockSlack = 1e-6;

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Seconds of CPU time the hypervisor stole, summed over all CPUs (the
/// eighth field of /proc/stat's "cpu" line); 0 where it is not reported.
double host_steal_seconds() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return 0;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                                &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
}

/// Wall time, process CPU time (user + system, all threads) and the share
/// of the machine's CPU time the hypervisor stole, over one interval. On a
/// shared host, steal stretches wall time while CPU time stays put; the
/// steal share says how much of a wall time is the host's doing.
struct Interval {
    double wall = 0;
    double cpu = 0;
    double steal_share = 0;
};

class IntervalMeter {
public:
    IntervalMeter()
        : t0_(Clock::now()), cpu0_(process_cpu_seconds()), steal0_(host_steal_seconds()) {}

    Interval stop() const {
        Interval iv;
        iv.wall = seconds_since(t0_);
        iv.cpu = process_cpu_seconds() - cpu0_;
        const double cpus = std::max(1u, std::thread::hardware_concurrency());
        iv.steal_share = iv.wall > 0 ? (host_steal_seconds() - steal0_) / (cpus * iv.wall) : 0;
        return iv;
    }

private:
    Clock::time_point t0_;
    double cpu0_ = 0;
    double steal0_ = 0;
};

/// Times kSetupBlock constructions by `setup()` into `out`, each machine
/// destroyed after its time is taken.
template <class Setup>
void time_setups(Setup&& setup, std::vector<double>& out) {
    for (int i = 0; i < kSetupBlock; ++i) {
        const auto t0 = Clock::now();
        const auto machine = setup();
        out.push_back(seconds_since(t0));
    }
}

/// Whether a run that started at `t_start` should stop instead of starting
/// another iteration: it stops at the iteration boundary nearest to
/// --seconds, taking the next iteration to last as long as the median one
/// so far. A traced run first completes one untraced and one traced
/// iteration.
bool time_is_up(Clock::time_point t_start, const std::vector<double>& iteration_s,
                const RunConfig& rc) {
    if (iteration_s.size() < (rc.trace ? 2u : 1u)) return false;
    return seconds_since(t_start) + median(iteration_s) / 2 > rc.seconds;
}

/// Median of one field over all of `intervals` (0 for none).
double median_of(const std::vector<Interval>& intervals, double Interval::*field) {
    std::vector<double> v;
    for (const Interval& iv : intervals) v.push_back(iv.*field);
    return median(v);
}



/// Resets the process's peak-RSS mark to its current RSS (Linux
/// /proc/self/clear_refs, "5"); false where the kernel refuses, and the
/// mark then keeps counting from process start.
bool reset_peak_rss() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    bool ok = f != nullptr && std::fputs("5", f) >= 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    return ok;
}

/// Peak resident memory (VmHWM) since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    double kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
    return kib * 1024 / 1e6;
}

PdmConfig pdm_of(const Shape& s) {
    return PdmConfig{.n = s.n, .m = s.m, .d = s.d, .b = s.b, .p = s.threads};
}

std::string scratch_file(const RunConfig& rc, const std::string& name) {
    return rc.scratch + "/" + name;
}

/// Writes the traced run's spans (the benchmark's and the sort's) once.
void write_trace(const Tracer& tracer, const RunConfig& rc) {
    if (rc.trace_out.empty()) return;
    if (!tracer.write_chrome_trace_file(rc.trace_out)) {
        throw std::runtime_error("cannot write trace " + rc.trace_out);
    }
}

// ---------------------------------------------------------------------
// Solo workloads: one file-to-file balance_sort per iteration.

struct SoloSample {
    bool ok = false;
    double setup = 0, read = 0, layout = 0, sort = 0, readback = 0, write = 0, verify = 0;
    Interval run; ///< first input byte read to output file closed
    SortReport report;
};

/// The array and executor a solo sort runs on; constructing them is setup.
struct SoloMachine {
    std::unique_ptr<DiskArray> disks;
    std::unique_ptr<Executor> exec; ///< destroyed before disks
};

SoloMachine setup_solo(const Shape& s, const RunConfig& rc) {
    SoloMachine mc;
    mc.disks = std::make_unique<DiskArray>(s.d, s.b, DiskBackend::kFile, rc.scratch);
    mc.disks->set_async(true);
    if (s.threads > 1) mc.exec = std::make_unique<Executor>(s.threads - 1);
    return mc;
}

SoloSample solo_iteration(const Shape& s, const RunConfig& rc, const MultisetHash& expect,
                          Tracer* tr, bool corrupt) {
    SoloSample x;
    const std::string in_path = scratch_file(rc, "input.bin");
    const std::string out_path = scratch_file(rc, "output.bin");
    FileCleanup cleanup({out_path});
    try {
        SoloMachine mc;
        {
            Timed t(x.setup, tr, "setup");
            mc = setup_solo(s, rc);
        }
        DiskArray& disks = *mc.disks;
        const IntervalMeter meter;
        // The file streams through one M-record buffer each way, so the
        // sort's own buffers, not whole-input copies, set peak memory.
        std::vector<Record> chunk(s.m);
        BlockRun run_in;
        {
            RecordFile in(in_path, "rb");
            RunWriter w(disks);
            for (;;) {
                std::size_t got = 0;
                {
                    Timed t(x.read, tr, "input_read");
                    got = in.read(chunk);
                }
                if (got == 0) break;
                Timed t(x.layout, tr, "layout");
                w.append(std::span<const Record>(chunk.data(), got));
            }
            Timed t(x.layout, tr, "layout");
            run_in = w.finish();
        }
        BlockRun run_out;
        {
            Timed t(x.sort, tr, "sort");
            SortJobConfig job;
            job.compute(ComputePolicy{}.lanes(s.threads).executor(mc.exec.get()));
            job.observability(ObsPolicy{}.tracer(tr));
            run_out = balance_sort(disks, run_in, pdm_of(s), job, &x.report);
        }
        {
            RecordFile out(out_path, "wb");
            RunReader r(disks, run_out);
            while (r.remaining() > 0) {
                const std::span<Record> part(chunk.data(),
                                             std::min<std::uint64_t>(s.m, r.remaining()));
                {
                    Timed t(x.readback, tr, "readback");
                    r.read(part);
                }
                if (corrupt && r.remaining() == 0) part.front().payload ^= 1;
                Timed t(x.write, tr, "output_write");
                out.write(part);
            }
            Timed t(x.write, tr, "output_write");
            out.close();
        }
        x.run = meter.stop();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << s.name << ": sort failed: " << e.what() << '\n';
        return x;
    }
    // Outside the timed region: the output file must hold the input's
    // records, in key order.
    Timed t(x.verify, tr, "verify");
    try {
        x.ok = check_output(out_path, s.n, expect);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << s.name << ": verify failed: " << e.what() << '\n';
    }
    if (!x.ok) std::cerr << "perfbench: " << s.name << ": output check failed\n";
    return x;
}

/// What one traced iteration contributes to the per-layer rows. For the
/// service the report is summed over the batch's jobs and `budget` is the
/// jobs' summed time budget; for a solo sort the svc fields stay zero.
struct LayerInputs {
    double setup = 0, read = 0, write = 0, verify = 0;
    Interval run;              ///< file-to-file (solo) or makespan (service)
    double unattributed = 0;   ///< run.wall minus the benchmark's spans inside it
    double sort_s = 0;         ///< core.sort_s
    double compute_s = 0;      ///< core.compute_s
    double core_unattributed = 0;
    SortReport report;
    TimeBudget budget;
    std::uint64_t arbiter_waits = 0, rejects = 0;
};

void add_layer_rows(const Shape& s, std::uint64_t records, const LayerInputs& in, MetricSheet& m) {
    const SortReport& r = in.report;
    const PhaseProfile& ph = r.phases;
    const IoStats& io = r.io;
    const BalanceStats& bal = r.balance;
    const double block_bytes = static_cast<double>(s.b) * sizeof(Record);
    auto count = [&m](const char* name, std::uint64_t v) {
        m.add(name, static_cast<double>(v), "count");
    };

    m.add("bench.setup_s", in.setup, "s");
    m.add("bench.input_read_s", in.read, "s");
    m.add("bench.output_write_s", in.write, "s");
    m.add("bench.verify_s", in.verify, "s");
    m.add("bench.wall_s", in.run.wall, "s");
    m.add("bench.cpu_s", in.run.cpu, "s");
    m.add("bench.host_steal_share", in.run.steal_share, "ratio");
    m.add("unattributed_s", in.unattributed, "s");

    m.add("pdm.io_wait_s", ph.io_wait_seconds, "s");
    m.add("pdm.overlap_hidden_s", ph.overlap_hidden_seconds, "s");
    count("pdm.staged_prefetches", ph.staged_prefetches);
    count("pdm.blocks_read", io.blocks_read);
    count("pdm.blocks_written", io.blocks_written);
    m.add("pdm.scratch_bytes_per_input_byte",
          static_cast<double>(io.blocks_read + io.blocks_written) * block_bytes /
              (static_cast<double>(records) * sizeof(Record)),
          "ratio");
    count("pdm.retries", io.transient_retries);
    count("pdm.recovery_blocks", io.recovery_blocks());
    count("pdm.io_timeouts", io.io_timeouts);

    count("pram.executor_tasks", ph.compute_tasks);
    count("pram.tasks_stolen", ph.compute_stolen);
    count("pram.tasks_helped", ph.compute_helped);
    m.add("pram.pool_wait_s", ph.pool_wait_seconds, "s");

    m.add("core.sort_s", in.sort_s, "s");
    m.add("core.pivot_s", ph.pivot_seconds, "s");
    m.add("core.balance_s", ph.balance_seconds, "s");
    m.add("core.base_case_s", ph.base_case_seconds, "s");
    m.add("core.emit_s", ph.emit_seconds, "s");
    m.add("core.compute_s", in.compute_s, "s");
    m.add("core.unattributed_s", in.core_unattributed, "s");
    count("core.levels", r.levels);
    count("core.base_cases", r.base_cases);
    count("core.equal_class_records", r.equal_class_records);
    count("core.tracks", bal.tracks);
    m.add("core.balance_us_per_track",
          bal.tracks == 0 ? 0.0 : ph.balance_seconds * 1e6 / static_cast<double>(bal.tracks),
          "us");
    count("core.direct_blocks", bal.direct_blocks);
    count("core.matched_blocks", bal.matched_blocks);
    count("core.deferred_blocks", bal.deferred_blocks);
    const double placed = static_cast<double>(bal.direct_blocks + bal.matched_blocks);
    m.add("core.match_share", placed == 0 ? 0.0 : static_cast<double>(bal.matched_blocks) / placed,
          "ratio");
    count("core.rearrange_rounds", bal.rearrange_rounds);
    m.add("core.pram_time", r.pram_time, "steps");
    count("core.comparisons", r.comparisons);
    m.add("core.worst_bucket_read_ratio", r.worst_bucket_read_ratio, "ratio");

    m.add("util.pool_hit_rate", ph.pool_hit_rate(), "ratio");

    m.add("svc.gate_wait_s", in.budget.gate_wait_seconds, "s");
    m.add("svc.io_wait_s", in.budget.io_wait_seconds, "s");
    m.add("svc.pool_wait_s", in.budget.pool_wait_seconds, "s");
    m.add("svc.other_s", in.budget.other_seconds, "s");
    m.add("svc.compute_s", in.budget.compute_seconds, "s");
    count("svc.arbiter_waits", in.arbiter_waits);
    count("svc.admission_rejects", in.rejects);
}

/// The per-layer rows one traced solo iteration yields.
void add_solo_layers(const Shape& s, const SoloSample& x, MetricSheet& m) {
    LayerInputs in;
    in.setup = x.setup;
    in.read = x.read;
    in.write = x.write;
    in.verify = x.verify;
    in.run = x.run;
    in.unattributed = x.run.wall - (x.read + x.layout + x.sort + x.readback + x.write);
    in.sort_s = x.sort;
    in.compute_s = x.report.phases.compute_seconds(x.report.elapsed_seconds);
    in.core_unattributed = x.sort - x.report.phases.phase_seconds();
    in.report = x.report;
    add_layer_rows(s, s.n, in, m);
    m.add("pdm.layout_s", x.layout, "s");
    m.add("pdm.readback_s", x.readback, "s");
}

/// Flags (on stderr, and as a count) residuals that say two spans or two
/// phases covered the same interval.
void check_layer_sums(const std::string& name, MetricSheet& m) {
    double flags = 0;
    for (const char* residual : {"unattributed_s", "core.unattributed_s"}) {
        const double v = m.value(residual);
        if (v < -kClockSlack) {
            std::cerr << "perfbench: " << name << ": " << residual << " = " << v
                      << " s is negative: double counting\n";
            ++flags;
        }
    }
    m.add("bench.double_count_flags", flags, "count");
}

void add_ceiling_fractions(MetricSheet& m, double wall) {
    m.add("ceiling.memsort_fraction", wall > 0 ? m.value("ceiling.std_sort_s") / wall : 0,
          "ratio");
    // Raw time over engine time for the same read + write volume.
    const double er = m.value("pdm.engine_read_mb_s"), ew = m.value("pdm.engine_write_mb_s");
    const double cr = m.value("ceiling.pread_mb_s"), cw = m.value("ceiling.pwrite_mb_s");
    const bool have = er > 0 && ew > 0 && cr > 0 && cw > 0;
    m.add("pdm.engine_efficiency", have ? (1 / cr + 1 / cw) / (1 / er + 1 / ew) : 0, "ratio");
}

/// What the measured iterations of a run collect.
struct Measured {
    std::vector<Interval> runs;        ///< untraced iterations that succeeded
    std::vector<Interval> traced_runs; ///< traced iterations that succeeded
    MetricSheet layers;                ///< per-layer rows of the traced ones
    std::unique_ptr<Tracer> last_trace;
    std::vector<double> rss_mb; ///< peak RSS of each untraced iteration
};

/// Iterates until time_is_up. `iterate(tracer, layers)` runs one iteration
/// (traced when `tracer` is set, adding its rows to `layers`) and returns
/// its interval, or nothing if it failed. A traced run alternates untraced
/// and traced iterations, so the tracing overhead is measured under the
/// same machine conditions.
template <class Iterate>
Measured measure(const RunConfig& rc, Iterate&& iterate) {
    Measured ms;
    std::vector<double> iteration_s;
    const auto t_start = Clock::now();
    for (int i = 0;; ++i) {
        const auto t_iter = Clock::now();
        // Each iteration's peak counts from the memory the process holds
        // when it starts, so inputs generated and freed before, and the
        // number of iterations a run fits, do not move it.
        if (!reset_peak_rss() && i == 0) {
            std::cerr << "perfbench: cannot reset the peak-RSS mark; peak_rss_mb counts from "
                         "process start\n";
        }
        auto tracer = rc.trace && i % 2 == 1 ? std::make_unique<Tracer>() : nullptr;
        if (const std::optional<Interval> run = iterate(tracer.get(), ms.layers)) {
            if (tracer) {
                ms.traced_runs.push_back(*run);
                ms.last_trace = std::move(tracer);
            } else {
                ms.runs.push_back(*run);
                ms.rss_mb.push_back(peak_rss_mb());
            }
        }
        iteration_s.push_back(seconds_since(t_iter));
        if (time_is_up(t_start, iteration_s, rc)) return ms;
    }
}

/// The rows a traced run adds after its iterations (residual checks,
/// tracing overhead, layer replay, ceilings), then its trace file.
void finish_traced(const Shape& s, const RunConfig& rc,
                   const std::vector<std::vector<Record>>& inputs, Measured& ms, MetricSheet& m) {
    const double wall = median_of(ms.runs, &Interval::wall);
    check_layer_sums(s.name, m);
    m.add("obs.trace_overhead_s", median_of(ms.traced_runs, &Interval::wall) - wall, "s");
    replay_layers(s, inputs.front(), rc.scratch, m);
    const double block_bytes = static_cast<double>(s.b) * sizeof(Record);
    measure_ceilings(s, inputs,
                     static_cast<std::uint64_t>(m.value("pdm.blocks_read") * block_bytes),
                     static_cast<std::uint64_t>(m.value("pdm.blocks_written") * block_bytes),
                     rc.scratch, m);
    add_ceiling_fractions(m, wall);
    if (ms.last_trace) write_trace(*ms.last_trace, rc);
}

RunResult run_solo(const Shape& s, const RunConfig& rc) {
    RunResult res;
    std::vector<double> setup_times;
    const auto setup = [&] { return setup_solo(s, rc); };
    time_setups(setup, setup_times);

    const std::string in_path = scratch_file(rc, "input.bin");
    FileCleanup cleanup({in_path});
    MultisetHash expect;
    {
        const std::vector<Record> input = generate(s.input, s.n, rc.seed);
        expect.add(input);
        write_records(in_path, input);
    }

    std::optional<std::uint64_t> io_steps;
    auto account = [&](const SoloSample& x) {
        ++res.attempted;
        bool ok = x.ok;
        if (ok) {
            const std::uint64_t steps = x.report.io.io_steps();
            if (!io_steps) io_steps = steps;
            if (steps != *io_steps) {
                std::cerr << "perfbench: " << s.name << ": io_steps " << steps
                          << " differs from the first run's " << *io_steps << '\n';
                ok = false;
            }
        }
        if (!ok) ++res.failed;
        return ok;
    };

    // Warm-up: page cache, allocator and thread start-up settle here.
    account(solo_iteration(s, rc, expect, nullptr, false));
    Measured ms = measure(rc, [&](Tracer* tr, MetricSheet& layers) -> std::optional<Interval> {
        const SoloSample x = solo_iteration(s, rc, expect, tr, false);
        time_setups(setup, setup_times);
        if (!account(x)) return std::nullopt;
        if (tr != nullptr) add_solo_layers(s, x, layers);
        return x.run;
    });
    if (rc.corrupt) {
        res.corruption_caught = !solo_iteration(s, rc, expect, nullptr, true).ok;
    }

    MetricSheet& m = res.metrics;
    const double n = static_cast<double>(s.n);
    if (!rc.trace) {
        const double cpu = median_of(ms.runs, &Interval::cpu);
        m.add("records_per_cpu_s", cpu > 0 ? n / cpu : 0, "records/s");
        m.add("setup_s", *std::min_element(setup_times.begin(), setup_times.end()), "s");
        m.add("peak_rss_mb", median(ms.rss_mb), "MB");
        m.add("io_steps", static_cast<double>(io_steps.value_or(0)), "count");
        return res;
    }
    m = std::move(ms.layers);
    const double wall = median_of(ms.runs, &Interval::wall);
    m.add("records_per_s", wall > 0 ? n / wall : 0, "records/s");
    m.add("job_latency_p50_s", wall, "s");
    finish_traced(s, rc, {generate(s.input, s.n, rc.seed)}, ms, m);
    return res;
}

// ---------------------------------------------------------------------
// service_8x: a closed batch of jobs through one SortScheduler.

/// The job mix: each input class twice, seeded from the run's seed.
std::vector<std::vector<Record>> service_inputs(const Shape& s, std::uint64_t seed) {
    static const Workload kMix[] = {Workload::kUniform, Workload::kZipf, Workload::kOrganPipe,
                                    Workload::kNearlySorted};
    std::vector<std::vector<Record>> inputs;
    for (std::uint32_t j = 0; j < s.jobs; ++j) {
        inputs.push_back(generate(kMix[j % 4], s.n, seed * 1000 + j));
    }
    return inputs;
}

struct Service {
    std::unique_ptr<DiskArray> disks;
    std::unique_ptr<SortScheduler> sched; ///< destroyed before disks
};

Service setup_service(const Shape& s, const RunConfig& rc, Tracer* tr) {
    Service sv;
    sv.disks = std::make_unique<DiskArray>(s.d, s.b, DiskBackend::kFile, rc.scratch);
    SchedulerConfig cfg;
    cfg.max_active = 4;
    cfg.executor_threads = 3;
    cfg.trace = tr;
    sv.sched = std::make_unique<SortScheduler>(*sv.disks, cfg);
    return sv;
}

struct BatchSample {
    double setup = 0, read = 0, submit = 0, wait = 0, verify = 0;
    Interval run;                 ///< first submit to last job terminal
    std::vector<double> latency;  ///< per admitted job: submit to terminal
    std::vector<JobStatus> jobs;  ///< per admitted job, in submission order
    std::uint64_t rejects = 0;
    std::uint64_t arbiter_waits = 0;
    std::uint64_t attempted = 0, failed = 0;
};

BatchSample service_batch(const Shape& s, const RunConfig& rc, Tracer* tr, bool corrupt) {
    BatchSample x;
    Service sv;
    {
        Timed t(x.setup, tr, "setup");
        sv = setup_service(s, rc, tr);
    }
    std::vector<JobSpec> specs(s.jobs);
    {
        Timed t(x.read, tr, "input_read");
        for (std::uint32_t j = 0; j < s.jobs; ++j) {
            JobSpec& spec = specs[j];
            spec.name = "job" + std::to_string(j);
            spec.records = read_records(scratch_file(rc, "input" + std::to_string(j) + ".bin"));
            spec.m = s.m;
            spec.p = s.threads;
            spec.config.threads(s.threads);
            spec.verify = true;
        }
    }
    x.attempted = s.jobs;
    const auto t0 = Clock::now();
    const IntervalMeter meter;
    std::vector<std::uint64_t> ids;
    {
        Timed t(x.submit, tr, "submit");
        for (JobSpec& spec : specs) {
            const AdmissionResult ad = sv.sched->submit(std::move(spec));
            if (ad.admitted) {
                ids.push_back(ad.id);
            } else {
                std::cerr << "perfbench: " << s.name << ": admission refused: " << ad.reason
                          << '\n';
                ++x.rejects;
            }
        }
    }
    x.jobs.resize(ids.size());
    x.latency.resize(ids.size());
    std::vector<char> waited(ids.size(), 0);
    {
        // One waiter per job stamps its terminal time; the submitting
        // thread only joins them.
        Timed t(x.wait, tr, "wait");
        std::vector<std::thread> waiters;
        for (std::size_t k = 0; k < ids.size(); ++k) {
            waiters.emplace_back([&, k]() {
                try {
                    x.jobs[k] = sv.sched->wait(ids[k]);
                    waited[k] = 1;
                } catch (const std::exception& e) {
                    std::cerr << "perfbench: wait failed: " << e.what() << '\n';
                }
                x.latency[k] = seconds_since(t0);
            });
        }
        for (std::thread& w : waiters) w.join();
    }
    x.run = meter.stop();
    x.arbiter_waits = sv.sched->arbiter_stats().waits;
    sv.sched.reset(); // the scheduler must go before the array it drives
    sv.disks.reset();

    Timed t(x.verify, tr, "verify");
    if (corrupt && !x.jobs.empty()) x.jobs[0].output_hash ^= 1;
    x.failed = x.rejects;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const JobStatus& js = x.jobs[k];
        // verify=true: the service itself checked the output is a sorted
        // permutation of the input before declaring success.
        if (!waited[k] || js.state != JobState::kSucceeded || js.report.io.io_steps() == 0) {
            std::cerr << "perfbench: " << s.name << ": job " << k << " "
                      << to_string(js.state) << ' ' << js.error << '\n';
            ++x.failed;
        }
    }
    return x;
}

/// The per-layer rows one traced batch yields (sums over its jobs).
void add_service_layers(const Shape& s, const BatchSample& x, MetricSheet& m) {
    LayerInputs in;
    in.setup = x.setup;
    in.read = x.read;
    in.verify = x.verify;
    in.run = x.run;
    in.unattributed = x.run.wall - (x.submit + x.wait);
    in.arbiter_waits = x.arbiter_waits;
    in.rejects = x.rejects;
    SortReport& sum = in.report;
    PhaseProfile& ph = sum.phases;
    for (const JobStatus& js : x.jobs) {
        const SortReport& r = js.report;
        sum.io += r.io;
        sum.comparisons += r.comparisons;
        sum.pram_time += r.pram_time;
        sum.levels = std::max(sum.levels, r.levels);
        sum.base_cases += r.base_cases;
        sum.equal_class_records += r.equal_class_records;
        sum.balance.merge(r.balance);
        sum.worst_bucket_read_ratio = std::max(sum.worst_bucket_read_ratio, r.worst_bucket_read_ratio);
        ph.pivot_seconds += r.phases.pivot_seconds;
        ph.balance_seconds += r.phases.balance_seconds;
        ph.base_case_seconds += r.phases.base_case_seconds;
        ph.emit_seconds += r.phases.emit_seconds;
        ph.staged_prefetches += r.phases.staged_prefetches;
        ph.overlap_hidden_seconds += r.phases.overlap_hidden_seconds;
        ph.pool_hits += r.phases.pool_hits;
        ph.pool_misses += r.phases.pool_misses;
        ph.compute_tasks += r.phases.compute_tasks;
        ph.compute_stolen += r.phases.compute_stolen;
        ph.compute_helped += r.phases.compute_helped;
        ph.io_wait_seconds += r.phases.io_wait_seconds;
        ph.pool_wait_seconds += r.phases.pool_wait_seconds;
        in.sort_s += r.elapsed_seconds;
        in.compute_s += r.phases.compute_seconds(r.elapsed_seconds);
        in.core_unattributed += r.elapsed_seconds - r.phases.phase_seconds();
        in.budget.gate_wait_seconds += js.budget.gate_wait_seconds;
        in.budget.io_wait_seconds += js.budget.io_wait_seconds;
        in.budget.pool_wait_seconds += js.budget.pool_wait_seconds;
        in.budget.other_seconds += js.budget.other_seconds;
        in.budget.compute_seconds += js.budget.compute_seconds;
    }
    add_layer_rows(s, s.n * s.jobs, in, m);
}

RunResult run_service(const Shape& s, const RunConfig& rc) {
    RunResult res;
    std::vector<double> setup_times;
    const auto setup = [&] { return setup_service(s, rc, nullptr); };
    time_setups(setup, setup_times);

    std::vector<std::string> paths;
    for (std::uint32_t j = 0; j < s.jobs; ++j) {
        paths.push_back(scratch_file(rc, "input" + std::to_string(j) + ".bin"));
    }
    FileCleanup cleanup(paths);
    {
        const std::vector<std::vector<Record>> inputs = service_inputs(s, rc.seed);
        for (std::uint32_t j = 0; j < s.jobs; ++j) write_records(paths[j], inputs[j]);
    }

    // Per job: io_steps and output hash of the first successful batch;
    // every later batch of this seed must reproduce both exactly.
    std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>> first(s.jobs);
    // Adds each mismatch to x.failed; true if the whole batch is clean.
    auto check = [&](BatchSample& x) {
        for (std::size_t k = 0; k < x.jobs.size() && k < first.size(); ++k) {
            const JobStatus& js = x.jobs[k];
            if (js.state != JobState::kSucceeded) continue;
            const std::pair<std::uint64_t, std::uint64_t> got{js.io.io_steps(), js.output_hash};
            if (!first[k]) first[k] = got;
            if (got != *first[k]) {
                std::cerr << "perfbench: " << s.name << ": job " << k
                          << " io_steps/output hash differ from the first batch\n";
                ++x.failed;
            }
        }
        return x.failed == 0;
    };
    auto account = [&](BatchSample& x) {
        const bool ok = check(x);
        res.attempted += x.attempted;
        res.failed += std::min(x.failed, x.attempted);
        return ok;
    };

    {
        BatchSample warm = service_batch(s, rc, nullptr, false);
        account(warm);
    }
    std::vector<std::vector<double>> latencies; // per untraced batch
    Measured ms = measure(rc, [&](Tracer* tr, MetricSheet& layers) -> std::optional<Interval> {
        BatchSample x = service_batch(s, rc, tr, false);
        time_setups(setup, setup_times);
        if (!account(x)) return std::nullopt;
        if (tr != nullptr) {
            add_service_layers(s, x, layers);
        } else {
            latencies.push_back(x.latency);
        }
        return x.run;
    });
    if (rc.corrupt) {
        BatchSample x = service_batch(s, rc, nullptr, true);
        res.corruption_caught = !check(x);
    }

    MetricSheet& m = res.metrics;
    const double total = static_cast<double>(s.n) * s.jobs;
    if (!rc.trace) {
        const double cpu = median_of(ms.runs, &Interval::cpu);
        m.add("records_per_cpu_s", cpu > 0 ? total / cpu : 0, "records/s");
        m.add("setup_s", *std::min_element(setup_times.begin(), setup_times.end()), "s");
        m.add("peak_rss_mb", median(ms.rss_mb), "MB");
        std::uint64_t steps = 0;
        for (const auto& f : first) steps += f ? f->first : 0;
        m.add("io_steps", static_cast<double>(steps), "count");
        return res;
    }
    m = std::move(ms.layers);
    const double makespan = median_of(ms.runs, &Interval::wall);
    std::vector<double> latency;
    for (const std::vector<double>& batch : latencies) {
        latency.insert(latency.end(), batch.begin(), batch.end());
    }
    m.add("records_per_s", makespan > 0 ? total / makespan : 0, "records/s");
    m.add("job_latency_p50_s", median(latency), "s");
    const std::vector<std::vector<Record>> inputs = service_inputs(s, rc.seed);
    replay_service_staging(s, inputs, rc.scratch, m);
    finish_traced(s, rc, inputs, ms, m);
    return res;
}

} // namespace

RunResult run_workload(const Shape& shape, const RunConfig& rc) {
    RunResult res = shape.jobs > 0 ? run_service(shape, rc) : run_solo(shape, rc);
    if (!rc.trace) {
        const double attempted = static_cast<double>(std::max<std::uint64_t>(res.attempted, 1));
        res.metrics.add("ok_fraction", 1.0 - static_cast<double>(res.failed) / attempted,
                        "ratio");
    }
    return res;
}

} // namespace perfbench
