// EXP-PIPELINE — the DESIGN.md §10 staged driver, measured. One file-backed
// sort at D = 8 under a device-model throttle, with the library defaults:
// staging buffers recycled through the per-sort pool and the next bucket's
// first memoryload staged through the engine while the current base case
// sorts. Reproduction targets: staging engages and hides engine time behind
// base-case sorts (the hidden seconds are measured directly) and the pool
// serves at least half of all staging acquisitions from recycled buffers.
// Model quantities are pinned by the committed benchgate baseline.
//
// The compute lane count is pinned to 2 so the charged pram_time (which
// depends on the resolved lane count) is the same on every host.
//
// Flags: --smoke (CI-sized instance), --json PATH (canonical
// balsort-bench-v1 suite for benchgate, DESIGN.md §12), --trace PATH
// (Chrome trace of the run; open in Perfetto), --metrics PATH
// (latency-histogram snapshot of the run).
#include <cstring>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "pdm/disk_array.hpp"

using namespace balsort;
using namespace balsort::bench;

int main(int argc, char** argv) {
    bool smoke = false;
    const char* json_path = nullptr;
    const char* trace_path = nullptr;
    const char* metrics_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) trace_path = argv[++i];
        if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) metrics_path = argv[++i];
    }

    banner("EXP-PIPELINE",
           "Staged sort pipeline (DESIGN.md §10): file-backed Balance Sort at D = 8\n"
           "under a device-model throttle, library defaults (pooled staging buffers +\n"
           "cross-bucket staging). Reproduction target: staged next-bucket transfers\n"
           "hide engine time behind base-case sorts and the pool recycles most\n"
           "staging buffers.");

    const PdmConfig cfg = smoke ? PdmConfig{.n = 1 << 14, .m = 1 << 11, .d = 8, .b = 16, .p = 4}
                                : PdmConfig{.n = 1 << 16, .m = 1 << 12, .d = 8, .b = 16, .p = 4};
    const DeviceModel dev{.latency_us = 150, .us_per_record = 0.2};
    auto input = generate(Workload::kUniform, cfg.n, 42);

    Tracer tracer;
    MetricsRegistry metrics_reg;
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, "/tmp", Constraint::kIndependentDisks, {},
                    dev);
    SortJobConfig job;
    job.io(IoPolicy{}.async(AsyncIo::kOn))
        .compute(ComputePolicy{}.lanes(2))
        .observability(ObsPolicy{}
                           .tracer(trace_path != nullptr ? &tracer : nullptr)
                           .registry(metrics_path != nullptr ? &metrics_reg : nullptr));
    SortReport rep;
    Timer timer;
    const std::vector<Record> sorted = balance_sort_records(disks, input, cfg, job, &rep);
    const double wall_s = timer.seconds();

    if (trace_path != nullptr) {
        tracer.write_chrome_trace_file(trace_path);
        std::cout << "wrote " << trace_path << " (" << tracer.event_count() << " events)\n";
    }
    if (metrics_path != nullptr) {
        metrics_reg.write_json_file(metrics_path);
        std::cout << "wrote " << metrics_path << "\n";
    }
    if (!is_sorted_permutation_of(input, sorted)) {
        std::cerr << "BENCH BUG: output is not a sorted permutation\n";
        return 1;
    }
    // The profile must be populated, and the wall clock can never undercut
    // the (non-overlapped) stage time.
    const PhaseProfile& ph = rep.phases;
    if (ph.phase_seconds() <= 0 ||
        rep.elapsed_seconds < ph.phase_seconds() - ph.overlap_hidden_seconds) {
        std::cerr << "BENCH BUG: inconsistent PhaseProfile\n";
        return 1;
    }

    Table t({"wall (s)", "I/O steps", "blocks", "pivot (s)", "balance (s)", "base (s)",
             "emit (s)", "staged", "hidden (s)", "pool hit%"});
    t.add_row({Table::fixed(wall_s, 2), Table::num(rep.io.io_steps()),
               Table::num(rep.io.blocks_read + rep.io.blocks_written),
               Table::fixed(ph.pivot_seconds, 2), Table::fixed(ph.balance_seconds, 2),
               Table::fixed(ph.base_case_seconds, 2), Table::fixed(ph.emit_seconds, 2),
               Table::num(ph.staged_prefetches), Table::fixed(ph.overlap_hidden_seconds, 3),
               Table::fixed(100.0 * ph.pool_hit_rate(), 1)});
    t.print(std::cout);

    bool ok = true;
    if (ph.staged_prefetches == 0) {
        std::cerr << "BENCH BUG: defaults never staged a cross-bucket prefetch\n";
        ok = false;
    }
    if (ph.pool_hit_rate() < 0.5) {
        std::cerr << "BENCH BUG: pool hit rate " << ph.pool_hit_rate()
                  << " below 0.5 — recycling is not engaging\n";
        ok = false;
    }
    if (ph.overlap_hidden_seconds <= 0) {
        std::cerr << "BENCH BUG: staging hid no engine time\n";
        ok = false;
    }
    std::cout << "\n(" << Table::fixed(ph.overlap_hidden_seconds, 3)
              << " s of engine time hidden behind base-case sorts, "
              << Table::fixed(100.0 * ph.pool_hit_rate(), 1) << "% pool hits)\n";

    if (json_path != nullptr) {
        // Canonical balsort-bench-v1 suite (DESIGN.md §12), gated by
        // benchgate against bench/baselines/pipeline.json. "+both" is the
        // historical id of the defaults row (pooling + staging).
        BenchSuite suite = make_suite("pipeline", smoke);
        suite.results.push_back(BenchResult::from_report("pipeline", "+both", cfg, rep, wall_s));
        if (!write_suite(suite, json_path)) return 1;
    }
    return ok ? 0 : 1;
}
