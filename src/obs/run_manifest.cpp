#include "obs/run_manifest.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace balsort {

namespace {

// Escaping is the shared obs/json.hpp helper (DESIGN.md §12).
void write_escaped(std::ostream& os, const std::string& s) { write_json_escaped(os, s); }

} // namespace

void RunManifest::write_json(std::ostream& os) const {
    const IoStats& io = report.io;
    const PhaseProfile& ph = report.phases;
    const BalanceStats& bal = report.balance;
    os << "{\"tool\":\"";
    write_escaped(os, tool);
    os << "\",\"algo\":\"";
    write_escaped(os, algo);
    os << "\",\"config\":{\"n\":" << cfg.n << ",\"m\":" << cfg.m << ",\"d\":" << cfg.d
       << ",\"b\":" << cfg.b << ",\"p\":" << cfg.p << "}";
    os << ",\"io\":{\"read_steps\":" << io.read_steps << ",\"write_steps\":" << io.write_steps
       << ",\"io_steps\":" << io.io_steps() << ",\"blocks_read\":" << io.blocks_read
       << ",\"blocks_written\":" << io.blocks_written
       << ",\"utilization\":" << io.utilization(cfg.d)
       << ",\"transient_retries\":" << io.transient_retries
       << ",\"corrupt_blocks\":" << io.corrupt_blocks
       << ",\"reconstructions\":" << io.reconstructions
       << ",\"degraded_writes\":" << io.degraded_writes
       << ",\"parity_blocks_written\":" << io.parity_blocks_written
       << ",\"rmw_reads\":" << io.rmw_reads << ",\"io_timeouts\":" << io.io_timeouts
       << ",\"recovery_blocks\":" << io.recovery_blocks()
       << ",\"engine_busy_seconds\":" << io.engine_busy_seconds
       << ",\"engine_stall_seconds\":" << io.engine_stall_seconds
       << ",\"async_block_ops\":" << io.async_block_ops
       << ",\"engine_wakeups\":" << io.engine_wakeups
       << ",\"max_in_flight\":" << io.max_in_flight
       << ",\"prefetch_block_ops\":" << io.prefetch_block_ops << "}";
    os << ",\"report\":{\"optimal_ios\":" << report.optimal_ios
       << ",\"io_ratio\":" << report.io_ratio << ",\"comparisons\":" << report.comparisons
       << ",\"moves\":" << report.moves << ",\"pram_time\":" << report.pram_time
       << ",\"optimal_work\":" << report.optimal_work << ",\"work_ratio\":" << report.work_ratio
       << ",\"s_used\":" << report.s_used << ",\"d_virtual\":" << report.d_virtual
       << ",\"levels\":" << report.levels << ",\"base_cases\":" << report.base_cases
       << ",\"equal_class_records\":" << report.equal_class_records
       << ",\"disks_failed\":" << report.disks_failed
       << ",\"worst_bucket_read_ratio\":" << report.worst_bucket_read_ratio
       << ",\"max_bucket_records\":" << report.max_bucket_records
       << ",\"bucket_bound\":" << report.bucket_bound
       << ",\"checkpoints_written\":" << report.checkpoints_written
       << ",\"resumes\":" << report.resumes
       << ",\"elapsed_seconds\":" << report.elapsed_seconds << "}";
    os << ",\"phases\":{\"pivot_seconds\":" << ph.pivot_seconds
       << ",\"balance_seconds\":" << ph.balance_seconds
       << ",\"base_case_seconds\":" << ph.base_case_seconds
       << ",\"emit_seconds\":" << ph.emit_seconds
       << ",\"staged_prefetches\":" << ph.staged_prefetches
       << ",\"overlap_hidden_seconds\":" << ph.overlap_hidden_seconds
       << ",\"io_wait_seconds\":" << ph.io_wait_seconds
       << ",\"gate_wait_seconds\":" << ph.gate_wait_seconds
       << ",\"pool_wait_seconds\":" << ph.pool_wait_seconds
       << ",\"pool_hits\":" << ph.pool_hits << ",\"pool_misses\":" << ph.pool_misses
       << ",\"pool_hit_rate\":" << ph.pool_hit_rate()
       << ",\"compute_tasks\":" << ph.compute_tasks
       << ",\"compute_stolen\":" << ph.compute_stolen
       << ",\"compute_helped\":" << ph.compute_helped << "}";
    os << ",\"balance\":{\"tracks\":" << bal.tracks << ",\"direct_blocks\":" << bal.direct_blocks
       << ",\"matched_blocks\":" << bal.matched_blocks
       << ",\"deferred_blocks\":" << bal.deferred_blocks
       << ",\"rearrange_rounds\":" << bal.rearrange_rounds
       << ",\"max_rounds_per_track\":" << bal.max_rounds_per_track
       << ",\"match_draws\":" << bal.match_draws
       << ",\"invariant1_held\":" << json_bool(bal.invariant1_held)
       << ",\"invariant2_held\":" << json_bool(bal.invariant2_held) << "}";
    if (timeline != nullptr) {
        // write_json (inline, header-only — obs must not link core)
        // terminates with '\n'; splice the object in bare.
        std::ostringstream tls;
        timeline->write_json(tls);
        std::string tl = tls.str();
        while (!tl.empty() && (tl.back() == '\n' || tl.back() == ' ')) tl.pop_back();
        os << ",\"balance_timeline\":" << tl;
    }
    if (metrics != nullptr) {
        // write_json terminates with '\n'; splice the object in bare.
        std::string snap = metrics->to_json();
        while (!snap.empty() && (snap.back() == '\n' || snap.back() == ' ')) snap.pop_back();
        os << ",\"metrics\":" << snap;
    }
    os << "}\n";
}

std::string RunManifest::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

bool RunManifest::write_json_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os);
    return os.good();
}

} // namespace balsort
