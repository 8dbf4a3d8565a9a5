#pragma once
/// \file sort_config.hpp
/// The sort's one configuration type (DESIGN.md §14).
///
/// `SortJobConfig` keeps the paper's algorithmic knobs top-level and groups
/// the environmental ones into four policy structs —
///
///   IoPolicy          — how the sort drives the array (async engine,
///                       synchronized writes, a shared staging pool),
///   ComputePolicy     — the logical PRAM lane count and its executor,
///   DurabilityPolicy  — crash consistency (checkpoint/resume paths, the
///                       chaos hook),
///   ObsPolicy         — observability sinks (tracer, metrics registry,
///                       profiler, live progress).
///
/// `SortJobConfig::validate()` runs every coherence check once; the sort
/// entry points (core/balance_sort.hpp) call it on entry. Builder-style
/// setters return `*this` so a config reads as one declarative expression:
///
///   auto cfg = SortJobConfig{}
///                  .pivots(PivotMethod::kStreamingSketch)
///                  .io(IoPolicy{}.async(AsyncIo::kOn))
///                  .durability(DurabilityPolicy{}.checkpoint("ck.bin"));
///   balance_sort(disks, input, pdm, cfg, &report);

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/balance.hpp"
#include "core/phase_profile.hpp"

namespace balsort {

class BufferPool;
class MetricsRegistry;
class Profiler;
class Tracer;

/// How each level's partition elements are obtained.
enum class PivotMethod {
    /// §5 / [ViSa]: a dedicated read pass per level that multi-selects
    /// centered stride samples from each memoryload. Paper-faithful.
    kSamplingPass,
    /// Extension: the parent's Balance pass feeds each bucket through a
    /// deterministic Munro-Paterson quantile sketch, so recursive levels
    /// skip their pivot read pass entirely — one full pass per level
    /// saved, same determinism, with a self-correcting quality guarantee
    /// (see quantile_sketch.hpp). The top level still pays one sampling
    /// pass. Not available with BucketPolicy::kSqrtLevel (the child S is
    /// unknown while the parent runs).
    kStreamingSketch,
};

/// Which engine sorts a base-case memoryload with the P processors (§5's
/// internal-processing toolbox: Cole's merge sort [Col] vs the
/// Rajasekaran-Reif radix path [RaR]).
enum class InternalSort {
    kParallelMerge, ///< comparison-based, stable (default)
    kParallelRadix, ///< LSD radix on the 64-bit keys, stable
};

/// How the bucket count S is chosen at each recursion level.
enum class BucketPolicy {
    /// The paper's PDM rule (§5): S = (M/B)^(1/4) at every level, clamped
    /// so the staging buffers fit in memory. (Default when s_target == 0.)
    kPaperPdm,
    /// Fixed S = s_target at every level.
    kFixed,
    /// The hierarchy rule (§4.3): S = sqrt(n_level / D') re-evaluated per
    /// level — the square-root decomposition giving loglog recursion depth.
    kSqrtLevel,
};

/// Whether the sort drives the array through the asynchronous
/// request/completion engine (DESIGN.md §9). Model accounting is identical
/// either way; only wall-clock changes.
enum class AsyncIo {
    kAuto, ///< on for DiskBackend::kFile, off for kMemory
    kOn,
    kOff,
};

/// How the sort drives the disk array (DESIGN.md §9-§10). Everything here
/// changes wall-clock, memory and disk-placement behaviour only — model
/// quantities (io_steps(), counters, output bytes) are identical for every
/// setting.
///
/// Two behaviours are fixed rather than configurable: record staging
/// buffers (base-case loads, Balance staging, stream-copy chunks, prefetch
/// windows) always recycle through a BufferPool — the sort's own, capped
/// at 4*M records of idle capacity, or `shared_pool`; and while one
/// bucket's base case sorts, the next bucket's first memoryload is staged
/// through the engine whenever the engine has workers (cross-bucket
/// overlap, DESIGN.md §10).
struct IoPolicy {
    /// Overlapped I/O through the per-disk worker engine: prefetched
    /// memoryloads and write-behind bucket stripes (DESIGN.md §9).
    /// io_steps(), structure counters, and the sorted output are
    /// bit-identical to the inline engine (kOff); only wall-clock changes.
    AsyncIo async_io = AsyncIo::kAuto;
    /// §6: perform only fully striped (synchronized) write operations —
    /// every bucket write step lands at one common block index across the
    /// array (error-checking/parity friendly), trading disk space for the
    /// property. I/O step counts are unchanged.
    bool synchronized_writes = false;
    /// Caller-owned staging pool shared across jobs (the sort service
    /// shares one across concurrent jobs); null gives the sort its own.
    /// Report pool stats are then left at zero (the shared pool's counters
    /// aggregate every job).
    BufferPool* shared_pool = nullptr;

    IoPolicy& async(AsyncIo v) { async_io = v; return *this; }
    IoPolicy& synchronized(bool v) { synchronized_writes = v; return *this; }
    IoPolicy& pool(BufferPool* p) { shared_pool = p; return *this; }
};

/// Crash consistency (DESIGN.md §13): checkpoint-at-boundaries and resume.
struct DurabilityPolicy {
    /// Off ("") by default. When set, the sort writes a crash-consistent
    /// checkpoint record to this path at every pipeline boundary (after
    /// the pivot pass, after Balance, after each consumed bucket) — atomic
    /// tmp+fsync+rename, so a crash at any instant leaves a loadable
    /// record. Checkpointing changes no model quantity (io_steps(), counts,
    /// output bytes); only which physical scratch blocks freed storage
    /// lands on (releases are quarantined until the next durable boundary)
    /// and wall-clock.
    std::string checkpoint_path;
    /// Resume an interrupted sort from this checkpoint file. Requires
    /// checkpoint_path (the resumed run keeps checkpointing), the same
    /// configuration the record echoes, and an array whose scratch still
    /// holds the interrupted run's blocks (the same live array, or file
    /// disks re-opened via ScratchOptions::adopt). The resumed run
    /// produces the byte-identical output run and model accounting as an
    /// uninterrupted run (tested by tests/chaos).
    std::string resume_from;
    /// Test/chaos hook fired after each boundary's durable write with its
    /// cumulative sequence number; it may throw (or _exit) to simulate a
    /// crash exactly at the boundary.
    std::function<void(std::uint64_t)> on_checkpoint;

    DurabilityPolicy& checkpoint(std::string path) {
        checkpoint_path = std::move(path);
        return *this;
    }
    DurabilityPolicy& resume(std::string path) {
        resume_from = std::move(path);
        return *this;
    }
    DurabilityPolicy& hook(std::function<void(std::uint64_t)> fn) {
        on_checkpoint = std::move(fn);
        return *this;
    }

    /// resume_from requires checkpoint_path (the resumed run continues
    /// checkpointing where the interrupted one stopped), and so does the
    /// on_checkpoint hook (it would never fire). std::invalid_argument.
    void validate() const;
};

/// Compute parallelism (DESIGN.md §15): how many logical PRAM lanes the
/// sort's internal algorithms run with, and which work-stealing executor
/// fans them out. Every WorkMeter/PramCost charge depends only on the
/// resolved lane count, never on where tasks physically execute — a job on
/// a shared executor reports the same model quantities as one with a
/// private pool.
struct ComputePolicy {
    /// Cap on logical compute lanes; 0 = min(cfg.p, 2 * hardware threads)
    /// — or, with a shared executor, min(cfg.p, workers() + 1). The
    /// resolved lane count sets the charged pram_time (and work_ratio), so
    /// the 0 default makes those two figures depend on the host's core
    /// count; pin a lane count wherever they are compared across machines.
    std::uint32_t threads = 0;
    /// Borrowed executor shared across jobs (the sort scheduler installs
    /// its own here); null gives the sort a private Executor when the
    /// resolved lane count exceeds 1.
    Executor* shared_executor = nullptr;

    ComputePolicy& lanes(std::uint32_t t) { threads = t; return *this; }
    ComputePolicy& executor(Executor* e) { shared_executor = e; return *this; }

    /// Rejects a lane cap the shared executor cannot honor
    /// (std::invalid_argument): at most workers() + the submitting thread.
    void validate() const;
};

/// Observability sinks (DESIGN.md §11, §16-§17), all off (null) by
/// default. Each observes, never perturbs: io_steps(), the observer
/// sequence, and the output are bit-identical with any of them on or off
/// (tested).
struct ObsPolicy {
    /// Installed process-wide for the sort's duration: pipeline phases
    /// emit timeline spans, engine workers emit per-disk op spans, the
    /// array records per-op latency histograms.
    Tracer* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
    /// Sampling CPU profiler (DESIGN.md §17); the sort holds a
    /// ProfilerScope for its duration. Caller-owned, like the tracer; the
    /// caller dumps it (folded stacks / trace lane) after the sort returns.
    Profiler* profiler = nullptr;
    /// Live progress sink (DESIGN.md §16): the pipeline publishes its
    /// current phase and records-emitted count into these atomics as it
    /// runs, so a watcher (SortScheduler::status(), the balsortd ticker)
    /// can show progress and a phase-weighted ETA.
    ProgressSink* progress = nullptr;

    ObsPolicy& tracer(Tracer* t) { trace = t; return *this; }
    ObsPolicy& registry(MetricsRegistry* m) { metrics = m; return *this; }
    ObsPolicy& sampler(Profiler* p) { profiler = p; return *this; }
};

/// The sort configuration: algorithmic knobs top-level, environmental
/// concerns grouped into the four policies above.
struct SortJobConfig {
    // --- algorithm (the paper's knobs) ---
    /// Bucket-count target S for BucketPolicy::kFixed; with the default
    /// policy, 0 selects the paper's (M/B)^(1/4) (§5).
    std::uint32_t s_target = 0;
    /// Per-level S selection rule. A nonzero s_target requires kFixed;
    /// kSqrtLevel is the hierarchy rule (§4.3).
    BucketPolicy bucket_policy = BucketPolicy::kPaperPdm;
    PivotMethod pivot_method = PivotMethod::kSamplingPass;
    /// Base-case internal sorting engine.
    InternalSort internal_sort = InternalSort::kParallelMerge;
    /// Number of virtual disks D'; 0 selects the divisor of D nearest
    /// D^(1/3) (§4.1 partial striping). Must divide D when given.
    std::uint32_t d_virtual = 0;
    /// Balance knobs (matching strategy, aux rule, defer policy, ...).
    BalanceOptions balance_opts{};
    /// §4.4: after Balance, rewrite each bucket that will recurse into
    /// consecutive locations on each virtual disk/hierarchy (one extra
    /// swept read + streamed write per level). On the Block-Transfer
    /// hierarchies this repositioning is what keeps every subsequent
    /// bucket access a cheap stream instead of an S-fold interleaved
    /// sweep — the role the paper assigns to the [ACSa] generalized
    /// matrix transposition. Costs extra I/O steps on the plain PDM, so
    /// it is off by default.
    bool reposition_buckets = false;
    /// Cooperative cancellation (DESIGN.md §14), owned by the caller: when
    /// non-null and set, the pipeline throws JobCancelled at the next
    /// node/bucket boundary. The array stays healthy; in-flight async work
    /// is completed first by normal unwinding.
    const std::atomic<bool>* cancel_flag = nullptr;

    // --- policies ---
    IoPolicy io_policy{};
    ComputePolicy compute_policy{};
    DurabilityPolicy durability_policy{};
    ObsPolicy obs_policy{};

    // --- builder setters ---
    SortJobConfig& buckets(std::uint32_t s, BucketPolicy policy = BucketPolicy::kFixed) {
        s_target = s;
        bucket_policy = policy;
        return *this;
    }
    SortJobConfig& bucket_rule(BucketPolicy policy) { bucket_policy = policy; return *this; }
    SortJobConfig& pivots(PivotMethod m) { pivot_method = m; return *this; }
    SortJobConfig& base_case(InternalSort s) { internal_sort = s; return *this; }
    SortJobConfig& virtual_disks(std::uint32_t dv) { d_virtual = dv; return *this; }
    SortJobConfig& balance(const BalanceOptions& b) { balance_opts = b; return *this; }
    SortJobConfig& threads(std::uint32_t t) { compute_policy.threads = t; return *this; }
    SortJobConfig& reposition(bool v) { reposition_buckets = v; return *this; }
    SortJobConfig& cancel(const std::atomic<bool>* flag) { cancel_flag = flag; return *this; }
    SortJobConfig& io(IoPolicy p) { io_policy = p; return *this; }
    SortJobConfig& compute(ComputePolicy p) { compute_policy = p; return *this; }
    SortJobConfig& durability(DurabilityPolicy p) { durability_policy = std::move(p); return *this; }
    SortJobConfig& observability(ObsPolicy p) { obs_policy = p; return *this; }

    /// Rejects incoherent combinations with a clear message
    /// (std::invalid_argument), each checked once: kStreamingSketch +
    /// kSqrtLevel (child S unknown while the parent runs), s_target != 0
    /// with a non-kFixed policy, d_virtual not dividing the array's D,
    /// plus ComputePolicy::validate and DurabilityPolicy::validate.
    /// Called by balance_sort() on entry.
    void validate(std::uint32_t d) const;
};

} // namespace balsort
