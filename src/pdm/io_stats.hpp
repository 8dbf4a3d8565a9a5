#pragma once
/// \file io_stats.hpp
/// I/O accounting for the parallel disk model — the paper's primary
/// performance measure (Theorem 1): the number of parallel I/O steps, where
/// one step moves at most one block of B records per disk.

#include <cstdint>

namespace balsort {

struct IoStats {
    std::uint64_t read_steps = 0;    ///< parallel read operations
    std::uint64_t write_steps = 0;   ///< parallel write operations
    std::uint64_t blocks_read = 0;   ///< total blocks transferred in
    std::uint64_t blocks_written = 0;///< total blocks transferred out

    // --- fault-tolerance accounting (DESIGN.md §8) ---
    // Recovery traffic is *not* folded into the model's step counters: the
    // paper's measure is algorithmic I/O, and keeping it clean means a
    // faulty run reports the same io_steps() as a clean one (determinism
    // extends to fault handling). The block-granular recovery work is
    // charged here instead.
    std::uint64_t transient_retries = 0;   ///< block ops re-issued after a transient fault
    std::uint64_t corrupt_blocks = 0;      ///< checksum mismatches detected on read
    std::uint64_t reconstructions = 0;     ///< blocks rebuilt from parity + peers
    std::uint64_t degraded_writes = 0;     ///< writes absorbed by parity (disk dead)
    std::uint64_t parity_blocks_written = 0; ///< parity-disk block writes
    std::uint64_t rmw_reads = 0;           ///< old-data/old-parity reads for parity RMW
    std::uint64_t io_timeouts = 0;         ///< reads abandoned past their deadline
                                           ///  (served via parity instead; DESIGN.md §13)

    // --- engine wall-clock metrics (DESIGN.md §9) ---
    // Observability for the request/completion engine's worker threads.
    // These measure the real machine (seconds, queue depths), never model
    // costs; an inline engine (workers off) executes on the submitting
    // thread, never waits, and leaves all five at zero. io_steps() is
    // charged identically in both modes — the wall-clock-vs-model-cost
    // separation.
    double engine_busy_seconds = 0;   ///< summed per-disk worker execution time
    double engine_stall_seconds = 0;  ///< submitter time blocked awaiting worker completions
    std::uint64_t async_block_ops = 0;///< block transfers executed by the workers
    std::uint64_t engine_wakeups = 0; ///< worker dequeues; async_block_ops / engine_wakeups
                                      ///  is the blocks served per thread hand-off
    std::uint64_t max_in_flight = 0;  ///< peak worker requests in flight (high-water)
    std::uint64_t prefetch_block_ops = 0; ///< block ops issued ahead of consumption
                                          ///  (prefetch_read; model charge lands later)

    /// The paper's "number of I/Os".
    std::uint64_t io_steps() const { return read_steps + write_steps; }

    /// Block-granular I/O spent on fault recovery and redundancy upkeep
    /// (the overhead the fault soak bench bounds).
    std::uint64_t recovery_blocks() const {
        return transient_retries + reconstructions + parity_blocks_written + rmw_reads;
    }

    /// Fraction of the D-disk bandwidth actually used, given D.
    double utilization(std::uint64_t d) const {
        const std::uint64_t steps = io_steps();
        if (steps == 0 || d == 0) return 0.0;
        return static_cast<double>(blocks_read + blocks_written) /
               static_cast<double>(steps * d);
    }

    IoStats& operator+=(const IoStats& o) {
        read_steps += o.read_steps;
        write_steps += o.write_steps;
        blocks_read += o.blocks_read;
        blocks_written += o.blocks_written;
        transient_retries += o.transient_retries;
        corrupt_blocks += o.corrupt_blocks;
        reconstructions += o.reconstructions;
        degraded_writes += o.degraded_writes;
        parity_blocks_written += o.parity_blocks_written;
        rmw_reads += o.rmw_reads;
        io_timeouts += o.io_timeouts;
        engine_busy_seconds += o.engine_busy_seconds;
        engine_stall_seconds += o.engine_stall_seconds;
        async_block_ops += o.async_block_ops;
        engine_wakeups += o.engine_wakeups;
        max_in_flight = max_in_flight > o.max_in_flight ? max_in_flight : o.max_in_flight;
        prefetch_block_ops += o.prefetch_block_ops;
        return *this;
    }

    friend IoStats operator-(IoStats a, const IoStats& b) {
        a.read_steps -= b.read_steps;
        a.write_steps -= b.write_steps;
        a.blocks_read -= b.blocks_read;
        a.blocks_written -= b.blocks_written;
        a.transient_retries -= b.transient_retries;
        a.corrupt_blocks -= b.corrupt_blocks;
        a.reconstructions -= b.reconstructions;
        a.degraded_writes -= b.degraded_writes;
        a.parity_blocks_written -= b.parity_blocks_written;
        a.rmw_reads -= b.rmw_reads;
        a.io_timeouts -= b.io_timeouts;
        a.engine_busy_seconds -= b.engine_busy_seconds;
        a.engine_stall_seconds -= b.engine_stall_seconds;
        a.async_block_ops -= b.async_block_ops;
        a.engine_wakeups -= b.engine_wakeups;
        a.prefetch_block_ops -= b.prefetch_block_ops;
        // max_in_flight is a high-water mark, not a flow: interval deltas
        // keep the left operand's peak unchanged.
        return a;
    }

    void reset() { *this = IoStats{}; }
};

} // namespace balsort
