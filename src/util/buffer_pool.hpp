#pragma once
/// \file buffer_pool.hpp
/// A pool of recycled record buffers for the staged sort pipeline
/// (DESIGN.md §10).
///
/// Every pass of the driver used to heap-allocate fresh
/// std::vector<Record> memoryloads — base-case loads, Balance staging,
/// stream-copy chunks, prefetch windows — and free them again a few
/// milliseconds later. The pool keeps those buffers alive between passes:
/// `acquire(n)` hands out a `Lease` whose vector is resized to n records
/// (contents unspecified — callers must overwrite or pad), and the Lease
/// destructor returns the buffer's capacity to the pool. Growing a lease
/// does not zero-fill: the buffers are `RecordBuffer`s, whose allocator
/// leaves new records' bytes as they are (a read or a copy overwrites them
/// at once).
///
/// Ownership rules:
///  * The pool must outlive every Lease it issued (the driver owns the pool
///    in DriverState; leases are stage-local).
///  * A Lease is move-only; moving transfers the return obligation.
///  * `BufferPool::acquire_from(nullptr, n)` yields an *unpooled* lease —
///    a plain vector freed on destruction — so layers that also run without
///    a sort around them (Balance passes, VRun sources in unit and layer
///    benches) keep one call shape.
///
/// Thread safety: acquire/return are mutex-guarded (cheap, uncontended —
/// the driver stages on one thread; engine workers only fill buffer memory
/// already sized by the submitting thread).

#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/record.hpp"

namespace balsort {

/// std::allocator whose value-less `construct` does nothing, so
/// `resize(n)` on a vector using it does not write the new elements. Only
/// for trivially copyable, trivially destructible types such as Record:
/// they are implicit-lifetime types, so allocating the storage creates the
/// objects, and their `= 0` member initializers still apply wherever a
/// Record is value-constructed (`Record{}`, a plain std::vector<Record>).
template <class T>
struct UninitAllocator : std::allocator<T> {
    UninitAllocator() = default;
    template <class U>
    UninitAllocator(const UninitAllocator<U>&) noexcept {}

    template <class U>
    void construct(U*) noexcept {
        static_assert(std::is_trivially_copyable_v<U> && std::is_trivially_destructible_v<U>);
    }
    template <class U, class A0, class... A>
    void construct(U* p, A0&& a0, A&&... a) {
        ::new (static_cast<void*>(p)) U(std::forward<A0>(a0), std::forward<A>(a)...);
    }
};

/// The record buffer a BufferPool lease holds.
using RecordBuffer = std::vector<Record, UninitAllocator<Record>>;

class BufferPool {
public:
    /// Retain at most `max_retained_records` of capacity across idle
    /// buffers; returns beyond the cap free their memory (counted as
    /// `dropped`). 0 = unlimited retention.
    explicit BufferPool(std::uint64_t max_retained_records = 0)
        : max_retained_records_(max_retained_records) {}

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    class Lease {
    public:
        Lease() = default;
        Lease(Lease&& o) noexcept : pool_(o.pool_), buf_(std::move(o.buf_)) {
            o.pool_ = nullptr;
            o.buf_.clear();
        }
        Lease& operator=(Lease&& o) noexcept {
            if (this != &o) {
                release();
                pool_ = o.pool_;
                buf_ = std::move(o.buf_);
                o.pool_ = nullptr;
                o.buf_.clear();
            }
            return *this;
        }
        ~Lease() { release(); }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;

        RecordBuffer& operator*() { return buf_; }
        RecordBuffer* operator->() { return &buf_; }
        const RecordBuffer& operator*() const { return buf_; }
        const RecordBuffer* operator->() const { return &buf_; }

    private:
        friend class BufferPool;
        Lease(BufferPool* pool, RecordBuffer buf) : pool_(pool), buf_(std::move(buf)) {}

        void release() {
            if (pool_ != nullptr) pool_->give_back(std::move(buf_));
            pool_ = nullptr;
            buf_ = {};
        }

        BufferPool* pool_ = nullptr;
        RecordBuffer buf_;
    };

    /// A buffer of exactly `n_records` records, contents unspecified.
    Lease acquire(std::size_t n_records);

    /// Pool-optional acquire: with a null pool the lease owns a plain
    /// vector (freed on destruction, nothing recycled).
    static Lease acquire_from(BufferPool* pool, std::size_t n_records) {
        if (pool != nullptr) return pool->acquire(n_records);
        return Lease{nullptr, RecordBuffer(n_records)};
    }

    struct Stats {
        std::uint64_t hits = 0;    ///< acquires served from a recycled buffer
        std::uint64_t misses = 0;  ///< acquires that allocated fresh
        std::uint64_t dropped = 0; ///< returns freed because the cap was full
        std::uint64_t retained_records = 0;   ///< idle capacity held right now
        std::uint64_t high_water_records = 0; ///< peak idle capacity held
    };
    Stats stats() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

private:
    void give_back(RecordBuffer&& buf);

    mutable std::mutex mutex_;
    std::vector<RecordBuffer> free_;
    std::uint64_t max_retained_records_;
    Stats stats_;
};

} // namespace balsort
