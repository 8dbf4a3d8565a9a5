#pragma once
// Low-overhead span tracer with Chrome trace_event JSON export.
//
// The tracer answers the timeline questions the counters cannot: *when* did
// each pipeline phase run, what was each disk worker doing while the base
// case sorted, how long did a staged prefetch sit in flight before the
// consumer needed it. Events are appended to per-thread buffers (one mutex
// acquisition per thread per tracer lifetime, lock-free afterwards) and
// serialized on demand to the Chrome trace_event format, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Event kinds:
//   Span        RAII complete event ("X": ts + dur) with optional i64 args
//   instant     point event ("i") — fault retries, reconstructions, ...
//   async pair  begin/end ("b"/"e") matched by id — prefetch issue/consume
//
// Lanes: real threads get row ids 1..N in registration order; named lanes
// (one per pipeline phase, one per disk worker) get synthetic row ids from
// 1000 up via lane(), each labelled with a thread_name metadata event so
// the viewer shows "phase:pivot", "disk 3 io", etc.
//
// Cost model: everything is gated on a raw pointer — call sites hold a
// `Tracer*` that is null when tracing is off, and every helper (and the
// Span constructor) no-ops on null. The installed-tracer accessor
// `balsort::tracer()` reads one relaxed atomic; compiling with
// BALSORT_NO_OBS makes it constexpr nullptr so the entire instrumentation
// dead-code eliminates (the compile-time-checkable no-op path).
//
// Strings: event/category/arg-key strings must have static storage
// duration (string literals); the tracer stores the pointers only.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace balsort {

struct TraceArg {
    const char* key = nullptr;
    std::int64_t value = 0;
};

struct TraceEvent {
    const char* name = nullptr; // static-lifetime string
    const char* cat = nullptr;  // static-lifetime string
    char phase = 'X';           // 'X' complete, 'i' instant, 'b'/'e' async
    std::uint32_t tid = 0;      // row id (thread or lane)
    std::int64_t ts_us = 0;     // microseconds since tracer construction
    std::int64_t dur_us = 0;    // 'X' only
    std::uint64_t id = 0;       // async pair id ('b'/'e' only)
    TraceArg args[4];
    std::uint8_t n_args = 0;
};

class Tracer {
  public:
    Tracer();
    ~Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Microseconds since tracer construction (steady clock).
    std::int64_t now_us() const;

    /// Process-unique instance id (never 0): lets a cache keyed on the
    /// installed tracer tell a new tracer from a freed one at the same
    /// address.
    std::uint64_t epoch() const { return epoch_; }

    /// Converts an already-captured steady_clock point to trace time, for
    /// call sites that timestamp before deciding whether to emit.
    std::int64_t ts_us(std::chrono::steady_clock::time_point tp) const {
        return std::chrono::duration_cast<std::chrono::microseconds>(tp - base_).count();
    }

    /// Registers (or looks up) a named lane — a synthetic timeline row for
    /// events that belong to a logical track rather than an OS thread.
    /// Idempotent per name; thread-safe.
    std::uint32_t lane(const std::string& name);

    /// Fresh id for an async begin/end pair.
    std::uint64_t next_async_id() { return async_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

    /// Appends a fully-formed event to the calling thread's buffer.
    /// ev.tid == 0 means "the calling thread's row".
    void emit(TraceEvent ev);

    void instant(const char* name, const char* cat, std::uint32_t lane_tid = 0,
                 std::initializer_list<TraceArg> args = {});
    void async_begin(const char* name, const char* cat, std::uint64_t id,
                     std::uint32_t lane_tid = 0, std::initializer_list<TraceArg> args = {});
    void async_end(const char* name, const char* cat, std::uint64_t id,
                   std::uint32_t lane_tid = 0, std::initializer_list<TraceArg> args = {});

    /// Serializes every buffered event as a Chrome trace_event JSON object
    /// ({"traceEvents": [...]}). Call only when all producing threads have
    /// quiesced (workers joined); concurrent emit() during export is a race.
    void write_chrome_trace(std::ostream& os) const;
    bool write_chrome_trace_file(const std::string& path) const;

    /// Total events buffered so far (for tests; same quiescence caveat).
    std::size_t event_count() const;

  private:
    struct ThreadBuf {
        std::vector<TraceEvent> events;
        std::uint32_t tid = 0;
    };

    ThreadBuf* local_buf();

    std::chrono::steady_clock::time_point base_;
    std::uint64_t epoch_; // globally unique per Tracer instance
    std::atomic<std::uint64_t> async_id_{0};
    std::atomic<std::uint32_t> next_tid_{0};

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
    std::vector<std::pair<std::string, std::uint32_t>> lanes_;
};

/// RAII span: emits one complete ("X") event covering the scope's lifetime.
/// Null tracer → every member is a no-op, so call sites need no branches.
class Span {
  public:
    Span(Tracer* t, const char* name, const char* cat, std::uint32_t lane_tid = 0)
        : t_(t), lane_(lane_tid) {
        if (t_ != nullptr) {
            ev_.name = name;
            ev_.cat = cat;
            start_ = t_->now_us();
        }
    }
    ~Span() {
        if (t_ != nullptr) {
            ev_.phase = 'X';
            ev_.tid = lane_;
            ev_.ts_us = start_;
            ev_.dur_us = t_->now_us() - start_;
            t_->emit(ev_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(const char* key, std::int64_t value) {
        if (t_ != nullptr && ev_.n_args < 4) ev_.args[ev_.n_args++] = {key, value};
    }

  private:
    Tracer* t_;
    std::uint32_t lane_;
    std::int64_t start_ = 0;
    TraceEvent ev_;
};

namespace detail {
extern std::atomic<Tracer*> g_tracer;
/// Count of Tracer objects ever constructed in this process. Doubles as a
/// validity cross-check for the install slot: a process that never built a
/// Tracer cannot have a legitimate installation, so `tracer()` refuses to
/// hand out whatever the slot holds (a stray write to the slot then reads
/// as "tracing off" instead of a dereference of garbage). Same cache line
/// as g_tracer, so the extra load is free.
extern std::atomic<std::uint64_t> g_tracer_epoch;
} // namespace detail

/// The installed tracer, or nullptr when tracing is off. With BALSORT_NO_OBS
/// this is constexpr nullptr and every `if (Tracer* t = tracer())` branch is
/// provably dead at compile time.
#ifdef BALSORT_NO_OBS
constexpr Tracer* tracer() { return nullptr; }
#else
inline Tracer* tracer() {
    Tracer* t = detail::g_tracer.load(std::memory_order_acquire);
    if (t != nullptr && detail::g_tracer_epoch.load(std::memory_order_relaxed) == 0) {
        return nullptr; // slot holds a value no code in this process wrote
    }
    return t;
}
#endif

/// Scoped install: publishes `t` as the process-wide tracer for the guard's
/// lifetime, restoring the previous installee on destruction. A null `t` is
/// a no-op guard (the existing installation, if any, stays visible) so
/// callers can construct one unconditionally from an optional option.
class TracerInstallGuard {
  public:
    explicit TracerInstallGuard(Tracer* t);
    ~TracerInstallGuard();
    TracerInstallGuard(const TracerInstallGuard&) = delete;
    TracerInstallGuard& operator=(const TracerInstallGuard&) = delete;

  private:
    Tracer* prev_ = nullptr;
    bool active_ = false;
};

} // namespace balsort
