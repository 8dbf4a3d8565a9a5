#include "obs/profiler.hpp"

#ifndef BALSORT_NO_OBS

#include <csignal>
#include <cstring>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/tracer.hpp"

namespace balsort {

namespace {

/// The one profiler the SIGPROF handler samples into. Armed by start(),
/// cleared by the final stop(). acquire/release pairs with the handler's
/// load so a handler that observes the pointer also observes the rings.
std::atomic<Profiler*> g_active_profiler{nullptr};

/// Thread-local ring claim, keyed by a never-reused profiler generation
/// id — NOT the Profiler's address, which the allocator (or the stack)
/// happily recycles across back-to-back profiler lifetimes; a recycled
/// address would revive a stale claim pointing into a freed ring.
struct TlClaim {
    std::uint64_t owner_id = 0; ///< 0 = no claim
    void* ring = nullptr;
};
thread_local TlClaim tl_prof_claim;

/// Generation source for TlClaim keys; 0 is reserved for "no claim".
std::atomic<std::uint64_t> g_profiler_generation{0};

/// A sample pulled out of the rings after quiesce, ready for aggregation.
struct CollectedSample {
    std::vector<void*> frames; ///< leaf first (backtrace order)
    std::int64_t ts_us = 0;
    std::uint32_t tid = 0;
};

/// Demangled symbol for one return address, via dladdr. Falls back to the
/// object's basename+offset, then to a hex literal — always non-empty and
/// deterministic for a fixed process image.
std::string symbolize_addr(void* addr) {
    Dl_info info{};
    if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
        int status = 0;
        char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
        if (status == 0 && dem != nullptr) {
            std::string out(dem);
            std::free(dem);
            return out;
        }
        return info.dli_sname;
    }
    std::ostringstream os;
    if (info.dli_fname != nullptr) {
        const char* base = std::strrchr(info.dli_fname, '/');
        os << (base != nullptr ? base + 1 : info.dli_fname) << "+0x" << std::hex
           << (reinterpret_cast<std::uintptr_t>(addr) -
               reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    } else {
        os << "0x" << std::hex << reinterpret_cast<std::uintptr_t>(addr);
    }
    return os.str();
}

} // namespace

/// One captured stack. Payload fields are written in the handler with
/// plain/relaxed stores, then `seq` is release-published — the flight
/// recorder's slot discipline (flight_recorder.hpp). Readers run after
/// stop() (quiesced), so a torn slot can only be seen by a dump the
/// caller was told not to take.
struct ProfileSample {
    static constexpr std::uint32_t kMaxFrames = 48;
    void* frames[kMaxFrames];
    std::atomic<std::uint32_t> n_frames{0};
    std::atomic<std::int64_t> ts_us{0};
    /// 0 = never written; otherwise 1-based global sample ordinal.
    std::atomic<std::uint64_t> seq{0};
};

struct Profiler::Ring {
    std::vector<ProfileSample> slots;
    std::atomic<std::uint64_t> head{0}; ///< next slot ordinal (pre-wrap)
    std::atomic<bool> claimed{false};
    std::uint32_t tid = 0; ///< 1-based claim order, stable per thread
};

struct Profiler::Impl {
    ProfilerConfig cfg;
    /// This profiler's TlClaim key, unique across all profilers ever
    /// constructed in the process.
    const std::uint64_t id =
        g_profiler_generation.fetch_add(1, std::memory_order_relaxed) + 1;
    std::chrono::steady_clock::time_point base = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<Ring>> rings; ///< preallocated, never grows
    std::atomic<std::uint32_t> next_ring{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> dropped{0};
    // start()/stop() bookkeeping — driver-thread side only, mutex-guarded.
    std::mutex mu;
    int nesting = 0;
    struct sigaction prev_sa {};
    struct itimerval prev_timer {};
    // Symbol interning for folded()/emit_to_tracer: deque gives the stable
    // addresses the Tracer's static-lifetime string contract needs.
    mutable std::mutex sym_mu;
    mutable std::map<void*, const char*> sym_cache;
    mutable std::deque<std::string> sym_store;

    /// Walks every claimed ring and collects surviving samples (seq != 0).
    /// Caller must have quiesced sampling (post-stop contract).
    std::vector<CollectedSample> collect() const {
        std::vector<CollectedSample> out;
        const std::uint32_t claimed =
            std::min<std::uint32_t>(next_ring.load(std::memory_order_acquire),
                                    static_cast<std::uint32_t>(rings.size()));
        for (std::uint32_t r = 0; r < claimed; ++r) {
            const Ring& ring = *rings[r];
            for (const ProfileSample& s : ring.slots) {
                if (s.seq.load(std::memory_order_acquire) == 0) continue;
                const std::uint32_t n = std::min(s.n_frames.load(std::memory_order_relaxed),
                                                 ProfileSample::kMaxFrames);
                if (n == 0) continue;
                CollectedSample c;
                c.frames.assign(s.frames, s.frames + n);
                c.ts_us = s.ts_us.load(std::memory_order_relaxed);
                c.tid = ring.tid;
                out.push_back(std::move(c));
            }
        }
        return out;
    }

    /// Interns one address's symbol; the returned pointer is stable for
    /// the profiler's lifetime (deque storage). Caller holds sym_mu.
    const char* intern(void* addr) const {
        auto it = sym_cache.find(addr);
        if (it != sym_cache.end()) return it->second;
        sym_store.push_back(symbolize_addr(addr));
        const char* stable = sym_store.back().c_str();
        sym_cache.emplace(addr, stable);
        return stable;
    }
};

Profiler::Profiler(ProfilerConfig cfg) : impl_(new Impl) {
    if (cfg.hz == 0) throw std::invalid_argument("Profiler: hz must be positive");
    if (cfg.ring_slots == 0 || (cfg.ring_slots & (cfg.ring_slots - 1)) != 0) {
        throw std::invalid_argument("Profiler: ring_slots must be a power of two");
    }
    if (cfg.max_threads == 0) throw std::invalid_argument("Profiler: max_threads must be positive");
    impl_->cfg = cfg;
    impl_->rings.reserve(cfg.max_threads);
    for (std::uint32_t i = 0; i < cfg.max_threads; ++i) {
        auto ring = std::make_unique<Ring>();
        ring->slots = std::vector<ProfileSample>(cfg.ring_slots);
        ring->tid = i + 1;
        impl_->rings.push_back(std::move(ring));
    }
}

Profiler::~Profiler() {
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        // A still-armed profiler must disarm before its rings die; this is
        // a caller bug, but leaving the handler pointed at freed memory
        // converts it into a crash. Disarm defensively.
        if (impl_->nesting > 0) {
            g_active_profiler.store(nullptr, std::memory_order_release);
            setitimer(ITIMER_PROF, &impl_->prev_timer, nullptr);
            sigaction(SIGPROF, &impl_->prev_sa, nullptr);
        }
    }
    delete impl_;
}

const ProfilerConfig& Profiler::config() const { return impl_->cfg; }

bool Profiler::running() const {
    return g_active_profiler.load(std::memory_order_acquire) == this;
}

std::uint64_t Profiler::sample_count() const {
    return impl_->samples.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::dropped_samples() const {
    return impl_->dropped.load(std::memory_order_relaxed);
}

namespace {

/// The program counter the signal interrupted, or null where the machine
/// context layout is not known.
void* interrupted_pc(void* ucontext) {
    const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
    return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return nullptr;
#endif
}

} // namespace

void Profiler::signal_handler(int, siginfo_t*, void* ucontext) {
    // Async-signal-safe: one acquire load, then ring stores. Save errno —
    // the interrupted code may be between a syscall and its errno check.
    const int saved_errno = errno;
    Profiler* p = g_active_profiler.load(std::memory_order_acquire);
    if (p != nullptr) p->sample_current_thread(interrupted_pc(ucontext));
    errno = saved_errno;
}

void Profiler::sample_current_thread(void* pc) {
    Impl* im = impl_;
    Ring* ring = nullptr;
    if (tl_prof_claim.owner_id == im->id) {
        ring = static_cast<Ring*>(tl_prof_claim.ring);
    } else {
        // First sample on this thread: claim a preallocated ring with one
        // fetch_add. No allocation, no locks — pool exhausted means the
        // sample (and this thread) is dropped, never blocked on.
        const std::uint32_t idx = im->next_ring.fetch_add(1, std::memory_order_relaxed);
        if (idx >= im->rings.size()) {
            im->dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        ring = im->rings[idx].get();
        ring->claimed.store(true, std::memory_order_release);
        tl_prof_claim.owner_id = im->id;
        tl_prof_claim.ring = ring;
    }

    // The unwinder reports the interrupted frame at exactly `pc`; the
    // frames above it (this function, the handler, libc's sigreturn
    // trampoline) are the sampler itself and are cut here, so the leaf is
    // the code that was running. A sanitizer runtime may run the handler
    // later from its own stack, where `pc` is absent: the cut then falls
    // just below the frame this function returns to.
    void* raw[ProfileSample::kMaxFrames];
    const int captured = ::backtrace(raw, static_cast<int>(ProfileSample::kMaxFrames));
    void* const caller = __builtin_return_address(0);
    int skip = 0;
    for (int i = 0; i < captured; ++i) {
        if (raw[i] == pc) {
            skip = i;
            break;
        }
        if (raw[i] == caller) skip = i + 1;
    }
    void* const* frames = raw + skip;
    const int n = captured - skip;
    if (n <= 0) {
        im->dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    const std::uint64_t pos = ring->head.fetch_add(1, std::memory_order_relaxed);
    ProfileSample& s = ring->slots[pos & (im->cfg.ring_slots - 1)];
    const std::uint64_t ordinal = im->samples.fetch_add(1, std::memory_order_relaxed) + 1;
    std::memcpy(s.frames, frames, static_cast<std::size_t>(n) * sizeof(void*));
    s.n_frames.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
    s.ts_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - im->base)
                      .count(),
                  std::memory_order_relaxed);
    s.seq.store(ordinal, std::memory_order_release);
}

void Profiler::record_sample_for_test(void* const* frames, std::uint32_t n_frames) {
    // Exactly the handler's store path, minus backtrace(): tests drive the
    // wrap-around and ordering logic with fabricated frames.
    Impl* im = impl_;
    Ring* ring = nullptr;
    if (tl_prof_claim.owner_id == im->id) {
        ring = static_cast<Ring*>(tl_prof_claim.ring);
    } else {
        const std::uint32_t idx = im->next_ring.fetch_add(1, std::memory_order_relaxed);
        if (idx >= im->rings.size()) {
            im->dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        ring = im->rings[idx].get();
        ring->claimed.store(true, std::memory_order_release);
        tl_prof_claim.owner_id = im->id;
        tl_prof_claim.ring = ring;
    }
    const std::uint32_t n = std::min(n_frames, ProfileSample::kMaxFrames);
    const std::uint64_t pos = ring->head.fetch_add(1, std::memory_order_relaxed);
    ProfileSample& s = ring->slots[pos & (im->cfg.ring_slots - 1)];
    const std::uint64_t ordinal = im->samples.fetch_add(1, std::memory_order_relaxed) + 1;
    std::memcpy(s.frames, frames, n * sizeof(void*));
    s.n_frames.store(n, std::memory_order_relaxed);
    s.ts_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - im->base)
                      .count(),
                  std::memory_order_relaxed);
    s.seq.store(ordinal, std::memory_order_release);
}

void Profiler::start() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->nesting > 0) {
        ++impl_->nesting; // nested start on the same profiler: refcount
        return;
    }
    Profiler* expected = nullptr;
    if (!g_active_profiler.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
        throw std::runtime_error("Profiler: another profiler is already armed "
                                 "(one process-wide SIGPROF sampler)");
    }

    // Preload backtrace()'s unwinder: its *first* call may dlopen
    // libgcc_s, which allocates — not something a signal handler may do.
    void* warm[4];
    (void)::backtrace(warm, 4);

    struct sigaction sa {};
    sa.sa_sigaction = &Profiler::signal_handler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART: an interrupted read()/write() resumes instead of
    // surfacing EINTR into the disk layer's hot path (FileDisk also loops,
    // but sampling should not change which path executes). SA_SIGINFO
    // hands the handler the interrupted context, whose PC marks where the
    // sampler's own frames end.
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    if (sigaction(SIGPROF, &sa, &impl_->prev_sa) != 0) {
        g_active_profiler.store(nullptr, std::memory_order_release);
        throw std::runtime_error("Profiler: sigaction(SIGPROF) failed");
    }

    const long interval_us = std::max<long>(1, 1000000L / impl_->cfg.hz);
    struct itimerval timer {};
    timer.it_interval.tv_sec = interval_us / 1000000L;
    timer.it_interval.tv_usec = interval_us % 1000000L;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, &impl_->prev_timer) != 0) {
        sigaction(SIGPROF, &impl_->prev_sa, nullptr);
        g_active_profiler.store(nullptr, std::memory_order_release);
        throw std::runtime_error("Profiler: setitimer(ITIMER_PROF) failed");
    }
    impl_->nesting = 1;
}

void Profiler::stop() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->nesting == 0) return; // unmatched stop: tolerate
    if (--impl_->nesting > 0) return;
    // Disarm the timer first so no new signals fire, then unhook the
    // handler, then clear the slot. A handler already in flight still
    // sees valid rings (they outlive this call).
    setitimer(ITIMER_PROF, &impl_->prev_timer, nullptr);
    sigaction(SIGPROF, &impl_->prev_sa, nullptr);
    g_active_profiler.store(nullptr, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Output (post-stop; allocation and locks are fine here).

void Profiler::folded(std::ostream& os) const {
    const auto samples = impl_->collect();
    // Aggregate identical stacks on raw addresses first (cheap), then
    // symbolize each unique stack once, re-merging stacks whose symbolized
    // forms collide (adjacent addresses inside one function).
    std::map<std::vector<void*>, std::uint64_t> by_addr;
    for (const auto& s : samples) ++by_addr[s.frames];

    std::lock_guard<std::mutex> lock(impl_->sym_mu);
    std::map<std::string, std::uint64_t> by_stack;
    for (const auto& [frames, count] : by_addr) {
        std::string line;
        // Folded format is root-first; backtrace() returns leaf-first.
        for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
            const char* sym = impl_->intern(*it);
            if (!line.empty()) line += ';';
            // Semicolons and spaces are the format's structure; squash any
            // that appear inside a symbol (operator overloads, lambdas).
            for (const char* c = sym; *c != '\0'; ++c) {
                line += (*c == ';' || *c == ' ' || *c == '\n') ? '_' : *c;
            }
        }
        by_stack[line] += count;
    }

    // Deterministic order: descending count, then lexicographic.
    std::vector<std::pair<std::string, std::uint64_t>> rows(by_stack.begin(), by_stack.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    for (const auto& [stack, count] : rows) os << stack << ' ' << count << '\n';
}

std::string Profiler::folded_string() const {
    std::ostringstream os;
    folded(os);
    return os.str();
}

bool Profiler::folded_file(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    folded(os);
    os.flush();
    return static_cast<bool>(os);
}

std::uint64_t Profiler::emit_to_tracer(Tracer* t) const {
    if (t == nullptr) return 0;
    auto samples = impl_->collect();
    std::sort(samples.begin(), samples.end(),
              [](const CollectedSample& a, const CollectedSample& b) { return a.ts_us < b.ts_us; });
    std::lock_guard<std::mutex> lock(impl_->sym_mu);
    // Profiler timestamps are microseconds since the profiler's own base;
    // the tracer counts from its own construction. Both bases are the same
    // steady clock, so one simultaneous reading of both ("now" in each
    // epoch) yields the constant offset that rebases every sample onto the
    // tracer's timeline, lining the lane up with the phase spans.
    const std::int64_t prof_now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              impl_->base)
            .count();
    const std::int64_t rebase_us = t->now_us() - prof_now_us;
    std::uint64_t emitted = 0;
    for (const auto& s : samples) {
        const std::uint32_t lane = t->lane("profile " + std::to_string(s.tid));
        TraceEvent ev;
        ev.name = impl_->intern(s.frames.front()); // leaf symbol
        ev.cat = "profile";
        ev.phase = 'i';
        ev.tid = lane;
        ev.ts_us = s.ts_us + rebase_us;
        ev.args[0] = {"frames", static_cast<std::int64_t>(s.frames.size())};
        ev.n_args = 1;
        t->emit(ev);
        ++emitted;
    }
    return emitted;
}

} // namespace balsort

#endif // BALSORT_NO_OBS
