// perfbench — the file-to-file sort benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//   perfbench --smoke [--scratch DIR]
//
// Prints one "name value unit" line per metric, then, as the last line of
// standard output, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --smoke runs every workload at tiny N in both modes, with one output
// corrupted on purpose per workload, and fails unless every clean sort
// verified and every corrupted one was caught. README.md has the details.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                 [--scratch DIR] [--trace-out FILE]\n"
                 "       perfbench --smoke [--scratch DIR]\n"
                 "workloads:";
    for (const Shape& s : all_shapes(false)) std::cerr << ' ' << s.name;
    std::cerr << '\n';
    std::exit(2);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    json_escape(metrics[i].name).c_str(), v,
                    json_escape(metrics[i].unit).c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/// A per-process directory under `base`, removed with everything in it on
/// every exit path out of main().
class ScratchDir {
public:
    explicit ScratchDir(const std::string& base)
        : path_(base + "/run-" + std::to_string(::getpid())) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

int smoke(RunConfig rc) {
    bool ok = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<Metric> all;
    for (const Shape& s : all_shapes(true)) {
        for (const bool traced : {false, true}) {
            rc.trace = traced;
            rc.corrupt = !traced;
            rc.seconds = 0.2;
            const RunResult r = run_workload(s, rc);
            attempted += r.attempted;
            failed += r.failed;
            std::printf("# %s trace=%d: %llu attempted, %llu failed%s\n", s.name.c_str(),
                        traced ? 1 : 0, static_cast<unsigned long long>(r.attempted),
                        static_cast<unsigned long long>(r.failed),
                        rc.corrupt ? (r.corruption_caught ? ", corrupted output caught"
                                                          : ", CORRUPTED OUTPUT NOT CAUGHT")
                                   : "");
            ok = ok && r.failed == 0 && (!rc.corrupt || r.corruption_caught);
            for (const Metric& m : r.metrics.medians()) {
                all.push_back({s.name + "/" + m.name, m.value, m.unit});
            }
        }
    }
    print_result(ok, attempted, failed, all);
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    RunConfig rc;
    std::string workload, scratch_base = ".";
    bool have_seed = false, have_seconds = false, have_trace = false, smoke_mode = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) usage();
                return argv[++i];
            };
            if (a == "--workload") {
                workload = next();
            } else if (a == "--seed") {
                rc.seed = std::stoull(next());
                have_seed = true;
            } else if (a == "--seconds") {
                rc.seconds = std::stod(next());
                have_seconds = rc.seconds > 0;
            } else if (a == "--trace") {
                const std::string t = next();
                if (t != "0" && t != "1") usage();
                rc.trace = t == "1";
                have_trace = true;
            } else if (a == "--scratch") {
                scratch_base = next();
            } else if (a == "--trace-out") {
                rc.trace_out = next();
            } else if (a == "--smoke") {
                smoke_mode = true;
            } else {
                usage();
            }
        }
    } catch (const std::exception&) {
        usage();
    }

    const Shape* shape = nullptr;
    const std::vector<Shape> shapes = all_shapes(false);
    if (!smoke_mode) {
        if (!have_seed || !have_seconds || !have_trace) usage();
        for (const Shape& s : shapes) {
            if (s.name == workload) shape = &s;
        }
        if (shape == nullptr) {
            std::cerr << "perfbench: unknown workload '" << workload << "'\n";
            usage();
        }
    }
    try {
        ScratchDir scratch(scratch_base);
        rc.scratch = scratch.path();
        if (smoke_mode) return smoke(rc);
        const RunResult r = run_workload(*shape, rc);
        print_result(r.failed == 0, r.attempted, r.failed, r.metrics.medians());
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
