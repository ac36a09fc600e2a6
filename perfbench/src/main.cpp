// perfbench: the repository benchmark. perfbench/run.py builds and drives it;
// perfbench/README.md lists the workloads and metrics.
//
//   perfbench --workload ring|mpeg2_observed|verify --seed N --seconds S
//             --trace 0|1 --tmp-dir DIR [--spans FILE] [--print-pins]
//
// The process runs one untimed cold pass and prints "cold-pass-done" (run.py
// times process start to that line as set-up), then measures passes for S
// seconds. The last stdout line is one JSON object: correct, attempted,
// failed and metrics (peak_rss_mb with --trace 0, the per-layer metrics with
// --trace 1), plus with --trace 0 "passes": [wall_s, proc_wall_s,
// thread_wall_s] of every measured pass, which run.py pools over processes.
// Exit status: 0 = measured (even when outputs were wrong, which the JSON
// reports), 1 = the benchmark itself failed, 2 = usage.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"ring", "mpeg2_observed", "verify"};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string tmp_dir;
    std::string spans;
    bool print_pins = false;
};

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload ring|mpeg2_observed|verify "
                 "--seed N --seconds S --trace 0|1 --tmp-dir DIR\n"
                 "                 [--spans FILE] [--print-pins]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* s) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *s == '+' || errno != 0 || *end != '\0')
        usage("bad value for " + flag + ": '" + s + "'");
    return v;
}

Options parse(int argc, char** argv) {
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") opt.workload = value();
        else if (arg == "--seed") {
            opt.seed = parse_u64(arg, value());
            have_seed = true;
        } else if (arg == "--seconds") {
            const char* s = value();
            char* end = nullptr;
            opt.seconds = std::strtod(s, &end);
            if (*s == '\0' || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                usage(std::string("bad value for --seconds: '") + s + "'");
        } else if (arg == "--trace") {
            const std::uint64_t t = parse_u64(arg, value());
            if (t > 1) usage("--trace takes 0 or 1");
            opt.trace = static_cast<int>(t);
        } else if (arg == "--tmp-dir") opt.tmp_dir = value();
        else if (arg == "--spans") opt.spans = value();
        else if (arg == "--print-pins") opt.print_pins = true;
        else usage("unknown argument " + arg);
    }
    bool known = false;
    for (const char* w : kWorkloads) known = known || opt.workload == w;
    if (!known) usage("unknown or missing --workload");
    if (!have_seed || opt.seconds <= 0 || opt.trace < 0 || opt.tmp_dir.empty())
        usage("--seed, --seconds, --trace and --tmp-dir are required");
    return opt;
}

std::unique_ptr<Workload> make(const std::string& name, const Options& opt) {
    if (name == "ring") return make_ring();
    if (name == "mpeg2_observed") return make_mpeg2(opt.tmp_dir);
    return make_verify(opt.seed);
}

/// One pass; a throw outside the workload's own operations fails the pass
/// as one more operation instead of ending the run.
std::optional<PassTime> run_pass(Workload& w, rtsc::fuzz::Rng& order,
                                 Gate& gate, Tracer& tracer) {
    try {
        return w.pass(order, gate, tracer);
    } catch (const std::exception& e) {
        Op op(gate, "pass");
        op.expect(false, e.what());
    }
    return std::nullopt;
}

/// Peak resident set of this process. VmHWM, not getrusage's ru_maxrss:
/// the latter survives execve, so it would report the launcher's peak.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024 / 1e6; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool elapsed(Clock::time_point since, double seconds) {
    return seconds_between(since, Clock::now()) >= seconds;
}

/// End-to-end measurement: every pass that fits in the budget.
std::vector<PassTime> measure(Workload& w, const Options& opt,
                              rtsc::fuzz::Rng& order, Gate& gate,
                              Tracer& tracer) {
    std::vector<PassTime> passes;
    const Clock::time_point start = Clock::now();
    do {
        if (const auto t = run_pass(w, order, gate, tracer)) passes.push_back(*t);
    } while (!elapsed(start, opt.seconds));
    return passes;
}

/// Per-layer metrics: untraced/traced pass pairs of the named workload for
/// the budget (their ratio is the tracing overhead), then one traced pass of
/// each other workload so every layer is covered.
void traced(Workload& w, const Options& opt, rtsc::fuzz::Rng& order,
            Gate& gate, Tracer& tracer, Metrics& out) {
    std::vector<double> ratio;
    const Clock::time_point start = Clock::now();
    do {
        const auto plain = run_pass(w, order, gate, tracer);
        tracer.enable(true);
        const auto seen = run_pass(w, order, gate, tracer);
        tracer.enable(false);
        if (plain && seen) ratio.push_back(seen->wall_s / plain->wall_s);
    } while (!elapsed(start, opt.seconds));
    out["trace.overhead_pct"] = {(median(ratio) - 1) * 100, "%"};
    w.layer_metrics(out);
    for (const char* name : kWorkloads) {
        if (name == opt.workload) continue;
        const auto other = make(name, opt);
        (void)run_pass(*other, order, gate, tracer); // warm-up
        tracer.enable(true);
        (void)run_pass(*other, order, gate, tracer);
        tracer.enable(false);
        other->layer_metrics(out);
    }
}

void print_result(const Gate& gate, const Metrics& metrics,
                  const std::vector<PassTime>& passes) {
    std::string json = "{\"correct\": ";
    json += gate.failed() == 0 && gate.attempted() > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.attempted());
    json += ", \"failed\": " + std::to_string(gate.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}";
    if (!passes.empty()) {
        json += ", \"passes\": [";
        for (std::size_t i = 0; i < passes.size(); ++i)
            json += (i == 0 ? "[" : ", [") + json_number(passes[i].wall_s) +
                    ", " + json_number(passes[i].proc_s) + ", " +
                    json_number(passes[i].thread_s) + "]";
        json += "]";
    }
    json += "}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        Gate gate;
        Tracer tracer;
        rtsc::fuzz::Rng order(opt.seed);
        const auto w = make(opt.workload, opt);
        (void)run_pass(*w, order, gate, tracer);
        std::printf("cold-pass-done\n");
        std::fflush(stdout);
        if (opt.print_pins) {
            w->print_pins();
            return 0;
        }
        Metrics metrics;
        std::vector<PassTime> passes;
        if (opt.trace == 0) {
            passes = measure(*w, opt, order, gate, tracer);
            metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
        } else {
            traced(*w, opt, order, gate, tracer, metrics);
            if (!opt.spans.empty()) tracer.write(opt.spans);
        }
        print_result(gate, metrics, passes);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
