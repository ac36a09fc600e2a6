// campaign_shard — run a scenario campaign on crash-tolerant worker
// processes (docs/CAMPAIGN.md, "Sharded campaigns").
//
// The built-in campaign is the repo's standard random-task-set sweep: each
// scenario generates a 3-task set from its deterministic per-scenario seed,
// simulates 50 ms and reports deadline misses and per-task max response
// times. Fault-injection flags turn individual scenarios hostile — a worker
// crash, a hang, an exception — to demonstrate (and CI-test) retry,
// timeout, graceful degradation and checkpoint/resume:
//
//   campaign_shard --scenarios 40 --workers 4 --timeout 300 --retries 2
//                  --inject-crash 5 --inject-hang 9
//                  --checkpoint sweep.ckpt --digest-out digest.txt
//   kill -9 <pid mid-run>
//   campaign_shard ... --resume          # completes, digest unchanged
//
// The final report digest depends only on the campaign definition (seed,
// scenarios, injections, timeout/retry config) — never on worker count,
// crashes, interruption or resume.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/shard/coordinator.hpp"
#include "fuzz/spec.hpp" // parse_decimal
#include "kernel/simulator.hpp"
#include "rtos/policy.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace {

namespace c = rtsc::campaign;
namespace shard = rtsc::campaign::shard;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using namespace rtsc::kernel::time_literals;

struct Cli {
    std::size_t scenarios = 24;
    unsigned workers = 1;
    std::uint64_t seed = 2026;
    long timeout_ms = 0;
    unsigned retries = 3;
    long backoff_ms = 50;
    long backoff_cap_ms = 2000;
    long slow_ms = 0;
    std::string checkpoint;
    bool resume = false;
    bool quiet = false;
    std::string digest_out;
    std::string status_file;
    long status_period_ms = 500;
    std::set<std::size_t> inject_crash;
    std::set<std::size_t> inject_hang;
    std::set<std::size_t> inject_throw;
};

[[noreturn]] void usage(int code) {
    std::cout <<
        "usage: campaign_shard [options]\n"
        "  --scenarios N      campaign size (default 24)\n"
        "  --workers N        worker processes (default 1)\n"
        "  --seed S           campaign master seed (default 2026)\n"
        "  --timeout MS       per-scenario wall-clock budget, 0 = none\n"
        "  --retries N        attempts per scenario before failed entry (default 3)\n"
        "  --backoff MS       retry backoff base (default 50)\n"
        "  --backoff-cap MS   retry backoff cap (default 2000)\n"
        "  --checkpoint PATH  append-only journal for kill-9 resume\n"
        "  --resume           skip scenarios already in the journal\n"
        "  --status-file PATH live status snapshot JSON, atomically replaced\n"
        "                     (watch it with campaign_top)\n"
        "  --status-period MS wall-clock refresh period (default 500)\n"
        "  --slow MS          host sleep per scenario (mid-run kill demos)\n"
        "  --inject-crash I   scenario I kills its worker (repeatable)\n"
        "  --inject-hang I    scenario I hangs until the timeout (repeatable)\n"
        "  --inject-throw I   scenario I throws (structured failure, repeatable)\n"
        "  --digest-out FILE  write the report digest as one hex line\n"
        "  --quiet            suppress progress and per-scenario lines\n";
    std::exit(code);
}

/// Set `field` from the value of numeric flag argv[i] (advancing i), parsed
/// as the field's own type: anything fuzz::parse_decimal rejects (signs,
/// garbage, values the type cannot hold) and negative values exit 2 naming
/// the flag, instead of wrapping or clamping.
template <typename T>
void num_arg(int argc, char** argv, int& i, T& field) {
    if (i + 1 >= argc) usage(2);
    const char* flag = argv[i];
    const char* s = argv[++i];
    const auto v = rtsc::fuzz::parse_decimal<T>(s);
    bool ok = v.has_value();
    if constexpr (std::is_signed_v<T>) ok = ok && *v >= 0;
    if (!ok) {
        std::fprintf(stderr, "campaign_shard: %s: '%s' is not a decimal "
                             "number in range\n", flag, s);
        usage(2);
    }
    field = *v;
}

void simulate_taskset(c::ScenarioContext& ctx, r::EngineKind kind) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     kind);
    const auto specs = w::random_task_set(3, 0.6, 1_ms, 10_ms, ctx.seed());
    w::PeriodicTaskSet ts(cpu, specs);
    sim.run_until(50_ms);
    ctx.metric("misses", static_cast<double>(ts.total_misses()));
    for (const auto& res : ts.results())
        ctx.metric(res.name + ".max_response_us",
                   res.max_response.to_sec() * 1e6);
}

[[nodiscard]] std::vector<c::ScenarioSpec> build_campaign(const Cli& cli) {
    std::vector<c::ScenarioSpec> scenarios;
    scenarios.reserve(cli.scenarios);
    for (std::size_t i = 0; i < cli.scenarios; ++i) {
        const r::EngineKind kind = i % 2 == 0 ? r::EngineKind::procedure_calls
                                              : r::EngineKind::rtos_thread;
        const bool crash = cli.inject_crash.count(i) != 0;
        const bool hang = cli.inject_hang.count(i) != 0;
        const bool thrw = cli.inject_throw.count(i) != 0;
        const long slow = cli.slow_ms;
        scenarios.push_back(
            {"taskset_" + std::to_string(i),
             [kind, crash, hang, thrw, slow](c::ScenarioContext& ctx) {
                 if (crash) {
                     // SIGKILL is uncatchable — the same deterministic
                     // worker death on every attempt, every build flavor.
                     std::raise(SIGKILL);
                 }
                 if (hang) {
                     for (;;)
                         std::this_thread::sleep_for(std::chrono::seconds(1));
                 }
                 if (thrw) throw std::runtime_error("injected scenario failure");
                 if (slow > 0)
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(slow));
                 simulate_taskset(ctx, kind);
             }});
    }
    return scenarios;
}

} // namespace

int main(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto number = [&](auto& field) { num_arg(argc, argv, i, field); };
        const auto add_index = [&](std::set<std::size_t>& set) {
            std::size_t v = 0;
            number(v);
            set.insert(v);
        };
        if (arg == "--scenarios") number(cli.scenarios);
        else if (arg == "--workers") number(cli.workers);
        else if (arg == "--seed") number(cli.seed);
        else if (arg == "--timeout") number(cli.timeout_ms);
        else if (arg == "--retries") number(cli.retries);
        else if (arg == "--backoff") number(cli.backoff_ms);
        else if (arg == "--backoff-cap") number(cli.backoff_cap_ms);
        else if (arg == "--slow") number(cli.slow_ms);
        else if (arg == "--checkpoint") { if (i + 1 >= argc) usage(2); cli.checkpoint = argv[++i]; }
        else if (arg == "--status-file") { if (i + 1 >= argc) usage(2); cli.status_file = argv[++i]; }
        else if (arg == "--status-period") number(cli.status_period_ms);
        else if (arg == "--resume") cli.resume = true;
        else if (arg == "--quiet") cli.quiet = true;
        else if (arg == "--digest-out") { if (i + 1 >= argc) usage(2); cli.digest_out = argv[++i]; }
        else if (arg == "--inject-crash") add_index(cli.inject_crash);
        else if (arg == "--inject-hang") add_index(cli.inject_hang);
        else if (arg == "--inject-throw") add_index(cli.inject_throw);
        else if (arg == "--help" || arg == "-h") usage(0);
        else { std::cerr << "unknown option: " << arg << "\n"; usage(2); }
    }
    if (!cli.inject_hang.empty() && cli.timeout_ms == 0) {
        std::cerr << "campaign_shard: --inject-hang requires --timeout\n";
        return 2;
    }

    shard::ShardOptions opt;
    opt.workers = cli.workers;
    opt.seed = cli.seed;
    opt.timeout = std::chrono::milliseconds(cli.timeout_ms);
    opt.max_attempts = cli.retries;
    opt.backoff_base = std::chrono::milliseconds(cli.backoff_ms);
    opt.backoff_cap = std::chrono::milliseconds(cli.backoff_cap_ms);
    opt.checkpoint_path = cli.checkpoint;
    opt.resume = cli.resume;
    opt.status_path = cli.status_file;
    opt.status_period = std::chrono::milliseconds(cli.status_period_ms);
    if (!cli.quiet)
        opt.on_progress = [](const c::Progress& p) {
            std::cout << "[" << p.completed << "/" << p.total << "] "
                      << p.last.name << (p.last.ok ? " ok" : " FAILED")
                      << (p.last.ok ? "" : " — " + p.last.error) << "\n";
        };

    try {
        const auto scenarios = build_campaign(cli);
        const shard::ShardOutcome outcome =
            shard::ShardCoordinator(opt).run(scenarios);

        const std::uint64_t digest = outcome.report.digest();
        char digest_hex[17];
        std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                      static_cast<unsigned long long>(digest));

        if (!cli.quiet) std::cout << outcome.report.to_string();
        std::cout << "digest=" << digest_hex
                  << " scenarios=" << outcome.report.results.size()
                  << " failures=" << outcome.report.failures()
                  << " resumed=" << outcome.resumed
                  << " retries=" << outcome.retries
                  << " crashes=" << outcome.crashes
                  << " timeouts=" << outcome.timeouts
                  << " wall_ms=" << outcome.report.wall_ms << "\n";

        if (!cli.digest_out.empty()) {
            std::ofstream out(cli.digest_out, std::ios::trunc);
            out << digest_hex << "\n";
            if (!out) {
                std::cerr << "campaign_shard: cannot write " << cli.digest_out
                          << "\n";
                return 1;
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "campaign_shard: " << e.what() << "\n";
        return 1;
    }
}
