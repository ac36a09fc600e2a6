// Differential engine-equivalence fuzzer.
//
// Generates seeded random RTOS models (src/fuzz/generate.hpp), runs each on
// the four legs of fuzz::kLegs — threaded (§4.1) and procedural (§4.2)
// engine, skip-ahead on and off — and compares the full observable behavior
// bit-for-bit: every trace record (task states, overhead charges,
// communication accesses, fault markers), the obs metrics snapshot, the
// attribution rows and the simulated end time. Any difference is a bug in
// one of the engines (their equivalence is the paper's core claim).
//
//   fuzz_engines --seeds 500              # seeds 0..499, one worker
//   fuzz_engines --seeds 500 --jobs 8     # campaign fan-out, 8 workers
//   fuzz_engines --seed 1234567           # one seed, verbose
//   fuzz_engines --replay file.model      # re-run a corpus spec
//   fuzz_engines --print 42               # dump the generated spec text
//   fuzz_engines --seeds 200 --bench BENCH_fuzz.json
//
// A sweep checks its whole seed block; then the first divergent seed is
// reported with its first divergent record, delta-debugged down to a minimal
// reproducer (--no-shrink to skip), written to the cwd as
// fuzz_divergence_<seed>.model and, with --emit-test <path>, rendered as a
// self-contained GoogleTest regression file.
// Exit status: 0 = all seeds equivalent, 1 = divergence found,
//              2 = usage / unreadable spec file.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"

namespace fuzz = rtsc::fuzz;
namespace campaign = rtsc::campaign;

namespace {

struct Options {
    std::uint64_t seeds = 100;
    std::uint64_t start = 0;
    bool single_seed = false;
    std::uint64_t seed = 0;
    unsigned jobs = 0;      ///< sweep workers; 0 and 1 both mean one
    bool do_shrink = true;
    std::string emit_test;  ///< path for the generated regression test
    std::string replay;     ///< corpus spec to re-run
    bool print_spec = false;
    std::string bench;      ///< BENCH_fuzz.json path
    bool quiet = false;
    bool dump = false;
};

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--start S] [--seed X] [--jobs J]\n"
                 "          [--no-shrink] [--emit-test FILE] [--replay FILE]\n"
                 "          [--print SEED] [--bench FILE] [--quiet] [--dump]\n",
                 argv0);
}

/// A numeric flag value of type T; anything parse_decimal rejects exits 2,
/// so a mistyped seed or worker count fails loudly instead of running a
/// different sweep.
template <typename T>
T parse_flag(const char* flag, const char* s) {
    if (const auto v = fuzz::parse_decimal<T>(s)) return *v;
    std::fprintf(stderr,
                 "fuzz_engines: %s: '%s' is not a decimal number in range\n",
                 flag, s);
    std::exit(2);
}

/// Write one artifact and say where it went; a failed write is reported on
/// stderr instead.
void save_artifact(const char* what, const std::string& path,
                   const std::string& text) {
    std::ofstream out(path);
    if (out << text << std::flush)
        std::printf("%s written to %s\n", what, path.c_str());
    else
        std::fprintf(stderr, "fuzz_engines: cannot write %s to %s\n", what,
                     path.c_str());
}

/// Handle one confirmed divergence: report, shrink, persist artifacts.
int report_divergence(const fuzz::ModelSpec& spec, const fuzz::Divergence& d,
                      const Options& opt) {
    std::printf("seed %llu: DIVERGENCE\n%s\n",
                static_cast<unsigned long long>(spec.seed),
                d.to_string().c_str());
    fuzz::ModelSpec minimal = spec;
    if (opt.do_shrink) {
        fuzz::ShrinkStats stats;
        minimal = fuzz::shrink(spec, fuzz::engines_diverge, &stats);
        const fuzz::Divergence after = fuzz::diff_engines(minimal);
        std::printf("shrunk: %zu/%zu reductions accepted\n%s\n",
                    stats.accepted, stats.attempts, after.to_string().c_str());
    }
    save_artifact("reproducer",
                  "fuzz_divergence_" + std::to_string(spec.seed) + ".model",
                  fuzz::to_text(minimal));
    if (!opt.emit_test.empty())
        save_artifact("regression test", opt.emit_test,
                      fuzz::emit_cpp_test(minimal,
                                          "Seed" + std::to_string(spec.seed)));
    return 1;
}

int run_one(const fuzz::ModelSpec& spec, const Options& opt) {
    const fuzz::LegRuns runs = fuzz::run_legs(spec);
    const fuzz::LegRecord& proc = runs.legs[0];
    const fuzz::LegRecord& thrd = runs.legs[1];
    const fuzz::Divergence& d = runs.verdict;
    if (opt.dump)
        std::fputs(
            fuzz::dump_streams(fuzz::render(proc), fuzz::render(thrd)).c_str(),
            stdout);
    if (!opt.quiet)
        std::printf("seed %llu: %s (%zu state records, end %llu ps, "
                    "activations %llu/%llu)\n",
                    static_cast<unsigned long long>(spec.seed),
                    d.diverged ? "DIVERGED" : "ok", proc.states.size(),
                    static_cast<unsigned long long>(proc.end_ps),
                    static_cast<unsigned long long>(proc.kernel_activations),
                    static_cast<unsigned long long>(thrd.kernel_activations));
    if (!d.diverged) return 0;
    return report_divergence(spec, d, opt);
}

/// Check seeds start..start+seeds-1 as the scenarios of a campaign with
/// `workers` threads (0 = one per core). Each seed's verdict lands in
/// `found` by slot. Unless --quiet, a progress line every 50 seeds.
campaign::CampaignReport sweep_campaign(const Options& opt, unsigned workers,
                                        std::vector<fuzz::Divergence>& found) {
    found.assign(opt.seeds, {});
    std::vector<campaign::ScenarioSpec> scenarios;
    scenarios.reserve(opt.seeds);
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        const std::uint64_t seed = opt.start + i;
        scenarios.push_back(
            {"fuzz_seed_" + std::to_string(seed),
             [seed, &d = found[i]](campaign::ScenarioContext& ctx) {
                 const fuzz::LegRuns runs = fuzz::run_legs(fuzz::generate(seed));
                 const fuzz::LegRecord& proc = runs.legs[0];
                 d = runs.verdict;
                 ctx.metric("diverged", d.diverged ? 1.0 : 0.0);
                 ctx.metric("state_records",
                            static_cast<double>(proc.states.size()));
                 ctx.metric("end_us",
                            static_cast<double>(proc.end_ps) / 1e6);
                 if (d.diverged) ctx.note("divergence", d.to_string());
             }});
    }
    campaign::CampaignRunner::Options ro;
    ro.workers = workers;
    ro.seed = opt.start; // informational; model seeds are explicit
    if (!opt.quiet)
        ro.on_progress = [](const campaign::Progress& p) {
            if (p.completed % 50 == 0)
                std::printf("[%zu/%zu] seeds checked\n", p.completed, p.total);
        };
    return campaign::CampaignRunner(ro).run(scenarios);
}

/// The sweep: one campaign over the whole seed block, then the first
/// divergent seed is shrunk and reported, the rest only listed.
int sweep(const Options& opt) {
    std::vector<fuzz::Divergence> found;
    const campaign::CampaignReport report =
        sweep_campaign(opt, std::max(opt.jobs, 1u), found);
    int rc = 0;
    std::uint64_t divergent = 0;
    for (const auto& res : report.results) {
        if (!res.ok) {
            std::printf("%s: scenario failed: %s\n", res.name.c_str(),
                        res.error.c_str());
            rc = 1;
            continue;
        }
        if (!found[res.index].diverged) continue;
        ++divergent;
        const std::uint64_t seed = opt.start + res.index;
        if (rc == 0)
            rc = report_divergence(fuzz::generate(seed), found[res.index], opt);
        else
            std::printf("seed %llu: DIVERGED (not shrunk)\n",
                        static_cast<unsigned long long>(seed));
    }
    std::printf("%zu seeds via %u workers: %llu divergent, %zu failed\n",
                report.results.size(), report.workers,
                static_cast<unsigned long long>(divergent),
                report.failures());
    return rc;
}

/// --bench: serial vs parallel campaign over the seed range; writes one
/// BENCH_fuzz.json entry (throughput + determinism certificate).
/// Time one engine over the bench seed block; returns models per second.
/// This is the §4 comparison the paper motivates the procedural engine with:
/// fewer kernel activations -> faster simulation of the same behavior.
double engine_throughput(const Options& opt, rtsc::rtos::EngineKind kind) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < opt.seeds; ++i)
        (void)fuzz::run_model(fuzz::generate(opt.start + i), kind);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return sec > 0 ? static_cast<double>(opt.seeds) / sec : 0.0;
}

campaign::MetricSummary throughput_summary(const std::string& name,
                                           double models_per_sec,
                                           std::size_t n) {
    campaign::MetricSummary m;
    m.name = name;
    m.count = n;
    m.min = m.max = m.mean = m.p50 = m.p90 = m.p99 = models_per_sec;
    return m;
}

int bench(const Options& opt) {
    std::vector<fuzz::Divergence> found;
    const campaign::CampaignReport serial = sweep_campaign(opt, 1, found);
    const campaign::CampaignReport parallel =
        sweep_campaign(opt, opt.jobs, found);
    campaign::BenchEntry entry;
    entry.name = "fuzz_engines";
    entry.scenarios = serial.results.size();
    entry.hardware_cores = std::thread::hardware_concurrency();
    entry.workers = parallel.workers;
    entry.serial_ms = serial.wall_ms;
    entry.parallel_ms = parallel.wall_ms;
    entry.speedup =
        parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0;
    entry.digest = serial.digest();
    entry.digests_match = serial.digest() == parallel.digest();
    entry.metrics = serial.aggregate_metrics();
    const double proc_tput =
        engine_throughput(opt, rtsc::rtos::EngineKind::procedure_calls);
    const double thrd_tput =
        engine_throughput(opt, rtsc::rtos::EngineKind::rtos_thread);
    entry.metrics.push_back(throughput_summary(
        "procedural_models_per_sec", proc_tput, opt.seeds));
    entry.metrics.push_back(throughput_summary(
        "threaded_models_per_sec", thrd_tput, opt.seeds));
    campaign::write_bench_entry(opt.bench, entry);
    std::printf("throughput: procedural %.1f models/s, threaded %.1f models/s "
                "(x%.2f)\n",
                proc_tput, thrd_tput,
                thrd_tput > 0 ? proc_tput / thrd_tput : 0.0);
    std::printf("bench: %zu models, serial %.1f ms, parallel %.1f ms "
                "(x%.2f, %u workers), digests %s -> %s\n",
                entry.scenarios, entry.serial_ms, entry.parallel_ms,
                entry.speedup, entry.workers,
                entry.digests_match ? "match" : "MISMATCH",
                opt.bench.c_str());
    // A scenario that crashed or threw never reported a `diverged` metric at
    // all — a bench over failed runs is not a clean bench.
    if (serial.failures() != 0 || parallel.failures() != 0) {
        std::printf("bench campaign contained %zu failed scenarios\n",
                    serial.failures() + parallel.failures());
        return 1;
    }
    for (const auto& m : entry.metrics)
        if (m.name == "diverged" && m.max != 0.0) {
            std::printf("bench campaign contained divergent seeds\n");
            return 1;
        }
    return entry.digests_match ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        // Parse the flag's value as the type of the field it sets.
        auto number = [&](auto& field) {
            const char* flag = argv[i];
            field = parse_flag<std::remove_reference_t<decltype(field)>>(
                flag, need_value(flag));
        };
        if (arg == "--seeds") number(opt.seeds);
        else if (arg == "--start") number(opt.start);
        else if (arg == "--seed") {
            opt.single_seed = true;
            number(opt.seed);
        } else if (arg == "--jobs") number(opt.jobs);
        else if (arg == "--no-shrink") opt.do_shrink = false;
        else if (arg == "--emit-test") opt.emit_test = need_value("--emit-test");
        else if (arg == "--replay") opt.replay = need_value("--replay");
        else if (arg == "--print") {
            opt.print_spec = true;
            number(opt.seed);
        } else if (arg == "--bench") opt.bench = need_value("--bench");
        else if (arg == "--quiet") opt.quiet = true;
        else if (arg == "--dump") opt.dump = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (opt.print_spec) {
        std::fputs(fuzz::to_text(fuzz::generate(opt.seed)).c_str(), stdout);
        return 0;
    }
    if (!opt.replay.empty()) {
        fuzz::ModelSpec spec;
        try {
            spec = fuzz::read_spec_file(opt.replay);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "fuzz_engines: %s\n", e.what());
            return 2;
        }
        return run_one(spec, opt);
    }
    if (opt.single_seed) return run_one(fuzz::generate(opt.seed), opt);
    if (!opt.bench.empty()) return bench(opt);
    return sweep(opt);
}
