// Bounded exhaustive schedule-space explorer (ROADMAP item 6).
//
// Where fuzz_engines samples one pinned schedule per seed, this tool
// enumerates EVERY reachable resolution of a model's scheduling decision
// points — same-instant ready-queue tie-breaks (via the ScheduleOracle
// record/replay hook), sporadic arrival offsets and fault-plan crash
// placements — and checks each schedule with the full differential arsenal:
// 4-way engine equivalence (both engines x skip-ahead on/off), conservation
// invariants, decision-stream agreement and schedule-dependent failures.
//
//   explore_schedules --corpus tests/fuzz/corpus            # verify corpus
//   explore_schedules --model foo.model                     # one spec file
//   explore_schedules --seed 42                             # one generated model
//   explore_schedules --seeds 20 --start 100 --jobs 8       # generated sweep
//   explore_schedules --model m.model --offsets 4 --window 1000000
//   explore_schedules --corpus DIR --bench BENCH_explore.json
//   explore_schedules --model m.model --frontier f.txt --max-schedules 100
//
// Every model of the sweep is explored (--jobs N spreads them over N
// workers, one by default); then the first violating model is
// delta-debugged down to a minimal spec whose exploration still finds a
// violating schedule (--no-shrink to skip), the reproducer is written as
// explore_violation_<name>.model and, with --emit-test FILE, a GoogleTest
// regression is rendered.
//
// Exit status: 0 = every model exhaustively verified clean,
//              1 = violation found,
//              2 = usage / IO error,
//              3 = clean but incomplete (a bound clipped enumeration).

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "explore/explorer.hpp"
#include "explore/model_check.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"

namespace fuzz = rtsc::fuzz;
namespace explore = rtsc::explore;
namespace campaign = rtsc::campaign;

namespace {

struct Options {
    std::vector<std::string> models; ///< spec files (--model, repeatable)
    std::string corpus;              ///< directory of .model files
    std::vector<std::uint64_t> gen_seeds; ///< generated models (--seed/--seeds)
    explore::ModelCheckConfig cfg;
    unsigned jobs = 0; ///< sweep workers; 0 and 1 both mean one
    bool do_shrink = true;
    std::string emit_test;
    std::string bench;
    std::string frontier; ///< resume file (single model, base variant)
    std::string trace;    ///< replay one decision trace instead of exploring
    bool dump = false;    ///< with --trace: dump procedural-vs-threaded streams
    bool quiet = false;
};

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--model FILE]... [--corpus DIR] [--seed X]\n"
        "          [--seeds N] [--start S] [--jobs J]\n"
        "          [--max-schedules N] [--max-decisions N] [--max-group N]\n"
        "          [--max-variants N] [--keep-going]\n"
        "          [--offsets K --window PS]\n"
        "          [--crash-offsets K --crash-window PS]\n"
        "          [--frontier FILE] [--bench FILE] [--trace T] [--dump]\n"
        "          [--no-shrink] [--emit-test FILE] [--quiet]\n",
        argv0);
}

/// A numeric flag value of type T; anything parse_decimal rejects (signs,
/// garbage, values T cannot hold) exits 2 instead of wrapping or clamping.
template <typename T>
T parse_flag(const char* flag, const char* s) {
    if (const auto v = fuzz::parse_decimal<T>(s)) return *v;
    std::fprintf(stderr, "explore_schedules: %s: '%s' is not a decimal "
                         "number in range\n", flag, s);
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
        std::fprintf(stderr, "explore_schedules: cannot write %s to %s\n",
                     what, path.c_str());
}

struct ModelItem {
    std::string name;
    fuzz::ModelSpec spec;
};

bool load_models(const Options& opt, std::vector<ModelItem>* out) {
    try {
        std::vector<std::filesystem::path> paths(opt.models.begin(),
                                                 opt.models.end());
        if (!opt.corpus.empty()) {
            const auto files = fuzz::spec_files(opt.corpus);
            if (files.empty())
                throw std::runtime_error("no .model files in " + opt.corpus);
            paths.insert(paths.end(), files.begin(), files.end());
        }
        for (const auto& path : paths)
            out->push_back(
                {path.filename().string(), fuzz::read_spec_file(path)});
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
    }
    for (const std::uint64_t seed : opt.gen_seeds)
        out->push_back(
            {"gen_seed" + std::to_string(seed), fuzz::generate(seed)});
    return true;
}

std::string emit_explore_test(const fuzz::ModelSpec& spec,
                              const std::string& test_name) {
    std::string out;
    out += "// Auto-generated by tools/explore_schedules --emit-test: shrunk\n";
    out += "// model whose schedule-space exploration found an invariant\n";
    out += "// violation. Keep as a permanent regression: after the fix, no\n";
    out += "// reachable schedule may violate.\n";
    out += "#include <gtest/gtest.h>\n\n";
    out += "#include \"explore/model_check.hpp\"\n";
    out += "#include \"fuzz/spec.hpp\"\n\n";
    out += "TEST(FuzzRegression, " + test_name + ") {\n";
    out += "    const rtsc::fuzz::ModelSpec spec = "
           "rtsc::fuzz::from_text(R\"spec(\n";
    out += fuzz::to_text(spec);
    out += ")spec\");\n";
    out += "    rtsc::explore::ModelCheckConfig cfg;\n";
    out += "    const rtsc::explore::ModelReport r =\n";
    out += "        rtsc::explore::explore_model(spec, cfg);\n";
    out += "    EXPECT_FALSE(r.violation) << r.diagnosis;\n";
    out += "}\n";
    return out;
}

/// Handle one confirmed violation: report, shrink, persist artifacts.
void report_violation(const ModelItem& item, const explore::ModelReport& r,
                      const Options& opt) {
    std::printf("%s: VIOLATION in variant '%s' at trace %s\n  %s\n",
                item.name.c_str(), r.violating_variant.c_str(),
                explore::to_text(r.counterexample).c_str(),
                r.diagnosis.c_str());
    fuzz::ModelSpec minimal = r.violating_spec;
    if (opt.do_shrink) {
        fuzz::ShrinkStats stats;
        minimal = fuzz::shrink(r.violating_spec,
                               explore::explore_finds_violation, &stats);
        std::printf("shrunk: %zu/%zu reductions accepted\n", stats.accepted,
                    stats.attempts);
    }
    std::string stem = std::filesystem::path(item.name).stem().string();
    save_artifact("reproducer", "explore_violation_" + stem + ".model",
                  fuzz::to_text(minimal));
    if (!opt.emit_test.empty()) {
        for (char& c : stem)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        save_artifact("regression test", opt.emit_test,
                      emit_explore_test(minimal, "Explore_" + stem));
    }
}

void print_report(const ModelItem& item, const explore::ModelReport& r,
                  const Options& opt) {
    if (opt.quiet && !r.violation) return;
    std::printf("%s: %s — %llu schedules (%zu variants, %llu clipped)%s\n",
                item.name.c_str(),
                r.violation ? "VIOLATION"
                            : (r.complete ? "verified" : "incomplete"),
                static_cast<unsigned long long>(r.schedules),
                r.variants.size(),
                static_cast<unsigned long long>(r.clipped_branches),
                r.complete ? "" : " [bounds clipped enumeration]");
}

/// The sweep: every model is one scenario of a `workers`-thread campaign
/// (0 = one per core) and its report lands in a per-slot vector. Then each
/// model's report line is printed and the first violation is shrunk and
/// reported. A violation in ANY scenario — or a scenario that failed
/// outright — makes the sweep exit nonzero.
int run_sweep(const std::vector<ModelItem>& items, const Options& opt,
              unsigned workers, campaign::CampaignReport* out_report) {
    std::vector<explore::ModelReport> reports(items.size());
    std::vector<campaign::ScenarioSpec> scenarios;
    scenarios.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        scenarios.push_back(
            {items[i].name, [&spec = items[i].spec, &r = reports[i],
                             &opt](campaign::ScenarioContext& ctx) {
                 r = explore::explore_model(spec, opt.cfg);
                 ctx.metric("schedules", static_cast<double>(r.schedules));
                 ctx.metric("violation", r.violation ? 1.0 : 0.0);
                 ctx.metric("complete", r.complete ? 1.0 : 0.0);
                 if (r.violation)
                     ctx.note("diagnosis", r.violating_variant + " " +
                                               explore::to_text(
                                                   r.counterexample) +
                                               ": " + r.diagnosis);
             }});
    campaign::CampaignRunner::Options ro;
    ro.workers = workers;
    const campaign::CampaignReport report =
        campaign::CampaignRunner(ro).run(scenarios);
    int rc = 0;
    for (const auto& res : report.results) {
        if (!res.ok) {
            std::printf("%s: scenario failed: %s\n", res.name.c_str(),
                        res.error.c_str());
            rc = 1; // a crashed checker is never a clean sweep
            continue;
        }
        const ModelItem& item = items[res.index];
        const explore::ModelReport& r = reports[res.index];
        print_report(item, r, opt);
        if (r.violation) {
            if (rc != 1) report_violation(item, r, opt); // shrink the first
            rc = 1;
        } else if (!r.complete && rc == 0) {
            rc = 3;
        }
    }
    std::printf("%zu models via %u workers: %zu failed\n",
                report.results.size(), report.workers, report.failures());
    if (out_report != nullptr) *out_report = report;
    return rc;
}

/// --trace: replay ONE decision trace through the 4-way check and report;
/// with --dump, print the procedural-vs-threaded streams side by side.
int run_trace(const ModelItem& item, const Options& opt) {
    explore::DecisionTrace trace;
    try {
        trace = explore::trace_from_text(opt.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "--trace: %s\n", e.what());
        return 2;
    }
    const std::string baseline =
        fuzz::run_model(item.spec, rtsc::rtos::EngineKind::procedure_calls)
            .error;
    const explore::RunOutcome out =
        explore::check_model_once(item.spec, trace, &baseline);
    if (opt.dump) {
        explore::TraceOracle po(&trace), to(&trace);
        const fuzz::RunResult proc = fuzz::run_model(
            item.spec, rtsc::rtos::EngineKind::procedure_calls, true, &po);
        const fuzz::RunResult thrd = fuzz::run_model(
            item.spec, rtsc::rtos::EngineKind::rtos_thread, true, &to);
        std::fputs(fuzz::dump_streams(proc, thrd).c_str(), stdout);
        std::printf("---- decisions ----\n%s",
                    explore::log_to_text(po.take_log()).c_str());
    }
    std::printf("%s @ %s: %s%s\n", item.name.c_str(),
                explore::to_text(trace).c_str(),
                out.violation ? "VIOLATION: " : "ok",
                out.violation ? out.diagnosis.c_str() : "");
    return out.violation ? 1 : 0;
}

/// --frontier: resumable single-model DFS over the base variant. Loads the
/// frontier if the file exists; saves it back when the budget stops the run
/// early, removes it on completion.
int run_frontier(const ModelItem& item, const Options& opt) {
    explore::Explorer explorer(explore::make_model_check(item.spec),
                               opt.cfg.bounds);
    const bool resuming = std::filesystem::exists(opt.frontier);
    if (resuming) {
        std::ifstream in(opt.frontier);
        try {
            explorer.load_frontier(in);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: %s\n", opt.frontier.c_str(), e.what());
            return 2;
        }
    }
    const explore::ExploreResult r = explorer.run();
    std::printf("%s: %s — %llu schedules total (%llu clipped)%s\n",
                item.name.c_str(),
                r.violation ? "VIOLATION"
                            : (r.complete ? "verified" : "paused"),
                static_cast<unsigned long long>(r.schedules),
                static_cast<unsigned long long>(r.clipped_branches),
                resuming ? " [resumed]" : "");
    if (r.violation) {
        std::printf("counterexample: %s\n  %s\n",
                    explore::to_text(r.counterexample).c_str(),
                    r.diagnosis.c_str());
        explore::ModelReport mr;
        mr.violation = true;
        mr.diagnosis = r.diagnosis;
        mr.violating_variant = "base";
        mr.violating_spec = item.spec;
        mr.counterexample = r.counterexample;
        report_violation(item, mr, opt);
        return 1;
    }
    if (!explorer.frontier_empty()) {
        std::ofstream out(opt.frontier);
        explorer.save_frontier(out);
        std::printf("frontier saved to %s — rerun to continue\n",
                    opt.frontier.c_str());
        return 3;
    }
    std::error_code ec;
    std::filesystem::remove(opt.frontier, ec);
    return r.complete ? 0 : 3;
}

/// --bench: one campaign pass over the models; per-model schedule counts
/// become the bench metrics so CI can pin/inspect enumeration sizes.
int bench(const std::vector<ModelItem>& items, const Options& opt) {
    campaign::CampaignReport report;
    const int rc = run_sweep(items, opt, opt.jobs, &report);
    campaign::BenchEntry entry;
    entry.name = "explore_schedules";
    entry.scenarios = report.results.size();
    entry.hardware_cores = std::thread::hardware_concurrency();
    entry.workers = report.workers;
    entry.serial_ms = report.wall_ms;
    entry.parallel_ms = report.wall_ms;
    entry.speedup = 1.0;
    entry.digest = report.digest();
    entry.digests_match = true;
    entry.metrics = report.aggregate_metrics();
    // Per-model schedule counts, pinned by name.
    for (const auto& res : report.results)
        for (const auto& [name, value] : res.metrics)
            if (name == "schedules") {
                campaign::MetricSummary m;
                m.name = "schedules." + res.name;
                m.count = 1;
                m.min = m.max = m.mean = m.p50 = m.p90 = m.p99 = value;
                entry.metrics.push_back(m);
            }
    campaign::write_bench_entry(opt.bench, entry);
    std::printf("bench: %zu models, %.1f ms wall -> %s\n", entry.scenarios,
                report.wall_ms, opt.bench.c_str());
    return rc;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    bool seeds_sweep = false;
    std::uint64_t seeds_n = 0, seeds_start = 0;
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
        std::uint64_t seed = 0;
        if (arg == "--model") opt.models.push_back(need_value("--model"));
        else if (arg == "--corpus") opt.corpus = need_value("--corpus");
        else if (arg == "--seed") {
            number(seed);
            opt.gen_seeds.push_back(seed);
        } else if (arg == "--seeds") {
            seeds_sweep = true;
            number(seeds_n);
        } else if (arg == "--start") number(seeds_start);
        else if (arg == "--jobs") number(opt.jobs);
        else if (arg == "--max-schedules") number(opt.cfg.bounds.max_schedules);
        else if (arg == "--max-decisions") number(opt.cfg.bounds.max_decisions);
        else if (arg == "--max-group") number(opt.cfg.bounds.max_group);
        else if (arg == "--max-variants") number(opt.cfg.max_variants);
        else if (arg == "--keep-going")
            opt.cfg.bounds.stop_at_violation = false;
        else if (arg == "--offsets") number(opt.cfg.offsets);
        else if (arg == "--window") number(opt.cfg.offset_window_ps);
        else if (arg == "--crash-offsets") number(opt.cfg.crash_offsets);
        else if (arg == "--crash-window") number(opt.cfg.crash_window_ps);
        else if (arg == "--frontier") opt.frontier = need_value("--frontier");
        else if (arg == "--trace") opt.trace = need_value("--trace");
        else if (arg == "--dump") opt.dump = true;
        else if (arg == "--bench") opt.bench = need_value("--bench");
        else if (arg == "--no-shrink") opt.do_shrink = false;
        else if (arg == "--emit-test") opt.emit_test = need_value("--emit-test");
        else if (arg == "--quiet") opt.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (seeds_sweep)
        for (std::uint64_t i = 0; i < seeds_n; ++i)
            opt.gen_seeds.push_back(seeds_start + i);

    std::vector<ModelItem> items;
    if (!load_models(opt, &items)) return 2;
    if (items.empty()) {
        std::fprintf(stderr, "no models given (--model/--corpus/--seed)\n");
        usage(argv[0]);
        return 2;
    }
    if (!opt.trace.empty() || opt.dump) {
        if (items.size() != 1) {
            std::fprintf(stderr, "--trace/--dump need exactly one model\n");
            return 2;
        }
        return run_trace(items[0], opt);
    }
    if (!opt.frontier.empty()) {
        if (items.size() != 1) {
            std::fprintf(stderr, "--frontier needs exactly one model\n");
            return 2;
        }
        return run_frontier(items[0], opt);
    }
    if (!opt.bench.empty()) return bench(items, opt);
    return run_sweep(items, opt, std::max(opt.jobs, 1u), nullptr);
}
