// Workload `mpeg2_observed`: the paper's MPEG-2 SoC (18 tasks, 6 processors,
// 3 with an RTOS model) over a long frame count on each engine, with the full
// live-telemetry stack attached: a MetricsCollector with Attribution on every
// SW processor, a PerfettoStreamWriter on every SW processor and relation,
// and a MetricsSampler. Observation and export do most of the host work here,
// and mcse relation traffic and multi-CPU scheduling are real; the ring
// bypasses all of it.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "fuzz/runner.hpp"
#include "harness.hpp"
#include "kernel/simulator.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "pins.hpp"
#include "workload/mpeg2.hpp"

namespace perfbench {
namespace {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace o = rtsc::obs;
namespace w = rtsc::workload;
namespace fs = std::filesystem;

constexpr std::uint64_t kFrames = 1500;

/// Benchmark-side relation observer: counts mcse accesses and how many of
/// them had to wait.
class AccessCounter final : public rtsc::mcse::CommObserver {
public:
    void on_access(const rtsc::mcse::Relation&, const r::Task*,
                   rtsc::mcse::AccessKind, bool blocked) override {
        ++accesses;
        if (blocked) ++blocked_accesses;
    }
    std::uint64_t accesses = 0;
    std::uint64_t blocked_accesses = 0;
};

/// Removes the export file on every exit path, a throwing run included.
/// Declared before the writer, so it runs after the writer has closed (or,
/// without finish(), removed) its spool.
struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() {
        std::error_code ec;
        fs::remove(path, ec);
    }
};

struct MpegRun {
    std::uint64_t displayed = 0;
    std::uint64_t misses = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t scheduler_runs = 0;
    std::uint64_t activations = 0;
    std::uint64_t deltas = 0;
    std::uint64_t latency_digest = 0;
    std::uint64_t metrics_digest = 0;
    o::PerfettoStreamWriter::Stats stream;
    std::uint64_t samples = 0;
    AccessCounter comm;
    double elaborate_s = 0;
    double run_s = 0;    ///< run_until
    double finish_s = 0; ///< PerfettoStreamWriter::finish
};

MpegRun run_mpeg2(r::EngineKind kind, bool observed, const fs::path& dir,
                  Tracer& tracer) {
    const bool proc = kind == r::EngineKind::procedure_calls;
    Span span(tracer, observed ? "mpeg2.observed" : "mpeg2.bare");
    MpegRun out;
    k::Simulator sim;
    sim.set_host_profiling(tracer.enabled());

    w::Mpeg2Config cfg;
    cfg.frames = kFrames;
    cfg.engine = kind;
    Span elaborate(tracer, "workload.elaborate");
    w::Mpeg2System soc(cfg);
    out.elaborate_s = elaborate.close();

    o::MetricsRegistry registry;
    o::MetricsCollector collector(registry);
    o::Attribution attribution;
    RemoveOnExit cleanup{dir / (std::string("mpeg2-") +
                                (proc ? "proc" : "thread") + ".trace.json")};
    std::optional<o::PerfettoStreamWriter> writer;
    std::optional<o::MetricsSampler> sampler;
    if (observed) {
        Span attach(tracer, "obs.attach");
        collector.set_attribution(&attribution);
        writer.emplace(cleanup.path.string());
        sampler.emplace(*writer);
        for (r::Processor* cpu : soc.sw_processors()) {
            collector.attach(*cpu);
            writer->attach(*cpu);
            sampler->attach(*cpu);
        }
        for (rtsc::mcse::Relation* rel : soc.relations()) writer->attach(*rel);
        sampler->start(sim);
    }
    if (tracer.enabled())
        for (rtsc::mcse::Relation* rel : soc.relations())
            rel->add_observer(out.comm);

    Span run(tracer, "kernel.run_until");
    sim.run_until(cfg.frame_period * kFrames + k::Time::ms(50));
    out.run_s = run.close();
    if (observed) {
        Span finish(tracer, "obs.finish");
        writer->finish(&attribution);
        out.finish_s = finish.close();
        out.stream = writer->stats();
        out.samples = sampler->samples();
        finish.count("events", static_cast<double>(out.stream.events));
        finish.count("spooled_bytes", static_cast<double>(out.stream.spooled_bytes));
    }

    for (const r::Processor* cpu : soc.sw_processors()) {
        const auto stats = cpu->engine().phase_stats();
        out.dispatches += stats.dispatches;
        out.scheduler_runs += stats.scheduler_runs;
    }
    out.displayed = soc.displayed_frames().size();
    out.misses = soc.deadline_misses();
    out.latency_digest = rtsc::fuzz::kFnvOffset;
    for (const w::FrameStamp& f : soc.displayed_frames())
        out.latency_digest = rtsc::fuzz::fnv1a(
            out.latency_digest, std::to_string(f.index) + f.type +
                                    std::to_string(f.captured.raw_ps()) + ">" +
                                    std::to_string(f.displayed.raw_ps()) + ";");
    out.metrics_digest = rtsc::fuzz::kFnvOffset;
    for (const o::MetricSample& s : registry.snapshot())
        out.metrics_digest = rtsc::fuzz::fnv1a(
            out.metrics_digest, s.name + "=" + json_number(s.value) + ";");
    out.activations = sim.process_activations();
    out.deltas = sim.delta_count();
    run.count("activations", static_cast<double>(out.activations));
    run.count("dispatches", static_cast<double>(out.dispatches));
    return out;
}

class Mpeg2Observed final : public Workload {
public:
    explicit Mpeg2Observed(std::string tmp_dir) : dir_(std::move(tmp_dir)) {}

    PassTime pass(rtsc::fuzz::Rng& order, Gate& gate, Tracer& tracer) override {
        Span span(tracer, "pass.mpeg2_observed");
        std::vector<r::EngineKind> engines = {r::EngineKind::procedure_calls,
                                              r::EngineKind::rtos_thread};
        shuffle(engines, order);
        PassTime t;
        for (const r::EngineKind kind : engines) {
            const MpegRun& run = run_checked(kind, true, gate, tracer);
            (kind == r::EngineKind::procedure_calls ? t.proc_s : t.thread_s) +=
                run.run_s + run.finish_s;
        }
        t.wall_s = span.close();
        // A traced pass also runs the model bare, outside the pass time, for
        // the observation overhead; it must behave exactly like the observed.
        if (tracer.enabled())
            for (const r::EngineKind kind : engines)
                run_checked(kind, false, gate, tracer);
        return t;
    }

    void layer_metrics(Metrics& out) const override {
        const MpegRun& obs = observed_[0];
        double overhead_ns = 0;
        for (int eng = 0; eng < 2; ++eng) {
            const double bare = bare_[eng].run_s;
            const double seen = observed_[eng].run_s + observed_[eng].finish_s;
            out[std::string("obs.overhead_pct.") + (eng == 0 ? "proc" : "thread")] = {
                (seen / bare - 1) * 100, "%"};
            overhead_ns += (seen - bare) * 1e9;
        }
        out["rtos.activation_ratio.mpeg2"] = {
            static_cast<double>(observed_[1].activations) /
                static_cast<double>(observed_[0].activations),
            "ratio"};
        out["mcse.accesses"] = {static_cast<double>(obs.comm.accesses), "count"};
        out["mcse.blocked_ratio"] = {
            static_cast<double>(obs.comm.blocked_accesses) /
                static_cast<double>(obs.comm.accesses),
            "ratio"};
        out["obs.events"] = {static_cast<double>(obs.stream.events), "count"};
        out["obs.spooled_mb"] = {static_cast<double>(obs.stream.spooled_bytes) / 1e6,
                                 "MB"};
        out["obs.flushes"] = {static_cast<double>(obs.stream.flushes), "count"};
        out["obs.ns_per_event"] = {
            overhead_ns / static_cast<double>(observed_[0].stream.events +
                                              observed_[1].stream.events),
            "ns"};
        out["obs.finish_ms"] = {
            (observed_[0].finish_s + observed_[1].finish_s) / 2 * 1e3, "ms"};
        out["obs.sampler_samples"] = {static_cast<double>(obs.samples), "count"};
        out["workload.frames"] = {static_cast<double>(obs.displayed), "count"};
        double elaborate_s = 0;
        for (int eng = 0; eng < 2; ++eng)
            elaborate_s += bare_[eng].elaborate_s + observed_[eng].elaborate_s;
        out["workload.elaborate_ms"] = {elaborate_s / 4 * 1e3, "ms"};
    }

    void print_pins() const override {
        const MpegRun& run = observed_[0];
        std::printf("inline constexpr Mpeg2Pin kMpeg2 = {%llu, %llu, %llu, %llu, "
                    "0x%016llxull, 0x%016llxull, %llu};\n",
                    static_cast<unsigned long long>(run.displayed),
                    static_cast<unsigned long long>(run.misses),
                    static_cast<unsigned long long>(run.dispatches),
                    static_cast<unsigned long long>(run.scheduler_runs),
                    static_cast<unsigned long long>(run.latency_digest),
                    static_cast<unsigned long long>(run.metrics_digest),
                    static_cast<unsigned long long>(run.stream.events));
    }

private:
    /// One run under the gate. Simulated behaviour is engine- and
    /// observer-independent: every run must match the same pins.
    const MpegRun& run_checked(r::EngineKind kind, bool observed, Gate& gate,
                               Tracer& tracer) {
        const int eng = kind == r::EngineKind::procedure_calls ? 0 : 1;
        const std::string tag = std::string(eng == 0 ? "proc" : "thread") +
                                (observed ? ".observed" : ".bare");
        Op op(gate, "mpeg2." + tag);
        MpegRun& run = (observed ? observed_ : bare_)[eng];
        run = run_mpeg2(kind, observed, dir_, tracer);
        op.expect_stable("mpeg2." + tag + ".activations", run.activations);
        op.expect_stable("mpeg2." + tag + ".deltas", run.deltas);
        const pins::Mpeg2Pin& pin = pins::kMpeg2;
        op.expect_eq("frames displayed", run.displayed, pin.displayed);
        op.expect_eq("deadline misses", run.misses, pin.misses);
        op.expect_eq("dispatches", run.dispatches, pin.dispatches);
        op.expect_eq("scheduler runs", run.scheduler_runs, pin.scheduler_runs);
        op.expect_eq("frame latency digest", run.latency_digest,
                     pin.latency_digest);
        if (observed) {
            op.expect_eq("collector metrics digest", run.metrics_digest,
                         pin.metrics_digest);
            op.expect_eq("exported events", run.stream.events, pin.events);
        }
        return run;
    }

    fs::path dir_;
    MpegRun bare_[2];     ///< [engine], traced passes only
    MpegRun observed_[2]; ///< [engine] of the last pass
};

} // namespace

std::unique_ptr<Workload> make_mpeg2(std::string tmp_dir) {
    return std::make_unique<Mpeg2Observed>(std::move(tmp_dir));
}

} // namespace perfbench
