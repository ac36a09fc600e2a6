// Observability hook overhead: the engine hook sites (scheduler run,
// dispatch, preempt, block/wake, resource acquire/release) cost one untaken
// branch each when no observer is subscribed. This bench pins that
// claim with numbers: the token-ring workload from bench_engine_compare is
// timed bare, with a collector attached, and with the full causal-attribution
// analyzer (per-job blame decomposition) behind the collector, on both
// engines.
//
// Expected result: the no-sink configuration is indistinguishable from the
// pre-instrumentation baseline (<2% delta), and even with collector +
// attribution attached the cost stays small — the hooks do integer bucketing
// and segment arithmetic, no allocation on the steady-state hot path.
//
// A fourth lane times the full live-telemetry stack: collector plus a
// PerfettoStreamWriter spooling the trace to disk as the run progresses and
// a MetricsSampler emitting counter tracks each simulated millisecond. Every
// dispatch becomes several trace events, so on this dispatch-dense
// micro-workload the lane costs more than the bare run itself (real
// scenarios with computation amortize far better). That cost is observing
// and rendering the events; spool writes are a small share of it
// (docs/OBSERVABILITY.md). The lane gets its own gate:
// RTSC_OBS_STREAM_GATE_PCT, defaulting to 10x the hook gate.
//
// The measured deltas land in BENCH_obs.json (same line-based entry format
// as BENCH_campaign.json; path overridable with RTSC_BENCH_OBS_JSON).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/bench_json.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace c = rtsc::campaign;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// Instrumentation lanes, in increasing cost order. `streaming` is the live
/// telemetry stack: collector + PerfettoStreamWriter spooling to disk +
/// MetricsSampler counter tracks.
enum class Lane { bare, collector, attribution, streaming };

constexpr const char* kStreamPath = "bench_obs_stream.tmp.perfetto-bench";

/// Same token-ring + periodic-IRQ workload as bench_engine_compare, with an
/// optional metrics collector (and optionally the attribution analyzer it
/// subscribes) attached. Returns the dispatch count so the configurations
/// can be checked to have simulated identical behaviour.
std::uint64_t run_ring(r::EngineKind kind, int n_tasks, int rounds, Lane lane) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     kind);
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));

    o::MetricsRegistry registry;
    std::unique_ptr<o::MetricsCollector> collector;
    o::Attribution attribution;
    if (lane != Lane::bare) {
        collector = std::make_unique<o::MetricsCollector>(registry);
        collector->attach(cpu);
        if (lane == Lane::attribution)
            collector->set_attribution(&attribution);
    }
    std::unique_ptr<o::PerfettoStreamWriter> writer;
    std::unique_ptr<o::MetricsSampler> sampler;
    if (lane == Lane::streaming) {
        writer = std::make_unique<o::PerfettoStreamWriter>(kStreamPath);
        writer->attach(cpu);
        sampler = std::make_unique<o::MetricsSampler>(*writer);
        sampler->attach(cpu);
        sampler->start(sim);
    }

    std::vector<std::unique_ptr<m::Event>> ring;
    ring.reserve(static_cast<std::size_t>(n_tasks));
    for (int i = 0; i < n_tasks; ++i)
        ring.push_back(std::make_unique<m::Event>("ev" + std::to_string(i),
                                                  m::EventPolicy::counter));
    m::Event irq("irq", m::EventPolicy::counter);

    for (int i = 0; i < n_tasks; ++i) {
        cpu.create_task(
            {.name = "t" + std::to_string(i), .priority = 1},
            [&, i, rounds](r::Task& self) {
                for (int round = 0; round < rounds; ++round) {
                    ring[static_cast<std::size_t>(i)]->await();
                    self.compute(5_us);
                    ring[static_cast<std::size_t>((i + 1) % n_tasks)]->signal();
                }
            });
    }
    cpu.create_task({.name = "isr", .priority = 9}, [&](r::Task& self) {
        for (;;) {
            irq.await();
            self.compute(2_us);
        }
    });
    sim.spawn("hw", [&] {
        for (;;) {
            k::wait(100_us);
            irq.signal();
        }
    });
    sim.spawn("starter", [&] { ring[0]->signal(); });

    sim.run_until(Time::ms(static_cast<Time::rep>(rounds) * 2u));
    const std::uint64_t dispatches = cpu.engine().phase_stats().dispatches;
    if (writer != nullptr) {
        writer->finish();
        std::remove(kStreamPath); // timing artifact only; do not accumulate
    }
    return dispatches;
}

void BM_Ring(benchmark::State& state, r::EngineKind kind, Lane lane) {
    const int n_tasks = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(run_ring(kind, n_tasks, 200, lane));
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

c::MetricSummary summarize(const std::string& name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    c::MetricSummary s;
    s.name = name;
    s.count = v.size();
    s.min = v.front();
    s.max = v.back();
    double sum = 0;
    for (const double x : v) sum += x;
    s.mean = sum / static_cast<double>(v.size());
    const auto pct = [&v](unsigned q) {
        std::size_t rank = (v.size() * q + 99) / 100;
        if (rank == 0) rank = 1;
        return v[rank - 1];
    };
    s.p50 = pct(50);
    s.p90 = pct(90);
    s.p99 = pct(99);
    return s;
}

double time_once(r::EngineKind kind, Lane lane) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run_ring(kind, 8, 200, lane));
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct LaneTimes {
    std::vector<double> bare, coll, attr, stream;
};

/// Warm-up runs first (cold caches and allocator growth otherwise land in
/// whichever lane happens to run first), then the lanes interleaved per rep
/// so slow monotonic drift (thermal, frequency scaling) biases every lane
/// equally instead of penalizing the lane timed last.
LaneTimes time_lanes(r::EngineKind kind, int reps, int warmup) {
    LaneTimes t;
    for (int i = 0; i < warmup; ++i)
        for (Lane lane : {Lane::bare, Lane::collector, Lane::attribution,
                          Lane::streaming})
            benchmark::DoNotOptimize(run_ring(kind, 8, 200, lane));
    t.bare.reserve(static_cast<std::size_t>(reps));
    t.coll.reserve(static_cast<std::size_t>(reps));
    t.attr.reserve(static_cast<std::size_t>(reps));
    t.stream.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        t.bare.push_back(time_once(kind, Lane::bare));
        t.coll.push_back(time_once(kind, Lane::collector));
        t.attr.push_back(time_once(kind, Lane::attribution));
        t.stream.push_back(time_once(kind, Lane::streaming));
    }
    return t;
}

} // namespace

BENCHMARK_CAPTURE(BM_Ring, procedural_bare, r::EngineKind::procedure_calls,
                  Lane::bare)
    ->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, procedural_collector, r::EngineKind::procedure_calls,
                  Lane::collector)
    ->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, procedural_attribution,
                  r::EngineKind::procedure_calls, Lane::attribution)
    ->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, rtos_thread_bare, r::EngineKind::rtos_thread,
                  Lane::bare)
    ->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, rtos_thread_collector, r::EngineKind::rtos_thread,
                  Lane::collector)
    ->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, rtos_thread_attribution, r::EngineKind::rtos_thread,
                  Lane::attribution)
    ->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ring, procedural_streaming, r::EngineKind::procedure_calls,
                  Lane::streaming)
    ->Arg(8)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Behavioural sanity: neither the collector nor the attribution analyzer
    // may change the simulation.
    const std::uint64_t bare =
        run_ring(r::EngineKind::procedure_calls, 8, 200, Lane::bare);
    const std::uint64_t coll =
        run_ring(r::EngineKind::procedure_calls, 8, 200, Lane::collector);
    const std::uint64_t attr =
        run_ring(r::EngineKind::procedure_calls, 8, 200, Lane::attribution);
    const std::uint64_t stream =
        run_ring(r::EngineKind::procedure_calls, 8, 200, Lane::streaming);
    if (bare != coll || bare != attr || bare != stream) {
        std::cerr << "BUG: instrumentation changed dispatch count (" << bare
                  << " vs " << coll << " vs " << attr << " vs " << stream
                  << ")\n";
        return 1;
    }

    const int reps = 15;
    const int warmup = 3;
    const LaneTimes t =
        time_lanes(r::EngineKind::procedure_calls, reps, warmup);
    const auto& bare_ms = t.bare;
    const auto& coll_ms = t.coll;
    const auto& attr_ms = t.attr;
    const auto& stream_ms = t.stream;
    const double coll_delta_pct =
        (median(coll_ms) / median(bare_ms) - 1.0) * 100.0;
    const double attr_delta_pct =
        (median(attr_ms) / median(bare_ms) - 1.0) * 100.0;
    const double stream_delta_pct =
        (median(stream_ms) / median(bare_ms) - 1.0) * 100.0;

    std::cout << "\n=== observability hook overhead (procedural, 8 tasks, "
              << reps << " reps after " << warmup
              << " warm-up, lanes interleaved) ===\n"
              << "  bare         median " << median(bare_ms) << " ms\n"
              << "  collector    median " << median(coll_ms) << " ms  ("
              << coll_delta_pct << " %)\n"
              << "  attribution  median " << median(attr_ms) << " ms  ("
              << attr_delta_pct << " %)\n"
              << "  streaming    median " << median(stream_ms) << " ms  ("
              << stream_delta_pct << " %, incl. spool I/O + counter tracks)\n"
              << "  (no-sink configurations pay one untaken branch per hook "
                 "site; see docs/OBSERVABILITY.md)\n";

    c::BenchEntry entry;
    entry.name = "obs_hook_overhead";
    entry.scenarios = static_cast<std::size_t>(reps);
    entry.hardware_cores = std::thread::hardware_concurrency();
    entry.workers = 1;
    entry.serial_ms = median(bare_ms);
    entry.parallel_ms = median(coll_ms);
    entry.speedup = median(coll_ms) > 0 ? median(bare_ms) / median(coll_ms) : 0;
    entry.digest = coll;
    entry.digests_match = bare == coll && bare == attr;
    entry.metrics.push_back(summarize("obs.bare_ms", bare_ms));
    entry.metrics.push_back(summarize("obs.collector_ms", coll_ms));
    entry.metrics.push_back(summarize("obs.attribution_ms", attr_ms));
    entry.metrics.push_back(summarize("obs.streaming_ms", stream_ms));
    entry.metrics.push_back(
        summarize("obs.collector_delta_pct", {coll_delta_pct}));
    entry.metrics.push_back(
        summarize("obs.attribution_delta_pct", {attr_delta_pct}));
    entry.metrics.push_back(
        summarize("obs.streaming_delta_pct", {stream_delta_pct}));

    const char* path = std::getenv("RTSC_BENCH_OBS_JSON");
    c::write_bench_entry(path != nullptr ? path : "BENCH_obs.json", entry);
    std::cout << "wrote " << (path != nullptr ? path : "BENCH_obs.json")
              << "\n";

    // Perf-smoke gate for CI: RTSC_OBS_GATE_PCT=<limit> fails the run when
    // the attribution overhead exceeds the limit or the instrumentation
    // changed simulated behaviour. The streaming lane renders and spools
    // every event, so it gates against RTSC_OBS_STREAM_GATE_PCT (default:
    // 10x the limit).
    if (const char* gate = std::getenv("RTSC_OBS_GATE_PCT")) {
        const double limit = std::atof(gate);
        const char* sgate = std::getenv("RTSC_OBS_STREAM_GATE_PCT");
        const double stream_limit =
            sgate != nullptr ? std::atof(sgate) : 10.0 * limit;
        int rc = 0;
        if (!entry.digests_match) {
            std::cerr << "GATE FAIL: instrumentation changed the dispatch "
                         "digest\n";
            rc = 1;
        }
        if (attr_delta_pct > limit) {
            std::cerr << "GATE FAIL: obs.attribution_delta_pct "
                      << attr_delta_pct << " > " << limit << "\n";
            rc = 1;
        }
        if (stream_delta_pct > stream_limit) {
            std::cerr << "GATE FAIL: obs.streaming_delta_pct "
                      << stream_delta_pct << " > " << stream_limit << "\n";
            rc = 1;
        }
        if (rc == 0)
            std::cout << "gate ok: attribution_delta_pct " << attr_delta_pct
                      << " <= " << limit << ", streaming_delta_pct "
                      << stream_delta_pct << " <= " << stream_limit
                      << ", digests match\n";
        return rc;
    }
    return 0;
}
