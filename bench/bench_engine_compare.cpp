// Experiment F3/F5 (paper §4, Figures 3 vs 5): the procedure-call RTOS model
// implementation simulates faster than the dedicated-RTOS-thread one because
// it needs fewer simulator context switches — "the only thread switches are
// those of the tasks of the system we're designing".
//
// google-benchmark measures wall-clock simulation time of an identical
// workload under both engines across task counts; the counters report kernel
// process activations (the metric behind the speed difference) and the final
// summary prints the activation ratio per configuration.
//
// The summary also writes BENCH_engine.json in the working directory: per
// size and engine, kernel activations (context switches), RTOS dispatches,
// delta cycles and the median wall time of kReps interleaved runs. It is the §4 claim as a gated count: the bench
// exits 1 when the two engines dispatch differently (they must simulate the
// same schedule) or when the threaded/procedural activation ratio is not
// above 1 at some size. `--benchmark_filter=NONE` skips the google-benchmark
// runs and leaves only the summary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

constexpr int kRounds = 200;
constexpr int kReps = 5; ///< timed runs per size and engine in the summary

struct RunStats {
    std::uint64_t activations = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t deltas = 0;
    Time end{};
};

/// Token-ring workload: n tasks pass a token around through counter events;
/// every hop is one RTOS block + one wake + one dispatch. A periodic HW
/// interrupt preempts the ring to exercise the preemption path too.
RunStats run_ring(r::EngineKind kind, int n_tasks, int rounds) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), kind);
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));

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

    RunStats stats;
    stats.activations = sim.process_activations();
    stats.dispatches = cpu.engine().phase_stats().dispatches;
    stats.deltas = sim.delta_count();
    stats.end = sim.now();
    return stats;
}

void BM_Engine(benchmark::State& state, r::EngineKind kind) {
    const int n_tasks = static_cast<int>(state.range(0));
    RunStats last;
    for (auto _ : state) last = run_ring(kind, n_tasks, kRounds);
    state.counters["kernel_activations"] =
        static_cast<double>(last.activations);
    state.counters["rtos_dispatches"] = static_cast<double>(last.dispatches);
    state.counters["activations_per_dispatch"] =
        static_cast<double>(last.activations) /
        static_cast<double>(last.dispatches);
}

/// One engine at one size: the counts of a run (identical on every rep) and
/// the median wall time of the reps.
struct Lane {
    RunStats stats;
    std::vector<double> wall_ms;
    [[nodiscard]] double median_ms() const {
        std::vector<double> v = wall_ms;
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    }
};

void time_run(Lane& lane, r::EngineKind kind, int n_tasks) {
    const auto t0 = std::chrono::steady_clock::now();
    lane.stats = run_ring(kind, n_tasks, kRounds);
    lane.wall_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
}

void write_lane(std::ostream& out, const char* engine, const Lane& lane) {
    out << "\"" << engine << "\": {\"activations\": " << lane.stats.activations
        << ", \"dispatches\": " << lane.stats.dispatches
        << ", \"delta_cycles\": " << lane.stats.deltas
        << ", \"wall_ms\": " << lane.median_ms() << "}";
}

} // namespace

BENCHMARK_CAPTURE(BM_Engine, procedural, r::EngineKind::procedure_calls)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Engine, rtos_thread, r::EngineKind::rtos_thread)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char* const json_path = "BENCH_engine.json";
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n  \"bench\": \"engine_compare\",\n"
        << "  \"workload\": \"token ring, " << kRounds
        << " rounds, 1 us overheads, 100 us interrupt\",\n"
        << "  \"wall_reps\": " << kReps << ",\n  \"sizes\": [\n";

    std::cout << "\n=== engine comparison summary (identical simulated "
                 "behaviour, different simulation cost) ===\n";
    std::cout << "tasks  proc_activations  thread_activations  ratio  "
                 "proc_ms  thread_ms\n";
    bool ok = true;
    const int sizes[] = {2, 4, 8, 16, 32};
    for (const int n : sizes) {
        Lane proc;
        Lane thrd;
        for (int rep = 0; rep < kReps; ++rep) { // interleaved lanes
            time_run(proc, r::EngineKind::procedure_calls, n);
            time_run(thrd, r::EngineKind::rtos_thread, n);
        }
        const double ratio = static_cast<double>(thrd.stats.activations) /
                             static_cast<double>(proc.stats.activations);
        std::cout << "  " << n << "        " << proc.stats.activations
                  << "              " << thrd.stats.activations << "        "
                  << ratio << "  " << proc.median_ms() << "  "
                  << thrd.median_ms() << "\n";
        if (proc.stats.dispatches != thrd.stats.dispatches) {
            std::cout << "FAIL: " << n << " tasks: the engines dispatched "
                      << proc.stats.dispatches << " vs "
                      << thrd.stats.dispatches << " times\n";
            ok = false;
        }
        if (!(ratio > 1.0)) {
            std::cout << "FAIL: " << n << " tasks: activation ratio " << ratio
                      << " is not above 1 (paper §4.2)\n";
            ok = false;
        }
        out << "    {\"tasks\": " << n << ", ";
        write_lane(out, "procedural", proc);
        out << ", ";
        write_lane(out, "threaded", thrd);
        out << ", \"activation_ratio\": " << ratio << "}"
            << (n == sizes[std::size(sizes) - 1] ? "\n" : ",\n");
    }
    out << "  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
    std::cout << "The RTOS-thread engine pays roughly one extra pair of kernel "
                 "context switches per scheduling action (paper §4.2).\n"
              << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
