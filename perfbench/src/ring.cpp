// Workload `ring`: the bench_engine_compare token ring (n tasks pass a token
// through counter events on one RTOS CPU, a periodic hardware interrupt
// preempts them), at 2 and at 32 tasks, on both engines, with no observers.
// Dispatch-dense and bound by coroutine switches: this is where the paper's
// §4 engine comparison and the kernel-context levers show.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kernel/context.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "pins.hpp"
#include "rtos/processor.hpp"

namespace perfbench {
namespace {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using namespace rtsc::kernel::time_literals;

constexpr int kRounds = 1000;

struct Lane {
    r::EngineKind kind;
    int tasks;
};

[[nodiscard]] const char* engine_tag(r::EngineKind kind) {
    return kind == r::EngineKind::procedure_calls ? "proc" : "thread";
}

struct RingRun {
    std::uint64_t activations = 0;
    std::uint64_t deltas = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t scheduler_runs = 0;
    std::uint64_t hops = 0;
    std::uint64_t end_ps = 0;
    double run_s = 0;      ///< run_until
    double spawn_s = 0;    ///< create_task/spawn calls during elaboration
    std::uint64_t spawns = 0;
    k::Simulator::HostProfile profile;
};

RingRun run_ring(Lane lane, Tracer& tracer) {
    Span span(tracer, "ring.run");
    RingRun out;
    k::Simulator sim;
    sim.set_host_profiling(tracer.enabled());

    Span elaborate(tracer, "kernel.elaborate");
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     lane.kind);
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));
    std::vector<std::unique_ptr<m::Event>> ring;
    ring.reserve(static_cast<std::size_t>(lane.tasks));
    for (int i = 0; i < lane.tasks; ++i)
        ring.push_back(std::make_unique<m::Event>("ev" + std::to_string(i),
                                                  m::EventPolicy::counter));
    m::Event irq("irq", m::EventPolicy::counter);
    const auto timed = [&out](auto&& create) {
        const Clock::time_point t0 = Clock::now();
        create();
        out.spawn_s += seconds_between(t0, Clock::now());
        ++out.spawns;
    };
    const int n = lane.tasks;
    for (int i = 0; i < n; ++i)
        timed([&] {
            cpu.create_task({.name = "t" + std::to_string(i), .priority = 1},
                            [&, i](r::Task& self) {
                                for (int round = 0; round < kRounds; ++round) {
                                    ring[static_cast<std::size_t>(i)]->await();
                                    self.compute(5_us);
                                    ring[static_cast<std::size_t>((i + 1) % n)]
                                        ->signal();
                                    ++out.hops;
                                }
                            });
        });
    timed([&] {
        cpu.create_task({.name = "isr", .priority = 9}, [&](r::Task& self) {
            for (;;) {
                irq.await();
                self.compute(2_us);
            }
        });
    });
    timed([&] {
        sim.spawn("hw", [&] {
            for (;;) {
                k::wait(100_us);
                irq.signal();
            }
        });
    });
    timed([&] { sim.spawn("starter", [&] { ring[0]->signal(); }); });
    elaborate.close();

    Span run(tracer, "kernel.run_until");
    sim.run_until(k::Time::ms(static_cast<k::Time::rep>(kRounds) * 2u));
    out.run_s = run.close();

    const auto stats = cpu.engine().phase_stats();
    out.activations = sim.process_activations();
    out.deltas = sim.delta_count();
    out.dispatches = stats.dispatches;
    out.scheduler_runs = stats.scheduler_runs;
    out.end_ps = sim.now().raw_ps();
    out.profile = sim.host_profile();
    run.count("activations", static_cast<double>(out.activations));
    run.count("deltas", static_cast<double>(out.deltas));
    run.count("dispatches", static_cast<double>(out.dispatches));
    run.count("scheduler_runs", static_cast<double>(out.scheduler_runs));
    return out;
}

/// Round trip of Coroutine::resume + yield, the switch every activation
/// pays, in ns (median of batches).
double calibrate_switch_ns() {
    constexpr int kBatch = 100'000;
    constexpr int kBatches = 5;
    std::vector<double> per_trip;
    for (int b = 0; b < kBatches; ++b) {
        k::Coroutine* self = nullptr;
        k::Coroutine co([&self] {
            for (int i = 0; i < kBatch; ++i) self->yield();
        });
        self = &co;
        co.resume(); // first entry: stack set-up, not a steady-state switch
        const Clock::time_point t0 = Clock::now();
        for (int i = 1; i < kBatch; ++i) co.resume();
        per_trip.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                           (kBatch - 1));
        co.resume(); // let the body return
    }
    return median(per_trip);
}

class Ring final : public Workload {
public:
    PassTime pass(rtsc::fuzz::Rng& order, Gate& gate, Tracer& tracer) override {
        Span span(tracer, "pass.ring");
        std::vector<Lane> lanes;
        for (const pins::RingPin& pin : pins::kRing)
            for (r::EngineKind kind :
                 {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread})
                lanes.push_back({kind, pin.tasks});
        shuffle(lanes, order);

        PassTime t;
        std::uint64_t dispatches[2][2] = {};
        for (const Lane& lane : lanes) {
            const int size = lane.tasks == pins::kRing[0].tasks ? 0 : 1;
            const int eng = lane.kind == r::EngineKind::procedure_calls ? 0 : 1;
            const std::string tag = std::string(engine_tag(lane.kind)) + ".n" +
                                    std::to_string(lane.tasks);
            Op op(gate, "ring." + tag);
            const RingRun run = run_ring(lane, tracer);
            const pins::RingPin& pin = pins::kRing[size];
            op.expect_eq("hops", run.hops,
                         static_cast<std::uint64_t>(lane.tasks) * kRounds);
            op.expect_eq("dispatches", run.dispatches, pin.dispatches);
            op.expect_eq("scheduler_runs", run.scheduler_runs,
                         pin.scheduler_runs);
            op.expect_eq("end_ps", run.end_ps,
                         static_cast<std::uint64_t>(kRounds) * 2'000'000'000u);
            op.expect_stable("ring." + tag + ".activations", run.activations);
            op.expect_stable("ring." + tag + ".deltas", run.deltas);
            dispatches[size][eng] = run.dispatches;
            (eng == 0 ? t.proc_s : t.thread_s) += run.run_s;
            runs_[size][eng] = run;
        }
        for (int size = 0; size < 2; ++size) {
            Op op(gate, "ring.engines_agree.n" +
                            std::to_string(pins::kRing[size].tasks));
            op.expect(dispatches[size][0] == dispatches[size][1],
                      "engines dispatched differently");
        }
        t.wall_s = span.close();
        if (tracer.enabled()) switch_ns_ = calibrate_switch_ns();
        return t;
    }

    void layer_metrics(Metrics& out) const override {
        const char* sizes[2] = {"n2", "n32"};
        double run_ns[2] = {}, activations[2] = {}, dispatches[2] = {};
        double spawn_s = 0, spawns = 0;
        k::Simulator::HostProfile prof;
        for (int size = 0; size < 2; ++size)
            for (int eng = 0; eng < 2; ++eng) {
                const RingRun& run = runs_[size][eng];
                const std::string tag =
                    std::string(eng == 0 ? "proc." : "thread.") + sizes[size];
                out["kernel.activations." + tag] = {
                    static_cast<double>(run.activations), "count"};
                out["kernel.deltas." + tag] = {static_cast<double>(run.deltas),
                                               "count"};
                run_ns[eng] += run.run_s * 1e9;
                activations[eng] += static_cast<double>(run.activations);
                dispatches[eng] += static_cast<double>(run.dispatches);
                spawn_s += run.spawn_s;
                spawns += static_cast<double>(run.spawns);
                prof.evaluate_ns += run.profile.evaluate_ns;
                prof.update_ns += run.profile.update_ns;
                prof.delta_notify_ns += run.profile.delta_notify_ns;
                prof.advance_ns += run.profile.advance_ns;
            }
        out["kernel.switch_ns"] = {switch_ns_, "ns"};
        out["kernel.evaluate_ms"] = {static_cast<double>(prof.evaluate_ns) / 1e6, "ms"};
        out["kernel.update_ms"] = {static_cast<double>(prof.update_ns) / 1e6, "ms"};
        out["kernel.delta_notify_ms"] = {
            static_cast<double>(prof.delta_notify_ns) / 1e6, "ms"};
        out["kernel.advance_ms"] = {static_cast<double>(prof.advance_ns) / 1e6, "ms"};
        out["kernel.spawn_us"] = {spawns > 0 ? spawn_s * 1e6 / spawns : 0, "us"};
        out["rtos.dispatches"] = {dispatches[0], "count"};
        out["rtos.scheduler_runs"] = {
            static_cast<double>(runs_[0][0].scheduler_runs +
                                runs_[1][0].scheduler_runs),
            "count"};
        for (int eng = 0; eng < 2; ++eng) {
            const std::string e = eng == 0 ? "proc" : "thread";
            out["kernel.ns_per_activation." + e] = {run_ns[eng] / activations[eng],
                                                    "ns"};
            out["rtos.ns_per_dispatch." + e] = {run_ns[eng] / dispatches[eng], "ns"};
            out["rtos.activations_per_dispatch." + e] = {
                activations[eng] / dispatches[eng], "ratio"};
        }
        for (int size = 0; size < 2; ++size)
            out[std::string("rtos.activation_ratio.") + sizes[size]] = {
                static_cast<double>(runs_[size][1].activations) /
                    static_cast<double>(runs_[size][0].activations),
                "ratio"};
    }

    void print_pins() const override {
        std::printf("inline constexpr RingPin kRing[] = {\n");
        for (int size = 0; size < 2; ++size) {
            const RingRun& run = runs_[size][0];
            std::printf("    {%d, %llu, %llu},\n", pins::kRing[size].tasks,
                        static_cast<unsigned long long>(run.dispatches),
                        static_cast<unsigned long long>(run.scheduler_runs));
        }
        std::printf("};\n");
    }

private:
    RingRun runs_[2][2] = {}; ///< [size][engine] of the last pass
    double switch_ns_ = 0;
};

} // namespace

std::unique_ptr<Workload> make_ring() { return std::make_unique<Ring>(); }

} // namespace perfbench
