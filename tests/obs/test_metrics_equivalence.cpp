// Engine-equivalence of the instrumentation hooks: a preemption-heavy
// scenario run under the threaded engine (§4.1) and the procedural engine
// (§4.2) must fill the metrics registry with IDENTICAL values — every hook
// reading derives from simulated time and shared scheduler state, never from
// engine internals or host time. Also pins the subscription contract of the
// rtos::Observer lists: consumers compose in any order, a double
// subscription delivers once, and destroyed consumers unsubscribe.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/shared_variable.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "rtos/processor.hpp"

namespace f = rtsc::fault;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// Three tasks, repeated interrupts: H preempts whatever runs every 100us,
/// M wakes twice, L grinds through a long compute. Several preemptions,
/// nested ones included.
std::vector<o::MetricSample> run_scenario(r::EngineKind engine) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     engine);
    cpu.set_overheads(r::RtosOverheads::uniform(3_us));

    o::MetricsRegistry reg;
    o::MetricsCollector collector(reg);
    collector.attach(cpu);

    m::Event tick("tick", m::EventPolicy::fugitive);
    m::Event nudge("nudge", m::EventPolicy::fugitive);
    cpu.create_task({.name = "H", .priority = 9}, [&](r::Task& self) {
        for (int i = 0; i < 5; ++i) {
            tick.await();
            self.compute(15_us);
        }
    });
    cpu.create_task({.name = "M", .priority = 5}, [&](r::Task& self) {
        for (int i = 0; i < 2; ++i) {
            nudge.await();
            self.compute(40_us);
        }
    });
    cpu.create_task({.name = "L", .priority = 1},
                    [](r::Task& self) { self.compute(400_us); });
    sim.spawn("hw", [&] {
        for (int i = 0; i < 5; ++i) {
            k::wait(100_us);
            tick.signal();
            if (i == 1 || i == 3) nudge.signal();
        }
    });
    sim.run();
    return reg.snapshot();
}

/// How a MetricsCollector and an Attribution get onto one processor.
enum class Wiring {
    set_attribution,             ///< set_attribution, then attach
    attach_then_set_attribution, ///< attach, then set_attribution
    collector_first,             ///< both attached directly, collector first
    attribution_first,           ///< both attached directly, analyzer first
};

struct ObservedRun {
    std::vector<std::string> metrics; ///< registry snapshot, "name=value"
    std::vector<std::string> jobs;    ///< one row per attributed job
};

/// H preempts L while L holds the shared variable `sv`, then blocks on it
/// (waiting_resource) until L releases it: scheduler runs, dispatches, a
/// preemption and a blocked-on-resource share all show up.
ObservedRun run_resource_block(r::EngineKind engine, Wiring wiring) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     engine);
    cpu.set_overheads(r::RtosOverheads::uniform(2_us));
    o::MetricsRegistry reg;
    o::MetricsCollector collector(reg);
    o::Attribution attr;
    switch (wiring) {
        case Wiring::set_attribution:
            collector.set_attribution(&attr);
            collector.attach(cpu);
            break;
        case Wiring::attach_then_set_attribution:
            collector.attach(cpu);
            collector.set_attribution(&attr);
            break;
        case Wiring::collector_first:
            collector.attach(cpu);
            attr.attach(cpu);
            break;
        case Wiring::attribution_first:
            attr.attach(cpu);
            collector.attach(cpu);
            break;
    }

    m::SharedVariable<int> sv("sv");
    cpu.create_task({.name = "L", .priority = 1},
                    [&](r::Task&) { sv.write(1, 40_us); });
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        self.sleep_for(10_us);
        sv.write(2, 5_us);
    });
    sim.run();

    ObservedRun out;
    for (const o::MetricSample& sample : reg.snapshot())
        out.metrics.push_back(sample.name + "=" + std::to_string(sample.value));
    for (std::size_t i = 0; i < attr.job_count(); ++i) {
        const o::Attribution::JobView v = attr.job_view(i);
        const auto& j = v.blame;
        std::string row = v.task->name() + " #" + std::to_string(j.index) +
                          " response=" + j.response().to_string() +
                          " exec=" + j.exec.to_string() +
                          " overhead=" + j.overhead.to_string();
        for (const auto& [who, t] : v.preempted_by)
            row += " preempted_by:" + who->name() + "=" + t.to_string();
        for (const auto& [what, t] : v.blocked_on)
            row += " blocked_on:" + what + "=" + t.to_string();
        out.jobs.push_back(row);
    }
    return out;
}

/// The registry rows a collector records without an analyzer: every row
/// except the set_attribution blame catalogue.
std::vector<std::string> without_blame(const std::vector<std::string>& rows) {
    std::vector<std::string> out;
    for (const std::string& row : rows)
        if (row.find(".preempted_by.") == std::string::npos &&
            row.find(".blocked_on.") == std::string::npos &&
            row.find(".blame.") == std::string::npos)
            out.push_back(row);
    return out;
}

bool has_row(const std::vector<std::string>& rows, const std::string& part) {
    for (const std::string& row : rows)
        if (row.find(part) != std::string::npos) return true;
    return false;
}

constexpr r::EngineKind kEngines[] = {r::EngineKind::procedure_calls,
                                      r::EngineKind::rtos_thread};

} // namespace

TEST(MetricsEquivalence, BothEnginesProduceIdenticalSnapshots) {
    const auto procedural = run_scenario(r::EngineKind::procedure_calls);
    const auto threaded = run_scenario(r::EngineKind::rtos_thread);

    ASSERT_FALSE(procedural.empty());
    ASSERT_EQ(procedural.size(), threaded.size());
    for (std::size_t i = 0; i < procedural.size(); ++i) {
        EXPECT_EQ(procedural[i].name, threaded[i].name);
        EXPECT_DOUBLE_EQ(procedural[i].value, threaded[i].value)
            << procedural[i].name;
    }
}

TEST(MetricsEquivalence, CollectorCatalogueIsPlausible) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    o::MetricsRegistry reg;
    o::MetricsCollector collector(reg);
    collector.attach(cpu);

    m::Event irq("irq", m::EventPolicy::fugitive);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        irq.await();
        self.compute(20_us);
    });
    cpu.create_task({.name = "L", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.spawn("hw", [&] {
        k::wait(50_us);
        irq.signal();
    });
    sim.run();

    // One preemption: H interrupts L at 50us.
    ASSERT_NE(reg.find_counter("cpu.cpu.preemptions"), nullptr);
    EXPECT_EQ(reg.find_counter("cpu.cpu.preemptions")->value(), 1u);
    // Four dispatches: H (runs to its await), L, H again, L again.
    ASSERT_NE(reg.find_counter("cpu.cpu.ctx_switches"), nullptr);
    EXPECT_EQ(reg.find_counter("cpu.cpu.ctx_switches")->value(), 4u);
    // Scheduler ran at least once per dispatch.
    ASSERT_NE(reg.find_counter("cpu.cpu.scheduler_runs"), nullptr);
    EXPECT_GE(reg.find_counter("cpu.cpu.scheduler_runs")->value(), 4u);
    // H has two activations (creation -> first await, irq -> termination),
    // both completed: two response samples. Same release/completion rule as
    // trace::ConstraintMonitor.
    ASSERT_NE(reg.find_histogram("task.H.response_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("task.H.response_ps")->count(), 2u);
    ASSERT_NE(reg.find_counter("task.H.activations"), nullptr);
    EXPECT_EQ(reg.find_counter("task.H.activations")->value(), 2u);
    ASSERT_NE(reg.find_counter("task.L.activations"), nullptr);
    EXPECT_EQ(reg.find_counter("task.L.activations")->value(), 1u);
    // First H episode: sched(5) + load(5) before it reaches the await at
    // 10us; the irq episode adds the 20us compute plus switch overheads.
    const auto* hr = reg.find_histogram("task.H.response_ps");
    EXPECT_GE(hr->min(), Time::us(10).raw_ps());
    EXPECT_GE(hr->max(), Time::us(20).raw_ps());
    // Latency histograms saw every dispatch.
    ASSERT_NE(reg.find_histogram("cpu.cpu.sched_latency_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.sched_latency_ps")->count(), 4u);
    ASSERT_NE(reg.find_histogram("cpu.cpu.dispatch_latency_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.dispatch_latency_ps")->count(), 4u);
    // Ready-queue length sampled once per scheduler run.
    ASSERT_NE(reg.find_histogram("cpu.cpu.ready_queue_len"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.ready_queue_len")->count(),
              reg.find_counter("cpu.cpu.scheduler_runs")->value());
}

TEST(MetricsEquivalence, DirectAttachComposesInEitherOrder) {
    // A collector and an analyzer attached directly to one processor, in
    // either order, each see every event: the collector's catalogue and the
    // analyzer's jobs match what the set_attribution path produces.
    for (const auto engine : kEngines) {
        const ObservedRun ref = run_resource_block(engine, Wiring::set_attribution);
        // The model exercises the engine hooks and the resource block.
        ASSERT_FALSE(has_row(ref.metrics, "cpu.cpu.preemptions=0"));
        ASSERT_TRUE(has_row(ref.jobs, "blocked_on:sv="));
        for (const auto wiring :
             {Wiring::collector_first, Wiring::attribution_first}) {
            const ObservedRun got = run_resource_block(engine, wiring);
            EXPECT_EQ(got.metrics, without_blame(ref.metrics))
                << "wiring " << static_cast<int>(wiring);
            EXPECT_EQ(got.jobs, ref.jobs) << "wiring " << static_cast<int>(wiring);
        }
    }
}

TEST(MetricsEquivalence, SetAttributionAfterAttachFeedsTheAnalyzer) {
    // bench_obs_overhead plugs the analyzer in after attach(): the
    // collector subscribes it to the processors it already observes.
    for (const auto engine : kEngines) {
        const ObservedRun ref = run_resource_block(engine, Wiring::set_attribution);
        const ObservedRun got =
            run_resource_block(engine, Wiring::attach_then_set_attribution);
        ASSERT_TRUE(has_row(ref.metrics, ".blocked_on.sv="));
        EXPECT_EQ(got.metrics, ref.metrics);
        EXPECT_EQ(got.jobs, ref.jobs);
    }
}

TEST(MetricsEquivalence, SubscribingTwiceDeliversEachEventOnce) {
    struct Tally final : r::Observer {
        int states = 0, runs = 0, accesses = 0, markers = 0;
        void on_task_state(const r::Task&, r::TaskState, r::TaskState) override {
            ++states;
        }
        void on_scheduler_run(const r::Processor&, std::size_t) override {
            ++runs;
        }
        void on_access(const m::Relation&, const r::Task*, m::AccessKind,
                       bool) override {
            ++accesses;
        }
        void on_marker(const std::string&, const std::string&) override {
            ++markers;
        }
    };
    k::Simulator sim;
    r::Processor cpu("cpu");
    m::Event ev("ev");
    r::Task& victim = cpu.create_task({.name = "T", .priority = 1},
                                      [&](r::Task& self) {
                                          ev.signal();
                                          self.compute(50_us);
                                      });
    f::FaultPlan plan;
    plan.task_crashes.push_back({&victim, 20_us, false, {}});
    f::FaultInjector injector(sim, plan, 1);

    Tally once, twice;
    cpu.add_observer(once);
    ev.add_observer(once);
    injector.add_observer(once);
    for (int i = 0; i < 2; ++i) {
        cpu.add_observer(twice);
        ev.add_observer(twice);
        injector.add_observer(twice);
    }
    injector.arm();
    sim.run();

    ASSERT_GT(once.states, 0);
    ASSERT_GT(once.runs, 0);
    ASSERT_EQ(once.accesses, 1);
    ASSERT_EQ(once.markers, 1);
    EXPECT_EQ(twice.states, once.states);
    EXPECT_EQ(twice.runs, once.runs);
    EXPECT_EQ(twice.accesses, once.accesses);
    EXPECT_EQ(twice.markers, once.markers);
}

TEST(MetricsEquivalence, DestroyedObserversAreUnsubscribed) {
    // Observers destroyed before their processor must leave no dangling
    // subscription: the run below would touch freed memory otherwise
    // (caught by the ASan/UBSan leg). Covers a collector and an analyzer
    // attached directly, and both halves of a set_attribution pair dying
    // while the other half lives on.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>());
    cpu.set_overheads(r::RtosOverheads::uniform(2_us));
    o::MetricsRegistry reg, survivor_reg;
    o::Attribution survivor;                      // outlives its collector
    o::MetricsCollector survivor_coll(survivor_reg); // outlives its analyzer
    {
        o::MetricsCollector collector(reg);
        collector.attach(cpu);
        // The catalogue exists as soon as attach() runs (stable snapshots
        // even for processors that never schedule)...
        ASSERT_NE(reg.find_counter("cpu.cpu.ctx_switches"), nullptr);
        o::Attribution attr;
        attr.attach(cpu);

        o::MetricsRegistry feeder_reg;
        o::MetricsCollector feeder(feeder_reg);
        feeder.set_attribution(&survivor);
        feeder.attach(cpu);
        o::Attribution dying;
        survivor_coll.set_attribution(&dying);
    }
    survivor_coll.attach(cpu); // must not reach the destroyed analyzer

    m::SharedVariable<int> sv("sv");
    cpu.create_task({.name = "L", .priority = 1},
                    [&](r::Task&) { sv.write(1, 40_us); });
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        self.sleep_for(10_us);
        sv.write(2, 5_us);
    });
    sim.run();

    // ...and a collector outlived by its processor stops counting.
    EXPECT_EQ(reg.find_counter("cpu.cpu.ctx_switches")->value(), 0u);
    EXPECT_GT(survivor_reg.find_counter("cpu.cpu.ctx_switches")->value(), 0u);
    EXPECT_EQ(survivor.job_count(), 3u);
}
