// FaultInjector: deterministic replay is the acceptance criterion — the same
// FaultPlan and seed must produce bit-identical trace timelines, violation
// lists and fault counters across runs; a different seed must produce a
// different fault pattern; an empty plan must be perfectly transparent.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../rtos/recording.hpp"
#include "fault/fault_injector.hpp"
#include "kernel/simulator.hpp"
#include "mcse/message_queue.hpp"
#include "rtos/interrupt.hpp"
#include "rtos/processor.hpp"
#include "trace/constraints.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace tr = rtsc::trace;
namespace f = rtsc::fault;
using rtsc::test::RecordingObserver;
using namespace rtsc::kernel::time_literals;

namespace {

struct CampaignResult {
    std::vector<std::string> log;        ///< task-state transition timeline
    std::vector<std::string> violations; ///< constraint violations, in order
    f::FaultInjector::Counters counters;
    std::uint64_t line_raised = 0;
    std::uint64_t line_dropped = 0;
    std::uint64_t line_serviced = 0;
    std::uint64_t queue_lost = 0;

    bool operator==(const CampaignResult& o) const {
        return log == o.log && violations == o.violations &&
               counters.jittered_computes == o.counters.jittered_computes &&
               counters.irqs_dropped == o.counters.irqs_dropped &&
               counters.irqs_bursted == o.counters.irqs_bursted &&
               counters.irqs_spurious == o.counters.irqs_spurious &&
               counters.messages_lost == o.counters.messages_lost &&
               line_raised == o.line_raised && line_dropped == o.line_dropped &&
               line_serviced == o.line_serviced && queue_lost == o.queue_lost;
    }
};

/// An interrupt-driven producer/consumer model under a fault campaign:
/// hardware pulses an interrupt line every 10us; the ISR pushes a message;
/// a consumer task processes each message for 3us under a response bound.
CampaignResult run_campaign(std::uint64_t seed, bool with_faults,
                            bool with_injector = true) {
    CampaignResult out;
    k::Simulator sim;
    sim.reporter().set_sink([](k::Severity, const std::string&) {});
    r::Processor cpu("cpu");
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));
    RecordingObserver rec;
    cpu.add_observer(rec);

    r::InterruptLine irq("irq");
    m::MessageQueue<int> q("q", 8);
    tr::ConstraintMonitor mon;

    r::Task& consumer =
        cpu.create_task({.name = "consumer", .priority = 1}, [&](r::Task& self) {
            int v = 0;
            while (q.read_for(v, 100_us)) self.compute(3_us);
        });
    // A burst that stacks messages makes one consumer activation span
    // several of them, blowing this bound — violations depend on the
    // injected fault pattern and must replay identically.
    mon.require_response(consumer, 9_us, "consumer.response");

    irq.attach_isr(cpu, 5, [&](r::Task&) { (void)q.try_write(1); }, 2_us);

    sim.spawn("pulse", [&] {
        for (int i = 0; i < 40; ++i) {
            k::wait(10_us);
            irq.raise();
        }
    });

    f::FaultPlan plan;
    if (with_faults) {
        plan.exec_jitter.push_back({&consumer, 0.5, 0.5, 2.0});
        plan.irq_drops.push_back({&irq, 0.25});
        plan.irq_bursts.push_back({&irq, 0.2, 1, 2});
        plan.irq_spurious.push_back({&irq, 50_us, 10_us, 350_us});
        plan.message_losses.push_back({&q, 0.2});
    }
    std::unique_ptr<f::FaultInjector> inj;
    if (with_injector) {
        inj = std::make_unique<f::FaultInjector>(sim, plan, seed);
        inj->arm();
    }
    sim.run();

    out.log = rec.strings();
    for (const auto& v : mon.violations()) {
        std::ostringstream os;
        os << v.constraint << "@" << v.at.to_string()
           << " measured=" << v.measured.to_string();
        out.violations.push_back(os.str());
    }
    if (inj) out.counters = inj->counters();
    out.line_raised = irq.raised();
    out.line_dropped = irq.dropped();
    out.line_serviced = irq.serviced();
    out.queue_lost = q.lost();
    return out;
}

} // namespace

TEST(FaultInjection, SameSeedReplaysBitIdentically) {
    const CampaignResult first = run_campaign(42, true);
    const CampaignResult second = run_campaign(42, true);
    EXPECT_EQ(first, second);
    // The campaign actually did something worth replaying.
    EXPECT_GT(first.counters.irqs_dropped + first.counters.irqs_bursted +
                  first.counters.irqs_spurious + first.counters.messages_lost +
                  first.counters.jittered_computes,
              0u);
}

TEST(FaultInjection, DifferentSeedChangesTheFaultPattern) {
    const CampaignResult a = run_campaign(42, true);
    const CampaignResult b = run_campaign(7, true);
    EXPECT_NE(a.log, b.log);
}

TEST(FaultInjection, EmptyPlanIsTransparent) {
    const CampaignResult armed = run_campaign(42, false, true);
    const CampaignResult bare = run_campaign(42, false, false);
    EXPECT_EQ(armed.log, bare.log);
    EXPECT_EQ(armed.violations, bare.violations);
    EXPECT_EQ(armed.counters.jittered_computes, 0u);
    EXPECT_EQ(armed.counters.irqs_dropped, 0u);
    EXPECT_EQ(armed.counters.irqs_bursted, 0u);
    EXPECT_EQ(armed.counters.irqs_spurious, 0u);
    EXPECT_EQ(armed.counters.messages_lost, 0u);
    EXPECT_EQ(armed.line_dropped, 0u);
    EXPECT_EQ(armed.queue_lost, 0u);
}

TEST(FaultInjection, CountersAgreeWithTheModel) {
    const CampaignResult res = run_campaign(42, true);
    // Every drop decided by the injector's filter shows up on the line
    // (max_pending is unbounded here, so the filter is the only drop cause).
    EXPECT_EQ(res.counters.irqs_dropped, res.line_dropped);
    // raise() is counted once per hardware pulse plus one per spurious raise.
    EXPECT_EQ(res.line_raised, 40u + res.counters.irqs_spurious);
    // Spurious generator: period 50us with <=10us jitter until 350us.
    EXPECT_GE(res.counters.irqs_spurious, 5u);
    EXPECT_LE(res.counters.irqs_spurious, 7u);
    // Lost messages are recorded by the channel too.
    EXPECT_EQ(res.counters.messages_lost, res.queue_lost);
    // Some pulses survived to be serviced.
    EXPECT_GT(res.line_serviced, 0u);
}

TEST(FaultInjection, ArmTwiceThrows) {
    k::Simulator sim;
    f::FaultInjector inj(sim, {}, 1);
    inj.arm();
    EXPECT_THROW(inj.arm(), k::SimulationError);
}

TEST(FaultInjection, ScheduledCrashKillsAndRestarts) {
    for (bool restart : {false, true}) {
        k::Simulator sim;
        sim.reporter().set_sink([](k::Severity, const std::string&) {});
        r::Processor cpu("cpu");
        int incarnations = 0;
        r::Task& t = cpu.create_task({.name = "t", .priority = 1},
                                     [&](r::Task& self) {
                                         ++incarnations;
                                         for (;;) {
                                             self.compute(5_us);
                                             self.sleep_for(5_us);
                                         }
                                     });
        f::FaultPlan plan;
        plan.task_crashes.push_back({&t, 100_us, restart, 10_us});
        f::FaultInjector inj(sim, plan, 99);
        inj.arm();
        sim.run_until(300_us);

        EXPECT_EQ(inj.counters().tasks_crashed, 1u) << restart;
        if (restart) {
            EXPECT_EQ(inj.counters().tasks_restarted, 1u);
            EXPECT_EQ(t.restarts(), 1u);
            EXPECT_EQ(incarnations, 2);
            EXPECT_FALSE(t.terminated());
        } else {
            EXPECT_EQ(inj.counters().tasks_restarted, 0u);
            EXPECT_TRUE(t.killed());
            EXPECT_TRUE(t.terminated());
            EXPECT_EQ(incarnations, 1);
        }
    }
}

namespace {

/// Fault markers with their instants ("40 us restart:t").
struct MarkerLog final : r::Observer {
    explicit MarkerLog(k::Simulator& s) : sim(s) {}
    void on_marker(const std::string& category,
                   const std::string& name) override {
        lines.push_back(sim.now().to_string() + " " + category + " " + name);
    }
    k::Simulator& sim;
    std::vector<std::string> lines;
};

} // namespace

TEST(FaultInjection, CrashBetweenEndAndRetirementMatchesAcrossEngines) {
    // The task's body returns at 30 us; its terminal save (30-35) and
    // scheduling pass (35-40) retire it at 40. A crash scheduled at 32 finds
    // the task already terminated on both engines: nothing is crashed, and a
    // restart waits for the retirement. (The end of the task's kernel
    // process differs here: the procedural engine pays the pass in the
    // task's own thread, the threaded engine after that thread ended.)
    for (const bool restart : {false, true}) {
        std::vector<std::string> logs[2];
        std::vector<std::string> markers[2];
        f::FaultInjector::Counters counters[2];
        const r::EngineKind kinds[2] = {r::EngineKind::procedure_calls,
                                        r::EngineKind::rtos_thread};
        for (int e = 0; e < 2; ++e) {
            k::Simulator sim;
            r::Processor cpu("cpu",
                             std::make_unique<r::PriorityPreemptivePolicy>(),
                             kinds[e]);
            cpu.set_overheads(r::RtosOverheads::uniform(5_us));
            RecordingObserver rec;
            cpu.add_observer(rec);
            r::Task& t = cpu.create_task(
                {.name = "t", .priority = 1},
                [](r::Task& self) { self.compute(20_us); });
            f::FaultPlan plan;
            plan.task_crashes.push_back({&t, 32_us, restart, k::Time::zero()});
            f::FaultInjector inj(sim, plan, 7);
            MarkerLog log(sim);
            inj.add_observer(log);
            inj.arm();
            sim.run();

            logs[e] = rec.strings();
            markers[e] = log.lines;
            counters[e] = inj.counters();
            EXPECT_FALSE(t.killed()) << restart;
            EXPECT_EQ(t.restarts(), restart ? 1u : 0u);
        }
        EXPECT_EQ(logs[0], logs[1]) << restart;
        EXPECT_EQ(markers[0], markers[1]) << restart;
        for (const auto& c : counters) {
            EXPECT_EQ(c.tasks_crashed, 0u) << restart;
            EXPECT_EQ(c.tasks_restarted, restart ? 1u : 0u);
        }
        if (restart) {
            EXPECT_EQ(markers[0],
                      (std::vector<std::string>{"40 us fault restart:t"}));
            EXPECT_NE(std::find(logs[0].begin(), logs[0].end(),
                                "40 us t->created"),
                      logs[0].end());
        } else {
            EXPECT_TRUE(markers[0].empty());
        }
    }
}

TEST(FaultInjection, ExecJitterScalesComputeDurations) {
    // probability 1 and scale [2, 2]: every compute takes exactly twice as
    // long — deterministic check without relying on stream internals.
    k::Simulator sim;
    r::Processor cpu("cpu");
    r::Task& t = cpu.create_task({.name = "t", .priority = 1},
                                 [](r::Task& self) { self.compute(10_us); });
    f::FaultPlan plan;
    plan.exec_jitter.push_back({&t, 1.0, 2.0, 2.0});
    f::FaultInjector inj(sim, plan, 5);
    inj.arm();
    sim.run();
    EXPECT_EQ(sim.now(), 20_us);
    EXPECT_EQ(inj.counters().jittered_computes, 1u);
    EXPECT_EQ(t.stats().running_time, 20_us);
}

class ExecJitterDvfsTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(ExecJitterDvfsTest, JitterComposesAfterDvfsScaling) {
    // Composition order is scale-first-then-jitter, pinned to the exact
    // picosecond on both engines. 1'000'001 ps at a 1.5x stretch rounds half
    // up to 1'500'002, and the x2 jitter doubles that to 3'000'004 — whereas
    // jitter-first would give 2'000'002 * 1.5 = 3'000'003 exactly.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::StaticEdfPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel({{300'000, 1000}, {200'000, 1000}}));
    auto& pol = dynamic_cast<r::StaticEdfPolicy&>(cpu.policy());
    r::Task& t = cpu.create_task(
        {.name = "t", .priority = 1},
        [](r::Task& self) { self.compute(k::Time::ps(1'000'001)); });
    pol.declare_task(t, 1_us, 2_us); // U = 0.5 -> the 200 MHz point
    f::FaultPlan plan;
    plan.exec_jitter.push_back({&t, 1.0, 2.0, 2.0});
    f::FaultInjector inj(sim, plan, 5);
    inj.arm();
    sim.run();
    EXPECT_EQ(sim.now(), k::Time::ps(3'000'004));
    EXPECT_EQ(t.stats().running_time, k::Time::ps(3'000'004));
    // The stretched-and-jittered wall time all burns at the slow point.
    EXPECT_EQ(t.energy_exec(),
              r::Energy(200'000) * 1000 * 1000 * 3'000'004);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ExecJitterDvfsTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread));
