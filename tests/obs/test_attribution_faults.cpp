// Attribution under faults: kill/restart and watchdog recovery mid-job must
// still produce a conserving decomposition — the aborted job's components
// sum bit-exactly to its (truncated) response window, the fresh incarnation
// opens a new job, and everything stays engine-equivalent.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/watchdog.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/shared_variable.hpp"
#include "obs/attribution.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace f = rtsc::fault;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

const r::EngineKind kEngines[] = {r::EngineKind::procedure_calls,
                                  r::EngineKind::rtos_thread};

const char* label_of(r::EngineKind kind) {
    return kind == r::EngineKind::procedure_calls ? "procedural" : "threaded";
}

std::vector<std::string> serialize(const o::Attribution& a) {
    std::vector<std::string> rows;
    for (const auto& j : a.jobs())
        rows.push_back(j.task + " #" + std::to_string(j.index) +
                       (j.aborted ? " aborted" : "") +
                       " rel=" + std::to_string(j.release.raw_ps()) +
                       " end=" + std::to_string(j.end.raw_ps()) +
                       " exec=" + std::to_string(j.exec.raw_ps()) +
                       " pre=" + std::to_string(j.preemption.raw_ps()) +
                       " blk=" + std::to_string(j.blocking.raw_ps()) +
                       " ov=" + std::to_string(j.overhead.raw_ps()) +
                       " intr=" + std::to_string(j.interrupt.raw_ps()));
    return rows;
}

void expect_conserving(const o::Attribution& a, const char* label) {
    ASSERT_FALSE(a.jobs().empty()) << label;
    for (const auto& j : a.jobs())
        EXPECT_EQ(j.components_sum(), j.response())
            << label << ": " << j.task << " #" << j.index;
}

} // namespace

TEST(AttributionFaults, KillMidComputeYieldsAbortedConservingJob) {
    for (const auto kind : kEngines) {
        const char* label = label_of(kind);
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        o::Attribution attr;
        attr.attach(cpu);

        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [](r::Task& self) {
                                         self.compute(100_us);
                                     });
        sim.spawn("killer", [&] {
            k::wait(50_us);
            a.kill();
        });
        sim.run();
        expect_conserving(attr, label);

        const auto jobs = attr.jobs_for("a");
        ASSERT_EQ(jobs.size(), 1u) << label;
        EXPECT_TRUE(jobs[0]->aborted) << label;
        // Released at 0, killed at 50: sched+load overhead 0-10, then 40us
        // of its 100us compute.
        EXPECT_EQ(jobs[0]->response(), 50_us) << label;
        EXPECT_EQ(jobs[0]->exec, 40_us) << label;
        EXPECT_EQ(jobs[0]->overhead, 10_us) << label;
    }
}

TEST(AttributionFaults, RestartOpensAFreshJob) {
    for (const auto kind : kEngines) {
        const char* label = label_of(kind);
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        o::Attribution attr;
        attr.attach(cpu);

        int incarnation = 0;
        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [&](r::Task& self) {
                                         ++incarnation;
                                         self.compute(incarnation == 1
                                                          ? 100_us
                                                          : 20_us);
                                     });
        sim.spawn("supervisor", [&] {
            k::wait(30_us);
            a.kill();
            if (!a.retired()) k::wait(a.retired_event());
            cpu.restart_task(a, 10_us);
        });
        sim.run();
        expect_conserving(attr, label);

        const auto jobs = attr.jobs_for("a");
        ASSERT_EQ(jobs.size(), 2u) << label;
        EXPECT_TRUE(jobs[0]->aborted) << label;
        EXPECT_EQ(jobs[0]->response(), 30_us) << label;
        EXPECT_EQ(jobs[0]->exec, 30_us) << label; // zero overheads
        EXPECT_FALSE(jobs[1]->aborted) << label;
        EXPECT_EQ(jobs[1]->release, 40_us) << label; // kill + 10us delay
        EXPECT_EQ(jobs[1]->exec, 20_us) << label;
        EXPECT_EQ(incarnation, 2) << label;
    }
}

TEST(AttributionFaults, KillWhileBlockedClosesTheEpisode) {
    for (const auto kind : kEngines) {
        const char* label = label_of(kind);
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        o::Attribution attr;
        attr.attach(cpu);

        m::SharedVariable<int> sv("sv", 0, m::Protection::none);
        cpu.create_task({.name = "low", .priority = 1}, [&](r::Task& self) {
            auto g = sv.access();
            self.compute(200_us);
        });
        r::Task& high = cpu.create_task({.name = "high",
                                         .priority = 5,
                                         .start_time = Time::us(10)},
                                        [&](r::Task& self) {
                                            auto g = sv.access();
                                            self.compute(10_us);
                                        });
        sim.spawn("killer", [&] {
            k::wait(60_us);
            high.kill();
        });
        sim.run();
        expect_conserving(attr, label);

        // high blocks on sv at 10 and dies still blocked at 60: the aborted
        // job charges the full 50us wait to the resource, and the episode is
        // closed at the kill instant.
        const auto jobs = attr.jobs_for("high");
        ASSERT_EQ(jobs.size(), 1u) << label;
        EXPECT_TRUE(jobs[0]->aborted) << label;
        EXPECT_EQ(jobs[0]->blocking, 50_us) << label;
        ASSERT_EQ(jobs[0]->blocked_on.size(), 1u) << label;
        EXPECT_EQ(jobs[0]->blocked_on[0].first, "sv") << label;
        ASSERT_EQ(attr.episodes().size(), 1u) << label;
        EXPECT_EQ(attr.episodes()[0].victim, "high") << label;
        EXPECT_EQ(attr.episodes()[0].end, 60_us) << label;
        EXPECT_TRUE(attr.episodes()[0].inversion) << label;
    }
}

TEST(AttributionFaults, WatchdogRestartRecoveryStaysConservingAndEquivalent) {
    std::vector<std::vector<std::string>> runs;
    for (const auto kind : kEngines) {
        const char* label = label_of(kind);
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        o::Attribution attr;
        attr.attach(cpu);

        m::Event parked("parked", m::EventPolicy::boolean);
        f::Watchdog* wdp = nullptr;
        int incarnation = 0;
        r::Task& a = cpu.create_task(
            {.name = "a", .priority = 2}, [&](r::Task& self) {
                const int inc = ++incarnation;
                if (inc == 1) {
                    self.compute(200_us); // never pets: the watchdog fires
                } else {
                    for (int i = 0; i < 3; ++i) {
                        self.compute(10_us);
                        if (wdp != nullptr) wdp->pet();
                    }
                    parked.await(); // stay alive, heartbeats stop
                }
            });
        f::Watchdog wd(a, 50_us,
                       {.action = f::RecoveryAction::restart,
                        .restart_delay = 10_us});
        wdp = &wd;
        // Fires at 50 (kill + restart), incarnation 2 runs 60..90 petting,
        // then parks; stop before the 140us re-fire.
        sim.run_until(130_us);
        expect_conserving(attr, label);

        EXPECT_EQ(wd.timeouts(), 1u) << label;
        EXPECT_EQ(incarnation, 2) << label;
        const auto jobs = attr.jobs_for("a");
        ASSERT_EQ(jobs.size(), 2u) << label;
        EXPECT_TRUE(jobs[0]->aborted) << label;
        EXPECT_EQ(jobs[0]->response(), 50_us) << label;
        EXPECT_FALSE(jobs[1]->aborted) << label;
        EXPECT_EQ(jobs[1]->release, 60_us) << label;
        EXPECT_EQ(jobs[1]->exec, 30_us) << label;
        runs.push_back(serialize(attr));
    }
    EXPECT_EQ(runs[0], runs[1]);
}
