// MCSE SharedVariable relation tests: mutual exclusion, waiting-resource
// state, preemption during access (Figure 7 mechanics), the preemption-lock
// fix, and the priority-inheritance extension.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/shared_variable.hpp"
#include "rtos/processor.hpp"
#include "../rtos/recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using rtsc::test::RecordingObserver;
using k::Time;
using namespace rtsc::kernel::time_literals;

class SharedVarTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(SharedVarTest, ReadWriteRoundTrip) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::SharedVariable<int> sv("sv", 11);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        EXPECT_EQ(sv.read(), 11);
        sv.write(22, 2_us);
        EXPECT_EQ(sv.read(1_us), 22);
        self.compute(1_us);
    });
    sim.run();
    EXPECT_FALSE(sv.locked());
}

TEST_P(SharedVarTest, AccessDurationConsumesCpuTime) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::SharedVariable<int> sv("sv", 0);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        sv.write(1, 10_us);
        (void)sv.read(5_us);
    });
    sim.run();
    EXPECT_EQ(sim.now(), 15_us);
    EXPECT_EQ(cpu.tasks()[0]->stats().running_time, 15_us);
}

TEST_P(SharedVarTest, MutualExclusionBlocksSecondAccessor) {
    k::Simulator sim;
    r::Processor cpu1("cpu1", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    r::Processor cpu2("cpu2", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    m::SharedVariable<int> sv("sv", 0);
    std::vector<std::pair<std::string, Time>> sections;
    cpu1.create_task({.name = "a", .priority = 1}, [&](r::Task&) {
        auto g = sv.access();
        g.value() = 1;
        rtsc::kernel::wait(20_us); // hold across simulated time
        sections.emplace_back("a_end", sim.now());
    });
    cpu2.create_task({.name = "b", .priority = 1}, [&](r::Task&) {
        (void)sv.read(); // blocked until a releases
        sections.emplace_back("b_read", sim.now());
    });
    sim.run();
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].first, "a_end");
    EXPECT_EQ(sections[1].first, "b_read");
    EXPECT_EQ(sections[1].second, 20_us);
}

TEST_P(SharedVarTest, BlockedTaskEntersWaitingResourceState) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    m::SharedVariable<int> sv("sv", 0);
    // Low-priority holder starts first and is preempted mid-access by the
    // high-priority task, which then blocks on the resource.
    cpu.create_task({.name = "holder", .priority = 1}, [&](r::Task&) {
        (void)sv.read(50_us); // holds the resource for 50us of CPU
    });
    cpu.create_task({.name = "contender", .priority = 5, .start_time = 10_us},
                    [&](r::Task&) { (void)sv.read(5_us); });
    sim.run();
    const auto c = rec.of("contender");
    // ready@10, running@10, waiting_resource@10, ready@<release>, running...
    ASSERT_GE(c.size(), 5u);
    EXPECT_EQ(c[2].to, r::TaskState::waiting_resource);
    EXPECT_EQ(c[2].at, 10_us);
    // Holder was preempted at 10, resumes immediately (zero overheads) and
    // completes the remaining 40us of its access at 50; the release wakes the
    // contender, which preempts and runs its 5us read.
    EXPECT_EQ(c[3], (rtsc::test::Transition{50_us, "contender", r::TaskState::ready}));
    const auto& holder = *cpu.tasks()[0];
    EXPECT_EQ(holder.stats_at(sim.now()).waiting_resource_time, Time::zero());
    const auto& contender = *cpu.tasks()[1];
    EXPECT_EQ(contender.stats_at(sim.now()).waiting_resource_time, 40_us);
}

TEST_P(SharedVarTest, PreemptionLockProtectionPreventsPreemptionDuringAccess) {
    // The paper's fix: "This priority inversion problem can be avoided by
    // disabling preemption during access to shared data."
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    m::SharedVariable<int> sv("sv", 0, m::Protection::preemption_lock);
    cpu.create_task({.name = "holder", .priority = 1}, [&](r::Task&) {
        (void)sv.read(50_us);
    });
    cpu.create_task({.name = "interrupter", .priority = 5, .start_time = 10_us},
                    [&](r::Task& self) { self.compute(5_us); });
    sim.run();
    const auto& holder = *cpu.tasks()[0];
    EXPECT_EQ(holder.stats().preemptions, 0u);
    const auto i = rec.of("interrupter");
    // Becomes ready at 10 but only runs once the access ends at 50.
    EXPECT_EQ(i[0].at, 10_us);
    EXPECT_EQ(i[1], (rtsc::test::Transition{50_us, "interrupter",
                                            r::TaskState::running}));
    EXPECT_TRUE(cpu.preemption_allowed()); // lock released after access
}

TEST_P(SharedVarTest, PriorityInheritanceBoundsInversion) {
    // Classic three-task inversion: low holds the resource, high blocks on
    // it, and an unrelated medium task would otherwise starve low (and
    // therefore high). With inheritance, low runs at high's priority while
    // holding the resource, so medium cannot interleave.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    m::SharedVariable<int> sv("sv", 0, m::Protection::priority_inheritance);
    Time high_done, medium_started;
    cpu.create_task({.name = "low", .priority = 1},
                    [&](r::Task&) { (void)sv.read(100_us); });
    cpu.create_task({.name = "high", .priority = 9, .start_time = 10_us},
                    [&](r::Task&) {
                        (void)sv.read(5_us);
                        high_done = sim.now();
                    });
    cpu.create_task({.name = "medium", .priority = 5, .start_time = 20_us},
                    [&](r::Task& self) {
                        medium_started = sim.now();
                        self.compute(30_us);
                    });
    sim.run();
    // low runs 0-10 (10 of 100 done); high preempts, blocks at 10 and boosts
    // low to 9; low resumes and finishes the access at 100 despite medium
    // being ready from 20; high then reads 100-105; medium runs after high.
    EXPECT_EQ(high_done, 105_us);
    EXPECT_EQ(medium_started, 105_us);
    // Without inheritance medium would have run 20-50 first and high_done
    // would be 135us — asserted by the companion test below.
}

TEST_P(SharedVarTest, WithoutInheritanceMediumCausesInversion) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::SharedVariable<int> sv("sv", 0, m::Protection::none);
    Time high_done;
    cpu.create_task({.name = "low", .priority = 1},
                    [&](r::Task&) { (void)sv.read(100_us); });
    cpu.create_task({.name = "high", .priority = 9, .start_time = 10_us},
                    [&](r::Task&) {
                        (void)sv.read(5_us);
                        high_done = sim.now();
                    });
    cpu.create_task({.name = "medium", .priority = 5, .start_time = 20_us},
                    [&](r::Task& self) { self.compute(30_us); });
    sim.run();
    EXPECT_EQ(high_done, 135_us); // inversion: medium's 30us delay high
}

TEST_P(SharedVarTest, HighestPriorityWaiterAcquiresFirst) {
    k::Simulator sim;
    r::Processor cpu1("cpu1", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    r::Processor cpu2("cpu2", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    r::Processor cpu3("cpu3", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    m::SharedVariable<int> sv("sv", 0);
    std::vector<std::string> acquisitions;
    cpu1.create_task({.name = "holder", .priority = 1}, [&](r::Task&) {
        auto g = sv.access();
        rtsc::kernel::wait(50_us);
    });
    auto contender = [&](const std::string& name) {
        return [&, name](r::Task&) {
            (void)sv.read();
            acquisitions.push_back(name);
        };
    };
    cpu2.create_task({.name = "lowprio", .priority = 2, .start_time = 5_us},
                     contender("lowprio"));
    cpu3.create_task({.name = "highprio", .priority = 8, .start_time = 10_us},
                     contender("highprio"));
    sim.run();
    EXPECT_EQ(acquisitions, (std::vector<std::string>{"highprio", "lowprio"}));
}

TEST_P(SharedVarTest, GuardAllowsReadModifyWrite) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::SharedVariable<int> sv("sv", 10);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        {
            auto g = sv.access();
            g.value() += 5;
            self.compute(3_us);
            g.value() *= 2;
        }
        EXPECT_EQ(sv.read(), 30);
        self.compute(1_us);
    });
    sim.run();
}

TEST_P(SharedVarTest, UtilizationIsLockedFraction) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::SharedVariable<int> sv("sv", 0);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        self.compute(10_us);
        sv.write(1, 10_us); // locked 10-20
        self.compute(20_us);
    });
    sim.run();
    EXPECT_EQ(sim.now(), 40_us);
    EXPECT_NEAR(sv.utilization(), 0.25, 1e-9);
}

TEST(SharedVarKill, KillAfterPreemptingReleaseUnwindsTheReleaser) {
    // Leaving a Guard scope readies a higher-priority waiter, which preempts
    // the releaser inside the release itself. A kill that lands before the
    // releaser runs again unwinds it from there: ProcessKilled leaves the
    // guard's destructor, with the release recorded, and the run completes
    // the same way on both engines.
    std::vector<std::string> logs[2];
    const r::EngineKind kinds[2] = {r::EngineKind::procedure_calls,
                                    r::EngineKind::rtos_thread};
    for (int e = 0; e < 2; ++e) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kinds[e]);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);
        m::SharedVariable<int> sv("sv", 0);
        bool low_resumed = false;
        bool held_at_kill = false;
        int high_saw = -1;
        r::Task& low = cpu.create_task(
            {.name = "low", .priority = 1}, [&](r::Task& self) {
                {
                    auto g = sv.access();
                    g.value() = 1;
                    self.compute(20_us);
                } // readies "high", which preempts this task right here
                low_resumed = true;
                self.compute(10_us);
            });
        cpu.create_task({.name = "high", .priority = 2, .start_time = 10_us},
                        [&](r::Task& self) {
                            auto g = sv.access(); // blocks until low releases
                            high_saw = g.value();
                            g.value() = 2;
                            self.compute(40_us);
                        });
        // low holds sv 10-60 (preempted 10-40 while high arrives and
        // blocks); its release at 60 hands the CPU to high (save 60-65,
        // sched 65-70, load 70-75), which holds sv 75-115.
        sim.spawn("killer", [&] {
            k::wait(90_us);
            low.kill();
            held_at_kill = sv.locked();
        });
        sim.run();

        EXPECT_TRUE(low.killed());
        EXPECT_FALSE(low_resumed);
        EXPECT_TRUE(held_at_kill) << "the waiter must hold the variable";
        EXPECT_EQ(high_saw, 1);
        EXPECT_FALSE(sv.locked());
        // lock + unlock by each task: the killed releaser's unlock counts.
        EXPECT_EQ(sv.access_stats().accesses, 4u);
        const auto lt = rec.of("low");
        ASSERT_FALSE(lt.empty());
        EXPECT_EQ(lt.back().str(), "90 us low->terminated");
        logs[e] = rec.strings();
    }
    EXPECT_EQ(logs[0], logs[1]);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SharedVarTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "threaded";
                         });
