// Task public-API tests: identity, priorities (base / inherited /
// effective), EDF deadline fields, stats_at folding, sleep_until semantics
// and error paths.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
using k::Time;
using namespace rtsc::kernel::time_literals;

TEST(TaskApiTest, IdentityAndDefaults) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    auto& t = cpu.create_task({.name = "worker", .priority = 7},
                              [](r::Task& self) { self.compute(1_us); });
    EXPECT_EQ(t.name(), "worker");
    EXPECT_EQ(&t.processor(), &cpu);
    EXPECT_EQ(t.base_priority(), 7);
    EXPECT_EQ(t.effective_priority(), 7);
    EXPECT_FALSE(t.has_deadline());
    EXPECT_EQ(t.state(), r::TaskState::created);
    sim.run();
    EXPECT_TRUE(t.terminated());
}

TEST(TaskApiTest, AutoNamingWhenEmpty) {
    k::Simulator sim;
    r::Processor cpu("cpu0");
    auto& t0 = cpu.create_task({.name = "", .priority = 1}, [](r::Task&) {});
    auto& t1 = cpu.create_task({.name = "", .priority = 1}, [](r::Task&) {});
    EXPECT_EQ(t0.name(), "cpu0.task0");
    EXPECT_EQ(t1.name(), "cpu0.task1");
}

TEST(TaskApiTest, InheritedPriorityOverridesBase) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    auto& t = cpu.create_task({.name = "t", .priority = 2},
                              [](r::Task& self) { self.compute(1_us); });
    t.inherit_priority(9);
    EXPECT_EQ(t.effective_priority(), 9);
    EXPECT_EQ(t.base_priority(), 2); // base untouched
    t.restore_base_priority();
    EXPECT_EQ(t.effective_priority(), 2);
}

TEST(TaskApiTest, DeadlineFieldRoundTrip) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    auto& t = cpu.create_task({.name = "t", .priority = 1}, [](r::Task&) {});
    t.set_absolute_deadline(123_us);
    EXPECT_TRUE(t.has_deadline());
    EXPECT_EQ(t.absolute_deadline(), 123_us);
    t.clear_deadline();
    EXPECT_FALSE(t.has_deadline());
}

TEST(TaskApiTest, StatsAtFoldsOpenEpisode) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.create_task({.name = "t", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.run_until(40_us); // mid-compute
    const r::Task& t = *cpu.tasks()[0];
    // Closed accumulators only reflect finished episodes...
    EXPECT_EQ(t.stats().running_time, Time::zero());
    // ...stats_at folds the in-progress Running span.
    EXPECT_EQ(t.stats_at(40_us).running_time, 40_us);
    sim.run();
    EXPECT_EQ(t.stats().running_time, 100_us);
}

TEST(TaskApiTest, SleepUntilPastInstantDoesNotBlock) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    Time after;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        self.compute(50_us);
        self.sleep_until(20_us); // already past: must not block backwards
        after = sim.now();
        self.compute(10_us);
    });
    sim.run();
    EXPECT_EQ(after, 50_us);
    EXPECT_EQ(sim.now(), 60_us);
}

TEST(TaskApiTest, DelayIsComputeAlias) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.create_task({.name = "t", .priority = 1},
                    [](r::Task& self) { self.delay(25_us); });
    sim.run();
    EXPECT_EQ(cpu.tasks()[0]->stats().running_time, 25_us);
    EXPECT_EQ(sim.now(), 25_us);
}

TEST(TaskApiTest, MakeReadyOnTerminatedTaskIsAnError) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    auto& t = cpu.create_task({.name = "t", .priority = 1}, [](r::Task&) {});
    sim.run();
    ASSERT_TRUE(t.terminated());
    EXPECT_THROW(cpu.engine().make_ready(t), k::SimulationError);
}

TEST(TaskApiTest, ProcessorRequiresPolicy) {
    k::Simulator sim;
    EXPECT_THROW(r::Processor("bad", nullptr), k::SimulationError);
}

TEST(TaskApiTest, PreemptionLockUnderflowDetected) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    EXPECT_THROW(cpu.unlock_preemption(), k::SimulationError);
}

TEST(TaskApiTest, JobEdgeTableOverEveryTransition) {
    // The one job rule, cell by cell: a release readies a task out of a
    // synchronization wait or its creation; a running task that blocks on
    // synchronization or terminates completes its job; a kill or crash
    // aborts it from any state. Everything else, self-transitions included,
    // is no boundary.
    using S = r::TaskState;
    using E = r::JobEdge;
    k::Simulator sim;
    r::Processor cpu("cpu");
    r::Task& plain = cpu.create_task({.name = "plain", .priority = 1},
                                     [](r::Task&) {});
    r::Task& killed = cpu.create_task({.name = "killed", .priority = 1},
                                      [](r::Task&) {});
    r::Task& crashed = cpu.create_task(
        {.name = "crashed", .priority = 2},
        [](r::Task&) { throw std::runtime_error("expected crash"); });
    killed.kill();
    sim.run();
    ASSERT_FALSE(plain.killed() || plain.crashed());
    ASSERT_TRUE(killed.killed());
    ASSERT_TRUE(crashed.crashed());

    // The boundary cells; every other (from, to) pair is E::none.
    struct Cell {
        S from, to;
        E plain, faulted; ///< faulted: the task was killed or crashed
    };
    const Cell boundaries[] = {
        {S::created, S::ready, E::release, E::release},
        {S::waiting, S::ready, E::release, E::release},
        {S::running, S::waiting, E::completion, E::completion},
        {S::running, S::terminated, E::completion, E::abort},
        {S::created, S::terminated, E::none, E::abort},
        {S::ready, S::terminated, E::none, E::abort},
        {S::waiting, S::terminated, E::none, E::abort},
        {S::waiting_resource, S::terminated, E::none, E::abort},
    };
    const S states[] = {S::created, S::ready, S::running,
                        S::waiting, S::waiting_resource, S::terminated};
    for (const r::Task* t : {&plain, &killed, &crashed})
        for (const S from : states)
            for (const S to : states) {
                E want = E::none;
                for (const Cell& c : boundaries)
                    if (c.from == from && c.to == to)
                        want = t == &plain ? c.plain : c.faulted;
                EXPECT_EQ(r::job_edge(*t, from, to), want)
                    << t->name() << ": " << r::to_string(from) << " -> "
                    << r::to_string(to);
            }
}
