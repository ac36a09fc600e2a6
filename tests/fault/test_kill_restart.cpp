// Fault-tolerant task lifecycle: Task::kill() / Processor::restart_task()
// must behave identically in simulated time under BOTH engine
// implementations (§4.1 dedicated RTOS thread, §4.2 procedure calls):
//   - killing a Running task pays context-save + scheduling like a normal
//     leave, and the next ready task pays its context-load;
//   - killing a Ready / Waiting task unlinks it with no overhead charge;
//   - an exception escaping one task's body terminates only that task;
//   - a killed task can be restarted as a fresh incarnation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "../rtos/recording.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/semaphore.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using rtsc::test::RecordingObserver;
using namespace rtsc::kernel::time_literals;

namespace {

struct EngineCase {
    r::EngineKind kind;
    const char* label;
};

const EngineCase kEngines[] = {
    {r::EngineKind::procedure_calls, "procedure_calls"},
    {r::EngineKind::rtos_thread, "rtos_thread"},
};

/// Does any overhead charge start at `at`?
bool overhead_at(const RecordingObserver& rec, k::Time at) {
    for (const auto& o : rec.overheads)
        if (o.start == at) return true;
    return false;
}

} // namespace

TEST(KillRestart, KillWaitingTaskUnlinksWithoutCharges) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        m::Event ev("ev");
        bool resumed = false;
        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [&](r::Task& self) {
                                         self.compute(10_us);
                                         ev.await(); // never signalled
                                         resumed = true;
                                     });
        sim.spawn("killer", [&] {
            k::wait(50_us);
            a.kill();
        });
        sim.run();

        EXPECT_TRUE(a.killed()) << ec.label;
        EXPECT_FALSE(a.crashed()) << ec.label;
        EXPECT_TRUE(a.terminated()) << ec.label;
        EXPECT_TRUE(a.retired()) << ec.label;
        EXPECT_FALSE(resumed) << ec.label;
        const auto ts = rec.of("a");
        ASSERT_FALSE(ts.empty()) << ec.label;
        EXPECT_EQ(ts.back().str(), "50 us a->terminated") << ec.label;
        // A Waiting task's kill costs nothing: the last overhead is the
        // save+sched pair of its block at t=20.
        EXPECT_FALSE(overhead_at(rec, 50_us)) << ec.label;
        logs.push_back(rec.strings());
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, KillRunningTaskPaysSaveSchedAndSuccessorLoads) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [](r::Task& self) { self.compute(100_us); });
        cpu.create_task({.name = "b", .priority = 1},
                        [](r::Task& self) { self.compute(20_us); });
        sim.spawn("killer", [&] {
            k::wait(30_us);
            a.kill();
        });
        sim.run();

        // sched 0-5, a load 5-10, a runs 10-30 (killed); the unwind pays
        // save 30-35 + sched 35-40 like a normal leave; b loads 40-45 and
        // runs 45-65.
        EXPECT_TRUE(a.killed()) << ec.label;
        const auto ts = rec.strings();
        EXPECT_NE(std::find(ts.begin(), ts.end(), "30 us a->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "45 us b->running"), ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "65 us b->terminated"),
                  ts.end())
            << ec.label;
        // The kill's leave charges are visible as overheads at 30 (save) and
        // 35 (sched), then b's load at 40.
        EXPECT_TRUE(overhead_at(rec, 30_us)) << ec.label;
        EXPECT_TRUE(overhead_at(rec, 35_us)) << ec.label;
        EXPECT_TRUE(overhead_at(rec, 40_us)) << ec.label;
        logs.push_back(ts);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, KillReadyTaskLeavesRunningTaskUndisturbed) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        cpu.create_task({.name = "a", .priority = 2},
                        [](r::Task& self) { self.compute(100_us); });
        r::Task& b = cpu.create_task({.name = "b", .priority = 1},
                                     [](r::Task& self) { self.compute(20_us); });
        sim.spawn("killer", [&] {
            k::wait(30_us);
            b.kill();
        });
        sim.run();

        // b sits in the ready queue behind a; killing it at 30 charges
        // nothing and a's schedule is untouched: a runs 10-110.
        EXPECT_TRUE(b.killed()) << ec.label;
        const auto ts = rec.strings();
        EXPECT_NE(std::find(ts.begin(), ts.end(), "30 us b->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "110 us a->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_FALSE(overhead_at(rec, 30_us)) << ec.label;
        // b never ran.
        for (const auto& t : rec.of("b"))
            EXPECT_NE(t.to, r::TaskState::running) << ec.label;
        logs.push_back(ts);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, SelfKillThrowsAndPaysLeaveCharges) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        bool after_kill = false;
        r::Task& a = cpu.create_task({.name = "a", .priority = 1},
                                     [&](r::Task& self) {
                                         self.compute(20_us);
                                         self.kill(); // throws ProcessKilled
                                         after_kill = true;
                                     });
        sim.run();

        // sched 0-5, load 5-10, run 10-30, kill: save 30-35, sched 35-40.
        EXPECT_TRUE(a.killed()) << ec.label;
        EXPECT_FALSE(after_kill) << ec.label;
        const auto ts = rec.of("a");
        ASSERT_FALSE(ts.empty()) << ec.label;
        EXPECT_EQ(ts.back().str(), "30 us a->terminated") << ec.label;
        EXPECT_TRUE(overhead_at(rec, 30_us)) << ec.label;
        EXPECT_TRUE(overhead_at(rec, 35_us)) << ec.label;
        logs.push_back(rec.strings());
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, KillDuringContextLoadRedispatches) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [](r::Task& self) { self.compute(50_us); });
        cpu.create_task({.name = "b", .priority = 1},
                        [](r::Task& self) { self.compute(50_us); });
        sim.spawn("killer", [&] {
            k::wait(7_us); // a's context-load is charging 5-10
            a.kill();
        });
        sim.run();

        // a was granted the CPU but never reached Running: the kill voids
        // the grant, a fresh scheduling pass runs 7-12, b loads 12-17 and
        // runs 17-67. No context-save is charged (a had no context yet).
        EXPECT_TRUE(a.killed()) << ec.label;
        const auto ts = rec.strings();
        EXPECT_NE(std::find(ts.begin(), ts.end(), "7 us a->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "17 us b->running"), ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "67 us b->terminated"),
                  ts.end())
            << ec.label;
        for (const auto& t : rec.of("a"))
            EXPECT_NE(t.to, r::TaskState::running) << ec.label;
        logs.push_back(ts);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, ExceptionTerminatesOnlyTheThrowingTask) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        sim.reporter().set_sink([](k::Severity, const std::string&) {});
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [](r::Task& self) {
                                         self.compute(20_us);
                                         throw std::runtime_error("boom");
                                     });
        r::Task& b = cpu.create_task({.name = "b", .priority = 1},
                                     [](r::Task& self) { self.compute(30_us); });
        sim.run(); // must not propagate the exception

        EXPECT_TRUE(a.crashed()) << ec.label;
        EXPECT_FALSE(a.killed()) << ec.label;
        EXPECT_TRUE(a.terminated()) << ec.label;
        EXPECT_TRUE(b.terminated()) << ec.label;
        EXPECT_FALSE(b.crashed()) << ec.label;
        // The crash is charged like a normal leave: a dies at 30,
        // save 30-35, sched 35-40, b loads 40-45 and runs 45-75.
        const auto ts = rec.strings();
        EXPECT_NE(std::find(ts.begin(), ts.end(), "30 us a->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_NE(std::find(ts.begin(), ts.end(), "75 us b->terminated"),
                  ts.end())
            << ec.label;
        EXPECT_EQ(sim.reporter().count(k::Severity::warning), 1u) << ec.label;
        logs.push_back(ts);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, KillUnwindReleasesHeldSemaphore) {
    // a holds the semaphore when killed; the RAII guard on its stack must
    // release it during the unwind so b can proceed — on both engines.
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        RecordingObserver rec;
        cpu.add_observer(rec);

        m::Semaphore sem("sem", 1);
        bool b_done = false;
        r::Task& a = cpu.create_task({.name = "a", .priority = 2},
                                     [&](r::Task& self) {
                                         m::Semaphore::Guard g(sem);
                                         self.compute(100_us);
                                     });
        cpu.create_task({.name = "b", .priority = 1}, [&](r::Task& self) {
            self.compute(5_us);
            m::Semaphore::Guard g(sem);
            self.compute(5_us);
            b_done = true;
        });
        sim.spawn("killer", [&] {
            k::wait(20_us);
            a.kill();
        });
        sim.run();

        EXPECT_TRUE(a.killed()) << ec.label;
        EXPECT_TRUE(b_done) << ec.label;
        EXPECT_EQ(sem.value(), 1u) << ec.label;
        logs.push_back(rec.strings());
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, RestartRunsAFreshIncarnation) {
    std::vector<std::vector<std::string>> logs;
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        RecordingObserver rec;
        cpu.add_observer(rec);

        m::Event ev("ev");
        int incarnations = 0;
        r::Task& a = cpu.create_task({.name = "a", .priority = 1},
                                     [&](r::Task& self) {
                                         ++incarnations;
                                         self.compute(10_us);
                                         ev.await(); // hangs every time
                                     });
        sim.spawn("recover", [&] {
            k::wait(50_us);
            a.kill();
            if (!a.retired()) k::wait(a.retired_event());
            cpu.restart_task(a, 5_us);
        });
        sim.run();

        EXPECT_EQ(incarnations, 2) << ec.label;
        EXPECT_EQ(a.restarts(), 1u) << ec.label;
        EXPECT_FALSE(a.killed()) << ec.label; // cleared by the restart
        EXPECT_EQ(a.state(), r::TaskState::waiting) << ec.label;
        // Second incarnation: released at 55, sched 55-60, load 60-65,
        // runs 65-75, blocks on ev.
        const auto ts = rec.strings();
        EXPECT_NE(std::find(ts.begin(), ts.end(), "75 us a->waiting"), ts.end())
            << ec.label;
        logs.push_back(ts);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

TEST(KillRestart, RestartOfLiveTaskThrows) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    r::Task& a = cpu.create_task({.name = "a", .priority = 1},
                                 [](r::Task& self) { self.compute(10_us); });
    sim.spawn("meddler", [&] {
        k::wait(5_us);
        EXPECT_THROW(cpu.restart_task(a), k::SimulationError);
    });
    sim.run();
    EXPECT_TRUE(a.terminated());
    EXPECT_EQ(a.restarts(), 0u);
}

TEST(KillRestart, KillIsIdempotent) {
    for (const auto& ec : kEngines) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         ec.kind);
        m::Event ev("ev");
        r::Task& a = cpu.create_task({.name = "a", .priority = 1},
                                     [&](r::Task&) { ev.await(); });
        sim.spawn("killer", [&] {
            k::wait(10_us);
            a.kill();
            a.kill(); // second kill is a no-op
            k::wait(10_us);
            a.kill(); // kill after termination too
        });
        sim.run();
        EXPECT_TRUE(a.killed()) << ec.label;
        EXPECT_TRUE(a.terminated()) << ec.label;
    }
}
