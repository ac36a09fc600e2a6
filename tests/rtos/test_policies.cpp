// Scheduling-policy tests: FIFO, round-robin/time-sharing, EDF, user-defined
// (lambda and Processor-override), rate-monotonic assignment — under both
// engines where behaviour could differ.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"
#include "recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using rtsc::test::RecordingObserver;
using rtsc::test::Transition;
using k::Time;
using namespace rtsc::kernel::time_literals;

class PolicyTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(PolicyTest, FifoRunsInArrivalOrderWithoutPreemption) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::FifoPolicy>(), GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    // Higher priority arrives later: FIFO must ignore it.
    cpu.create_task({.name = "first", .priority = 1}, body);
    cpu.create_task({.name = "second", .priority = 9, .start_time = 2_us}, body);
    cpu.create_task({.name = "third", .priority = 5, .start_time = 4_us}, body);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
    for (const auto& t : cpu.tasks()) EXPECT_EQ(t->stats().preemptions, 0u);
}

TEST_P(PolicyTest, RoundRobinRotatesOnQuantum) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::RoundRobinPolicy>(10_us), GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    auto body = [](r::Task& self) { self.compute(25_us); };
    cpu.create_task({.name = "A", .priority = 0}, body);
    cpu.create_task({.name = "B", .priority = 0}, body);
    sim.run();

    // Zero overhead: A 0-10, B 10-20, A 20-30, B 30-40, A 40-45, B 45-55.
    const auto a = rec.of("A");
    std::vector<Time> a_run_starts;
    for (const auto& t : a)
        if (t.to == r::TaskState::running) a_run_starts.push_back(t.at);
    EXPECT_EQ(a_run_starts, (std::vector<Time>{0_us, 20_us, 40_us}));
    EXPECT_EQ(a.back(), (Transition{45_us, "A", r::TaskState::terminated}));
    const auto b = rec.of("B");
    EXPECT_EQ(b.back(), (Transition{50_us, "B", r::TaskState::terminated}));
    // Each task got sliced twice.
    EXPECT_EQ(cpu.tasks()[0]->stats().preemptions, 2u);
    EXPECT_EQ(cpu.tasks()[1]->stats().preemptions, 2u);
}

TEST_P(PolicyTest, RoundRobinAloneDoesNotRotate) {
    // A single runnable task must not pay any rotation overhead when its
    // quantum expires with an empty ready queue.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::RoundRobinPolicy>(10_us), GetParam());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    cpu.create_task({.name = "solo", .priority = 0},
                    [](r::Task& self) { self.compute(35_us); });
    sim.run();
    // sched 0-5, load 5-10, run 10-45 uninterrupted, save 45-50, sched 50-55.
    EXPECT_EQ(sim.now(), 55_us);
    EXPECT_EQ(cpu.tasks()[0]->stats().preemptions, 0u);
    EXPECT_EQ(cpu.tasks()[0]->stats().running_time, 35_us);
}

TEST_P(PolicyTest, RoundRobinQuantumWithOverheads) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::RoundRobinPolicy>(10_us), GetParam());
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));
    RecordingObserver rec;
    cpu.add_observer(rec);
    auto body = [](r::Task& self) { self.compute(20_us); };
    cpu.create_task({.name = "A", .priority = 0}, body);
    cpu.create_task({.name = "B", .priority = 0}, body);
    sim.run();
    // A: sched 0-1, load 1-2, run 2-12 (quantum), save 12-13, sched 13-14,
    // B: load 14-15, run 15-25, ... rotation gaps of 3us each.
    const auto a = rec.of("A");
    ASSERT_GE(a.size(), 4u);
    EXPECT_EQ(a[1], (Transition{2_us, "A", r::TaskState::running}));
    EXPECT_EQ(a[2], (Transition{12_us, "A", r::TaskState::ready}));
    const auto b = rec.of("B");
    EXPECT_EQ(b[1], (Transition{15_us, "B", r::TaskState::running}));
}

TEST_P(PolicyTest, EdfPrefersEarliestDeadline) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::EdfPolicy>(), GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    auto& t1 = cpu.create_task({.name = "far", .priority = 0}, body);
    auto& t2 = cpu.create_task({.name = "near", .priority = 0}, body);
    auto& t3 = cpu.create_task({.name = "mid", .priority = 0}, body);
    t1.set_absolute_deadline(300_us);
    t2.set_absolute_deadline(100_us);
    t3.set_absolute_deadline(200_us);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"near", "mid", "far"}));
}

TEST_P(PolicyTest, EdfPreemptsOnEarlierDeadlineArrival) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::EdfPolicy>(), GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    auto& slow = cpu.create_task({.name = "slow", .priority = 0},
                                 [](r::Task& self) { self.compute(100_us); });
    slow.set_absolute_deadline(1000_us);
    auto& urgent = cpu.create_task(
        {.name = "urgent", .priority = 0, .start_time = 40_us},
        [](r::Task& self) { self.compute(10_us); });
    urgent.set_absolute_deadline(60_us);
    sim.run();
    const auto u = rec.of("urgent");
    EXPECT_EQ(u[1], (Transition{40_us, "urgent", r::TaskState::running}));
    EXPECT_EQ(u[2], (Transition{50_us, "urgent", r::TaskState::terminated}));
    EXPECT_EQ(slow.stats().preemptions, 1u);
    // All 100us of slow still execute.
    EXPECT_EQ(slow.stats().running_time, 100_us);
}

TEST_P(PolicyTest, EdfTaskWithoutDeadlineRanksLast) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::EdfPolicy>(), GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(5_us);
    };
    cpu.create_task({.name = "background", .priority = 0}, body);
    auto& rt = cpu.create_task({.name = "rt", .priority = 0}, body);
    rt.set_absolute_deadline(50_us);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"rt", "background"}));
}

namespace {
/// The paper's extension idiom: override Processor::scheduling_policy.
class LowestPriorityFirstProcessor final : public r::Processor {
public:
    using r::Processor::Processor;
    [[nodiscard]] r::Task* scheduling_policy(const r::ReadyQueue& q) const override {
        r::Task* best = nullptr;
        for (r::Task* t : q)
            if (best == nullptr || t->effective_priority() < best->effective_priority())
                best = t;
        return best;
    }
    [[nodiscard]] bool should_preempt(const r::Task&, const r::Task&) const override {
        return false;
    }
};
} // namespace

TEST_P(PolicyTest, ProcessorOverrideDefinesOwnPolicy) {
    k::Simulator sim;
    LowestPriorityFirstProcessor cpu(
        "cpu", std::make_unique<r::PriorityPreemptivePolicy>(), GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(5_us);
    };
    cpu.create_task({.name = "p9", .priority = 9}, body);
    cpu.create_task({.name = "p1", .priority = 1}, body);
    cpu.create_task({.name = "p5", .priority = 5}, body);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"p1", "p5", "p9"}));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, PolicyTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "threaded";
                         });

TEST(RateMonotonicTest, ShorterPeriodGetsHigherPriority) {
    const std::vector<Time> periods{100_us, 20_us, 50_us};
    const auto prio = rtsc::rtos::rate_monotonic_priorities(periods);
    ASSERT_EQ(prio.size(), 3u);
    EXPECT_LT(prio[0], prio[2]);
    EXPECT_LT(prio[2], prio[1]);
}

TEST(RateMonotonicTest, EqualPeriodsShareRank) {
    const std::vector<Time> periods{40_us, 40_us, 10_us};
    const auto prio = rtsc::rtos::rate_monotonic_priorities(periods);
    EXPECT_EQ(prio[0], prio[1]);
    EXPECT_GT(prio[2], prio[0]);
}

TEST(RateMonotonicTest, EmptyAndSingle) {
    EXPECT_TRUE(rtsc::rtos::rate_monotonic_priorities({}).empty());
    const auto one = rtsc::rtos::rate_monotonic_priorities({Time::us(7)});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 1);
}

// ---- pinned dispatch-order contract --------------------------------------
// These tests freeze the priority + FIFO-tie-break semantics the ready queue
// must preserve however it is maintained (scanned or kept incrementally
// ordered): strict priority first, FIFO within one level, preempted tasks
// resuming before equal-priority later arrivals, and priority/deadline
// changes of Ready tasks taking effect at the next decision.

TEST_P(PolicyTest, PriorityFifoTieBreakWithinLevel) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    // Three equal-priority tasks in arrival order, one urgent later arrival.
    cpu.create_task({.name = "eq1", .priority = 4}, body);
    cpu.create_task({.name = "eq2", .priority = 4, .start_time = 1_us}, body);
    cpu.create_task({.name = "eq3", .priority = 4, .start_time = 2_us}, body);
    cpu.create_task({.name = "hi", .priority = 8, .start_time = 3_us}, body);
    sim.run();
    // hi preempts eq1 at 3us; eq1 then resumes before its equal-priority
    // peers; eq2/eq3 keep FIFO order.
    EXPECT_EQ(order, (std::vector<std::string>{"eq1", "hi", "eq2", "eq3"}));
}

TEST_P(PolicyTest, PreemptedResumesBeforeEqualPriorityArrivals) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    RecordingObserver rec;
    cpu.add_observer(rec);
    std::vector<std::string> order;
    auto log = [&](r::Task& self) { order.push_back(self.name()); };
    cpu.create_task({.name = "victim", .priority = 5}, [&](r::Task& self) {
        log(self);
        self.compute(50_us);
    });
    cpu.create_task({.name = "intruder", .priority = 9, .start_time = 10_us},
                    [&](r::Task& self) {
                        log(self);
                        self.compute(20_us);
                    });
    // Same priority as victim, becomes ready while victim sits preempted.
    cpu.create_task({.name = "peer", .priority = 5, .start_time = 20_us},
                    [&](r::Task& self) {
                        log(self);
                        self.compute(10_us);
                    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"victim", "intruder", "peer"}));
    // The preempted victim got the CPU back before the equally-ranked peer:
    // peer only starts after victim's remaining 40us (at 30+40=70us).
    const auto p = rec.of("peer");
    EXPECT_EQ(p[1], (Transition{70_us, "peer", r::TaskState::running}));
}

TEST_P(PolicyTest, RaisingReadyTaskPriorityReordersNextDecision) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    cpu.create_task({.name = "runner", .priority = 9}, [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(30_us);
    });
    cpu.create_task({.name = "a", .priority = 3, .start_time = 1_us}, body);
    auto& b = cpu.create_task({.name = "b", .priority = 2, .start_time = 2_us}, body);
    sim.spawn("controller", [&] {
        k::wait(5_us);
        b.set_base_priority(5); // b is Ready: must now beat a
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"runner", "b", "a"}));
}

TEST_P(PolicyTest, EdfDeadlineChangeOfReadyTaskReordersNextDecision) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::EdfPolicy>(), GetParam());
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    auto& runner = cpu.create_task({.name = "runner", .priority = 0},
                                   [&](r::Task& self) {
                                       order.push_back(self.name());
                                       self.compute(30_us);
                                   });
    runner.set_absolute_deadline(35_us);
    auto& a = cpu.create_task({.name = "a", .priority = 0, .start_time = 1_us}, body);
    a.set_absolute_deadline(200_us);
    auto& b = cpu.create_task({.name = "b", .priority = 0, .start_time = 2_us}, body);
    b.set_absolute_deadline(300_us);
    sim.spawn("controller", [&] {
        k::wait(5_us);
        b.set_absolute_deadline(100_us); // b is Ready: now earlier than a
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"runner", "b", "a"}));
}

TEST_P(PolicyTest, EqualPrioritySingleJobsNoPreemptionAmongPeers) {
    // FIFO within a level also means no preemption among equals.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    auto body = [](r::Task& self) { self.compute(10_us); };
    auto& t1 = cpu.create_task({.name = "p1", .priority = 4}, body);
    auto& t2 = cpu.create_task({.name = "p2", .priority = 4, .start_time = 3_us}, body);
    sim.run();
    EXPECT_EQ(t1.stats().preemptions, 0u);
    EXPECT_EQ(t2.stats().preemptions, 0u);
}
