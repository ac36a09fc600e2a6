// Unit tests for process scheduling: spawn, wait(Time), termination,
// done-events, run/run_until, stop, statistics, error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

TEST(ProcessTest, RunsAtTimeZero) {
    Simulator sim;
    Time started = Time::max();
    sim.spawn("p", [&] { started = sim.now(); });
    sim.run();
    EXPECT_EQ(started, Time::zero());
}

TEST(ProcessTest, WaitAdvancesTime) {
    Simulator sim;
    std::vector<Time> stamps;
    sim.spawn("p", [&] {
        stamps.push_back(sim.now());
        k::wait(10_us);
        stamps.push_back(sim.now());
        k::wait(5_us);
        stamps.push_back(sim.now());
    });
    sim.run();
    EXPECT_EQ(stamps, (std::vector<Time>{Time::zero(), 10_us, 15_us}));
}

TEST(ProcessTest, ProcessesInterleaveByTime) {
    Simulator sim;
    std::vector<std::string> log;
    sim.spawn("a", [&] {
        k::wait(2_us);
        log.push_back("a@2");
        k::wait(4_us);
        log.push_back("a@6");
    });
    sim.spawn("b", [&] {
        k::wait(3_us);
        log.push_back("b@3");
        k::wait(4_us);
        log.push_back("b@7");
    });
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@2", "b@3", "a@6", "b@7"}));
}

TEST(ProcessTest, EqualTimeWakesAreFifoOrdered) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        sim.spawn("p" + std::to_string(i), [&, i] {
            k::wait(5_us);
            order.push_back(i);
        });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ProcessTest, DoneEventFiresOnTermination) {
    Simulator sim;
    bool joined = false;
    auto& worker = sim.spawn("worker", [&] { k::wait(7_us); });
    sim.spawn("joiner", [&] {
        k::wait(worker.done_event());
        joined = true;
        EXPECT_EQ(sim.now(), 7_us);
        EXPECT_TRUE(worker.terminated());
    });
    sim.run();
    EXPECT_TRUE(joined);
}

TEST(ProcessTest, SpawnDuringSimulationRunsSameInstant) {
    Simulator sim;
    Time child_started = Time::max();
    sim.spawn("parent", [&] {
        k::wait(4_us);
        sim.spawn("child", [&] { child_started = sim.now(); });
        k::wait(1_us);
    });
    sim.run();
    EXPECT_EQ(child_started, 4_us);
}

TEST(ProcessTest, RunUntilStopsAtBoundaryAndSetsNow) {
    Simulator sim;
    int ticks = 0;
    sim.spawn("p", [&] {
        for (;;) {
            k::wait(10_us);
            ++ticks;
        }
    });
    sim.run_until(35_us);
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(sim.now(), 35_us);
    sim.run_until(40_us);
    EXPECT_EQ(ticks, 4);
    EXPECT_EQ(sim.now(), 40_us);
}

TEST(ProcessTest, RunUntilIsResumable) {
    Simulator sim;
    std::vector<Time> stamps;
    sim.spawn("p", [&] {
        for (int i = 0; i < 4; ++i) {
            k::wait(10_us);
            stamps.push_back(sim.now());
        }
    });
    sim.run_until(15_us);
    EXPECT_EQ(stamps.size(), 1u);
    sim.run_until(45_us);
    EXPECT_EQ(stamps.size(), 4u);
    EXPECT_EQ(stamps.back(), 40_us);
}

TEST(ProcessTest, StopRequestEndsRun) {
    Simulator sim;
    int iterations = 0;
    sim.spawn("p", [&] {
        for (;;) {
            k::wait(1_us);
            if (++iterations == 5) sim.stop();
        }
    });
    sim.run();
    EXPECT_EQ(iterations, 5);
    EXPECT_EQ(sim.now(), 5_us);
}

TEST(ProcessTest, ActivationCountsTracked) {
    // Activations count context switches. With skip-ahead off: the initial
    // start plus two wake-ups. With it on, a lone process's timed waits
    // complete inline, so only the initial start switches.
    for (const bool skip_ahead : {false, true}) {
        Simulator sim;
        sim.set_skip_ahead(skip_ahead);
        auto& p = sim.spawn("p", [&] {
            k::wait(1_us);
            k::wait(1_us);
        });
        sim.run();
        const std::uint64_t want = skip_ahead ? 1 : 3;
        EXPECT_EQ(p.activations(), want) << "skip-ahead " << skip_ahead;
        EXPECT_EQ(sim.process_activations(), want) << "skip-ahead " << skip_ahead;
        EXPECT_EQ(sim.now(), 2_us);
    }
}

TEST(ProcessTest, WaitOutsideProcessThrows) {
    Simulator sim;
    EXPECT_THROW(sim.wait(1_us), k::SimulationError);
    Event e("e");
    EXPECT_THROW(sim.wait(e), k::SimulationError);
}

TEST(ProcessTest, ExceptionInProcessPropagatesFromRun) {
    Simulator sim;
    sim.spawn("bad", [&] {
        k::wait(1_us);
        throw std::runtime_error("model bug");
    });
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(ProcessTest, DeltaLoopDetected) {
    Simulator sim;
    sim.set_max_deltas_per_instant(1000);
    sim.reporter().set_sink([](k::Severity, const std::string&) {});
    Event ping("ping"), pong("pong");
    sim.spawn("a", [&] {
        for (;;) {
            ping.notify_delta();
            k::wait(pong);
        }
    });
    sim.spawn("b", [&] {
        for (;;) {
            k::wait(ping);
            pong.notify_delta();
        }
    });
    EXPECT_THROW(sim.run(), k::SimulationError);
}

TEST(ProcessTest, CurrentSimulatorRestoredAfterDestruction) {
    Simulator outer;
    {
        Simulator inner;
        EXPECT_EQ(&Simulator::current(), &inner);
    }
    EXPECT_EQ(&Simulator::current(), &outer);
}

TEST(ProcessTest, NamesAreKept) {
    Simulator sim;
    auto& p = sim.spawn("my_process", [] {});
    EXPECT_EQ(p.name(), "my_process");
    EXPECT_EQ(p.done_event().name(), "my_process.done");
}

TEST(ProcessTest, UserDataRoundTrips) {
    Simulator sim;
    int tag = 42;
    auto& p = sim.spawn("p", [] {});
    p.user_data = &tag;
    EXPECT_EQ(*static_cast<int*>(p.user_data), 42);
}
