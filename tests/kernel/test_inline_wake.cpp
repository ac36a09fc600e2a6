// Inline wake: with skip-ahead on, a wait whose own wake is provably the run
// loop's next step completes without a context switch. Every scenario runs
// with skip-ahead off (the reference) and on, and must log the same wakes --
// order, time, wake reason, delta_count() -- and end at the same time. Only
// the switch counter may differ, and only with skip-ahead on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Process;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

struct Run {
    std::vector<std::string> log;
    Time end{};
    std::uint64_t deltas = 0;
    std::uint64_t activations = 0;
};

/// Appends "<what> t=<now> d=<delta_count>" to the run's log.
struct Logger {
    Simulator& sim;
    Run& run;
    void operator()(const std::string& what) const {
        run.log.push_back(what + " t=" + std::to_string(sim.now().raw_ps()) +
                          " d=" + std::to_string(sim.delta_count()));
    }
};

const char* reason_name(Process::WakeReason r) {
    switch (r) {
    case Process::WakeReason::none: return "none";
    case Process::WakeReason::event: return "event";
    case Process::WakeReason::timeout: return "timeout";
    case Process::WakeReason::killed: return "killed";
    }
    return "?";
}

/// Builds a scenario on a fresh simulator and drives it to its end.
using Scenario = std::function<void(Simulator&, const Logger&)>;

Run run(bool skip_ahead, const Scenario& scenario) {
    Run out;
    Simulator sim;
    sim.set_skip_ahead(skip_ahead);
    scenario(sim, Logger{sim, out});
    out.end = sim.now();
    out.deltas = sim.delta_count();
    out.activations = sim.process_activations();
    return out;
}

struct Both {
    Run off;
    Run on;
};

/// Runs both paths and checks everything but the switch counter matches.
Both run_both(const Scenario& scenario) {
    Both b{run(false, scenario), run(true, scenario)};
    EXPECT_EQ(b.off.log, b.on.log);
    EXPECT_EQ(b.off.end, b.on.end);
    EXPECT_EQ(b.off.deltas, b.on.deltas);
    return b;
}

} // namespace

TEST(InlineWakeTest, LoneProcessWaitsWithoutSwitching) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Event never("never");
        sim.spawn("p", [&] {
            note("start");
            k::wait(1_us);
            note("timed");
            k::wait(Time::zero());
            note("zero");
            k::yield();
            note("yield");
            note(reason_name(k::wait(2_us, never)));
            Event* got = sim.wait_any(3_us, {&never});
            note(got == nullptr ? "wait_any timeout" : "wait_any event");
        });
        sim.run();
    });
    EXPECT_EQ(b.on.end, 6_us);
    // Start plus five wakes; with skip-ahead on only the start switches.
    EXPECT_EQ(b.off.activations, 6u);
    EXPECT_EQ(b.on.activations, 1u);
}

TEST(InlineWakeTest, EventNotifiedExactlyAtTheTimeoutWins) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Event e("e");
        sim.spawn("p", [&] {
            e.notify(7_us);
            note(reason_name(k::wait(5_us, e))); // timeout first: inline
            k::wait(e);                          // the pending 7 us notify
            note("event");
            e.notify(5_us);
            note(reason_name(k::wait(5_us, e))); // tie: the event wins
            e.notify(3_us);
            note(reason_name(k::wait(5_us, e))); // earlier event
        });
        sim.run();
    });
    EXPECT_EQ(b.on.log, (std::vector<std::string>{"timeout t=5000000 d=1",
                                                  "event t=7000000 d=2",
                                                  "event t=12000000 d=3",
                                                  "event t=15000000 d=4"}));
    EXPECT_EQ(b.on.end, 15_us);
    EXPECT_EQ(b.off.activations, 5u);
    EXPECT_EQ(b.on.activations, 4u); // only the timeout-first wait is inline
}

TEST(InlineWakeTest, CancelledDeltaNotificationStillQueuedTakesTheExactPath) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Event e("e");
        sim.spawn("p", [&] {
            e.notify_delta();
            e.cancel(); // the entry stays in the delta queue until the phase
            k::wait(1_us);
            note("after cancelled delta");
            k::wait(1_us);
            note("plain");
        });
        sim.run();
    });
    EXPECT_EQ(b.off.activations, 3u);
    EXPECT_EQ(b.on.activations, 2u);
}

TEST(InlineWakeTest, ProcessQueuedBehindTheCallerRunsFirst) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Event go("go");
        sim.spawn("a", [&] {
            note("a start");
            k::wait(1_us); // b is queued behind: suspends
            note("a 1");
            k::wait(1_us); // ties with b's timeout: b fires first (FIFO)
            note("a 2");
            k::yield();    // b is queued behind again
            note("a yielded");
        });
        sim.spawn("b", [&] {
            note("b start");
            k::wait(2_us);
            note("b 2");
            k::wait(go); // c's immediate notify queues b behind a
        });
        sim.spawn("c", [&] {
            note("c start");
            k::wait(2_us); // last in the sweep, but a's timeout comes first
            note("c 2");
            go.notify();
            note("c notified");
        });
        sim.run();
    });
    EXPECT_EQ(b.on.end, 2_us);
    EXPECT_EQ(b.on.activations, b.off.activations);
}

TEST(InlineWakeTest, RunUntilHorizonCutsATimedWait) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Process& p = sim.spawn("p", [&] {
            k::wait(1_us); // within the horizon: inline
            note("woke 1");
            k::wait(5_us); // lands past the 3 us horizon: suspends
            note("woke 6");
        });
        sim.run_until(3_us);
        note("horizon");
        EXPECT_FALSE(p.terminated());
        EXPECT_EQ(sim.now(), 3_us);
        sim.run_until(10_us);
    });
    EXPECT_EQ(b.on.log, (std::vector<std::string>{"woke 1 t=1000000 d=1",
                                                  "horizon t=3000000 d=2",
                                                  "woke 6 t=6000000 d=2"}));
    EXPECT_EQ(b.on.end, 10_us);
    EXPECT_EQ(b.off.activations, 3u);
    EXPECT_EQ(b.on.activations, 2u);
}

TEST(InlineWakeTest, OpenEndedRunEndsWhenOnlyABackgroundProcessRemains) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        Process& bg = sim.spawn("bg", [&] {
            for (;;) {
                k::wait(1_us);
                note("bg tick");
            }
        });
        bg.set_background(true);
        sim.spawn("p", [&] {
            k::wait(3_us);
            note("p");
        });
        sim.run();
    });
    // The 2 us tick is inline (p's timeout is live work); the tick armed at
    // 3 us is not: nothing but the background process is left, so run()
    // goes dry with it suspended.
    EXPECT_EQ(b.on.end, 3_us);
    EXPECT_EQ(b.on.log.size(), 4u);
    EXPECT_EQ(b.off.activations, 6u);
    EXPECT_EQ(b.on.activations, 5u);

    const Both lone = run_both([](Simulator& sim, const Logger& note) {
        Process& bg = sim.spawn("bg", [&] {
            k::wait(1_us);
            note("bg tick");
        });
        bg.set_background(true);
        sim.run();
    });
    EXPECT_TRUE(lone.on.log.empty());
    EXPECT_EQ(lone.on.end, Time::zero());
    EXPECT_EQ(lone.on.activations, lone.off.activations);
}

TEST(InlineWakeTest, StopBeforeAWaitSuspends) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        sim.spawn("p", [&] {
            k::wait(1_us);
            note("woke");
            sim.stop();
            k::wait(1_us);
            note("after stop");
            sim.stop();
            k::wait(Time::zero());
            note("after zero");
            sim.stop();
            k::yield(); // a yield never leaves the sweep: stop is not checked
            note("after yield");
        });
        sim.run();
        note("stopped");
        sim.run();
        note("stopped again");
        sim.run();
    });
    EXPECT_EQ(b.on.log,
              (std::vector<std::string>{"woke t=1000000 d=1", "stopped t=1000000 d=2",
                                        "after stop t=2000000 d=2",
                                        "stopped again t=2000000 d=3",
                                        "after zero t=2000000 d=3",
                                        "after yield t=2000000 d=3"}));
    EXPECT_EQ(b.off.activations, 5u);
    EXPECT_EQ(b.on.activations, 3u);
}

TEST(InlineWakeTest, ZeroDelayLoopHitsTheDeltaLimitAtTheSamePoint) {
    const Both b = run_both([](Simulator& sim, const Logger& note) {
        sim.set_max_deltas_per_instant(5);
        sim.spawn("p", [&] {
            // Bounded, so a missing limit check fails the test, not the host.
            for (int i = 0; i < 100; ++i) {
                note("iteration " + std::to_string(i));
                k::wait(Time::zero());
            }
        });
        try {
            sim.run();
            note("no error");
        } catch (const k::SimulationError& e) {
            note(e.what());
        }
    });
    ASSERT_EQ(b.on.log.size(), 7u);
    EXPECT_NE(b.on.log.back().find("delta-cycle limit exceeded"), std::string::npos)
        << b.on.log.back();
    EXPECT_EQ(b.off.activations, 6u);
    EXPECT_EQ(b.on.activations, 1u);
}
