// The nine pinned schedules of tests/rtos/test_rotation_equivalence.cpp,
// run through the explorer's exhaustive mode: instead of checking only the
// engines' pinned default tie-break, enumerate EVERY reachable same-instant
// ready-queue resolution of each scenario and require all four legs
// (threaded/procedural x skip-ahead on/off) to agree on the transition log
// and the per-CPU decision stream under each one. The enumerated schedule
// count per scenario is asserted exactly — stable across engines and
// skip-ahead settings; a drift means the scenario's same-instant structure
// changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "fuzz/runner.hpp"
#include "kernel/simulator.hpp"
#include "rtos/policy.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

#include "../rtos/recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace ex = rtsc::explore;
using rtsc::test::RecordingObserver;
using namespace rtsc::kernel::time_literals;

namespace {

struct Scenario {
    std::string name;
    std::uint64_t schedules; ///< pinned exhaustive enumeration count
    std::function<std::unique_ptr<r::SchedulingPolicy>()> policy;
    std::function<void(r::Processor&)> build;
};

/// One leg: run the scenario with a replaying oracle; returns the
/// transition log and fills the oracle's decision log.
std::vector<std::string> run_leg(const Scenario& s, r::EngineKind kind,
                                 bool skip_ahead, ex::TraceOracle& oracle) {
    k::Simulator sim;
    sim.set_skip_ahead(skip_ahead);
    r::Processor cpu("cpu", s.policy(), kind);
    cpu.engine().set_schedule_oracle(&oracle);
    RecordingObserver rec;
    cpu.add_observer(rec);
    s.build(cpu);
    sim.run();
    return rec.strings();
}

/// RunCheck over a scenario: the four legs of fuzz::kLegs replay the same
/// trace; a violation is a replay desync, a cross-leg disagreement on the
/// transition log (fuzz::check_legs over it as the `states` stream) or on
/// the per-CPU decision stream.
ex::RunCheck scenario_check(const Scenario& s) {
    return [&s](const ex::DecisionTrace& trace) {
        ex::RunOutcome out;
        rtsc::fuzz::RunResult legs[4];
        std::vector<std::string> rows[4];
        for (std::size_t i = 0; i < 4; ++i) {
            const rtsc::fuzz::Leg& leg = rtsc::fuzz::kLegs[i];
            ex::TraceOracle oracle(&trace);
            for (const std::string& row :
                 run_leg(s, leg.kind, leg.skip_ahead, oracle))
                legs[i].states.push_back(row);
            rows[i] = ex::decision_rows(oracle.log());
            if (!oracle.replay_ok() && !out.violation) {
                out.violation = true;
                out.diagnosis = std::string("replay desync on ") + leg.name +
                                ": " + oracle.replay_error();
            }
            if (i == 0) out.log = oracle.take_log();
        }
        const rtsc::fuzz::Divergence d = rtsc::fuzz::check_legs(legs);
        if (!out.violation && d.diverged) {
            out.violation = true;
            out.diagnosis = d.to_string();
        }
        for (std::size_t i = 1; i < 4 && !out.violation; ++i)
            if (rows[i] != rows[0]) {
                out.violation = true;
                out.diagnosis = std::string("decision stream of ") +
                                rtsc::fuzz::kLegs[i].name + " differs from " +
                                rtsc::fuzz::kLegs[0].name;
            }
        return out;
    };
}

std::vector<Scenario> scenarios() {
    std::vector<Scenario> out;
    out.push_back({"QuantumExpiryRotates", 6,
                   [] { return std::make_unique<r::RoundRobinPolicy>(10_us); },
                   [](r::Processor& cpu) {
                       for (const char* name : {"A", "B", "C"})
                           cpu.create_task({.name = name, .priority = 1},
                                           [](r::Task& self) {
                                               self.compute(25_us);
                                           });
                   }});
    out.push_back({"LoneTaskQuantumExpiry", 1,
                   [] { return std::make_unique<r::RoundRobinPolicy>(10_us); },
                   [](r::Processor& cpu) {
                       cpu.create_task({.name = "solo", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(35_us);
                                       });
                   }});
    out.push_back({"SliceExpiryTiesWithArrival", 1,
                   [] { return std::make_unique<r::RoundRobinPolicy>(10_us); },
                   [](r::Processor& cpu) {
                       cpu.create_task({.name = "A", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(15_us);
                                       });
                       cpu.create_task(
                           {.name = "B", .priority = 1, .start_time = 10_us},
                           [](r::Task& self) { self.compute(5_us); });
                   }});
    out.push_back({"RoundRobinBlockedLeaver", 2,
                   [] { return std::make_unique<r::RoundRobinPolicy>(10_us); },
                   [](r::Processor& cpu) {
                       cpu.create_task({.name = "A", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(4_us);
                                           self.sleep_for(2_us);
                                           self.compute(4_us);
                                       });
                       cpu.create_task({.name = "B", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(8_us);
                                       });
                   }});
    out.push_back({"EdfEqualDeadlines", 1,
                   [] { return std::make_unique<r::EdfPolicy>(); },
                   [](r::Processor& cpu) {
                       auto& a = cpu.create_task({.name = "A", .priority = 1},
                                                 [](r::Task& self) {
                                                     self.compute(10_us);
                                                 });
                       a.set_absolute_deadline(100_us);
                       auto& b = cpu.create_task(
                           {.name = "B", .priority = 1, .start_time = 2_us},
                           [](r::Task& self) { self.compute(10_us); });
                       b.set_absolute_deadline(100_us);
                   }});
    out.push_back({"EdfDeadlineBeatsDeadlineLess", 1,
                   [] { return std::make_unique<r::EdfPolicy>(); },
                   [](r::Processor& cpu) {
                       cpu.create_task({.name = "bg", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(20_us);
                                       });
                       auto& rt = cpu.create_task(
                           {.name = "rt", .priority = 1, .start_time = 5_us},
                           [](r::Task& self) { self.compute(4_us); });
                       rt.set_absolute_deadline(12_us);
                       cpu.create_task(
                           {.name = "bg2", .priority = 1, .start_time = 6_us},
                           [](r::Task& self) { self.compute(3_us); });
                   }});
    out.push_back({"EdfDeadlineLessFifo", 6,
                   [] { return std::make_unique<r::EdfPolicy>(); },
                   [](r::Processor& cpu) {
                       for (const char* name : {"x", "y", "z"})
                           cpu.create_task({.name = name, .priority = 1},
                                           [](r::Task& self) {
                                               self.compute(5_us);
                                           });
                   }});
    out.push_back({"PriorityTieBreakFifo", 1,
                   [] { return std::make_unique<r::PriorityPreemptivePolicy>(); },
                   [](r::Processor& cpu) {
                       cpu.create_task({.name = "low1", .priority = 2},
                                       [](r::Task& self) {
                                           self.compute(10_us);
                                       });
                       cpu.create_task(
                           {.name = "low2", .priority = 2, .start_time = 1_us},
                           [](r::Task& self) { self.compute(10_us); });
                       cpu.create_task(
                           {.name = "hi", .priority = 5, .start_time = 3_us},
                           [](r::Task& self) { self.compute(2_us); });
                   }});
    out.push_back({"RotationUnderOverheads", 6,
                   [] { return std::make_unique<r::RoundRobinPolicy>(10_us); },
                   [](r::Processor& cpu) {
                       cpu.set_overheads(
                           {.scheduling = r::OverheadModel(500_ns),
                            .context_load = r::OverheadModel(200_ns),
                            .context_save = r::OverheadModel(200_ns)});
                       for (const char* name : {"A", "B", "C"})
                           cpu.create_task({.name = name, .priority = 1},
                                           [](r::Task& self) {
                                               self.compute(23_us);
                                           });
                   }});
    return out;
}

} // namespace

TEST(ExploreRotation, AllNineScenariosExhaustivelyEquivalent) {
    for (const auto& s : scenarios()) {
        SCOPED_TRACE(s.name);
        ex::Explorer e(scenario_check(s), ex::Bounds{});
        const ex::ExploreResult r = e.run();
        EXPECT_FALSE(r.violation)
            << r.diagnosis << "\ntrace: " << ex::to_text(r.counterexample);
        EXPECT_TRUE(r.complete);
        EXPECT_EQ(r.schedules, s.schedules)
            << "enumerated schedule count drifted for " << s.name;
    }
}

TEST(ExploreRotation, CountsAreSkipAheadAndEngineStable) {
    // The pinned counts above come from the 4-leg check; additionally run
    // the DFS against each single leg and require the same enumeration —
    // neither the engine choice nor the fast path may change the decision
    // structure the explorer sees.
    const auto all = scenarios();
    const Scenario& s = all[0]; // three-way rotation: the richest structure
    for (const r::EngineKind kind :
         {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread}) {
        for (const bool skip : {true, false}) {
            ex::RunCheck one = [&](const ex::DecisionTrace& trace) {
                ex::TraceOracle oracle(&trace);
                (void)run_leg(s, kind, skip, oracle);
                ex::RunOutcome out;
                out.log = oracle.take_log();
                return out;
            };
            ex::Explorer e(one, ex::Bounds{});
            const ex::ExploreResult r = e.run();
            EXPECT_TRUE(r.complete);
            EXPECT_EQ(r.schedules, s.schedules)
                << "leg kind=" << static_cast<int>(kind) << " skip=" << skip;
        }
    }
}
