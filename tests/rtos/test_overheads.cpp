// RTOS timing-model tests (§3.2): fixed overheads, formula overheads
// evaluated against live system state, per-kind accounting, and the
// conservation invariant busy + overhead + idle == elapsed.
#include <gtest/gtest.h>

#include <memory>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"
#include "recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using rtsc::test::RecordingObserver;
using k::Time;
using namespace rtsc::kernel::time_literals;

class OverheadTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(OverheadTest, DistinctComponentsChargeSeparately) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    cpu.set_overheads({.scheduling = 3_us,
                       .context_load = 7_us,
                       .context_save = 11_us,
                       .frequency_switch = {}});
    RecordingObserver rec;
    cpu.add_observer(rec);
    cpu.create_task({.name = "A", .priority = 1},
                    [](r::Task& self) { self.compute(50_us); });
    sim.run();
    // sched 0-3, load 3-10, run 10-60, save 60-71, sched 71-74.
    EXPECT_EQ(sim.now(), 74_us);
    const auto a = rec.of("A");
    EXPECT_EQ(a[1].at, 10_us);
    EXPECT_EQ(a[2].at, 60_us);

    Time sched{}, load{}, save{}, fswitch{};
    for (const auto& o : rec.overheads) {
        switch (o.kind) {
            case r::OverheadKind::scheduling: sched += o.duration; break;
            case r::OverheadKind::context_load: load += o.duration; break;
            case r::OverheadKind::context_save: save += o.duration; break;
            case r::OverheadKind::frequency_switch: fswitch += o.duration; break;
        }
    }
    EXPECT_EQ(sched, 6_us); // two passes
    EXPECT_EQ(load, 7_us);
    EXPECT_EQ(save, 11_us);
    EXPECT_EQ(fswitch, Time{}); // no DVFS model: no operating-point change
}

TEST_P(OverheadTest, FormulaDependsOnReadyTaskCount) {
    // "scheduling duration [...] depends not only on the algorithm, but also
    // on the number of ready tasks when the algorithm runs."
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    r::RtosOverheads ov;
    ov.scheduling = r::OverheadModel::formula([](const r::SystemState& s) {
        return Time::us(1) * static_cast<Time::rep>(s.ready_tasks);
    });
    cpu.set_overheads(ov);
    RecordingObserver rec;
    cpu.add_observer(rec);
    auto body = [](r::Task& self) { self.compute(10_us); };
    cpu.create_task({.name = "A", .priority = 3}, body);
    cpu.create_task({.name = "B", .priority = 2}, body);
    cpu.create_task({.name = "C", .priority = 1}, body);
    sim.run();

    // The duration is evaluated when the scheduling pass starts: pass 1 at
    // t=0 sees all three same-instant arrivals -> 3us; pass 2 after A ends
    // sees {B,C} -> 2us; pass 3 sees {C} -> 1us; pass 4 sees {} -> 0us.
    std::vector<Time> scheds;
    for (const auto& o : rec.overheads)
        if (o.kind == r::OverheadKind::scheduling) scheds.push_back(o.duration);
    EXPECT_EQ(scheds, (std::vector<Time>{3_us, 2_us, 1_us, 0_us}));
    // A runs 3-13, B 15-25, C 26-36.
    EXPECT_EQ(rec.of("A")[1].at, 3_us);
    EXPECT_EQ(rec.of("B")[1].at, 15_us);
    EXPECT_EQ(rec.of("C")[1].at, 26_us);
}

TEST_P(OverheadTest, FormulaSeesOverheadKind) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    r::RtosOverheads ov;
    const auto record_kind = [](const r::SystemState& s) {
        EXPECT_EQ(s.kind, r::OverheadKind::context_load);
        return Time::us(2);
    };
    ov.context_load = r::OverheadModel::formula(record_kind);
    cpu.set_overheads(ov);
    cpu.create_task({.name = "A", .priority = 1},
                    [](r::Task& self) { self.compute(5_us); });
    sim.run();
    EXPECT_EQ(sim.now(), 7_us); // load 2us + run 5us; all other charges zero
}

TEST_P(OverheadTest, ConservationBusyOverheadIdle) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    cpu.set_overheads(r::RtosOverheads::uniform(4_us));
    m::Event irq("irq", m::EventPolicy::counter);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        for (int i = 0; i < 3; ++i) {
            irq.await();
            self.compute(7_us);
        }
    });
    cpu.create_task({.name = "L", .priority = 1}, [&](r::Task& self) {
        self.compute(200_us);
    });
    sim.spawn("hw", [&] {
        for (int i = 0; i < 3; ++i) {
            k::wait(50_us);
            irq.signal();
        }
    });
    sim.run();

    const auto ps = cpu.engine().phase_stats();
    EXPECT_EQ(ps.busy_time + ps.overhead_time + ps.idle_time, sim.now());
    // Busy time equals the sum of task computes: 3*7 + 200.
    EXPECT_EQ(ps.busy_time, 221_us);
}

TEST_P(OverheadTest, OverheadModelAccessors) {
    r::OverheadModel fixed(5_us);
    EXPECT_FALSE(fixed.is_formula());
    EXPECT_EQ(fixed.fixed_value(), 5_us);
    r::OverheadModel def;
    EXPECT_EQ(def.fixed_value(), Time::zero());
    auto f = r::OverheadModel::formula(
        [](const r::SystemState&) { return Time::us(9); });
    EXPECT_TRUE(f.is_formula());
    const r::SystemState s{Time::zero(), 0, 0, nullptr,
                           r::OverheadKind::scheduling};
    EXPECT_EQ(f.evaluate(s), 9_us);
    EXPECT_EQ(fixed.evaluate(s), 5_us);
}

TEST_P(OverheadTest, UniformHelper) {
    const auto ov = r::RtosOverheads::uniform(5_us);
    const r::SystemState s{Time::zero(), 1, 1, nullptr, r::OverheadKind::scheduling};
    EXPECT_EQ(ov.scheduling.evaluate(s), 5_us);
    EXPECT_EQ(ov.context_load.evaluate(s), 5_us);
    EXPECT_EQ(ov.context_save.evaluate(s), 5_us);
    const auto none = r::RtosOverheads::none();
    EXPECT_EQ(none.scheduling.evaluate(s), Time::zero());
}

INSTANTIATE_TEST_SUITE_P(BothEngines, OverheadTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "threaded";
                         });
