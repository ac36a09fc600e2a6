// DVFS model tests: operating-point table validation, the pinned
// round-half-up scaling arithmetic, energy accounting (bit-exact
// conservation), the RT-DVS policies (Pillai & Shin) and the frequency-
// switch overhead — under both engines wherever the schedule could differ.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/simulator.hpp"
#include "rtos/dvfs.hpp"
#include "rtos/processor.hpp"
#include "recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
using rtsc::test::RecordingObserver;
using k::Time;
using namespace rtsc::kernel::time_literals;

// ------------------------------------------------------------------- model

TEST(DvfsModel, SortsFastestFirstAndBreaksTiesByVoltage) {
    r::DvfsModel m({{200'000, 900}, {300'000, 1000}, {200'000, 950}});
    ASSERT_EQ(m.levels(), 3u);
    EXPECT_EQ(m.point(0).freq_khz, 300'000u);
    EXPECT_EQ(m.point(1).volt_mv, 950u);
    EXPECT_EQ(m.point(2).volt_mv, 900u);
    EXPECT_EQ(m.f_max_khz(), 300'000u);
}

TEST(DvfsModel, RejectsEmptyZeroAndOutOfRangePoints) {
    EXPECT_THROW(r::DvfsModel{std::vector<r::OperatingPoint>{}},
                 k::SimulationError);
    EXPECT_THROW(r::DvfsModel({{0, 1000}}), k::SimulationError);
    EXPECT_THROW(r::DvfsModel({{1000, 0}}), k::SimulationError);
    EXPECT_THROW(r::DvfsModel({{100'000'001u, 1000}}), k::SimulationError);
    EXPECT_THROW(r::DvfsModel({{1000, 100'001u}}), k::SimulationError);
}

TEST(DvfsModel, ScaleRoundsHalfUpAtPicosecondGranularity) {
    // 1.5x stretch: exact halves round up — pinned, both engines and the
    // skip-ahead fast path must agree on these very picoseconds.
    r::DvfsModel m({{300'000, 1000}, {200'000, 900}});
    EXPECT_EQ(m.scale(Time::ps(1), 1), Time::ps(2));  // 1.5 -> 2
    EXPECT_EQ(m.scale(Time::ps(2), 1), Time::ps(3));  // 3.0 -> 3
    EXPECT_EQ(m.scale(Time::ps(3), 1), Time::ps(5));  // 4.5 -> 5
    EXPECT_EQ(m.scale(Time::zero(), 1), Time::zero());
    // Level 0 is the exact identity, whatever the value.
    EXPECT_EQ(m.scale(Time::ps(7), 0), Time::ps(7));
}

TEST(DvfsModel, ScaleSaturatesInsteadOfWrapping) {
    r::DvfsModel m({{2'000'000, 1000}, {1'000, 600}});
    const Time huge = Time::ps(~std::uint64_t{0} - 5);
    EXPECT_EQ(m.scale(huge, 1), Time::ps(~std::uint64_t{0}));
    EXPECT_EQ(m.scale(huge, 0), huge); // identity path does not saturate
}

TEST(DvfsModel, LevelForUtilizationPicksSlowestCoveringLevel) {
    r::DvfsModel m({{1'000'000, 1000}, {600'000, 800}, {200'000, 600}});
    EXPECT_EQ(m.level_for_utilization(1.0), 0u);
    EXPECT_EQ(m.level_for_utilization(0.7), 0u);  // 600 MHz < 0.7 f_max
    EXPECT_EQ(m.level_for_utilization(0.6), 1u);
    EXPECT_EQ(m.level_for_utilization(0.5), 1u);
    EXPECT_EQ(m.level_for_utilization(0.2), 2u);
    EXPECT_EQ(m.level_for_utilization(0.0), 2u);  // coast
    EXPECT_EQ(m.level_for_utilization(1.5), 0u);  // overload clamps to full
}

TEST(DvfsModel, PowerAndEnergyStringAreExact) {
    r::DvfsModel m({{1'000'000, 1000}, {600'000, 800}});
    EXPECT_EQ(m.power(0), 1'000'000'000'000ull);           // f * V^2
    EXPECT_EQ(m.power(1), 600'000ull * 800 * 800);
    EXPECT_EQ(r::energy_to_string(0), "0");
    EXPECT_EQ(r::energy_to_string(42), "42");
    // Beyond 64 bits: 2^64 = 18446744073709551616.
    const r::Energy big = static_cast<r::Energy>(~std::uint64_t{0}) + 1;
    EXPECT_EQ(r::energy_to_string(big), "18446744073709551616");
    EXPECT_DOUBLE_EQ(r::energy_to_joules(1'000'000'000'000'000ull), 1.0);
}

// ------------------------------------------------------------------ engine

class DvfsEngineTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(DvfsEngineTest, SingleFullSpeedPointIsBitIdenticalToNoModel) {
    // The no-regression guard: DVFS compiled in but inert must not move a
    // single transition or overhead by even a picosecond — only the energy
    // ledger starts counting.
    auto workload = [&](r::Processor& cpu, RecordingObserver& rec) {
        cpu.set_overheads(r::RtosOverheads::uniform(3_us));
        cpu.add_observer(rec);
        auto body = [](r::Task& self) { self.compute(40_us); };
        cpu.create_task({.name = "hi", .priority = 5, .start_time = 10_us}, body);
        cpu.create_task({.name = "lo", .priority = 1}, body);
    };
    std::vector<std::string> plain, dvfs;
    Time plain_end, dvfs_end;
    {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         GetParam());
        RecordingObserver rec;
        workload(cpu, rec);
        sim.run();
        plain = rec.strings();
        plain_end = sim.now();
        EXPECT_EQ(cpu.energy().total(), r::Energy{0});
    }
    {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         GetParam());
        RecordingObserver rec;
        workload(cpu, rec);
        cpu.set_dvfs(r::DvfsModel::single(800'000, 1100));
        sim.run();
        dvfs = rec.strings();
        dvfs_end = sim.now();
        // busy + overhead time at constant power, all attributed or booked.
        EXPECT_GT(cpu.energy().total(), r::Energy{0});
        r::Energy attributed = 0;
        for (const auto& t : cpu.tasks())
            attributed += t->energy_exec() + t->energy_overhead();
        EXPECT_EQ(cpu.energy().busy + cpu.energy().overhead,
                  attributed + cpu.energy().unattributed);
    }
    EXPECT_EQ(plain, dvfs);
    EXPECT_EQ(plain_end, dvfs_end);
}

TEST_P(DvfsEngineTest, CcEdfReclaimsSlackWithHandComputedEnergy) {
    // Pillai & Shin CC-EDF, fully hand-computed. Levels {1 GHz, 1.0 V},
    // {600 MHz, 0.8 V}, {200 MHz, 0.6 V}; A: WCET 600 us / period 1000 us,
    // B: WCET 400 us / period 1000 us. U_wc = 1.0, so A's job (actual work
    // 100 us) runs at full speed. At A's completion its utilization drops to
    // 100/1000 = 0.1, U = 0.5 -> level 1 (600 MHz). B's 200 us of nominal
    // work then stretches to round_half_up(200us * 10/6) = 333333333 ps.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::CcEdfPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel(
        {{1'000'000, 1000}, {600'000, 800}, {200'000, 600}}));
    auto& pol = dynamic_cast<r::CcEdfPolicy&>(cpu.policy());
    r::Task& a = cpu.create_task({.name = "A", .priority = 1},
                                 [](r::Task& self) { self.compute(100_us); });
    r::Task& b = cpu.create_task({.name = "B", .priority = 1, .start_time = 300_us},
                                 [](r::Task& self) { self.compute(200_us); });
    pol.declare_task(a, 600_us, 1000_us);
    pol.declare_task(b, 400_us, 1000_us);
    RecordingObserver rec;
    cpu.add_observer(rec);
    sim.run();

    EXPECT_EQ(sim.now(), Time::ps(633'333'333));
    EXPECT_EQ(cpu.dvfs_level(), 1u); // U = 0.3 at the end still needs 600 MHz
    // A: 100 us at 1 GHz / 1.0 V; B: 333333333 ps at 600 MHz / 0.8 V.
    const r::Energy ea = r::Energy(1'000'000) * 1000 * 1000 * 100'000'000;
    const r::Energy eb = r::Energy(600'000) * 800 * 800 * 333'333'333;
    EXPECT_EQ(a.energy_exec(), ea);
    EXPECT_EQ(b.energy_exec(), eb);
    EXPECT_EQ(a.energy_overhead(), r::Energy{0});
    EXPECT_EQ(b.energy_overhead(), r::Energy{0});
    // Conservation, bit-exact: zero overheads, so everything is busy energy.
    EXPECT_EQ(cpu.energy().busy, ea + eb);
    EXPECT_EQ(cpu.energy().overhead, r::Energy{0});
    EXPECT_EQ(cpu.energy().unattributed, r::Energy{0});
}

TEST_P(DvfsEngineTest, FrequencySwitchChargeIsUnscaledAndAttributed) {
    // Static EDF with U = 0.25 drops straight to the 100 MHz point on the
    // first pass; the configured 5 us switch latency is charged *unscaled*
    // (PLL relock is hardware time), booked to the task the pass is about,
    // and its energy accrues at the new operating point.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::StaticEdfPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel({{400'000, 1000}, {100'000, 500}}));
    r::RtosOverheads ov;
    ov.frequency_switch = r::OverheadModel(5_us);
    cpu.set_overheads(ov);
    auto& pol = dynamic_cast<r::StaticEdfPolicy&>(cpu.policy());
    r::Task& t = cpu.create_task({.name = "t", .priority = 1},
                                 [](r::Task& self) { self.compute(10_us); });
    pol.declare_task(t, 10_us, 40_us);
    RecordingObserver rec;
    cpu.add_observer(rec);
    sim.run();

    EXPECT_EQ(cpu.dvfs_level(), 1u);
    // switch 0-5 us, then the 10 us compute stretched 4x: ends at 45 us.
    EXPECT_EQ(sim.now(), 45_us);
    std::vector<RecordingObserver::Overhead> switches;
    for (const auto& o : rec.overheads)
        if (o.kind == r::OverheadKind::frequency_switch) switches.push_back(o);
    ASSERT_EQ(switches.size(), 1u);
    EXPECT_EQ(switches[0].start, Time::zero());
    EXPECT_EQ(switches[0].duration, 5_us); // NOT stretched to 20 us
    EXPECT_EQ(switches[0].about, "t");
    const r::Energy p1 = r::Energy(100'000) * 500 * 500;
    EXPECT_EQ(t.energy_overhead(), p1 * 5'000'000);
    EXPECT_EQ(t.energy_exec(), p1 * 40'000'000);
    EXPECT_EQ(cpu.energy().busy, t.energy_exec());
    EXPECT_EQ(cpu.energy().overhead, t.energy_overhead());
    EXPECT_EQ(cpu.energy().unattributed, r::Energy{0});
}

TEST_P(DvfsEngineTest, LaEdfCoastsAtSlowestWhenNothingIsPending) {
    // Look-ahead EDF defers against deadlines; with no released job holding
    // a deadline the non-deferrable work s is zero and the policy coasts at
    // the slowest point.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::LaEdfPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel(
        {{1'000'000, 1000}, {500'000, 800}, {250'000, 700}}));
    auto& pol = dynamic_cast<r::LaEdfPolicy&>(cpu.policy());
    r::Task& t = cpu.create_task({.name = "t", .priority = 1},
                                 [](r::Task& self) { self.compute(10_us); });
    pol.declare_task(t, 20_us, 100_us);
    sim.run();
    // No deadline was ever set on t, so every pass coasts; the compute runs
    // 4x stretched at 250 MHz.
    EXPECT_EQ(cpu.dvfs_level(), 2u);
    EXPECT_EQ(sim.now(), 40_us);
}

TEST_P(DvfsEngineTest, LaEdfRunsFullSpeedAtTheDeadline) {
    // A released job whose deadline has (just) arrived leaves no horizon to
    // defer into: the policy demands full speed.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::LaEdfPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel({{1'000'000, 1000}, {250'000, 700}}));
    auto& pol = dynamic_cast<r::LaEdfPolicy&>(cpu.policy());
    r::Task& t = cpu.create_task({.name = "t", .priority = 1},
                                 [](r::Task& self) { self.compute(10_us); });
    t.set_absolute_deadline(Time::zero());
    pol.declare_task(t, 10_us, 100_us);
    sim.run();
    EXPECT_EQ(sim.now(), 10_us); // never left full speed while running
}

TEST_P(DvfsEngineTest, OutOfRangePolicyLevelIsAnEngineError) {
    struct BadPolicy : r::PriorityPreemptivePolicy {
        std::size_t dvfs_level(const r::Processor&, const r::Task*) override {
            return 99;
        }
    };
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<BadPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel({{400'000, 1000}, {100'000, 500}}));
    cpu.create_task({.name = "t", .priority = 1},
                    [](r::Task& self) { self.compute(1_us); });
    // The threaded engine raises the error on the RTOS thread and sim.run()
    // rethrows it; the procedural engine raises it on the task's own thread,
    // which unwinds and terminates the task before it ever ran.
    bool threw = false;
    try {
        sim.run();
    } catch (const k::SimulationError&) {
        threw = true;
    }
    if (!threw) {
        EXPECT_TRUE(cpu.tasks()[0]->terminated());
        EXPECT_EQ(cpu.tasks()[0]->stats().running_time, Time::zero());
    }
}

TEST_P(DvfsEngineTest, EnergyConservationHoldsUnderPreemptionAndOverheads) {
    // A busier scene: CC-RM, three tasks with staggered starts, preemption,
    // uniform overheads and a switch cost. The ledger identity
    //   busy + overhead == sum(task exec + ov) + unattributed
    // must hold bit-exactly whatever the interleaving.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::CcRmPolicy>(), GetParam());
    cpu.set_dvfs(r::DvfsModel(
        {{800'000, 1100}, {600'000, 900}, {400'000, 800}, {200'000, 700}}));
    r::RtosOverheads ov = r::RtosOverheads::uniform(1_us);
    ov.frequency_switch = r::OverheadModel(2_us);
    cpu.set_overheads(ov);
    auto& pol = dynamic_cast<r::CcRmPolicy&>(cpu.policy());
    auto body = [](r::Task& self) { self.compute(30_us); };
    r::Task& t1 = cpu.create_task({.name = "t1", .priority = 3}, body);
    r::Task& t2 = cpu.create_task({.name = "t2", .priority = 7, .start_time = 20_us}, body);
    r::Task& t3 = cpu.create_task({.name = "t3", .priority = 5, .start_time = 40_us}, body);
    pol.declare_task(t1, 40_us, 200_us);
    pol.declare_task(t2, 40_us, 100_us);
    pol.declare_task(t3, 40_us, 400_us);
    sim.run();

    r::Energy attributed = 0;
    for (const auto& t : cpu.tasks()) {
        EXPECT_GT(t->energy_exec(), r::Energy{0}) << t->name();
        attributed += t->energy_exec() + t->energy_overhead();
    }
    EXPECT_EQ(cpu.energy().busy + cpu.energy().overhead,
              attributed + cpu.energy().unattributed);
    EXPECT_GT(cpu.energy().overhead, r::Energy{0});
}

TEST_P(DvfsEngineTest, KillMidContextLoadKeepsEnergyConserved) {
    // A kill that lands inside a task's context-load charge cuts the charge
    // short. The overhead ledger folds the elapsed share of the load at the
    // kill instant, so the split must book the same share, or
    //   busy + overhead == sum(task exec + ov) + unattributed
    // breaks (explorer seed 6352).
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    cpu.set_dvfs(r::DvfsModel({{800'000, 1100}, {400'000, 800}}));
    cpu.set_overheads(r::RtosOverheads::uniform(10_us));
    RecordingObserver rec;
    cpu.add_observer(rec);
    r::Task& victim = cpu.create_task({.name = "victim", .priority = 5},
                                      [](r::Task& self) { self.compute(40_us); });
    cpu.create_task({.name = "other", .priority = 1},
                    [](r::Task& self) { self.compute(30_us); });
    sim.spawn("killer", [&] {
        k::wait(15_us);
        victim.kill();
    });
    sim.run();

    // The kill landed inside the victim's context load.
    bool mid_load = false;
    for (const auto& o : rec.overheads)
        if (o.kind == r::OverheadKind::context_load && o.about == "victim" &&
            o.start < 15_us && 15_us < o.start + o.duration)
            mid_load = true;
    EXPECT_TRUE(mid_load);
    EXPECT_TRUE(victim.killed());

    r::Energy attributed = 0;
    for (const auto& t : cpu.tasks())
        attributed += t->energy_exec() + t->energy_overhead();
    EXPECT_EQ(cpu.energy().busy + cpu.energy().overhead,
              attributed + cpu.energy().unattributed);
    EXPECT_GT(victim.energy_overhead(), r::Energy{0});
}

INSTANTIATE_TEST_SUITE_P(BothEngines, DvfsEngineTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread));
