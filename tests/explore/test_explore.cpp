// Unit tests for the bounded schedule-space explorer: the stateless-DFS
// enumeration itself (driven by a synthetic RunCheck with a fixed decision
// structure — no simulator involved), the frontier persistence round-trip,
// and the ModelSpec adapter on small hand-written models with a countable
// schedule space.
//
// Also pins the two bugs the explorer's first sweeps found (regression
// tests live here because they assert through explore_model, which the
// plain fuzz regression suite does not link):
//  - seed 401: a synchronously self-granted task body (procedural engine)
//    started at its sweep position instead of the runnable-queue tail a
//    notify-granted winner gets, so a flipped same-instant tie-break made
//    cross-CPU semaphore traffic interleave differently per engine. Fixed
//    with kernel yield() in await_dispatch/block_timed.
//  - seed 881: charge() booked the full overhead energy before k::wait(d);
//    a simulation horizon cutting the run mid-wait left the attributed
//    split ahead of the time-folded ledger total (BROKEN-ENERGY). Fixed by
//    booking charge-wise energy only after the wait completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/model_check.hpp"
#include "fuzz/spec.hpp"

namespace ex = rtsc::explore;
namespace fuzz = rtsc::fuzz;

namespace {

/// One synthetic decision point: CPU it belongs to and slot count.
struct Point {
    std::string cpu;
    std::uint32_t n;
};

/// A deterministic RunCheck over a fixed decision structure. Prescribed
/// slots replay per-CPU in observation order, free decisions take slot 0.
/// When `ran` is set, each run appends the to_text of the full trace it
/// ran (every decision's chosen slot): the schedule's identity.
ex::RunCheck synthetic(std::vector<Point> points,
                       std::function<bool(const std::vector<std::uint32_t>&)>
                           violates = nullptr,
                       std::vector<std::string>* ran = nullptr) {
    return [points = std::move(points), violates = std::move(violates),
            ran](const ex::DecisionTrace& trace) {
        ex::RunOutcome out;
        std::map<std::string, std::size_t> cursor;
        std::vector<std::uint32_t> chosen;
        ex::DecisionTrace schedule;
        for (const auto& p : points) {
            ex::Decision d;
            d.cpu = p.cpu;
            d.task = "t";
            d.n = p.n;
            std::size_t& cur = cursor[p.cpu];
            const auto it = trace.find(p.cpu);
            if (it != trace.end() && cur < it->second.size()) {
                d.chosen = it->second[cur];
                d.forced = true;
            }
            ++cur;
            chosen.push_back(d.chosen);
            schedule[p.cpu].push_back(d.chosen);
            out.log.push_back(std::move(d));
        }
        if (ran != nullptr) ran->push_back(ex::to_text(schedule));
        if (violates != nullptr && violates(chosen)) {
            out.violation = true;
            out.diagnosis = "synthetic violation";
        }
        return out;
    };
}

} // namespace

TEST(Explorer, EnumeratesFullProductOnOneCpu) {
    // Two decision points with 2 and 3 slots: 6 distinct schedules.
    std::vector<std::string> ran;
    ex::Explorer e(synthetic({{"cpu0", 2}, {"cpu0", 3}}, nullptr, &ran),
                   ex::Bounds{});
    const ex::ExploreResult r = e.run();
    EXPECT_EQ(r.schedules, 6u);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(r.clipped_branches, 0u);
    ASSERT_EQ(ran.size(), 6u);
    const std::set<std::string> uniq(ran.begin(), ran.end());
    EXPECT_EQ(uniq.size(), 6u) << "each schedule must be visited exactly once";
}

TEST(Explorer, EnumeratesCrossCpuProduct) {
    std::vector<std::string> ran;
    ex::Explorer e(synthetic({{"cpu0", 2}, {"cpu1", 2}}, nullptr, &ran),
                   ex::Bounds{});
    const ex::ExploreResult r = e.run();
    EXPECT_EQ(r.schedules, 4u);
    EXPECT_TRUE(r.complete);
    ASSERT_EQ(ran.size(), 4u);
    const std::set<std::string> uniq(ran.begin(), ran.end());
    EXPECT_EQ(uniq.size(), 4u);
}

TEST(Explorer, FindsViolatingScheduleAndItsCounterexampleReplays) {
    // Exactly one of the 6 choice strings violates; the DFS must find it
    // and hand back a trace that reproduces it.
    const auto bad = [](const std::vector<std::uint32_t>& chosen) {
        return chosen == std::vector<std::uint32_t>{1, 2};
    };
    const auto check = synthetic({{"cpu0", 2}, {"cpu0", 3}}, bad);
    ex::Explorer e(check, ex::Bounds{});
    const ex::ExploreResult r = e.run();
    ASSERT_TRUE(r.violation);
    EXPECT_EQ(r.diagnosis, "synthetic violation");
    const ex::RunOutcome replay = check(r.counterexample);
    EXPECT_TRUE(replay.violation) << "counterexample did not reproduce";
}

TEST(Explorer, FrontierRoundTripResumesToCompletion) {
    const std::vector<Point> pts{{"cpu0", 2}, {"cpu0", 3}};
    ex::Bounds b;
    b.max_schedules = 2; // stop early, twice
    ex::Explorer e1(synthetic(pts), b);
    const ex::ExploreResult r1 = e1.run();
    EXPECT_EQ(r1.schedules, 2u);
    EXPECT_FALSE(r1.complete);
    ASSERT_FALSE(e1.frontier_empty());

    std::stringstream saved;
    e1.save_frontier(saved);

    ex::Bounds rest;
    rest.max_schedules = 1u << 20;
    ex::Explorer e2(synthetic(pts), rest);
    e2.load_frontier(saved);
    const ex::ExploreResult r2 = e2.run();
    EXPECT_TRUE(r2.complete);
    EXPECT_TRUE(e2.frontier_empty());
    // Totals are cumulative across the resumed runs.
    EXPECT_EQ(r2.schedules, 6u);
}

TEST(Explorer, LoadFrontierRejectsMalformedInput) {
    ex::Explorer e(synthetic({{"cpu0", 2}}), ex::Bounds{});
    std::stringstream bad("not-a-frontier v9\n");
    EXPECT_THROW(e.load_frontier(bad), std::runtime_error);
}

TEST(Explorer, LoadFrontierRejectsBadCounters) {
    for (const std::string field :
         {"schedules=-5", "schedules=abc", "clipped=",
          "schedules=18446744073709551616"}) {
        ex::Explorer e(synthetic({{"cpu0", 2}}), ex::Bounds{});
        std::stringstream in("explore-frontier v1 " + field + "\n");
        try {
            e.load_frontier(in);
            ADD_FAILURE() << field << " loaded";
        } catch (const std::runtime_error& err) {
            // The message names the field and quotes its text.
            const std::string what = err.what();
            const std::string name = field.substr(0, field.find('=') + 1);
            const std::string text = field.substr(field.find('=') + 1);
            EXPECT_NE(what.find(name), std::string::npos) << what;
            EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
        }
    }
    // In-range counters still load; the `pruned=` counter older frontier
    // files carry is accepted and ignored.
    ex::Explorer e(synthetic({{"cpu0", 2}}), ex::Bounds{});
    std::stringstream ok("explore-frontier v1 schedules=18446744073709551615 "
                         "pruned=0 clipped=3\ncpu0:1\n");
    EXPECT_NO_THROW(e.load_frontier(ok));
    EXPECT_FALSE(e.frontier_empty());
}

TEST(Explorer, MaxGroupClipsWideWindowsAndReportsIncomplete) {
    ex::Bounds b;
    b.max_group = 2; // window wider than 2 alternatives is clipped
    ex::Explorer e(synthetic({{"cpu0", 5}}), b);
    const ex::ExploreResult r = e.run();
    EXPECT_GT(r.clipped_branches, 0u);
    EXPECT_FALSE(r.complete) << "a clipped enumeration must not claim completeness";
    EXPECT_FALSE(r.violation);
}

TEST(Explorer, MaxDecisionsClipsDeepTraces) {
    ex::Bounds b;
    b.max_decisions = 1;
    ex::Explorer e(synthetic({{"cpu0", 2}, {"cpu0", 2}}), b);
    const ex::ExploreResult r = e.run();
    EXPECT_EQ(r.schedules, 2u) << "only the first decision may branch";
    EXPECT_GT(r.clipped_branches, 0u);
    EXPECT_FALSE(r.complete);
}

TEST(DecisionTrace, TextRoundTrip) {
    ex::DecisionTrace t;
    t["cpu0"] = {1, 0, 2};
    t["cpu1"] = {0};
    const std::string text = ex::to_text(t);
    EXPECT_EQ(text, "cpu0:1,0,2;cpu1:0");
    EXPECT_EQ(ex::trace_from_text(text), t);
    EXPECT_EQ(ex::to_text(ex::DecisionTrace{}), "-");
    EXPECT_EQ(ex::trace_from_text("-"), ex::DecisionTrace{});
    EXPECT_THROW(ex::trace_from_text("cpu0:x"), std::runtime_error);
}

TEST(DecisionTrace, SlotsMustFitU32) {
    const ex::DecisionTrace max = ex::trace_from_text("cpu0:4294967295");
    EXPECT_EQ(max.at("cpu0"), std::vector<std::uint32_t>{UINT32_MAX});
    // 2^32 + 1 used to narrow to slot 1.
    for (const char* bad : {"cpu0:4294967297", "cpu0:4294967296",
                            "cpu0:99999999999999999999", "cpu0:+1",
                            "cpu0:-1", "cpu0:1,", "cpu0: 1"})
        EXPECT_THROW(ex::trace_from_text(bad), std::runtime_error) << bad;
}

TEST(DecisionTrace, StreamsCompareAsTheirRows) {
    // same_streams compares per-CPU streams field by field; it agrees with
    // comparing decision_rows, including when the CPUs interleave
    // differently.
    const auto decision = [](const char* cpu, std::uint64_t at,
                             const char* task, std::uint32_t chosen) {
        ex::Decision d;
        d.cpu = cpu;
        d.task = task;
        d.at_ps = at;
        d.n = 3;
        d.chosen = chosen;
        return d;
    };
    const ex::DecisionLog a = {decision("cpu0", 5, "A", 0),
                               decision("cpu1", 5, "B", 1),
                               decision("cpu0", 9, "C", 2)};
    const ex::DecisionLog interleaved = {a[1], a[0], a[2]};
    ex::DecisionLog chosen = interleaved;
    chosen[2].chosen = 1;
    ex::DecisionLog front = a;
    front[1].front = true;
    const ex::DecisionLog per_cpu_order = {a[2], a[1], a[0]};
    const ex::DecisionLog other_cpu = {a[0], decision("cpu2", 5, "B", 1), a[2]};
    const ex::DecisionLog shorter = {a[0], a[1]};
    for (const ex::DecisionLog& b :
         {a, interleaved, chosen, front, per_cpu_order, other_cpu, shorter}) {
        EXPECT_EQ(ex::same_streams(a, b),
                  ex::decision_rows(a) == ex::decision_rows(b))
            << ex::log_to_text(b);
        EXPECT_EQ(ex::same_streams(b, a), ex::same_streams(a, b));
    }
    EXPECT_TRUE(ex::same_streams(a, interleaved));
    EXPECT_FALSE(ex::same_streams(a, chosen));
    EXPECT_FALSE(ex::same_streams(a, per_cpu_order));
    EXPECT_FALSE(ex::same_streams(a, other_cpu));
}

// ---------------------------------------------------------- model adapter

TEST(ExploreModel, TwoEqualTasksHaveExactlyTwoSchedules) {
    // Two same-priority, same-start tasks on one FIFO CPU: the only
    // reachable nondeterminism is their arrival tie-break — exactly two
    // schedules, both clean.
    const fuzz::ModelSpec spec = fuzz::from_text(R"spec(
model seed=1 horizon=0
cpu policy=fifo quantum=0 preemptive=0 sched=0 load=0 save=0 formula=0 fswitch=0 dvfs=-
task name=A cpu=0 prio=1 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=0 dur=5000000 timeout=0 repeat=1
task name=B cpu=0 prio=1 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=0 dur=3000000 timeout=0 repeat=1
)spec");
    const ex::ModelReport r = ex::explore_model(spec, ex::ModelCheckConfig{});
    EXPECT_FALSE(r.violation) << r.diagnosis;
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.schedules, 2u);
}

TEST(ExploreModel, SporadicOffsetsMultiplyVariants) {
    // One aperiodic task quantized over 4 offsets: 4 variants, each its own
    // (singleton) schedule space.
    const fuzz::ModelSpec spec = fuzz::from_text(R"spec(
model seed=1 horizon=0
cpu policy=fifo quantum=0 preemptive=0 sched=0 load=0 save=0 formula=0 fswitch=0 dvfs=-
task name=A cpu=0 prio=1 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=0 dur=5000000 timeout=0 repeat=1
)spec");
    ex::ModelCheckConfig cfg;
    cfg.offsets = 4;
    cfg.offset_window_ps = 4'000'000;
    const ex::ModelReport r = ex::explore_model(spec, cfg);
    EXPECT_FALSE(r.violation) << r.diagnosis;
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.variants.size(), 4u);
    EXPECT_EQ(r.schedules, 4u);
}

TEST(ExploreModel, DefaultRunDefinesTheBaselineError) {
    // No processors: every leg fails with the same error under the default
    // schedule. That run defines the baseline, so it is model behaviour,
    // not a schedule-dependent failure.
    const fuzz::ModelSpec spec = fuzz::from_text("model seed=1 horizon=0\n");
    const ex::RunOutcome self = ex::check_model_once(spec, {}, nullptr);
    EXPECT_FALSE(self.error.empty());
    EXPECT_FALSE(self.violation) << self.diagnosis;
    const ex::ModelReport r = ex::explore_model(spec, ex::ModelCheckConfig{});
    EXPECT_FALSE(r.violation) << r.diagnosis;
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.schedules, 1u);
}

TEST(ExploreModel, FailureUnlikeTheBaselineIsAViolation) {
    // The same failing run checked against a default run that completed.
    const fuzz::ModelSpec spec = fuzz::from_text("model seed=1 horizon=0\n");
    const std::string other_error; // the default run completed
    const ex::RunOutcome out = ex::check_model_once(spec, {}, &other_error);
    EXPECT_TRUE(out.violation);
    EXPECT_NE(out.diagnosis.find("schedule-dependent failure"),
              std::string::npos)
        << out.diagnosis;
}

// ------------------------------------------------- pinned explorer finds

TEST(FuzzRegression, Seed401CrossCpuSemaphoreInstant) {
    // Shrunk from generated seed 401. Under the flipped tie-break (T0 ahead
    // of the ISR in cpu0's round-robin queue) T0's sem_release collides at
    // one instant with T2's acquires on cpu1; the engines must resolve the
    // cross-CPU interleaving identically for EVERY enumerable schedule.
    const fuzz::ModelSpec spec = fuzz::from_text(R"spec(
model seed=401 horizon=0
cpu policy=rr quantum=32000000 preemptive=1 sched=1500000 load=0 save=500000 formula=0 fswitch=0 dvfs=-
cpu policy=rr quantum=22000000 preemptive=0 sched=1500000 load=0 save=0 formula=0 fswitch=0 dvfs=-
sem initial=2 prio=0
irq cpu=0 prio=12 period=105000000 jitter=0 until=886000000 cost=8000000 maxpend=0
task name=T0 cpu=0 prio=5 start=0 period=311000000 act=1 deadline=0 trigger=0
op d=0 kind=sem_release target=2 dur=25000000 timeout=44000000 repeat=1
task name=T2 cpu=1 prio=5 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=sem_acquire target=4 dur=8000000 timeout=30000000 repeat=3
)spec");
    const ex::ModelReport r = ex::explore_model(spec, ex::ModelCheckConfig{});
    EXPECT_FALSE(r.violation) << r.diagnosis << "\ntrace: "
                              << ex::to_text(r.counterexample);
    EXPECT_TRUE(r.complete);
}

TEST(FuzzRegression, Seed881HorizonCutDvfsOverheadEnergy) {
    // Shrunk from generated seed 881: the horizon cuts the last ISR's
    // overhead charge on the DVFS CPU mid-wait. The charge-wise energy
    // booking must stay behind the time-based fold (conservation row).
    const fuzz::ModelSpec spec = fuzz::from_text(R"spec(
model seed=881 horizon=542612048
cpu policy=fifo quantum=0 preemptive=0 sched=0 load=0 save=0 formula=0 fswitch=0 dvfs=-
cpu policy=static_rm quantum=0 preemptive=1 sched=1500000 load=500000 save=500000 formula=0 fswitch=0 dvfs=2000000:1000,1000000:800
irq cpu=1 prio=8 period=180000000 jitter=1000000 until=1491000000 cost=1000000 maxpend=0
)spec");
    const ex::ModelReport r = ex::explore_model(spec, ex::ModelCheckConfig{});
    EXPECT_FALSE(r.violation) << r.diagnosis;
    EXPECT_TRUE(r.complete);
}
