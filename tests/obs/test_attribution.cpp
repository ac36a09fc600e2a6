// Causal latency attribution (obs::Attribution):
//   - the conservation invariant — components sum bit-exactly to the
//     observed response time on every job, under BOTH engines;
//   - engine equivalence of the full per-job decomposition;
//   - exactness — the preemption blame of a rate-monotonic set must equal
//     the interference term of exact response-time analysis (R_i - C_i);
//   - blocking chains and priority-inversion detection on the paper's
//     Figure 7 scenario, and chain depth 2 with nested critical sections;
//   - deadline-miss reports naming the critical path;
//   - job views: each keeps its own preemptors, and the completion hook
//     sees the view job_view() returns afterwards.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/response_time.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/shared_variable.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "rtos/interrupt.hpp"
#include "rtos/processor.hpp"
#include "trace/constraints.hpp"
#include "workload/mpeg2.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace an = rtsc::analysis;
namespace w = rtsc::workload;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

const r::EngineKind kEngines[] = {r::EngineKind::procedure_calls,
                                  r::EngineKind::rtos_thread};

/// Every completed job, in completion order.
std::vector<o::Attribution::JobView> all_jobs(const o::Attribution& a) {
    std::vector<o::Attribution::JobView> out;
    for (std::size_t i = 0; i < a.job_count(); ++i)
        out.push_back(a.job_view(i));
    return out;
}

/// Canonical text form of every decomposition field, for engine diffs.
std::vector<std::string> serialize(const o::Attribution& a) {
    std::vector<std::string> rows;
    for (const auto& v : all_jobs(a)) {
        const auto& j = v.blame;
        std::string row = v.task->name() + " #" + std::to_string(j.index) +
                          (j.aborted ? " aborted" : "") +
                          " rel=" + std::to_string(j.release.raw_ps()) +
                          " end=" + std::to_string(j.end.raw_ps()) +
                          " exec=" + std::to_string(j.exec.raw_ps()) +
                          " ovs=" + std::to_string(j.ov_scheduling.raw_ps()) +
                          " ovl=" + std::to_string(j.ov_load.raw_ps()) +
                          " ovv=" + std::to_string(j.ov_save.raw_ps()) +
                          " resid=" + std::to_string(j.residual.raw_ps()) +
                          " intr=" + std::to_string(j.interrupt.raw_ps()) +
                          " pre[";
        for (const auto& [who, t] : v.preempted_by)
            row += who->name() + ":" + std::to_string(t.raw_ps()) + " ";
        row += "] blk[";
        for (const auto& [what, t] : v.blocked_on)
            row += what + ":" + std::to_string(t.raw_ps()) + " ";
        row += "]";
        rows.push_back(std::move(row));
    }
    return rows;
}

void expect_conserving(const o::Attribution& a, const char* label) {
    ASSERT_NE(a.job_count(), 0u) << label;
    for (const auto& v : all_jobs(a)) {
        const auto& j = v.blame;
        const std::string& task = v.task->name();
        EXPECT_EQ(j.components_sum(), j.response())
            << label << ": " << task << " #" << j.index;
        // The slices tile [release, end] without gaps or overlap.
        Time covered{};
        Time cursor = j.release;
        for (const auto& s : a.slices_for(v)) {
            EXPECT_EQ(s.start, cursor)
                << label << ": gap in " << task << " #" << j.index;
            covered += s.end - s.start;
            cursor = s.end;
        }
        EXPECT_EQ(cursor, j.end) << label << ": " << task;
        EXPECT_EQ(covered, j.response()) << label << ": " << task;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Conservation + engine equivalence on a scenario exercising every blame
// component: preemption (H over M/L), blocking (M vs L on a shared variable),
// interrupt service (ISR task), RTOS overheads (uniform 3us).
// ---------------------------------------------------------------------------

namespace {

struct FullScenario {
    explicit FullScenario(r::EngineKind kind)
        : cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), kind),
          tick("tick", m::EventPolicy::fugitive),
          nudge("nudge", m::EventPolicy::fugitive),
          sv("shared", 0, m::Protection::none),
          irq("irq") {
        cpu.set_overheads(r::RtosOverheads::uniform(3_us));
        attr.attach(cpu);
        irq.attach_isr(cpu, 20, nullptr, 7_us);

        cpu.create_task({.name = "H", .priority = 9}, [this](r::Task& self) {
            for (int i = 0; i < 3; ++i) {
                tick.await();
                self.compute(15_us);
            }
        });
        cpu.create_task({.name = "M", .priority = 5}, [this](r::Task& self) {
            for (int i = 0; i < 2; ++i) {
                nudge.await();
                auto guard = sv.access();
                guard.value() += 1;
                self.compute(30_us);
            }
        });
        cpu.create_task({.name = "L", .priority = 1}, [this](r::Task& self) {
            auto guard = sv.access();
            guard.value() += 10;
            self.compute(250_us);
        });
        k::Simulator::current().spawn("hw", [this] {
            for (int i = 0; i < 3; ++i) {
                k::wait(80_us);
                tick.signal();
                if (i < 2) nudge.signal();
                irq.raise();
            }
        });
    }

    r::Processor cpu;
    m::Event tick;
    m::Event nudge;
    m::SharedVariable<int> sv;
    r::InterruptLine irq;
    o::Attribution attr;
};

} // namespace

TEST(Attribution, ConservationHoldsOnEveryJobBothEngines) {
    for (const auto kind : kEngines) {
        const char* label = kind == r::EngineKind::procedure_calls
                                ? "procedural"
                                : "threaded";
        k::Simulator sim;
        FullScenario app(kind);
        sim.run();
        expect_conserving(app.attr, label);

        // Every component class showed up somewhere.
        Time pre{}, blk{}, ov{}, intr{};
        for (const auto& v : all_jobs(app.attr)) {
            pre += v.blame.preemption;
            blk += v.blame.blocking;
            ov += v.blame.overhead;
            intr += v.blame.interrupt;
        }
        EXPECT_GT(pre, Time::zero()) << label;
        EXPECT_GT(blk, Time::zero()) << label;
        EXPECT_GT(ov, Time::zero()) << label;
        EXPECT_GT(intr, Time::zero()) << label;
        // No unexplained idle slack inside any response window.
        for (const auto& v : all_jobs(app.attr))
            EXPECT_EQ(v.blame.residual, Time::zero())
                << label << ": " << v.task->name() << " #" << v.blame.index;
    }
}

TEST(Attribution, DecompositionIsEngineEquivalent) {
    std::vector<std::vector<std::string>> runs;
    for (const auto kind : kEngines) {
        k::Simulator sim;
        FullScenario app(kind);
        sim.run();
        runs.push_back(serialize(app.attr));
    }
    ASSERT_FALSE(runs[0].empty());
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(Attribution, CollectorForwardsAndFeedsBlameMetrics) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>());
    o::MetricsRegistry reg;
    o::MetricsCollector coll(reg);
    o::Attribution attr;
    coll.set_attribution(&attr); // the collector subscribes it as well
    coll.attach(cpu);

    m::Event ev("ev", m::EventPolicy::fugitive);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        ev.await();
        self.compute(20_us);
    });
    cpu.create_task({.name = "L", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.spawn("hw", [&] {
        k::wait(50_us);
        ev.signal();
    });
    sim.run();

    expect_conserving(attr, "collector");
    // L was preempted by H exactly once: counter and blame histogram agree
    // with the decomposition.
    ASSERT_NE(reg.find_counter("task.L.preempted_by.H"), nullptr);
    EXPECT_EQ(reg.find_counter("task.L.preempted_by.H")->value(), 1u);
    ASSERT_NE(reg.find_histogram("task.L.blame.preempt_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("task.L.blame.preempt_ps")->max(),
              Time::us(20).raw_ps());
    const auto l_jobs = attr.jobs_for("L");
    ASSERT_EQ(l_jobs.size(), 1u);
    EXPECT_EQ(l_jobs[0].blame.preemption, 20_us);
    EXPECT_EQ(l_jobs[0].blame.exec, 100_us);
}

// ---------------------------------------------------------------------------
// Exactness: simulated preemption blame of a rate-monotonic set must equal
// the interference term of exact response-time analysis. Zero overheads,
// synchronous release at t=0 (the critical instant), one hyperperiod.
// ---------------------------------------------------------------------------

TEST(Attribution, RmPreemptionBlameMatchesResponseTimeAnalysis) {
    // T1(100us, 20us, prio 3), T2(200us, 40us, 2), T3(400us, 80us, 1):
    // R1 = 20, R2 = 60, R3 = 160 by RTA.
    const std::vector<an::PeriodicTask> set = {
        {"T1", 100_us, 20_us, Time::zero(), 3, Time::zero()},
        {"T2", 200_us, 40_us, Time::zero(), 2, Time::zero()},
        {"T3", 400_us, 80_us, Time::zero(), 1, Time::zero()},
    };
    const auto rta = an::response_time_analysis(set);
    ASSERT_EQ(rta.size(), 3u);
    for (const auto& res : rta) ASSERT_TRUE(res.schedulable) << res.name;

    for (const auto kind : kEngines) {
        const char* label = kind == r::EngineKind::procedure_calls
                                ? "procedural"
                                : "threaded";
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        o::Attribution attr;
        attr.attach(cpu);

        for (const auto& t : set) {
            const Time period = t.period;
            const Time wcet = t.wcet;
            const auto jobs =
                static_cast<std::uint32_t>(Time::us(400).raw_ps() /
                                           period.raw_ps());
            cpu.create_task({.name = t.name, .priority = t.priority},
                            [period, wcet, jobs](r::Task& self) {
                                for (std::uint32_t a = 0; a < jobs; ++a) {
                                    if (a != 0) {
                                        const Time rel =
                                            Time::ps(a * period.raw_ps());
                                        self.sleep_until(rel);
                                    }
                                    self.compute(wcet);
                                }
                            });
        }
        sim.run();
        expect_conserving(attr, label);

        for (std::size_t i = 0; i < set.size(); ++i) {
            const auto jobs = attr.jobs_for(set[i].name);
            ASSERT_FALSE(jobs.empty()) << label << ": " << set[i].name;
            // Every job executes exactly its WCET; nothing blocks and the
            // model is overhead-free.
            Time worst{};
            for (const auto& v : jobs) {
                const auto& j = v.blame;
                EXPECT_EQ(j.exec, set[i].wcet) << label << ": " << v.task->name();
                EXPECT_EQ(j.blocking, Time::zero()) << label;
                EXPECT_EQ(j.overhead, Time::zero()) << label;
                EXPECT_EQ(j.interrupt, Time::zero()) << label;
                EXPECT_EQ(j.residual, Time::zero()) << label;
                worst = std::max(worst, j.response());
            }
            // Worst observed response == exact RTA bound.
            ASSERT_TRUE(rta[i].response.has_value()) << set[i].name;
            EXPECT_EQ(worst, *rta[i].response) << label << ": " << set[i].name;
            // Critical instant (job 0): preemption blame equals the RTA
            // interference term R_i - C_i, exactly.
            EXPECT_EQ(jobs[0].blame.preemption, *rta[i].response - set[i].wcet)
                << label << ": " << set[i].name;
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 7: blocking chain and priority-inversion detection.
// ---------------------------------------------------------------------------

namespace {

struct Figure7App {
    Figure7App(r::EngineKind kind, m::Protection protection)
        : cpu("Processor", std::make_unique<r::PriorityPreemptivePolicy>(),
              kind),
          clk("Clk", m::EventPolicy::fugitive),
          event1("Event_1", m::EventPolicy::boolean),
          shared_var("SharedVar_1", 0, protection) {
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        attr.attach(cpu);

        cpu.create_task({.name = "Function_1", .priority = 5},
                        [this](r::Task& self) {
                            clk.await();
                            self.compute(20_us);
                            event1.signal();
                            self.compute(10_us);
                        });
        cpu.create_task({.name = "Function_2", .priority = 3},
                        [this](r::Task&) {
                            event1.await();
                            (void)shared_var.read(10_us);
                        });
        cpu.create_task({.name = "Function_3", .priority = 2},
                        [this](r::Task& self) {
                            (void)shared_var.read(60_us);
                            self.compute(10_us);
                        });
        k::Simulator::current().spawn("Clock", [this] {
            k::wait(70_us);
            clk.signal();
        });
    }

    r::Processor cpu;
    m::Event clk;
    m::Event event1;
    m::SharedVariable<int> shared_var;
    o::Attribution attr;
};

} // namespace

TEST(Attribution, Figure7ReportsTheInversionChain) {
    for (const auto kind : kEngines) {
        const char* label = kind == r::EngineKind::procedure_calls
                                ? "procedural"
                                : "threaded";
        k::Simulator sim;
        Figure7App app(kind, m::Protection::none);
        sim.run();
        expect_conserving(app.attr, label);

        // Exactly one blocking episode: Function_2 (prio 3) blocked on
        // SharedVar_1 held by lower-priority Function_3 (prio 2) from 135
        // to 180 — the paper's priority inversion.
        ASSERT_EQ(app.attr.episodes().size(), 1u) << label;
        const auto& e = app.attr.episodes()[0];
        EXPECT_EQ(e.victim, "Function_2") << label;
        EXPECT_EQ(e.resource, "SharedVar_1") << label;
        EXPECT_EQ(e.owner, "Function_3") << label;
        EXPECT_EQ(e.victim_priority, 3) << label;
        EXPECT_EQ(e.owner_priority, 2) << label;
        EXPECT_TRUE(e.inversion) << label;
        EXPECT_EQ(e.duration(), 45_us) << label; // 135 -> 180
        ASSERT_EQ(e.chain.size(), 2u) << label;
        EXPECT_EQ(e.chain[0], "Function_2") << label;
        EXPECT_EQ(e.chain[1], "Function_3") << label;
        ASSERT_EQ(app.attr.inversions().size(), 1u) << label;

        // The victim's job decomposition shows the same 45us charged to the
        // resource.
        const auto f2 = app.attr.jobs_for("Function_2");
        ASSERT_EQ(f2.size(), 2u) << label; // startup job + triggered job
        const auto& late = f2[1];
        ASSERT_EQ(late.blocked_on.size(), 1u) << label;
        EXPECT_EQ(late.blocked_on[0].first, "SharedVar_1") << label;
        EXPECT_EQ(late.blocked_on[0].second, 45_us) << label;
        EXPECT_EQ(late.blame.blocking, 45_us) << label;
    }
}

TEST(Attribution, Figure7PreemptionLockPreventsTheEpisode) {
    for (const auto kind : kEngines) {
        k::Simulator sim;
        Figure7App app(kind, m::Protection::preemption_lock);
        sim.run();
        // Nobody ever reaches Waiting-for-resource: no episodes, no
        // inversions, no blocking blame anywhere.
        EXPECT_TRUE(app.attr.episodes().empty());
        EXPECT_TRUE(app.attr.inversions().empty());
        for (const auto& v : all_jobs(app.attr))
            EXPECT_EQ(v.blame.blocking, Time::zero()) << v.task->name();
    }
}

TEST(Attribution, Figure7PriorityInheritanceSuppressesInversionFlag) {
    for (const auto kind : kEngines) {
        k::Simulator sim;
        Figure7App app(kind, m::Protection::priority_inheritance);
        sim.run();
        // Blocking may still occur, but the owner is boosted to the victim's
        // priority before the victim blocks — no episode qualifies as an
        // inversion.
        EXPECT_TRUE(app.attr.inversions().empty());
        for (const auto& e : app.attr.episodes())
            EXPECT_GE(e.owner_priority, e.victim_priority) << e.victim;
    }
}

TEST(Attribution, NestedGuardsBuildChainOfDepthTwo) {
    for (const auto kind : kEngines) {
        const char* label = kind == r::EngineKind::procedure_calls
                                ? "procedural"
                                : "threaded";
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        o::Attribution attr;
        attr.attach(cpu);

        m::SharedVariable<int> sv0("sv0", 0, m::Protection::none);
        m::SharedVariable<int> sv1("sv1", 0, m::Protection::none);
        // T0 (low) holds sv1; T1 (mid) holds sv0 then blocks on sv1; T2
        // (high) blocks on sv0 -> chain T2 -> T1 -> T0.
        cpu.create_task({.name = "T0", .priority = 1}, [&](r::Task& self) {
            auto g = sv1.access();
            self.compute(100_us);
        });
        cpu.create_task({.name = "T1",
                         .priority = 2,
                         .start_time = Time::us(10)},
                        [&](r::Task& self) {
                            auto g0 = sv0.access();
                            auto g1 = sv1.access();
                            self.compute(10_us);
                        });
        // T2 must arrive after T1 has taken sv0 and blocked on sv1; with
        // 5us uniform overheads T1 is dispatched at 25us and blocks there,
        // so 45us lands mid-way through T0's resumed critical section.
        cpu.create_task({.name = "T2",
                         .priority = 3,
                         .start_time = Time::us(45)},
                        [&](r::Task& self) {
                            auto g = sv0.access();
                            self.compute(10_us);
                        });
        sim.run();
        expect_conserving(attr, label);

        const o::Attribution::BlockEpisode* deep = nullptr;
        for (const auto& e : attr.episodes())
            if (e.victim == "T2") deep = &e;
        ASSERT_NE(deep, nullptr) << label;
        ASSERT_EQ(deep->chain.size(), 3u) << label;
        EXPECT_EQ(deep->chain[0], "T2") << label;
        EXPECT_EQ(deep->chain[1], "T1") << label;
        EXPECT_EQ(deep->chain[2], "T0") << label;
        EXPECT_EQ(deep->owner, "T1") << label;
        EXPECT_TRUE(deep->inversion) << label;
    }
}

// ---------------------------------------------------------------------------
// Deadline-miss reports: every ConstraintMonitor response violation maps to
// its job decomposition and a human-readable critical path.
// ---------------------------------------------------------------------------

TEST(Attribution, MissReportsNameTheCriticalPath) {
    for (const auto kind : kEngines) {
        const char* label = kind == r::EngineKind::procedure_calls
                                ? "procedural"
                                : "threaded";
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         kind);
        o::Attribution attr;
        attr.attach(cpu);
        rtsc::trace::ConstraintMonitor mon;

        m::Event ev("ev", m::EventPolicy::fugitive);
        cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
            ev.await();
            self.compute(60_us);
        });
        r::Task& low = cpu.create_task({.name = "L", .priority = 1},
                                       [](r::Task& self) {
                                           self.compute(100_us);
                                       });
        mon.require_response(low, 110_us, "L-deadline");
        sim.spawn("hw", [&] {
            k::wait(10_us);
            ev.signal();
        });
        sim.run();

        // L: 10us exec, 60us preempted by H, 90us exec -> response 160us.
        ASSERT_EQ(mon.violations().size(), 1u) << label;
        const auto reports = attr.miss_reports(mon);
        ASSERT_EQ(reports.size(), 1u) << label;
        const auto& rep = reports[0];
        EXPECT_EQ(rep.task, "L") << label;
        EXPECT_EQ(rep.constraint, "L-deadline") << label;
        EXPECT_EQ(rep.measured, 160_us) << label;
        EXPECT_EQ(rep.bound, 110_us) << label;
        ASSERT_TRUE(rep.job.has_value()) << label;
        EXPECT_EQ(rep.job->blame.preemption, 60_us) << label;

        // Critical path: exec, preempted-by-H, exec — and it tiles the
        // response exactly.
        ASSERT_EQ(rep.critical_path.size(), 3u) << label;
        EXPECT_EQ(rep.critical_path[0].reason, "executing") << label;
        EXPECT_EQ(rep.critical_path[1].culprit, "H") << label;
        EXPECT_EQ(rep.critical_path[1].reason, "preempted by H") << label;
        EXPECT_EQ(rep.critical_path[1].duration, 60_us) << label;
        Time total{};
        for (const auto& item : rep.critical_path) total += item.duration;
        EXPECT_EQ(total, rep.measured) << label;
    }
}

// ---------------------------------------------------------------------------
// Job views: one completed-job type for the results and the completion hook.
// ---------------------------------------------------------------------------

TEST(Attribution, ViewsReadInTurnKeepTheirOwnPreemptors) {
    // L's first job is preempted by A, its second by B: two views read one
    // after the other must each keep their own preempted_by.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>());
    o::Attribution attr;
    attr.attach(cpu);
    cpu.create_task({.name = "L", .priority = 1}, [](r::Task& self) {
        self.compute(100_us);
        self.sleep_until(200_us);
        self.compute(100_us);
    });
    cpu.create_task({.name = "A", .priority = 5, .start_time = 20_us},
                    [](r::Task& self) { self.compute(10_us); });
    cpu.create_task({.name = "B", .priority = 6, .start_time = 220_us},
                    [](r::Task& self) { self.compute(30_us); });
    sim.run();

    std::vector<std::size_t> l_jobs;
    for (std::size_t i = 0; i < attr.job_count(); ++i)
        if (attr.job_view(i).task->name() == "L") l_jobs.push_back(i);
    ASSERT_EQ(l_jobs.size(), 2u);
    const o::Attribution::JobView first = attr.job_view(l_jobs[0]);
    const o::Attribution::JobView second = attr.job_view(l_jobs[1]);
    ASSERT_EQ(first.preempted_by.size(), 1u);
    EXPECT_EQ(first.preempted_by[0].first->name(), "A");
    EXPECT_EQ(first.preempted_by[0].second, 10_us);
    ASSERT_EQ(second.preempted_by.size(), 1u);
    EXPECT_EQ(second.preempted_by[0].first->name(), "B");
    EXPECT_EQ(second.preempted_by[0].second, 30_us);
}

TEST(Attribution, CompletionHookViewsMatchJobViewOnMpeg2) {
    // A deep copy of one view: the hook's spans are valid only until the
    // next job is recorded.
    struct Copy {
        const r::Task* task = nullptr;
        std::size_t ordinal = 0;
        o::Attribution::JobBlame blame;
        std::vector<std::pair<std::string, Time>> preempted_by, blocked_on;
        bool operator==(const Copy&) const = default;
    };
    const auto copy = [](const o::Attribution::JobView& v) {
        Copy c{v.task, v.ordinal, v.blame, {}, {}};
        for (const auto& [who, t] : v.preempted_by)
            c.preempted_by.emplace_back(who->name(), t);
        for (const auto& [what, t] : v.blocked_on)
            c.blocked_on.emplace_back(what, t);
        return c;
    };
    for (const auto kind : kEngines) {
        SCOPED_TRACE(kind == r::EngineKind::procedure_calls ? "procedural"
                                                             : "threaded");
        k::Simulator sim;
        w::Mpeg2Config cfg;
        cfg.frames = 120;
        cfg.engine = kind;
        w::Mpeg2System soc(cfg);
        o::Attribution attr;
        std::vector<Copy> seen;
        attr.set_completion_hook(
            [&](const o::Attribution::JobView& v) { seen.push_back(copy(v)); });
        for (r::Processor* cpu : soc.sw_processors()) attr.attach(*cpu);
        sim.run_until(cfg.frame_period * cfg.frames + k::Time::ms(5));

        ASSERT_EQ(seen.size(), attr.job_count());
        std::size_t preempted = 0;
        for (std::size_t i = 0; i < seen.size(); ++i) {
            EXPECT_EQ(seen[i], copy(attr.job_view(i))) << "job " << i;
            if (!seen[i].preempted_by.empty()) ++preempted;
        }
        EXPECT_GT(preempted, 0u);
    }
}
