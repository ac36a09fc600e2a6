// Trace-query round-trip: run a scenario with blocking, preemption and a
// deadline miss, export it through the Perfetto writer with attribution
// enabled, then load the file back through obs::query and check that every
// row survives the trip with exact picosecond values. Also exercises the
// renderers (human tables and --json documents, the latter re-parsed through
// obs::json as a schema check).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/shared_variable.hpp"
#include "obs/attribution.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/query.hpp"
#include "rtos/processor.hpp"
#include "trace/constraints.hpp"
#include "trace/recorder.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace q = rtsc::obs::query;
namespace tr = rtsc::trace;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

constexpr double kUs = 1e6; // picoseconds per microsecond

/// Priority-inversion scenario with a response-time violation, exported with
/// full attribution and loaded back. L (prio 1) holds sv for its whole
/// 100us compute; H (prio 5) wakes at 10us, blocks on sv until 100us, then
/// computes 10us -> response 100us against a 50us bound.
struct RoundTrip {
    std::string path;
    q::TraceData data;

    RoundTrip() {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         r::EngineKind::procedure_calls);
        tr::Recorder rec;
        rec.attach(cpu);
        o::Attribution attr;
        attr.attach(cpu);
        tr::ConstraintMonitor mon;

        m::SharedVariable<int> sv("sv", 0, m::Protection::none);
        m::Event ev("ev", m::EventPolicy::fugitive);
        cpu.create_task({.name = "L", .priority = 1}, [&](r::Task& self) {
            auto g = sv.access();
            self.compute(100_us);
        });
        r::Task& high = cpu.create_task({.name = "H", .priority = 5},
                                        [&](r::Task& self) {
                                            ev.await();
                                            auto g = sv.access();
                                            self.compute(10_us);
                                        });
        mon.require_response(high, 50_us, "H-deadline");
        sim.spawn("hw", [&] {
            k::wait(10_us);
            ev.signal();
        });
        sim.run();

        const auto misses = attr.miss_reports(mon);
        path = "query_roundtrip.perfetto.json";
        o::write_perfetto_file(path, rec,
                               {.attribution = &attr, .misses = &misses});
        data = q::load(path);
    }

    ~RoundTrip() { std::remove(path.c_str()); }

    const q::JobRow* job(const std::string& task, std::uint64_t index) const {
        for (const auto& j : data.jobs)
            if (j.task == task && j.index == index) return &j;
        return nullptr;
    }
};

} // namespace

TEST(TraceQuery, JobRowsCarryTheExactDecomposition) {
    RoundTrip rt;
    // H's job #0 (await at t=0) has zero response and is not exported.
    EXPECT_EQ(rt.job("H", 0), nullptr);

    const q::JobRow* h = rt.job("H", 1);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->release_ps, 10 * kUs);
    EXPECT_EQ(h->response_ps, 100 * kUs);
    EXPECT_EQ(h->exec_ps, 10 * kUs);
    EXPECT_EQ(h->block_ps, 90 * kUs);
    EXPECT_EQ(h->preempt_ps, 0.0);
    EXPECT_FALSE(h->aborted);
    ASSERT_EQ(h->blocked_on.size(), 1u);
    EXPECT_EQ(h->blocked_on[0].first, "sv");
    EXPECT_EQ(h->blocked_on[0].second, 90 * kUs);

    const q::JobRow* l = rt.job("L", 0);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->exec_ps, 100 * kUs);
    // Conservation survives the export/load trip on every row.
    for (const auto& j : rt.data.jobs)
        EXPECT_EQ(j.exec_ps + j.preempt_ps + j.block_ps + j.overhead_ps +
                      j.interrupt_ps,
                  j.response_ps)
            << j.task << " #" << j.index;
}

TEST(TraceQuery, ChainRowsNameTheInversion) {
    RoundTrip rt;
    ASSERT_EQ(rt.data.chains.size(), 1u);
    const auto& c = rt.data.chains[0];
    EXPECT_EQ(c.victim, "H");
    EXPECT_EQ(c.owner, "L");
    EXPECT_EQ(c.resource, "sv");
    EXPECT_EQ(c.victim_priority, 5);
    EXPECT_EQ(c.owner_priority, 1);
    EXPECT_TRUE(c.inversion);
    EXPECT_EQ(c.start_ps, 10 * kUs);
    EXPECT_EQ(c.duration_ps, 90 * kUs);
    ASSERT_EQ(c.chain.size(), 2u);
    EXPECT_EQ(c.chain[0], "H");
    EXPECT_EQ(c.chain[1], "L");
}

TEST(TraceQuery, MissRowsCarryTheCriticalPath) {
    RoundTrip rt;
    ASSERT_EQ(rt.data.misses.size(), 1u);
    const auto& miss = rt.data.misses[0];
    EXPECT_EQ(miss.task, "H");
    EXPECT_EQ(miss.constraint, "H-deadline");
    EXPECT_EQ(miss.measured_ps, 100 * kUs);
    EXPECT_EQ(miss.bound_ps, 50 * kUs);
    ASSERT_FALSE(miss.critical_path.empty());
    double total = 0;
    bool saw_block = false;
    for (const auto& item : miss.critical_path) {
        total += item.dur_ps;
        if (item.reason.find("blocked on sv") != std::string::npos)
            saw_block = true;
    }
    EXPECT_EQ(total, miss.measured_ps);
    EXPECT_TRUE(saw_block);
}

TEST(TraceQuery, RenderersProduceTablesAndValidJson) {
    RoundTrip rt;
    // Human tables mention the actors involved.
    const std::string blame = q::render_blame(rt.data, "", false);
    EXPECT_NE(blame.find("H"), std::string::npos);
    EXPECT_NE(blame.find("sv"), std::string::npos);
    const std::string chains = q::render_chains(rt.data, true, false);
    EXPECT_NE(chains.find("INVERSION"), std::string::npos);
    const std::string misses = q::render_misses(rt.data, false);
    EXPECT_NE(misses.find("H-deadline"), std::string::npos);

    // Filtering by task keeps only that task's rows.
    const std::string only_l = q::render_blame(rt.data, "L", false);
    EXPECT_EQ(only_l.find("H #"), std::string::npos);

    // --json output is valid obs::json with the documented top-level keys.
    const auto jb = o::json::parse(q::render_blame(rt.data, "", true));
    ASSERT_TRUE(jb->is_object());
    ASSERT_NE(jb->get("jobs"), nullptr);
    EXPECT_TRUE(jb->get("jobs")->is_array());
    const auto jc = o::json::parse(q::render_chains(rt.data, false, true));
    ASSERT_NE(jc->get("chains"), nullptr);
    EXPECT_EQ(jc->get("chains")->arr.size(), 1u);
    const auto jm = o::json::parse(q::render_misses(rt.data, true));
    ASSERT_NE(jm->get("misses"), nullptr);
    EXPECT_EQ(jm->get("misses")->arr.size(), 1u);
}

TEST(TraceQuery, PlainExportYieldsEmptyRowSetsAndBadFilesThrow) {
    {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         r::EngineKind::procedure_calls);
        tr::Recorder rec;
        rec.attach(cpu);
        cpu.create_task({.name = "a", .priority = 1},
                        [](r::Task& self) { self.compute(10_us); });
        sim.run();
        o::write_perfetto_file("query_plain.perfetto.json", rec, {});
        const auto d = q::load("query_plain.perfetto.json");
        EXPECT_TRUE(d.jobs.empty());
        EXPECT_TRUE(d.chains.empty());
        EXPECT_TRUE(d.misses.empty());
        std::remove("query_plain.perfetto.json");
    }
    EXPECT_THROW(q::load("definitely-not-here.json"), std::runtime_error);
}

TEST(TraceQuery, DvfsEnergyFieldsSurviveTheRoundTripWithEscapedNames) {
    // A DVFS run attaches energy to every job row; a task name full of JSON
    // metacharacters must survive export -> load -> --json re-render intact.
    const std::string weird = "t\"quo\\te\tx";
    const std::string path = "query_energy.perfetto.json";
    {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         r::EngineKind::procedure_calls);
        cpu.set_dvfs(r::DvfsModel::single(500'000, 900));
        tr::Recorder rec;
        rec.attach(cpu);
        o::Attribution attr;
        attr.attach(cpu);
        cpu.create_task({.name = weird, .priority = 1},
                        [](r::Task& self) { self.compute(10_us); });
        sim.run();
        o::write_perfetto_file(path, rec, {.attribution = &attr});
    }
    const q::TraceData d = q::load(path);
    ASSERT_EQ(d.jobs.size(), 1u);
    const q::JobRow& j = d.jobs[0];
    EXPECT_EQ(j.task, weird);
    ASSERT_TRUE(j.has_energy);
    // 10 us at 500 MHz / 0.9 V, exactly f * V^2 * t model units.
    EXPECT_EQ(j.energy_exec_fj, rtsc::rtos::energy_to_string(
                                    rtsc::rtos::Energy(500'000) * 900 * 900 *
                                    10'000'000));
    EXPECT_EQ(j.energy_overhead_fj, "0");
    EXPECT_GT(j.energy_exec_j, 0.0);

    // --json re-parses as valid JSON with the weird name and energy intact.
    const auto doc = o::json::parse(q::render_blame(d, "", true));
    ASSERT_TRUE(doc->is_object());
    const o::json::Value* jobs = doc->get("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->arr.size(), 1u);
    const o::json::Value* task = jobs->arr[0]->get("task");
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->str, weird);
    ASSERT_NE(jobs->arr[0]->get("energy_exec_fj"), nullptr);
    EXPECT_EQ(jobs->arr[0]->get("energy_exec_fj")->str, j.energy_exec_fj);
    std::remove(path.c_str());
}

TEST(TraceQuery, TruncatedExportFailsInsteadOfReturningPartialData) {
    const std::string path = "query_truncated.perfetto.json";
    {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         r::EngineKind::procedure_calls);
        tr::Recorder rec;
        rec.attach(cpu);
        o::Attribution attr;
        attr.attach(cpu);
        cpu.create_task({.name = "a", .priority = 1},
                        [](r::Task& self) { self.compute(10_us); });
        sim.run();
        o::write_perfetto_file(path, rec, {.attribution = &attr});
    }
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(text.size(), 10u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size() / 2));
    out.close();
    EXPECT_THROW(q::load(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceQuery, HostileIntegerFieldsThrowNamingTheField) {
    // Job ordinals are unsigned 64-bit and priorities int: a negative, huge,
    // fractional or out-of-range number is a malformed field, not a value to
    // cast.
    const std::string path = "query_hostile.perfetto.json";
    const auto write = [&path](const std::string& index, const std::string& job,
                               const std::string& victim_priority,
                               const std::string& owner_priority) {
        std::ofstream(path)
            << "{\"traceEvents\": [\n"
               "{\"name\": \"job #0\", \"cat\": \"job\", \"ph\": \"X\", "
               "\"ts\": 0, \"dur\": 1, \"pid\": 1, \"tid\": 2, \"args\": "
               "{\"task\": \"H\", \"index\": "
            << index
            << ", \"release_ps\": 0, \"end_ps\": 1000000, \"response_ps\": "
               "1000000, \"aborted\": false, \"exec_ps\": 1000000, "
               "\"preempt_ps\": 0, \"block_ps\": 0, \"overhead_ps\": 0, "
               "\"interrupt_ps\": 0, \"preempted_by\": {}, \"blocked_on\": "
               "{}}},\n"
               "{\"name\": \"blocked on sv\", \"cat\": \"blocking_chain\", "
               "\"ph\": \"i\", \"ts\": 0, \"pid\": 1, \"tid\": 2, \"args\": "
               "{\"victim\": \"H\", \"job\": "
            << job << ", \"resource\": \"sv\", \"owner\": \"L\", "
            << "\"victim_priority\": " << victim_priority
            << ", \"owner_priority\": " << owner_priority
            << ", \"duration_ps\": 0, \"inversion\": true, \"chain\": [\"H\", "
               "\"L\"], \"aggravators\": []}}\n]}\n";
    };
    const auto expect_rejected = [&path](const std::string& field,
                                         const std::string& value) {
        try {
            (void)q::load(path);
            ADD_FAILURE() << field << " = " << value << " was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
                      std::string::npos)
                << field << " = " << value << ": " << e.what();
        }
    };

    write("3", "3", "-2147483648", "2147483647");
    const q::TraceData d = q::load(path);
    ASSERT_EQ(d.jobs.size(), 1u);
    EXPECT_EQ(d.jobs[0].index, 3u);
    ASSERT_EQ(d.chains.size(), 1u);
    EXPECT_EQ(d.chains[0].job, 3u);
    EXPECT_EQ(d.chains[0].victim_priority, std::numeric_limits<int>::min());
    EXPECT_EQ(d.chains[0].owner_priority, std::numeric_limits<int>::max());

    for (const std::string bad : {"-1", "1e300", "2.5", "18446744073709551616"}) {
        write(bad, "0", "5", "1");
        expect_rejected("index", bad);
        write("0", bad, "5", "1");
        expect_rejected("job", bad);
    }
    for (const std::string bad : {"-2147483649", "2147483648", "1e300", "2.5"}) {
        write("0", "0", bad, "1");
        expect_rejected("victim_priority", bad);
        write("0", "0", "5", bad);
        expect_rejected("owner_priority", bad);
    }
    std::remove(path.c_str());
}
