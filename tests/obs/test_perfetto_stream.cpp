// PerfettoStreamWriter tests: the streamed export must carry exactly the
// batch exporter's events (byte-identical after canonical sort) on both
// engines with skip-ahead on and off, stay within its bounded in-memory
// window on long traces, spool atomically (no final file until finish(),
// no spool left behind on abandonment), and receive a fault component's
// markers alongside a trace::Recorder subscribed to the same component.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_stream.hpp"
#include "rtos/processor.hpp"
#include "trace/recorder.hpp"

namespace f = rtsc::fault;
namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace tr = rtsc::trace;
using namespace rtsc::kernel::time_literals;

namespace {

/// Event lines of a trace-event JSON file, trailing commas stripped and
/// sorted: the canonical multiset the stream/batch equivalence is stated
/// over.
std::vector<std::string> canonical_lines(const std::string& path) {
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == ',') line.pop_back();
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::vector<std::string> canonical_lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == ',') line.pop_back();
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

/// Preemption + comm + marker scenario run once, observed by a Recorder
/// (batch export) and a PerfettoStreamWriter at the same time.
struct DualExport {
    std::string batch_text;
    o::PerfettoStreamWriter::Stats stats;
    std::string stream_path;

    DualExport(r::EngineKind engine, bool skip_ahead,
               const std::string& stream_file,
               o::PerfettoStreamWriter::Options opts = {}) {
        stream_path = stream_file;
        k::Simulator sim;
        sim.set_skip_ahead(skip_ahead);
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         engine);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        tr::Recorder rec;
        rec.attach(cpu);
        o::PerfettoStreamWriter stream(stream_file, opts);
        stream.attach(cpu);
        m::Event irq("irq", m::EventPolicy::boolean);
        rec.attach(irq);
        stream.attach(irq);
        cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
            irq.await();
            self.compute(20_us);
        });
        cpu.create_task({.name = "L", .priority = 1},
                        [](r::Task& self) { self.compute(100_us); });
        sim.spawn("hw", [&] {
            k::wait(50_us);
            irq.signal();
            rec.on_marker("fault", "crash:demo");
            stream.on_marker("fault", "crash:demo");
        });
        sim.run();

        std::ostringstream os;
        o::write_perfetto_json(os, rec);
        batch_text = os.str();
        stream.finish();
        stats = stream.stats();
    }
};

} // namespace

TEST(PerfettoStreamTest, MatchesBatchExportAfterCanonicalSort) {
    // Full matrix: both engines x skip-ahead on/off. Every leg's streamed
    // file must carry exactly the batch export's events.
    for (const auto engine :
         {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread}) {
        for (const bool skip : {false, true}) {
            const DualExport ex(engine, skip, "stream_eq.perfetto.json");
            EXPECT_EQ(canonical_lines_of(ex.batch_text),
                      canonical_lines("stream_eq.perfetto.json"))
                << "engine=" << static_cast<int>(engine) << " skip=" << skip;
        }
    }
    std::remove("stream_eq.perfetto.json");
}

TEST(PerfettoStreamTest, StreamedFileIsValidTraceEventJson) {
    const DualExport ex(r::EngineKind::procedure_calls, true,
                        "stream_valid.perfetto.json");
    std::ifstream is("stream_valid.perfetto.json");
    std::stringstream buf;
    buf << is.rdbuf();
    const auto root = o::json::parse(buf.str());
    ASSERT_TRUE(root->is_object());
    const auto* events = root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    EXPECT_EQ(events->arr.size(), ex.stats.events);
    std::remove("stream_valid.perfetto.json");
}

TEST(PerfettoStreamTest, WindowStaysBoundedOnLongTraces) {
    // A long periodic run whose full trace is far larger than the window:
    // the resident buffer must never exceed window_bytes plus one event.
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));
    o::PerfettoStreamWriter stream(
        "stream_window.perfetto.json",
        o::PerfettoStreamWriter::Options{.window_bytes = 2048});
    stream.attach(cpu);
    cpu.create_task({.name = "periodic", .priority = 3}, [](r::Task& self) {
        for (int i = 0; i < 2000; ++i) {
            self.compute(20_us);
            self.sleep_for(30_us);
        }
    });
    sim.run();
    stream.finish();

    const auto& st = stream.stats();
    EXPECT_GE(st.events, 8000u); // states + overheads per iteration
    // Bounded residency: the window never grew past the flush threshold by
    // more than one event (generously capped at 512 bytes here).
    EXPECT_LE(st.peak_window_bytes, 2048u + 512u);
    EXPECT_GE(st.flushes, 10u);
    // The spooled file dwarfs what was ever held in memory.
    EXPECT_GT(st.spooled_bytes, 20u * st.peak_window_bytes);
    std::remove("stream_window.perfetto.json");
}

TEST(PerfettoStreamTest, SpoolRenamedOnlyOnFinish) {
    k::Simulator sim;
    r::Processor cpu("cpu");
    o::PerfettoStreamWriter stream("stream_atomic.perfetto.json");
    stream.attach(cpu);
    cpu.create_task({.name = "t", .priority = 1},
                    [](r::Task& self) { self.compute(10_us); });
    sim.run();

    // Mid-run (before finish) only the writer-unique spool exists.
    const std::string spool = stream.spool_path();
    EXPECT_NE(spool.find("stream_atomic.perfetto.json.spool-"),
              std::string::npos);
    EXPECT_FALSE(std::ifstream("stream_atomic.perfetto.json").good());
    EXPECT_TRUE(std::ifstream(spool).good());
    stream.finish();
    EXPECT_TRUE(std::ifstream("stream_atomic.perfetto.json").good());
    EXPECT_FALSE(std::ifstream(spool).good());
    EXPECT_THROW(stream.finish(), std::logic_error);
    std::remove("stream_atomic.perfetto.json");
}

TEST(PerfettoStreamTest, AbandonedWriterRemovesItsSpool) {
    std::string spool;
    {
        k::Simulator sim;
        r::Processor cpu("cpu");
        o::PerfettoStreamWriter stream("stream_abandoned.perfetto.json");
        spool = stream.spool_path();
        stream.attach(cpu);
        cpu.create_task({.name = "t", .priority = 1},
                        [](r::Task& self) { self.compute(10_us); });
        sim.run();
        EXPECT_TRUE(std::ifstream(spool).good());
        // Destroyed without finish(): e.g. an exception unwound past it.
    }
    EXPECT_FALSE(std::ifstream("stream_abandoned.perfetto.json").good());
    EXPECT_FALSE(std::ifstream(spool).good());
}

TEST(PerfettoStreamTest, ConcurrentWritersToOnePathDoNotShareASpool) {
    // Two live writers targeting the same output (two runs in one cwd):
    // distinct spools, each internally consistent; the last finish() wins
    // the rename, exactly like the batch exporter's last-writer-wins.
    k::Simulator sim;
    r::Processor cpu("cpu");
    o::PerfettoStreamWriter a("stream_race.perfetto.json");
    o::PerfettoStreamWriter b("stream_race.perfetto.json");
    EXPECT_NE(a.spool_path(), b.spool_path());
    a.attach(cpu);
    b.attach(cpu);
    cpu.create_task({.name = "t", .priority = 1},
                    [](r::Task& self) { self.compute(10_us); });
    sim.run();
    a.finish();
    b.finish(); // must not throw: its own spool is still in place
    EXPECT_TRUE(std::ifstream("stream_race.perfetto.json").good());
    EXPECT_FALSE(std::ifstream(a.spool_path()).good());
    EXPECT_FALSE(std::ifstream(b.spool_path()).good());
    std::remove("stream_race.perfetto.json");
}

TEST(PerfettoStreamTest, CounterOnUnattachedProcessorThrows) {
    k::Simulator sim;
    r::Processor attached("a");
    r::Processor unattached("u");
    o::PerfettoStreamWriter stream("stream_counter.perfetto.json");
    stream.attach(attached);
    EXPECT_THROW(stream.counter(unattached, 0_us, "x", 1.0),
                 k::SimulationError);
    stream.counter(attached, 0_us, "x", 1.0); // fine
    stream.finish();
    std::remove("stream_counter.perfetto.json");
}

TEST(PerfettoStreamTest, NonFiniteCounterValueThrows) {
    // JSON has no NaN or infinity literal: rendering one would make the
    // whole export unparseable, so both overloads refuse the sample.
    const std::string path = "stream_nonfinite.perfetto.json";
    k::Simulator sim;
    r::Processor cpu("cpu");
    o::PerfettoStreamWriter stream(path);
    stream.attach(cpu);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(stream.counter(cpu, 0_us, "x", bad), k::SimulationError);
        EXPECT_THROW(stream.counter("kernel", 0_us, "x", bad),
                     k::SimulationError);
    }
    stream.counter(cpu, 0_us, "x", 1.0); // fine
    stream.finish();

    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    const auto root = o::json::parse(buf.str());
    std::size_t counters = 0;
    for (const auto& ev : root->get("traceEvents")->arr) {
        if (ev->get("ph")->str == "C") ++counters;
        // A refused sample allocates no auxiliary counter process.
        if (ev->get("name")->str == "process_name")
            EXPECT_NE(ev->get("args")->get("name")->str, "kernel");
    }
    EXPECT_EQ(counters, 1u);
    std::remove(path.c_str());
}

TEST(PerfettoStreamTest, FaultMarkerReachesRecorderAndStream) {
    // One fault component, two subscribers: the injector's crash marker
    // lands in the recorder (and so the batch export) and in the stream.
    const std::string path = "stream_marker.perfetto.json";
    std::string batch_text;
    {
        k::Simulator sim;
        r::Processor cpu("cpu");
        tr::Recorder rec;
        rec.attach(cpu);
        o::PerfettoStreamWriter stream(path);
        stream.attach(cpu);
        r::Task& victim = cpu.create_task(
            {.name = "victim", .priority = 1},
            [](r::Task& self) { self.compute(100_us); });
        f::FaultPlan plan;
        plan.task_crashes.push_back({&victim, 5_us, false, {}});
        f::FaultInjector injector(sim, plan, 1);
        injector.add_observer(rec);
        injector.add_observer(stream);
        injector.arm();
        sim.run();

        ASSERT_EQ(rec.markers().size(), 1u);
        EXPECT_EQ(rec.markers()[0].category, "fault");
        EXPECT_EQ(rec.markers()[0].name, "crash:victim");
        EXPECT_EQ(rec.markers()[0].at, 5_us);
        std::ostringstream os;
        o::write_perfetto_json(os, rec);
        batch_text = os.str();
        stream.finish();
    }
    const auto marker_lines = [](const std::vector<std::string>& lines) {
        std::vector<std::string> out;
        for (const auto& l : lines)
            if (l.find("crash:victim") != std::string::npos) out.push_back(l);
        return out;
    };
    const auto streamed = marker_lines(canonical_lines(path));
    ASSERT_EQ(streamed.size(), 1u);
    EXPECT_EQ(streamed, marker_lines(canonical_lines_of(batch_text)));
    std::remove(path.c_str());
}
