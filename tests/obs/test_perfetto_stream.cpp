// PerfettoStreamWriter tests: the streamed export must carry exactly the
// batch exporter's events (byte-identical after canonical sort) on both
// engines with skip-ahead on and off and for names that need escaping, stay
// within its bounded in-memory window on long traces, spool atomically (no
// final file until finish(), no spool left behind on abandonment, a failed
// spool write reported by finish()), and receive a fault component's
// markers alongside a trace::Recorder subscribed to the same component.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/message_queue.hpp"
#include "mcse/shared_variable.hpp"
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
    EXPECT_THROW((void)stream.counter_track(unattached, "x"),
                 k::SimulationError);
    stream.counter(stream.counter_track(attached, "x"), 0_us, 1.0); // fine
    stream.finish();
    std::remove("stream_counter.perfetto.json");
}

TEST(PerfettoStreamTest, NonFiniteCounterValueThrows) {
    // JSON has no NaN or infinity literal: rendering one would make the
    // whole export unparseable, so a sample on either kind of track is
    // refused.
    const std::string path = "stream_nonfinite.perfetto.json";
    k::Simulator sim;
    r::Processor cpu("cpu");
    o::PerfettoStreamWriter stream(path);
    stream.attach(cpu);
    const auto on_cpu = stream.counter_track(cpu, "x");
    const auto on_kernel = stream.counter_track(std::string_view{"kernel"}, "x");
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(stream.counter(on_cpu, 0_us, bad), k::SimulationError);
        EXPECT_THROW(stream.counter(on_kernel, 0_us, bad), k::SimulationError);
    }
    stream.counter(on_cpu, 0_us, 1.0); // fine
    stream.finish();

    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    const auto root = o::json::parse(buf.str());
    // A refused sample emits nothing: the one counter event is the finite
    // sample.
    std::vector<double> values;
    for (const auto& ev : root->get("traceEvents")->arr)
        if (ev->get("ph")->str == "C")
            values.push_back(ev->get("args")->get("value")->num);
    EXPECT_EQ(values, std::vector<double>{1.0});
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

namespace {

/// `raw` as obs::json decodes its escaped form: the parser only validates
/// \u escapes and keeps a '?' for them.
std::string as_parsed(std::string raw) {
    for (char& c : raw)
        if (static_cast<unsigned char>(c) < 0x20 &&
            std::string_view("\b\f\n\r\t").find(c) == std::string_view::npos)
            c = '?';
    return raw;
}

} // namespace

TEST(PerfettoStreamTest, HostileNamesRenderIdenticallyInBothWriters) {
    // Every event kind of the shared renderer, with names that need JSON
    // escaping (quote, backslash, newline, a control byte) or carry UTF-8:
    // every task state, every overhead kind with and without the task it
    // was charged for, every access kind blocked and not, by a task and by
    // hardware, and a task charged overhead before its first state change.
    // A small window makes the stream spill through its I/O thread.
    const std::string path = "stream_hostile.perfetto.json";
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92";
    const std::string ctl("c\x01", 2);
    const auto kinds = {m::AccessKind::signal_op, m::AccessKind::await_op,
                        m::AccessKind::write_op,  m::AccessKind::read_op,
                        m::AccessKind::lock_op,   m::AccessKind::unlock_op};
    const auto overheads = {r::OverheadKind::scheduling,
                            r::OverheadKind::context_load,
                            r::OverheadKind::context_save,
                            r::OverheadKind::frequency_switch};
    std::string batch_text;
    {
        k::Simulator sim;
        r::Processor cpu("cpu \"" + utf8 + "\"\n",
                         std::make_unique<r::PriorityPreemptivePolicy>());
        cpu.set_overheads(r::RtosOverheads::uniform(2_us));
        // Created before the observers attach: neither sees it until the
        // overhead injected below, long before its release.
        r::Task& late = cpu.create_task(
            {.name = ctl + "late\\", .priority = 1, .start_time = 400_us},
            [](r::Task& self) { self.compute(5_us); });
        tr::Recorder rec;
        rec.attach(cpu);
        o::PerfettoStreamWriter stream(
            path, o::PerfettoStreamWriter::Options{.window_bytes = 1024});
        stream.attach(cpu);
        m::Event ev("ev\"" + ctl, m::EventPolicy::boolean);
        m::MessageQueue<int> mq("q\\ue\nue " + utf8, 1);
        m::SharedVariable<int> sv("s\tv" + ctl, 0);
        for (m::Relation* rel :
             std::initializer_list<m::Relation*>{&ev, &mq, &sv}) {
            rec.attach(*rel);
            stream.attach(*rel);
        }
        // hi: waits for the event (waiting), blocks on the variable lo holds
        // (waiting_resource), then reads the queue empty (blocked read).
        r::Task& hi = cpu.create_task(
            {.name = "hi \"" + utf8 + "\"", .priority = 5, .start_time = 1_us},
            [&](r::Task& self) {
                ev.await();
                {
                    auto guard = sv.access();
                    self.compute(3_us);
                }
                (void)mq.read();
                self.compute(2_us);
            });
        // lo: holds the variable while hi preempts it (ready), then hands
        // hi a message.
        cpu.create_task({.name = "lo\\\n" + ctl, .priority = 2},
                        [&](r::Task& self) {
                            {
                                auto guard = sv.access();
                                self.compute(30_us);
                            }
                            mq.write(1);
                            self.compute(4_us);
                        });
        sim.spawn("hw", [&] {
            k::wait(10_us);
            ev.signal(); // by hardware: "<hw>"
            k::wait(100_us);
            // Every access kind, blocked and not, by a task and by hardware.
            for (const m::AccessKind kind : kinds)
                for (const bool blocked : {false, true})
                    for (const r::Task* who :
                         {&hi, static_cast<r::Task*>(nullptr)}) {
                        rec.on_access(mq, who, kind, blocked);
                        stream.on_access(mq, who, kind, blocked);
                    }
            // Every overhead kind with and without its task; `late` has had
            // no state change yet.
            const k::Time at = sim.now();
            for (const r::OverheadKind kind : overheads)
                for (const r::Task* about :
                     {&late, &hi, static_cast<r::Task*>(nullptr)}) {
                    rec.on_overhead(cpu, kind, at, 1_us, about);
                    stream.on_overhead(cpu, kind, at, 1_us, about);
                }
        });
        sim.run();
        EXPECT_TRUE(late.terminated());

        std::ostringstream os;
        o::write_perfetto_json(os, rec);
        batch_text = os.str();
        stream.finish();
        EXPECT_GT(stream.stats().flushes, 1u);
    }
    const auto streamed = canonical_lines(path);
    EXPECT_EQ(canonical_lines_of(batch_text), streamed);
    // Every state the tasks passed through shows up as a slice, and every
    // event line is one JSON object whose names decode back to the raw ones.
    std::set<std::string> names;
    for (const std::string& line : streamed) {
        if (line.front() != '{' || line.back() != '}') continue; // document
        const auto ev = o::json::parse(line);
        ASSERT_TRUE(ev->is_object()) << line;
        names.insert(ev->get("name")->str);
        if (const auto* args = ev->get("args"))
            if (const auto* task = args->get("task")) names.insert(task->str);
    }
    for (const char* state : {"ready", "running", "waiting", "waiting_resource"})
        EXPECT_TRUE(names.count(state)) << state;
    for (const std::string& n :
         {"hi \"" + utf8 + "\"", "lo\\\n" + ctl, ctl + "late\\",
          std::string("<hw>"), std::string("signal [blocked]"),
          std::string("frequency_switch")})
        EXPECT_TRUE(names.count(as_parsed(n))) << n;
    std::remove(path.c_str());
}

TEST(PerfettoStreamTest, HostileCounterNamesRoundTrip) {
    const std::string path = "stream_hostile_counters.perfetto.json";
    const std::string name = std::string("u\"ti\\l\n\x01 ", 9) + "\xc3\xa9";
    {
        k::Simulator sim;
        r::Processor cpu("cpu");
        o::PerfettoStreamWriter stream(path);
        stream.attach(cpu);
        const auto track = stream.counter_track(cpu, name);
        stream.counter(track, 0_us, 1.5);
        stream.counter(stream.counter_track(std::string_view{"kern\"el\n"}, name),
                       1_us, -2.0);
        stream.counter(track, 2_us, 0.25);
        stream.finish();
    }
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    const auto root = o::json::parse(buf.str());
    std::vector<double> values;
    bool aux_named = false;
    for (const auto& ev : root->get("traceEvents")->arr) {
        if (ev->get("ph")->str == "C") {
            EXPECT_EQ(ev->get("name")->str, as_parsed(name));
            values.push_back(ev->get("args")->get("value")->num);
        }
        if (ev->get("name")->str == "process_name" &&
            ev->get("args")->get("name")->str == "kern\"el\n")
            aux_named = true;
    }
    EXPECT_EQ(values, (std::vector<double>{1.5, -2.0, 0.25}));
    EXPECT_TRUE(aux_named);
    std::remove(path.c_str());
}

namespace {

/// A periodic task whose trace is far larger than a small window, so the
/// writer spills many windows through its I/O thread.
void run_periodic(k::Simulator& sim, r::Processor& cpu, int iterations) {
    cpu.set_overheads(r::RtosOverheads::uniform(1_us));
    cpu.create_task({.name = "periodic", .priority = 3},
                    [iterations](r::Task& self) {
                        for (int i = 0; i < iterations; ++i) {
                            self.compute(20_us);
                            self.sleep_for(30_us);
                        }
                    });
    sim.run();
}

} // namespace

TEST(PerfettoStreamTest, WriterUnwoundMidRunJoinsItsThreadAndRemovesItsSpool) {
    std::string spool;
    std::size_t flushes = 0;
    try {
        k::Simulator sim;
        r::Processor cpu("cpu");
        o::PerfettoStreamWriter stream(
            "stream_unwound.perfetto.json",
            o::PerfettoStreamWriter::Options{.window_bytes = 512});
        spool = stream.spool_path();
        stream.attach(cpu);
        run_periodic(sim, cpu, 500);
        flushes = stream.stats().flushes;
        throw std::runtime_error("unwind mid-run");
    } catch (const std::runtime_error&) {
    }
    EXPECT_GT(flushes, 10u); // the I/O thread was running
    EXPECT_FALSE(std::ifstream(spool).good());
    EXPECT_FALSE(std::ifstream("stream_unwound.perfetto.json").good());
}

TEST(PerfettoStreamTest, FailingSpoolWriteSurfacesFromFinish) {
    // A child process whose files may not grow past 4 KiB, with SIGXFSZ
    // ignored so an oversized write fails with EFBIG instead of killing it:
    // the I/O thread's failing writes must surface as a SimulationError from
    // finish(), and the spool must not survive.
    const std::string path = "stream_efbig.perfetto.json";
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        int code = 3;
        {
            ::signal(SIGXFSZ, SIG_IGN);
            const rlimit limit{4096, 4096};
            ::setrlimit(RLIMIT_FSIZE, &limit);
            std::string spool;
            try {
                k::Simulator sim;
                r::Processor cpu("cpu");
                o::PerfettoStreamWriter stream(
                    path, o::PerfettoStreamWriter::Options{.window_bytes = 1024});
                spool = stream.spool_path();
                stream.attach(cpu);
                run_periodic(sim, cpu, 200);
                try {
                    stream.finish();
                    code = 1; // the failure went unreported
                } catch (const k::SimulationError&) {
                    code = 0;
                }
            } catch (...) {
                code = 2;
            }
            if (code == 0 && std::ifstream(spool).good()) code = 4;
            if (code == 0 && std::ifstream(path).good()) code = 5;
        }
        ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << status;
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: finish() succeeded, 2: unexpected exception, 4: spool left, "
           "5: output written";
    std::remove(path.c_str());
}
