// Trace-layer tests: recorder contents, timeline segments and rendering,
// CSV and VCD exporters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"
#include "trace/csv.hpp"
#include "trace/recorder.hpp"
#include "trace/timeline.hpp"
#include "trace/vcd.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace tr = rtsc::trace;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {
/// Two-task scenario with one preemption, used by most tests.
struct Scenario {
    Scenario() : cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>()) {
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        rec.attach(cpu);
        rec.attach(irq);
        cpu.create_task({.name = "H", .priority = 5}, [this](r::Task& self) {
            irq.await();
            self.compute(20_us);
        });
        cpu.create_task({.name = "L", .priority = 1},
                        [](r::Task& self) { self.compute(100_us); });
        k::Simulator::current().spawn("hw", [this] {
            k::wait(50_us);
            irq.signal();
        });
    }
    r::Processor cpu;
    m::Event irq{"irq", m::EventPolicy::boolean};
    tr::Recorder rec;
};
} // namespace

TEST(RecorderTest, CapturesStatesOverheadsAndComms) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    EXPECT_FALSE(s.rec.states().empty());
    EXPECT_FALSE(s.rec.overheads().empty());
    ASSERT_FALSE(s.rec.comms().empty());
    // First comm record: H's await did block.
    bool saw_signal = false, saw_await = false;
    for (const auto& c : s.rec.comms()) {
        if (c.kind == m::AccessKind::signal_op) {
            saw_signal = true;
            EXPECT_EQ(c.task, nullptr); // from hardware
            EXPECT_EQ(c.at, 50_us);
        }
        if (c.kind == m::AccessKind::await_op) saw_await = true;
    }
    EXPECT_TRUE(saw_signal);
    EXPECT_TRUE(saw_await);
    EXPECT_EQ(s.rec.all_tasks().size(), 2u);
    s.rec.clear();
    EXPECT_TRUE(s.rec.states().empty());
}

TEST(TimelineTest, SegmentsAreContiguousAndOrdered) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    tr::Timeline tl(s.rec);
    // The trace ends at the last record; final segments close there, never
    // at Time::max() (which used to leak into duration math downstream).
    Time trace_end{};
    for (const auto& st : s.rec.states()) trace_end = std::max(trace_end, st.at);
    for (const auto& o : s.rec.overheads())
        trace_end = std::max(trace_end, o.at + o.duration);
    for (const char* name : {"H", "L"}) {
        const auto segs = tl.segments(name);
        ASSERT_FALSE(segs.empty()) << name;
        for (std::size_t i = 1; i < segs.size(); ++i)
            EXPECT_EQ(segs[i].begin, segs[i - 1].end) << name;
        EXPECT_LT(segs.back().end, Time::max());
        EXPECT_EQ(segs.back().end, trace_end);
        EXPECT_EQ(segs.back().state, r::TaskState::terminated);
    }
    // L was preempted at 50 and resumed at 100 (save/sched + H 20us + save/
    // sched/load). state_at picks the right segment.
    EXPECT_EQ(tl.state_at("L", 49_us), r::TaskState::running);
    EXPECT_EQ(tl.state_at("L", 60_us), r::TaskState::ready);
    EXPECT_EQ(tl.segments("no_such_task").size(), 0u);
}

TEST(TimelineTest, RenderProducesReadableChart) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    std::ostringstream os;
    tr::Timeline(s.rec).render(os, {.columns = 60});
    const std::string chart = os.str();
    EXPECT_NE(chart.find("legend:"), std::string::npos);
    EXPECT_NE(chart.find("H"), std::string::npos);
    EXPECT_NE(chart.find("cpu.rtos"), std::string::npos);
    EXPECT_NE(chart.find('#'), std::string::npos);
    EXPECT_NE(chart.find('o'), std::string::npos);
    EXPECT_NE(chart.find("accesses:"), std::string::npos);
    EXPECT_NE(chart.find("[blocked]"), std::string::npos);
}

TEST(TimelineTest, EmptyWindowHandled) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    std::ostringstream os;
    tr::Timeline(s.rec).render(os, {.from = 10_us, .to = 10_us});
    EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(TimelineTest, DegenerateWindowsNeverDivideByZero) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    // from == to at a non-zero instant, and from beyond the trace end with
    // to defaulted (t1 resolves to the trace end, *before* t0): both spans
    // are degenerate and must not reach the span division.
    for (const tr::Timeline::Options opts :
         {tr::Timeline::Options{.from = 50_us, .to = 50_us},
          tr::Timeline::Options{.from = 10_sec}}) {
        std::ostringstream os;
        tr::Timeline(s.rec).render(os, opts);
        EXPECT_NE(os.str().find("empty"), std::string::npos);
    }
    // An empty recorder renders the same way (trace end == 0 == from).
    tr::Recorder empty;
    std::ostringstream os;
    tr::Timeline(empty).render(os);
    EXPECT_NE(os.str().find("empty"), std::string::npos);
}

/// Both engines: state_at past the trace end clamps to the last recorded
/// state instead of reporting a stale mid-trace one.
class TimelineEngineTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(TimelineEngineTest, StateAtClampsPastTraceEnd) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    tr::Recorder rec;
    rec.attach(cpu);
    cpu.create_task({.name = "T", .priority = 1},
                    [](r::Task& self) { self.compute(30_us); });
    sim.run();

    tr::Timeline tl(rec);
    const auto segs = tl.segments("T");
    ASSERT_FALSE(segs.empty());
    const Time end = segs.back().end;
    EXPECT_LT(end, Time::max());
    EXPECT_EQ(tl.state_at("T", end), r::TaskState::terminated);
    EXPECT_EQ(tl.state_at("T", end + 1_sec), r::TaskState::terminated);
    EXPECT_EQ(tl.state_at("T", Time::max()), r::TaskState::terminated);
    // Mid-trace queries still hit the enclosing segment (task is computing
    // well past the initial scheduling + context-load overheads).
    EXPECT_EQ(tl.state_at("T", 20_us), r::TaskState::running);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TimelineEngineTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "rtos_thread";
                         });

TEST(CsvTest, StateRowsWellFormed) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    std::ostringstream os;
    tr::write_states_csv(os, s.rec);
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "time_us,task,processor,from,to");
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4) << line;
    }
    EXPECT_GE(rows, 8u);
}

TEST(CsvTest, FieldQuotingFollowsRfc4180) {
    // Unremarkable fields pass through untouched...
    EXPECT_EQ(tr::csv_field("decoder"), "decoder");
    EXPECT_EQ(tr::csv_field("a b"), "a b");
    // ...fields with separators/quotes/newlines are quoted, inner quotes
    // doubled.
    EXPECT_EQ(tr::csv_field("a,b"), "\"a,b\"");
    EXPECT_EQ(tr::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(tr::csv_field("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(tr::csv_field("cr\rlf"), "\"cr\rlf\"");
    EXPECT_EQ(tr::csv_field(""), "");
}

TEST(CsvTest, HostileTaskNamesStayOneFieldPerColumn) {
    // Regression: writers emitted names verbatim, so "dec,oder" injected an
    // extra CSV column and '"' unbalanced the row.
    k::Simulator sim;
    r::Processor cpu("cpu,0");
    cpu.create_task({.name = "dec,oder", .priority = 2},
                    [](r::Task& self) { self.compute(10_us); });
    cpu.create_task({.name = "say \"hi\"", .priority = 1},
                    [](r::Task& self) { self.compute(5_us); });
    tr::Recorder rec;
    rec.attach(cpu);
    sim.run();

    std::ostringstream os;
    tr::write_states_csv(os, rec);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("\"dec,oder\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("\"cpu,0\""), std::string::npos);

    // Every row still parses to exactly 5 fields under RFC-4180 rules.
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        int fields = 1;
        bool quoted = false;
        for (const char c : line) {
            if (c == '"') quoted = !quoted;
            if (c == ',' && !quoted) ++fields;
        }
        EXPECT_FALSE(quoted) << line;
        EXPECT_EQ(fields, 5) << line;
    }

    std::ostringstream ovh;
    tr::write_overheads_csv(ovh, rec);
    EXPECT_NE(ovh.str().find("\"dec,oder\""), std::string::npos);
}

TEST(CsvTest, TimestampsKeepSubMicrosecondPrecision) {
    // Regression: times went through Time::to_us() and were printed with
    // default stream precision, collapsing distinct ps instants onto one
    // value. format_us emits the exact decimal instead.
    EXPECT_EQ(tr::format_us(Time::ps(0)), "0");
    EXPECT_EQ(tr::format_us(Time::ps(1)), "0.000001");
    EXPECT_EQ(tr::format_us(Time::ps(1'500'000)), "1.5");
    EXPECT_EQ(tr::format_us(Time::ps(123'456'789)), "123.456789");
    EXPECT_EQ(tr::format_us(Time::us(42)), "42");
    EXPECT_EQ(tr::format_us(Time::ps(1'000'001)), "1.000001");
    EXPECT_EQ(tr::format_us(Time::ps(10)), "0.00001");
    EXPECT_EQ(tr::format_us(Time::ps(999'999)), "0.999999");
    EXPECT_EQ(tr::format_us(Time::ps(std::numeric_limits<std::uint64_t>::max())),
              "18446744073709.551615");

    // End-to-end: two transitions 500 ns apart stay distinct in the CSV.
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.create_task({.name = "T", .priority = 1}, [](r::Task& self) {
        self.compute(Time::ns(1500));
    });
    tr::Recorder rec;
    rec.attach(cpu);
    sim.run();
    std::ostringstream os;
    tr::write_states_csv(os, rec);
    EXPECT_NE(os.str().find("1.5,T,"), std::string::npos);
}

namespace {

/// The formula write_us replaced, kept as the reference: integer part
/// through std::to_chars, six fraction digits, trailing zeros trimmed.
std::string reference_us(std::uint64_t ps) {
    std::string out = std::to_string(ps / 1'000'000u);
    if (std::uint64_t frac = ps % 1'000'000u; frac != 0) {
        char digits[6];
        for (int i = 5; i >= 0; --i, frac /= 10)
            digits[i] = static_cast<char>('0' + frac % 10);
        std::size_t n = 6;
        while (digits[n - 1] == '0') --n;
        out += '.';
        out.append(digits, n);
    }
    return out;
}

} // namespace

TEST(CsvTest, AppendUsMatchesTheReferenceFormula) {
    std::vector<std::uint64_t> values = {
        0, 1, 999'999, 1'000'000, 1'000'001,
        // one to five trailing zeros in the fraction
        1'000'010, 1'000'100, 1'001'000, 1'010'000, 1'100'000,
        123'450'000, 9'999'999'999'999'000,
        // digit-count boundaries of the integer part
        9'999'999, 10'000'000, 999'999'999'999'999, 1'000'000'000'000'000,
        std::numeric_limits<std::uint64_t>::max()};
    std::mt19937_64 rng(20261019);
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t r = rng();
        switch (i % 4) {
            case 0: values.push_back(r); break;                   // anything
            case 1: values.push_back(r % 2'000'000'000'000); break; // seconds
            case 2: values.push_back(r % 2'000'000'000 * 1000); break; // ns grid
            default: values.push_back(r >> (r % 64)); break;   // any width
        }
    }
    for (const std::uint64_t ps : values) {
        std::string out = "x";
        tr::append_us(out, Time::ps(ps));
        ASSERT_EQ(out, "x" + reference_us(ps)) << ps;
        char buf[tr::kMaxUsChars];
        ASSERT_LE(tr::write_us(buf, Time::ps(ps)) - buf,
                  static_cast<std::ptrdiff_t>(tr::kMaxUsChars));
    }
    EXPECT_EQ(reference_us(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709.551615");
}

TEST(RecorderTest, MarkersCaptureInstantEvents) {
    k::Simulator sim;
    tr::Recorder rec;
    sim.spawn("marker_source", [&rec] {
        k::wait(10_us);
        rec.on_marker("fault", "crash:ctl");
        k::wait(5_us);
        rec.on_marker("watchdog", "timeout:ctl");
    });
    sim.run();
    ASSERT_EQ(rec.markers().size(), 2u);
    EXPECT_EQ(rec.markers()[0].at, 10_us);
    EXPECT_EQ(rec.markers()[0].category, "fault");
    EXPECT_EQ(rec.markers()[0].name, "crash:ctl");
    EXPECT_EQ(rec.markers()[1].at, 15_us);
    EXPECT_EQ(rec.markers()[1].category, "watchdog");
    rec.clear();
    EXPECT_TRUE(rec.markers().empty());
}

TEST(CsvTest, CommAndOverheadRows) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    std::ostringstream comms, ovh;
    tr::write_comms_csv(comms, s.rec);
    tr::write_overheads_csv(ovh, s.rec);
    EXPECT_NE(comms.str().find("irq"), std::string::npos);
    EXPECT_NE(comms.str().find("<hw>"), std::string::npos);
    EXPECT_NE(ovh.str().find("context_save"), std::string::npos);
    EXPECT_NE(ovh.str().find("scheduling"), std::string::npos);
}

TEST(VcdTest, WellFormedOutput) {
    k::Simulator sim;
    Scenario s;
    sim.run();
    std::ostringstream os;
    tr::write_vcd(os, s.rec);
    const std::string vcd = os.str();
    EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 3"), std::string::npos);
    EXPECT_NE(vcd.find("cpu_rtos_overhead"), std::string::npos);
    EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(vcd.find("#0"), std::string::npos);
    // Timestamps are monotonically non-decreasing.
    std::istringstream in(vcd);
    std::string line;
    long long prev = -1;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '#') {
            const long long t = std::stoll(line.substr(1));
            EXPECT_GE(t, prev);
            prev = t;
        }
    }
    EXPECT_GE(prev, 0);
}

TEST(VcdTest, VarNamesAreSanitized) {
    // Regression: raw task names went into $var declarations verbatim, so a
    // name with a space produced "$var wire 3 ! my task $end" — an extra
    // token no VCD parser accepts. Reserved characters break parsing too.
    k::Simulator sim;
    r::Processor cpu("main cpu");
    cpu.create_task({.name = "frame decoder", .priority = 2},
                    [](r::Task& self) { self.compute(10_us); });
    cpu.create_task({.name = "io$drain[0]", .priority = 1},
                    [](r::Task& self) { self.compute(5_us); });
    tr::Recorder rec;
    rec.attach(cpu);
    sim.run();

    std::ostringstream os;
    tr::write_vcd(os, rec);
    std::istringstream in(os.str());
    std::string line;
    int vars = 0;
    while (std::getline(in, line)) {
        if (line.rfind("$var", 0) != 0) continue;
        ++vars;
        // "$var wire <w> <id> <name> $end" — exactly 6 tokens.
        std::istringstream tok(line);
        std::string word;
        int words = 0;
        std::string name;
        while (tok >> word) {
            if (++words == 5) name = word;
        }
        EXPECT_EQ(words, 6) << line;
        EXPECT_EQ(name.find('$'), std::string::npos) << line;
        EXPECT_EQ(name.find('['), std::string::npos) << line;
    }
    EXPECT_EQ(vars, 3); // two tasks + one processor overhead wire
    EXPECT_NE(os.str().find("frame_decoder"), std::string::npos);
    EXPECT_NE(os.str().find("io_drain_0_"), std::string::npos);
    EXPECT_NE(os.str().find("main_cpu_rtos_overhead"), std::string::npos);
}

TEST(VcdTest, CollidingNamesAreDeduped) {
    // "a b" and "a_b" both sanitize to "a_b"; identical references would
    // silently merge two signals in the viewer.
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.create_task({.name = "a b", .priority = 2},
                    [](r::Task& self) { self.compute(1_us); });
    cpu.create_task({.name = "a_b", .priority = 1},
                    [](r::Task& self) { self.compute(1_us); });
    tr::Recorder rec;
    rec.attach(cpu);
    sim.run();

    std::ostringstream os;
    tr::write_vcd(os, rec);
    const std::string vcd = os.str();
    EXPECT_NE(vcd.find(" a_b "), std::string::npos);
    EXPECT_NE(vcd.find(" a_b_2 "), std::string::npos);
}
