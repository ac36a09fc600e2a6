// Perfetto exporter tests: the emitted trace must be valid JSON in the
// Chrome trace-event schema, slices on one (pid, tid) track must be
// monotonic and non-overlapping, overhead slices live on the processor
// track, fault markers show up as instants, and hostile names survive
// escaping.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_format.hpp"
#include "rtos/processor.hpp"
#include "trace/recorder.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace tr = rtsc::trace;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// Preemption + comm + marker scenario, exported and parsed back.
struct Exported {
    std::string text;
    o::json::ValuePtr root;

    explicit Exported(r::EngineKind engine = r::EngineKind::procedure_calls) {
        k::Simulator sim;
        r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                         engine);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        tr::Recorder rec;
        rec.attach(cpu);
        m::Event irq("irq", m::EventPolicy::boolean);
        rec.attach(irq);
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
        });
        sim.run();

        std::ostringstream os;
        o::write_perfetto_json(os, rec);
        text = os.str();
        root = o::json::parse(text);
    }
};

double num_field(const o::json::Value& e, const char* key) {
    const auto* v = e.get(key);
    EXPECT_NE(v, nullptr) << key;
    EXPECT_TRUE(v == nullptr || v->is_number()) << key;
    return v != nullptr ? v->num : -1;
}

std::string str_field(const o::json::Value& e, const char* key) {
    const auto* v = e.get(key);
    EXPECT_NE(v, nullptr) << key;
    EXPECT_TRUE(v == nullptr || v->is_string()) << key;
    return v != nullptr ? v->str : "";
}

} // namespace

TEST(PerfettoTest, OutputIsValidTraceEventJson) {
    Exported ex;
    ASSERT_TRUE(ex.root->is_object());
    const auto* events = ex.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_FALSE(events->arr.empty());

    for (const auto& ev : events->arr) {
        ASSERT_TRUE(ev->is_object());
        const std::string ph = str_field(*ev, "ph");
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
        EXPECT_FALSE(str_field(*ev, "name").empty());
        EXPECT_GE(num_field(*ev, "pid"), 1.0);
        if (ph == "X") {
            EXPECT_GE(num_field(*ev, "ts"), 0.0);
            EXPECT_GT(num_field(*ev, "dur"), 0.0);
            EXPECT_FALSE(str_field(*ev, "cat").empty());
        }
        if (ph == "i") {
            const std::string scope = str_field(*ev, "s");
            EXPECT_TRUE(scope == "t" || scope == "g") << scope;
        }
    }
}

TEST(PerfettoTest, SlicesPerTrackAreMonotonicAndDisjoint) {
    Exported ex;
    const auto* events = ex.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::pair<int, int>, double> track_end;
    std::size_t slices = 0;
    for (const auto& ev : events->arr) {
        if (str_field(*ev, "ph") != "X") continue;
        ++slices;
        const auto key = std::make_pair(
            static_cast<int>(num_field(*ev, "pid")),
            static_cast<int>(num_field(*ev, "tid")));
        const double ts = num_field(*ev, "ts");
        const double dur = num_field(*ev, "dur");
        const auto it = track_end.find(key);
        if (it != track_end.end()) {
            EXPECT_GE(ts, it->second - 1e-9)
                << "overlapping slices on track pid=" << key.first
                << " tid=" << key.second;
        }
        track_end[key] = std::max(it != track_end.end() ? it->second : 0.0,
                                  ts + dur);
    }
    EXPECT_GE(slices, 6u);        // two tasks' states + overheads
    EXPECT_GE(track_end.size(), 3u); // H, L and the overhead track
}

TEST(PerfettoTest, OverheadSlicesLandOnProcessorTrack) {
    Exported ex;
    const auto* events = ex.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    // Processor "cpu" is pid 1; its RTOS overhead track is tid 0.
    bool named = false;
    std::size_t overheads = 0;
    for (const auto& ev : events->arr) {
        const std::string ph = str_field(*ev, "ph");
        if (ph == "M" && str_field(*ev, "name") == "thread_name" &&
            num_field(*ev, "pid") == 1.0 && num_field(*ev, "tid") == 0.0) {
            named = ev->get("args")->get("name")->str == "cpu.rtos";
        }
        if (ph == "X" && str_field(*ev, "cat") == "rtos") {
            ++overheads;
            EXPECT_EQ(num_field(*ev, "pid"), 1.0);
            EXPECT_EQ(num_field(*ev, "tid"), 0.0);
            const std::string name = str_field(*ev, "name");
            EXPECT_TRUE(name == "scheduling" || name == "context_save" ||
                        name == "context_load")
                << name;
        }
    }
    EXPECT_TRUE(named);
    // One preemption scenario: at least save/sched/load around each switch.
    EXPECT_GE(overheads, 6u);
}

TEST(PerfettoTest, MarkersAndCommsAreInstants) {
    Exported ex;
    const auto* events = ex.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    bool marker = false, comm = false, blocked_comm = false;
    for (const auto& ev : events->arr) {
        if (str_field(*ev, "ph") != "i") continue;
        const std::string cat = str_field(*ev, "cat");
        if (cat == "fault") {
            marker = true;
            EXPECT_EQ(str_field(*ev, "name"), "crash:demo");
            EXPECT_EQ(str_field(*ev, "s"), "g");
            EXPECT_DOUBLE_EQ(num_field(*ev, "ts"), 50.0);
        }
        if (cat == "comm") {
            comm = true;
            EXPECT_EQ(str_field(*ev, "s"), "t");
            if (str_field(*ev, "name").find("[blocked]") != std::string::npos)
                blocked_comm = true;
        }
    }
    EXPECT_TRUE(marker);
    EXPECT_TRUE(comm);
    EXPECT_TRUE(blocked_comm); // H's await blocked before the signal
}

TEST(PerfettoTest, EngineEquivalentExport) {
    // Same scenario, both engines: byte-identical JSON.
    const Exported procedural(r::EngineKind::procedure_calls);
    const Exported threaded(r::EngineKind::rtos_thread);
    EXPECT_EQ(procedural.text, threaded.text);
}

TEST(PerfettoTest, HostileNamesAreEscaped) {
    k::Simulator sim;
    r::Processor cpu("cp\"u");
    cpu.create_task({.name = "na\"me\\with\nnasties\t", .priority = 1},
                    [](r::Task& self) { self.compute(10_us); });
    tr::Recorder rec;
    rec.attach(cpu);
    sim.run();

    std::ostringstream os;
    o::write_perfetto_json(os, rec);
    // Parsing back both validates the escaping and recovers the raw name.
    const auto root = o::json::parse(os.str());
    bool found = false;
    for (const auto& ev : root->get("traceEvents")->arr) {
        if (ev->get("name")->str != "thread_name") continue;
        const auto* args = ev->get("args");
        ASSERT_NE(args, nullptr);
        if (args->get("name")->str == "na\"me\\with\nnasties\t") found = true;
    }
    EXPECT_TRUE(found);
}

TEST(PerfettoTest, JsonEscapeUnit) {
    EXPECT_EQ(o::json_escape("plain"), "plain");
    EXPECT_EQ(o::json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(o::json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(o::json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(o::json_escape(std::string_view("\x01", 1)), "\\u0001");
    EXPECT_EQ(o::json_escape(std::string_view("a\0b", 3)), "a\\u0000b");
    EXPECT_EQ(o::json_escape("\x1f"), "\\u001f");
    // DEL and UTF-8 multibyte sequences are valid inside JSON strings.
    EXPECT_EQ(o::json_escape("\x7f"), "\x7f");
    EXPECT_EQ(o::json_escape("caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x9a\x97"),
              "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x9a\x97");
}

TEST(PerfettoTest, CounterValuesRenderAsPrintfG17) {
    for (const double v : {0.1, -0.0, 5e-324, 1e300, 1.0 / 3, 37.5, 12345.0}) {
        char want[40];
        std::snprintf(want, sizeof want, "%.17g", v);
        o::pfmt::Buffer out;
        o::pfmt::counter(out, o::pfmt::counter_track(1, "c"), 2_us, v);
        EXPECT_EQ(out.view(),
                  std::string("{\"name\": \"c\", \"ph\": \"C\", \"ts\": 2, "
                              "\"pid\": 1, \"tid\": 0, \"args\": "
                              "{\"value\": ") +
                      want + "}}");
    }
    o::pfmt::Buffer out;
    o::pfmt::counter(out, o::pfmt::counter_track(1, "c"), 2_us, 0.1);
    EXPECT_NE(out.view().find("\"value\": 0.10000000000000001}"),
              std::string::npos);
}

TEST(JsonParserTest, RejectsMalformedInput) {
    using o::json::parse;
    using o::json::ParseError;
    EXPECT_THROW((void)parse("{"), ParseError);
    EXPECT_THROW((void)parse("{\"a\": 1} x"), ParseError);
    EXPECT_THROW((void)parse("[1,]"), ParseError);
    EXPECT_THROW((void)parse("\"abc"), ParseError);
    EXPECT_THROW((void)parse("01a"), ParseError);
    EXPECT_THROW((void)parse("{\"a\": \"\x01\"}"), ParseError);
    // Nesting past the cap throws instead of overflowing the stack.
    EXPECT_THROW((void)parse("{\"traceEvents\": " + std::string(200000, '[')),
                 ParseError);
    constexpr std::size_t kMax = o::json::Parser::kMaxDepth;
    EXPECT_NO_THROW((void)parse(std::string(kMax, '[') + std::string(kMax, ']')));
    EXPECT_THROW((void)parse(std::string(kMax + 1, '[') + std::string(kMax + 1, ']')),
                 ParseError);
    const auto v = parse(R"({"a": [1, 2.5, -3e2], "b": {"c": null}, "d": true})");
    ASSERT_TRUE(v->is_object());
    EXPECT_DOUBLE_EQ(v->get("a")->arr[2]->num, -300.0);
    EXPECT_TRUE(v->get("d")->b);
}
