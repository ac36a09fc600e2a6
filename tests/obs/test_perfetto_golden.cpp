// Golden bytes of two Perfetto exports of a fixed short MPEG-2 run: the
// streamed export with the full live-telemetry stack (collector, attribution,
// sampler, relation accesses) and the batch export of the same run. The
// stream-vs-batch matrix compares the two writers with each other, so it
// cannot see a byte change they share through obs::pfmt; these pins can.
//
// A deliberate change to the export format regenerates the pins: the test
// prints the observed length and digest on a mismatch.
//
// The kernel's `activations` counter track counts context switches, which
// skip-ahead's inline wake makes fewer of without changing anything else.
// So each streamed export also has a pin with those counter events removed:
// it holds across such a change, which proves only that one track moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "campaign/fnv.hpp"
#include "kernel/simulator.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "trace/recorder.hpp"
#include "workload/mpeg2.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace o = rtsc::obs;
namespace tr = rtsc::trace;
namespace w = rtsc::workload;

namespace {

struct Golden {
    std::size_t bytes;
    std::uint64_t fnv1a;
};

Golden golden_of(const std::string& text) {
    rtsc::campaign::Fnv1a h;
    h.bytes(text.data(), text.size());
    return {text.size(), h.value()};
}

/// `text` without the lines of the kernel `activations` counter events
/// (what `grep -v '"name": "activations"'` keeps).
std::string without_activations(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
        const std::string_view line(text.data() + pos, end - pos);
        if (line.find(R"("name": "activations")") == std::string_view::npos)
            out.append(line);
        pos = end;
    }
    return out;
}

struct Exports {
    Golden stream;
    Golden stream_without_activations;
    Golden batch;
    o::PerfettoStreamWriter::Stats stats;
};

/// 120 frames of the MPEG-2 SoC, observed by a Recorder (batch export) and
/// by the streaming stack at the same time. `tag` keeps the export files of
/// tests that ctest runs in parallel apart.
Exports export_mpeg2(r::EngineKind engine, std::string_view tag = "") {
    const std::string path =
        "golden_mpeg2_" + std::string(tag) +
        (engine == r::EngineKind::procedure_calls ? "proc" : "thread") +
        ".perfetto.json";
    std::string batch_text;
    o::PerfettoStreamWriter::Stats stats;
    {
        k::Simulator sim;
        w::Mpeg2Config cfg;
        cfg.frames = 120;
        cfg.engine = engine;
        w::Mpeg2System soc(cfg);

        o::MetricsRegistry registry;
        o::MetricsCollector collector(registry);
        o::Attribution attribution;
        collector.set_attribution(&attribution);
        tr::Recorder rec;
        o::PerfettoStreamWriter writer(path);
        o::MetricsSampler sampler(writer);
        for (r::Processor* cpu : soc.sw_processors()) {
            collector.attach(*cpu);
            rec.attach(*cpu);
            writer.attach(*cpu);
            sampler.attach(*cpu);
        }
        for (rtsc::mcse::Relation* rel : soc.relations()) {
            rec.attach(*rel);
            writer.attach(*rel);
        }
        sampler.start(sim);
        sim.run_until(cfg.frame_period * cfg.frames + k::Time::ms(5));

        writer.finish(&attribution);
        stats = writer.stats();
        std::ostringstream os;
        o::PerfettoOptions opts;
        opts.attribution = &attribution;
        o::write_perfetto_json(os, rec, opts);
        batch_text = os.str();
    }
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    std::remove(path.c_str());
    const std::string stream_text = buf.str();
    return {golden_of(stream_text), golden_of(without_activations(stream_text)),
            golden_of(batch_text), stats};
}

void expect_golden(const Golden& got, const Golden& want, const char* what) {
    EXPECT_EQ(got.bytes, want.bytes) << what;
    EXPECT_EQ(got.fnv1a, want.fnv1a)
        << what << ": observed {" << got.bytes << ", 0x" << std::hex
        << got.fnv1a << "ull}";
}

} // namespace

TEST(PerfettoGoldenTest, ProceduralExportsKeepTheirBytes) {
    const Exports ex = export_mpeg2(r::EngineKind::procedure_calls);
    expect_golden(ex.stream, {2184827, 0x14a3153c79496af6ull}, "streamed export");
    expect_golden(ex.stream_without_activations, {2172997, 0xaae2a28ad0bad394ull},
                  "streamed export without activations");
    expect_golden(ex.batch, {1980471, 0xdc3026dd9a8f1ed3ull}, "batch export");
}

TEST(PerfettoGoldenTest, ThreadedExportsKeepTheirBytes) {
    const Exports ex = export_mpeg2(r::EngineKind::rtos_thread);
    expect_golden(ex.stream, {2184829, 0x64935c04829e9219ull}, "streamed export");
    expect_golden(ex.stream_without_activations, {2172992, 0xac2ffd8861dc7ad4ull},
                  "streamed export without activations");
    expect_golden(ex.batch, {1980471, 0x4113318f7ec6334bull}, "batch export");
}

TEST(PerfettoGoldenTest, StreamStatsKeepTheirCounts) {
    // The writer's own account of the golden runs: events, windows handed to
    // the spool and the event bytes they carried (the file minus its 18-byte
    // head and 4-byte tail).
    for (const auto engine :
         {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread}) {
        const bool proc = engine == r::EngineKind::procedure_calls;
        const Exports ex = export_mpeg2(engine, "stats_");
        EXPECT_EQ(ex.stats.events, 14296u);
        EXPECT_EQ(ex.stats.flushes, 34u);
        EXPECT_EQ(ex.stats.spooled_bytes, proc ? 2184805u : 2184807u);
        EXPECT_EQ(ex.stats.spooled_bytes + 22, ex.stream.bytes);
        EXPECT_LE(ex.stats.peak_window_bytes, 64u * 1024 + 2048);
    }
}
