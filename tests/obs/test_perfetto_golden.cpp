// Golden bytes of two Perfetto exports of a fixed short MPEG-2 run: the
// streamed export with the full live-telemetry stack (collector, attribution,
// sampler, relation accesses) and the batch export of the same run. The
// stream-vs-batch matrix compares the two writers with each other, so it
// cannot see a byte change they share through obs::pfmt; these pins can.
//
// A deliberate change to the export format regenerates the pins: the test
// prints the observed length and digest on a mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

struct Exports {
    Golden stream;
    Golden batch;
};

/// 120 frames of the MPEG-2 SoC, observed by a Recorder (batch export) and
/// by the streaming stack at the same time.
Exports export_mpeg2(r::EngineKind engine) {
    const std::string path =
        std::string("golden_mpeg2_") +
        (engine == r::EngineKind::procedure_calls ? "proc" : "thread") +
        ".perfetto.json";
    std::string batch_text;
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
    return {golden_of(buf.str()), golden_of(batch_text)};
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
    expect_golden(ex.stream, {2184851, 0xf1de35f0de375e83ull}, "streamed export");
    expect_golden(ex.batch, {1980471, 0xdc3026dd9a8f1ed3ull}, "batch export");
}

TEST(PerfettoGoldenTest, ThreadedExportsKeepTheirBytes) {
    const Exports ex = export_mpeg2(r::EngineKind::rtos_thread);
    expect_golden(ex.stream, {2184849, 0xf09a5e7b16bd74fcull}, "streamed export");
    expect_golden(ex.batch, {1980471, 0x4113318f7ec6334bull}, "batch export");
}
