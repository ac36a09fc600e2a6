// MetricsSampler tests: counter events land on the right tracks with
// per-counter monotonic timestamps, utilization/overhead values are
// plausible shares of each period, DVFS power appears only on DVFS-enabled
// processors, kernel self-description counters advance, registry mirroring
// records gauges, and sampling never perturbs simulated behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "rtos/dvfs.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace o = rtsc::obs;
using namespace rtsc::kernel::time_literals;

namespace {

struct Sampled {
    o::json::ValuePtr root;
    o::MetricsRegistry reg;
    std::uint64_t samples = 0;
    std::uint64_t dispatches = 0;

    explicit Sampled(bool with_dvfs = false) {
        k::Simulator sim;
        r::Processor cpu("cpu");
        cpu.set_overheads(r::RtosOverheads::uniform(2_us));
        if (with_dvfs)
            cpu.set_dvfs(r::DvfsModel({{1'000'000, 1'000}, {500'000, 800}}));
        o::PerfettoStreamWriter stream("sampler_test.perfetto.json");
        stream.attach(cpu);
        o::MetricsSampler sampler(
            stream, o::MetricsSampler::Options{.period = 50_us});
        sampler.attach(cpu);
        sampler.set_registry(&reg);
        sampler.start(sim);

        cpu.create_task({.name = "worker", .priority = 3}, [](r::Task& self) {
            for (int i = 0; i < 10; ++i) {
                self.compute(30_us);
                self.sleep_for(20_us);
            }
        });
        sim.run();
        samples = sampler.samples();
        dispatches = cpu.engine().phase_stats().dispatches;
        stream.finish();

        std::ifstream is("sampler_test.perfetto.json");
        std::stringstream buf;
        buf << is.rdbuf();
        root = o::json::parse(buf.str());
        std::remove("sampler_test.perfetto.json");
    }
};

} // namespace

TEST(MetricsSamplerTest, EmitsMonotonicCounterTracks) {
    const Sampled s;
    EXPECT_GE(s.samples, 10u); // ~500us horizon / 50us period
    const auto* events = s.root->get("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<std::string, double> last_ts;
    std::map<std::string, std::size_t> count;
    for (const auto& ev : events->arr) {
        if (ev->get("ph")->str != "C") continue;
        const std::string name = ev->get("name")->str;
        const double ts = ev->get("ts")->num;
        const double value = ev->get("args")->get("value")->num;
        const auto it = last_ts.find(name);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second) << name;
        }
        last_ts[name] = ts;
        ++count[name];
        if (name == "utilization_pct" || name == "overhead_pct") {
            EXPECT_GE(value, 0.0) << name;
            EXPECT_LE(value, 100.0) << name;
        }
        if (name == "ready_depth") {
            EXPECT_GE(value, 0.0);
        }
    }
    for (const char* required :
         {"utilization_pct", "overhead_pct", "ready_depth", "dispatches",
          "delta_cycles", "activations", "timed_live", "timed_tombstones",
          "timed_compactions"})
        EXPECT_EQ(count[required], s.samples) << required;
    EXPECT_EQ(count.count("power_w"), 0u); // no DVFS on this cpu
    // The worker computed for 300 of 500 us: some period must show load.
    bool busy_seen = false;
    for (const auto& ev : events->arr)
        if (ev->get("ph")->str == "C" &&
            ev->get("name")->str == "utilization_pct" &&
            ev->get("args")->get("value")->num > 10.0)
            busy_seen = true;
    EXPECT_TRUE(busy_seen);
}

TEST(MetricsSamplerTest, KernelCountersLiveOnTheirOwnProcess) {
    const Sampled s;
    const auto* events = s.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    // "kernel" gets its own process meta past the marker pid; cpu counters
    // stay on pid 1.
    int kernel_pid = -1;
    for (const auto& ev : events->arr)
        if (ev->get("name")->str == "process_name" &&
            ev->get("args")->get("name")->str == "kernel")
            kernel_pid = static_cast<int>(ev->get("pid")->num);
    ASSERT_GT(kernel_pid, 1);
    for (const auto& ev : events->arr) {
        if (ev->get("ph")->str != "C") continue;
        const std::string name = ev->get("name")->str;
        const int pid = static_cast<int>(ev->get("pid")->num);
        if (name == "delta_cycles" || name == "activations") {
            EXPECT_EQ(pid, kernel_pid) << name;
        }
        if (name == "utilization_pct") {
            EXPECT_EQ(pid, 1) << name;
        }
    }
}

TEST(MetricsSamplerTest, DvfsPowerTrackAppearsWithDvfs) {
    const Sampled s(/*with_dvfs=*/true);
    const auto* events = s.root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t power_samples = 0;
    bool nonzero = false;
    for (const auto& ev : events->arr) {
        if (ev->get("ph")->str != "C" || ev->get("name")->str != "power_w")
            continue;
        ++power_samples;
        EXPECT_GE(ev->get("args")->get("value")->num, 0.0);
        if (ev->get("args")->get("value")->num > 0.0) nonzero = true;
    }
    EXPECT_EQ(power_samples, s.samples);
    EXPECT_TRUE(nonzero); // the worker burned energy in some period
}

TEST(MetricsSamplerTest, MirrorsReadingsIntoRegistry) {
    const Sampled s;
    const auto* util = s.reg.find_gauge("cpu.utilization_pct");
    ASSERT_NE(util, nullptr);
    EXPECT_EQ(util->samples(), s.samples);
    EXPECT_GE(util->max(), 10.0);
    const auto* deltas = s.reg.find_gauge("kernel.delta_cycles");
    ASSERT_NE(deltas, nullptr);
    EXPECT_GT(deltas->last(), 0.0);
}

TEST(MetricsSamplerTest, SamplingDoesNotPerturbTheSimulation) {
    // Dispatch count with the sampler running equals a bare run's.
    const Sampled s;
    k::Simulator sim;
    r::Processor cpu("cpu");
    cpu.set_overheads(r::RtosOverheads::uniform(2_us));
    cpu.create_task({.name = "worker", .priority = 3}, [](r::Task& self) {
        for (int i = 0; i < 10; ++i) {
            self.compute(30_us);
            self.sleep_for(20_us);
        }
    });
    sim.run();
    EXPECT_EQ(cpu.engine().phase_stats().dispatches, s.dispatches);
}
