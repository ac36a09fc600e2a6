#include "obs/sampler.hpp"

#include "rtos/dvfs.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

MetricsSampler::MetricsSampler(PerfettoStreamWriter& out, Options opts)
    : out_(out), opts_(opts) {
    if (opts_.period.is_zero())
        throw k::SimulationError("MetricsSampler period must be non-zero");
}

void MetricsSampler::attach(rtos::Processor& cpu) {
    cpus_.emplace_back().cpu = &cpu;
}

void MetricsSampler::start(kernel::Simulator& sim) {
    k::Process& p = sim.spawn("metrics_sampler", [this, &sim] {
        for (;;) {
            sample(sim);
            k::wait(opts_.period);
        }
    });
    p.set_daemon(true);     // exempt from deadlock/stall diagnostics
    p.set_background(true); // never keeps an open-ended run() alive
}

void MetricsSampler::record(const rtos::Processor* cpu, Handle& track,
                            std::string_view name, kernel::Time at,
                            double value) {
    if (!track.valid())
        track = cpu != nullptr
                    ? out_.counter_track(*cpu, name)
                    : out_.counter_track(std::string_view{"kernel"}, name);
    out_.counter(track, at, value);
    if (registry_ != nullptr)
        registry_
            ->gauge((cpu != nullptr ? cpu->name() : "kernel") + "." +
                    std::string(name))
            .set(value);
}

void MetricsSampler::sample(kernel::Simulator& sim) {
    const k::Time at = sim.now();
    const double period_ps = static_cast<double>(opts_.period.raw_ps());

    for (CpuState& cs : cpus_) {
        const auto stats = cs.cpu->engine().phase_stats();
        const auto busy_d = k::Time::sat_sub(stats.busy_time, cs.last.busy_time);
        const auto over_d =
            k::Time::sat_sub(stats.overhead_time, cs.last.overhead_time);
        record(cs.cpu, cs.utilization, "utilization_pct", at,
               100.0 * static_cast<double>(busy_d.raw_ps()) / period_ps);
        record(cs.cpu, cs.overhead, "overhead_pct", at,
               100.0 * static_cast<double>(over_d.raw_ps()) / period_ps);
        record(cs.cpu, cs.ready_depth, "ready_depth", at,
               static_cast<double>(cs.cpu->ready_queue().size()));
        record(cs.cpu, cs.dispatches, "dispatches", at,
               static_cast<double>(stats.dispatches));
        if (cs.cpu->dvfs_enabled()) {
            // total() = busy + overhead; the overhead ledger already
            // contains the unattributed share.
            const rtos::Energy total = cs.cpu->energy().total();
            const rtos::Energy delta = total - cs.last_energy;
            // Joules over the period, divided by the period in seconds.
            record(cs.cpu, cs.power, "power_w", at,
                   rtos::energy_to_joules(delta) / (period_ps * 1e-12));
            cs.last_energy = total;
        }
        cs.last = stats;
    }

    KernelTracks& kt = kernel_;
    record(nullptr, kt.delta_cycles, "delta_cycles", at,
           static_cast<double>(sim.delta_count()));
    record(nullptr, kt.activations, "activations", at,
           static_cast<double>(sim.process_activations()));
    record(nullptr, kt.timed_live, "timed_live", at,
           static_cast<double>(sim.timed_live()));
    record(nullptr, kt.timed_tombstones, "timed_tombstones", at,
           static_cast<double>(sim.timed_tombstones()));
    record(nullptr, kt.timed_compactions, "timed_compactions", at,
           static_cast<double>(sim.timed_compactions()));
    ++samples_;
}

} // namespace rtsc::obs
