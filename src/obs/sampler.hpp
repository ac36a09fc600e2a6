#pragma once
// Sim-time metrics sampler: turns instantaneous RTOS/kernel state into
// Perfetto counter tracks ("C" events) through a PerfettoStreamWriter, on a
// configurable simulated-time period.
//
// Per attached processor (counter tracks on the CPU's own process):
//   utilization_pct   busy time over the last period, percent
//   overhead_pct      RTOS overhead time over the last period, percent
//   ready_depth       ready-queue length at the sample instant
//   dispatches        cumulative Ready -> Running transitions
//   power_w           dissipated power over the last period, watts
//                     (only with DVFS enabled: ledger delta / period)
//
// On the auxiliary "kernel" process, the simulator's self-description:
//   delta_cycles, activations, timed_live, timed_tombstones,
//   timed_compactions — all deterministic, so sampled values are
//   bit-identical from run to run. They are not engine-neutral: the two RTOS
//   engines reach the same schedule through different kernel work (120
//   MPEG-2 frames end at 6,969 vs 5,487 delta cycles on the procedural and
//   threaded engines). `activations` counts context switches
//   (Simulator::process_activations), so it also depends on skip-ahead,
//   whose inline wakes need none: 4,808 vs 6,567 with it on, 10,591 vs
//   10,778 with it off.
//
// With Options::include_host (off by default — wall-clock readings are
// nondeterministic, so equivalence tests must not enable it) the kernel's
// host-side phase profile (Simulator::host_profile) is emitted as
//   host.evaluate_ms, host.update_ms, host.delta_notify_ms, host.advance_ms
// letting a trace explain where the simulator itself spent wall time.
// start() enables Simulator::set_host_profiling automatically in that case.
//
// The same readings are optionally mirrored into a MetricsRegistry
// (set_registry) as gauges named "<cpu>.<metric>" / "kernel.<metric>" so
// campaign aggregation sees them too.
//
// The sampler runs as a daemon + background kernel process: it never keeps
// an open-ended run() alive (the run goes dry when only sampler heartbeats
// remain; run_until() samples to its horizon), and sampling itself never
// changes simulated behaviour (it only reads state and waits).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_stream.hpp"
#include "rtos/engine.hpp"
#include "rtos/processor.hpp"

namespace rtsc::obs {

class MetricsSampler {
public:
    struct Options {
        /// Simulated-time distance between samples (first sample at t=0).
        kernel::Time period = kernel::Time::ms(1);
        /// Emit host wall-clock phase counters too. Nondeterministic by
        /// nature; keep off for anything that compares traces.
        bool include_host = false;
    };

    explicit MetricsSampler(PerfettoStreamWriter& out)
        : MetricsSampler(out, Options()) {}
    MetricsSampler(PerfettoStreamWriter& out, Options opts);

    /// Sample this processor each period. It must also be attached to the
    /// writer (its counter tracks live on the CPU's pid).
    void attach(rtos::Processor& cpu);

    /// Also mirror every reading into `reg` as gauges. May be nullptr.
    void set_registry(MetricsRegistry* reg) noexcept { registry_ = reg; }

    /// Spawn the sampling daemon on `sim`. Call after every attach and
    /// before the simulation runs; samples fire at t = 0, period, 2*period…
    void start(kernel::Simulator& sim);

    [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

private:
    using Handle = PerfettoStreamWriter::CounterHandle;

    struct CpuState {
        rtos::Processor* cpu = nullptr;
        rtos::SchedulerEngine::PhaseStats last;
        rtos::Energy last_energy = 0;
        // Counter tracks on the CPU's process, opened on their first sample.
        Handle utilization, overhead, ready_depth, dispatches, power;
    };
    /// Counter tracks on the "kernel" process.
    struct KernelTracks {
        Handle delta_cycles, activations, timed_live, timed_tombstones,
            timed_compactions, evaluate, update, delta_notify, advance;
    };

    void sample(kernel::Simulator& sim);
    /// Emit `value` on `track`, the counter `name` of `cpu` (the kernel
    /// process when nullptr), opening the track on its first sample.
    void record(const rtos::Processor* cpu, Handle& track,
                std::string_view name, kernel::Time at, double value);

    PerfettoStreamWriter& out_;
    Options opts_;
    MetricsRegistry* registry_ = nullptr;
    std::vector<CpuState> cpus_;
    KernelTracks kernel_;
    std::uint64_t samples_ = 0;
};

} // namespace rtsc::obs
