// Fault-tolerant SoC demo: the robustness subsystem end to end.
//
// A small engine-control SoC — sensor interrupt, control task, CAN-style
// message queue, telemetry logger — is first simulated fault-free, then under
// a seeded fault campaign (interrupt drops and bursts, execution-time jitter,
// message loss, one scheduled task crash) with the recovery machinery armed:
//   - a Watchdog restarts the control task if its heartbeat stops,
//   - a DeadlineMissHandler demotes the logger when it overruns its bound,
//   - kernel deadlock detection reports anything left stuck.
// Because every fault stream derives from the campaign seed, rerunning with
// the same seed replays the identical timeline — change the seed below and
// the fault pattern (but nothing else) changes with it.
//
// The seed-42 campaign run is additionally traced: crashes, watchdog
// timeouts and deadline misses land as instant markers in
// fault_tolerant_soc.perfetto.json (load it in ui.perfetto.dev). The same
// run is exported three ways: batch, streaming (…stream.perfetto.json,
// canonically-sorted byte-identical to batch — CI checks), and live
// (…live.perfetto.json) with sim-time counter tracks from a MetricsSampler
// (per-CPU utilization / overhead share / ready depth, kernel delta cycles
// and wheel state).
#include <iostream>
#include <memory>

#include "fault/deadline_handler.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "kernel/simulator.hpp"
#include "mcse/message_queue.hpp"
#include "obs/attribution.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "rtos/interrupt.hpp"
#include "rtos/processor.hpp"
#include "trace/constraints.hpp"
#include "trace/recorder.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace tr = rtsc::trace;
namespace f = rtsc::fault;
using namespace rtsc::kernel::time_literals;

namespace {

struct Outcome {
    std::uint64_t commands = 0;
    std::uint64_t violations = 0;
    std::uint64_t control_restarts = 0;
    std::uint64_t watchdog_timeouts = 0;
    f::FaultInjector::Counters faults;
    bool deadlocked = false;
};

Outcome run(std::uint64_t seed, bool inject, tr::Recorder* rec = nullptr) {
    Outcome out;
    k::Simulator sim;
    sim.set_deadlock_detection(true);
    r::Processor cpu("ecu");
    cpu.set_overheads(r::RtosOverheads::uniform(2_us));
    if (rec != nullptr) rec->attach(cpu);
    rtsc::obs::Attribution attr;
    if (rec != nullptr) attr.attach(cpu);

    // Streaming exports ride the same traced run: `stream` must end up
    // event-equal to the batch export, `live` adds counter tracks sampled
    // every 100 us of simulated time.
    std::unique_ptr<rtsc::obs::PerfettoStreamWriter> stream, live;
    std::unique_ptr<rtsc::obs::MetricsSampler> sampler;
    if (rec != nullptr) {
        stream = std::make_unique<rtsc::obs::PerfettoStreamWriter>(
            "fault_tolerant_soc.stream.perfetto.json");
        stream->attach(cpu);
        live = std::make_unique<rtsc::obs::PerfettoStreamWriter>(
            "fault_tolerant_soc.live.perfetto.json");
        live->attach(cpu);
        sampler = std::make_unique<rtsc::obs::MetricsSampler>(
            *live, rtsc::obs::MetricsSampler::Options{.period = 100_us});
        sampler->attach(cpu);
        sampler->start(sim);
    }

    r::InterruptLine sensor("sensor");
    sensor.set_max_pending(4); // a real line has a bounded latch
    m::MessageQueue<int> can("can", 16);

    // Control: woken by the sensor ISR through the queue, 40us of law per
    // sample, heartbeats its watchdog every iteration.
    f::Watchdog* wd = nullptr;
    r::Task& control =
        cpu.create_task({.name = "control", .priority = 8}, [&](r::Task& self) {
            int sample = 0;
            for (;;) {
                if (!can.read_for(sample, 2_ms)) return;
                self.compute(40_us);
                ++out.commands;
                wd->pet();
            }
        });
    f::Watchdog watchdog(control, 1500_us,
                         {.action = f::RecoveryAction::restart,
                          .restart_delay = 50_us});
    wd = &watchdog;

    // Telemetry logger: low priority, heavy, with a response bound.
    r::Task& logger =
        cpu.create_task({.name = "logger", .priority = 2}, [](r::Task& self) {
            for (;;) {
                self.compute(250_us);
                self.sleep_for(250_us);
            }
        });
    logger.set_daemon(true);

    sensor.attach_isr(cpu, 9, [&](r::Task&) { (void)can.try_write(1); }, 5_us);

    sim.spawn("sensor_hw", [&] {
        for (int i = 0; i < 78; ++i) { // pulses through the whole 8ms horizon
            k::wait(100_us);
            sensor.raise();
        }
    });

    tr::ConstraintMonitor monitor;
    monitor.require_response(logger, 900_us, "logger_activation");
    f::DeadlineMissHandler handler(monitor);
    handler.set_policy(logger, {.action = f::RecoveryAction::demote_priority,
                                .demote_to = 1});

    f::FaultPlan plan;
    if (inject) {
        plan.irq_drops.push_back({&sensor, 0.15});
        plan.irq_bursts.push_back({&sensor, 0.10, 1, 3});
        plan.exec_jitter.push_back({&control, 0.4, 0.8, 2.5});
        plan.message_losses.push_back({&can, 0.10});
        plan.task_crashes.push_back(
            {&control, 2_ms, /*restart=*/true, /*restart_delay=*/100_us});
    }
    // The recorder and both stream writers subscribe to every marker
    // source, so each export carries the same fault/watchdog/deadline
    // instants.
    f::FaultInjector injector(sim, plan, seed);
    if (rec != nullptr) {
        for (r::Observer* o : std::initializer_list<r::Observer*>{
                 rec, stream.get(), live.get()}) {
            watchdog.add_observer(*o);
            handler.add_observer(*o);
            injector.add_observer(*o);
        }
    }
    injector.arm();

    sim.run_until(8_ms);

    // The recorder keeps pointers into the live model (tasks, processor,
    // queue), so the Perfetto export must happen before run() tears it down.
    // The export carries the full per-job blame decomposition plus a
    // deadline-miss report (with critical path) per constraint violation.
    if (rec != nullptr) {
        const auto misses = attr.miss_reports(monitor);
        rtsc::obs::write_perfetto_file("fault_tolerant_soc.perfetto.json",
                                       *rec,
                                       {.attribution = &attr,
                                        .misses = &misses});
        stream->finish(&attr, &misses);
        live->finish();
    }

    out.violations = monitor.violations().size();
    out.control_restarts = control.restarts();
    out.watchdog_timeouts = watchdog.timeouts();
    out.faults = injector.counters();
    out.deadlocked = sim.deadlock_report().detected();
    return out;
}

void print(const char* title, const Outcome& o) {
    std::cout << title << "\n"
              << "  control commands issued : " << o.commands << "\n"
              << "  control restarts        : " << o.control_restarts
              << " (watchdog timeouts: " << o.watchdog_timeouts << ")\n"
              << "  constraint violations   : " << o.violations << "\n"
              << "  injected faults         : " << o.faults.irqs_dropped
              << " irq drops, " << o.faults.irqs_bursted << " bursts, "
              << o.faults.messages_lost << " lost messages, "
              << o.faults.jittered_computes << " jittered computes, "
              << o.faults.tasks_crashed << " crashes\n"
              << "  deadlocked              : "
              << (o.deadlocked ? "YES" : "no") << "\n\n";
}

} // namespace

int main() {
    std::cout << "Fault-tolerant SoC under a seeded fault campaign\n\n";
    print("fault-free baseline", run(42, false));
    tr::Recorder rec;
    const Outcome a = run(42, true, &rec);
    print("campaign, seed 42", a);
    std::cout << "wrote fault_tolerant_soc.perfetto.json (" << rec.markers().size()
              << " fault/watchdog/deadline markers)\n\n";
    const Outcome b = run(42, true);
    std::cout << "replay with seed 42 is identical: "
              << (a.commands == b.commands && a.violations == b.violations &&
                          a.faults.irqs_dropped == b.faults.irqs_dropped
                      ? "yes"
                      : "NO (bug!)")
              << "\n";
    print("campaign, seed 7", run(7, true));
    std::cout << "The control task survives drops, bursts, lost messages and "
                 "a scheduled crash: the watchdog and the injector's restart "
                 "bring it back, and the run replays bit-identically per "
                 "seed.\n";
    return 0;
}
