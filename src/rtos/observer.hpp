#pragma once
// Observer: the one seam through which a simulation is observed. The paper
// watches a run through a single stream — task-state transitions, RTOS
// overhead charges and relation accesses feed the TimeLine chart and the
// Figure 8 statistics — and every consumer here (trace::Recorder,
// trace::ConstraintMonitor, obs::MetricsCollector, obs::Attribution,
// obs::PerfettoStreamWriter, custom profilers) implements this one
// interface, overriding only the hooks it needs.
//
// Every event source keeps its own subscriber list, and an observer sees
// only the sources it subscribed to:
//   Processor::add_observer    task state, overhead and the engine hooks
//   mcse::Relation::add_observer                      relation accesses
//   fault::FaultInjector / Watchdog / DeadlineMissHandler::add_observer
//                                                     instant markers
// Any mix of observers composes on one source; subscribing the same
// observer twice is a no-op, so each event reaches it once. Call sites loop
// over an empty list when nobody subscribed: an unobserved simulation pays
// one predicted-not-taken branch per event and nothing else (verified by
// bench_obs_overhead, recorded in BENCH_obs.json).
//
// All durations are *simulated* time — never host wall-clock — so readings
// are deterministic and identical across the procedural and the threaded
// engine (pinned by tests/obs/test_metrics_equivalence.cpp). An observer
// must outlive the runs of the sources it subscribed to, or unsubscribe
// first (Processor::remove_observer).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "rtos/fwd.hpp"

namespace rtsc::mcse {
class Relation;
enum class AccessKind : std::uint8_t;
} // namespace rtsc::mcse

namespace rtsc::rtos {

class Observer {
public:
    virtual ~Observer() = default;

    // ---- Processor: task state and RTOS overhead ----

    /// A task changed state. A task's creation is announced once with
    /// from == to == created, so timelines can open a row for it.
    virtual void on_task_state(const Task& /*task*/, TaskState /*from*/,
                               TaskState /*to*/) {}

    /// An RTOS overhead charge of `duration` starts at `start`, paid on
    /// behalf of `about` (nullptr: unattributed).
    virtual void on_overhead(const Processor& /*cpu*/, OverheadKind /*kind*/,
                             kernel::Time /*start*/, kernel::Time /*duration*/,
                             const Task* /*about*/) {}

    // ---- Processor: engine hooks ----

    /// A scheduling pass ran (schedule_pass or the inline Fig. 6 case (c)
    /// charge). `ready_len` samples the ReadyTaskQueue length at the start
    /// of the pass.
    virtual void on_scheduler_run(const Processor& /*cpu*/,
                                  std::size_t /*ready_len*/) {}

    /// A task entered Running. `sched_latency` is the time it spent in the
    /// Ready state waiting for the CPU (ready -> running); `dispatch_latency`
    /// is the tail from the scheduler granting it the CPU to it actually
    /// running (the context-load portion). Fired before the Running
    /// transition is published.
    virtual void on_dispatch(const Processor& /*cpu*/, const Task& /*t*/,
                             kernel::Time /*sched_latency*/,
                             kernel::Time /*dispatch_latency*/) {}

    /// A running task was preempted (higher-priority arrival or slice
    /// expiry). `depth` counts the tasks sitting in the ready queue that got
    /// there through preemption, this one included — the current preemption
    /// nesting depth.
    virtual void on_preempt(const Processor& /*cpu*/, const Task& /*t*/,
                            std::size_t /*depth*/) {}

    /// A running task left the CPU to block. `kind` is the destination state
    /// (waiting for synchronization, waiting_resource for mutual exclusion);
    /// `on` names the communication relation being blocked on, or nullptr for
    /// sleeps and raw engine blocks. Fired before the state transition is
    /// published.
    virtual void on_block(const Processor& /*cpu*/, const Task& /*t*/,
                          TaskState /*kind*/, const mcse::Relation* /*on*/) {}

    /// `t` became the owner of a mutual-exclusion style resource (shared
    /// variable lock, semaphore unit). Fired from the owning task's thread at
    /// the instant ownership transfers (for reservation-style delivery this
    /// is the release instant, before the waiter resumes).
    virtual void on_resource_acquire(const Processor& /*cpu*/,
                                     const Task& /*t*/,
                                     const mcse::Relation& /*r*/) {}

    /// `t` gave up ownership of `r`.
    virtual void on_resource_release(const Processor& /*cpu*/,
                                     const Task& /*t*/,
                                     const mcse::Relation& /*r*/) {}

    // ---- Relation ----

    /// A completed access. `task` is nullptr for hardware-process accesses;
    /// `blocked` tells whether the caller had to wait before the access
    /// completed.
    virtual void on_access(const mcse::Relation& /*rel*/, const Task* /*task*/,
                           mcse::AccessKind /*kind*/, bool /*blocked*/) {}

    // ---- fault layer ----

    /// An instant marker at the current simulated time: a point event
    /// outside the task/comm model (fault injection, watchdog timeout,
    /// deadline miss). `category` is e.g. "fault", `name` e.g.
    /// "crash:control".
    virtual void on_marker(const std::string& /*category*/,
                           const std::string& /*name*/) {}
};

/// One event source's subscribers, in subscription order. Iterate it to
/// notify; the loop is the single emptiness check of an unobserved source.
class ObserverList {
public:
    /// Subscribe `obs`; a no-op when it is already subscribed.
    void add(Observer& obs) {
        if (std::find(list_.begin(), list_.end(), &obs) == list_.end())
            list_.push_back(&obs);
    }
    /// Unsubscribe `obs`; a no-op when it is not subscribed.
    void remove(Observer& obs) noexcept { std::erase(list_, &obs); }

    [[nodiscard]] bool empty() const noexcept { return list_.empty(); }
    [[nodiscard]] auto begin() const noexcept { return list_.begin(); }
    [[nodiscard]] auto end() const noexcept { return list_.end(); }

private:
    std::vector<Observer*> list_;
};

} // namespace rtsc::rtos
