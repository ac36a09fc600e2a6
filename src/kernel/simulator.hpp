#pragma once
// The discrete-event simulation kernel.
//
// Implements the part of the SystemC 2.0 scheduling algorithm the paper's
// RTOS model relies on: thread processes, events, wait and time. A delta
// cycle is an evaluate phase running all runnable processes followed by a
// delta-notification phase, with simulated time advancing to the next timed
// notification when a delta cycle produces no runnable process.
//
// One Simulator is active per thread at a time (Simulator::current()); all
// Events and Processes bind to it on construction, so sequential tests can
// each build an isolated simulation.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/time.hpp"
#include "kernel/timing_wheel.hpp"

namespace rtsc::kernel {

class Simulator {
public:
    Simulator();
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// The simulator active on this thread. Throws if none exists.
    [[nodiscard]] static Simulator& current();
    /// Like current(), but returns nullptr instead of throwing.
    [[nodiscard]] static Simulator* current_or_null() noexcept;

    /// Create a thread process. It becomes runnable immediately (first
    /// execution at the next evaluation phase — time 0 if spawned before
    /// run()).
    Process& spawn(std::string name, std::function<void()> body,
                   std::size_t stack_bytes = Coroutine::default_stack_bytes);

    /// Terminate a process asynchronously. A suspended thread process is made
    /// runnable and a ProcessKilled exception is raised at its suspension
    /// point so its stack unwinds (RAII cleanup runs); killing the currently
    /// executing process throws ProcessKilled directly; a never-started
    /// process is terminated in place. Idempotent on terminated processes.
    /// The done_event fires as for a normal termination.
    void kill_process(Process& p);

    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Run until no timed activity remains (or stop() is called).
    void run();
    /// Run all activity up to and including time t; now() == t afterwards.
    void run_until(Time t);
    /// Request the run loop to return after the current delta cycle.
    void stop() noexcept { stop_requested_ = true; }

    // ---- wait services (must be called from within a process) ----

    /// Suspend for a duration. wait(Time::zero()) waits one delta cycle.
    ///
    /// Inline wake: with skip-ahead on, a timed wait (this one, the timed
    /// wait(Time, Event&) and wait_any(Time, ...)) or a zero-delay wait
    /// returns without a context switch when the run loop's very next step
    /// would be to resume this caller: nothing else is queued in the
    /// current evaluate sweep, no delta notification or zero-delay wait is
    /// pending, stop() was not requested, and -- for a timeout --
    /// it lies strictly before every other timed entry and within the run's
    /// horizon. Time, delta counters and the wake reason advance exactly as
    /// the suspension would have advanced them; only the switch counters
    /// (process_activations(), Process::activations()) do not move.
    void wait(Time duration);
    /// Suspend until the event fires.
    void wait(Event& e);
    /// Suspend until the event fires or the timeout elapses, whichever is
    /// first; returns the wake reason. On an exact tie the event wins.
    Process::WakeReason wait(Time timeout, Event& e);
    /// Suspend until any of the events fires; returns the one that did.
    Event& wait_any(std::initializer_list<Event*> events);
    Event& wait_any(const std::vector<Event*>& events);
    /// As wait_any but with a timeout; returns nullptr on timeout. The tie
    /// rule matches wait(Time, Event&): an event firing exactly at the
    /// timeout instant wins.
    Event* wait_any(Time timeout, const std::vector<Event*>& events);

    /// Re-queue the calling process at the tail of the current evaluate
    /// sweep and suspend; it resumes in the SAME delta cycle after every
    /// process currently runnable (including those woken later in this
    /// sweep) has run. Equivalent to being woken by an immediate notify at
    /// this point — the RTOS engines use it to start a synchronously
    /// granted task body at the position a notify-granted one would get.
    /// With skip-ahead on and nothing queued behind the caller, it returns
    /// at once without a context switch (the sweep would resume it next).
    void yield();

    /// The process currently executing, or nullptr in scheduler context.
    [[nodiscard]] Process* current_process() const noexcept { return current_process_; }

    // ---- introspection / statistics ----
    [[nodiscard]] std::uint64_t delta_count() const noexcept { return delta_count_; }
    /// Total scheduler->process context switches so far. This is the metric
    /// the paper's §4 uses to compare the two RTOS engine implementations.
    /// It counts switches, not wakes: a wait that skip-ahead completes
    /// inline (see wait(Time)) wakes its process without a switch.
    [[nodiscard]] std::uint64_t process_activations() const noexcept { return activations_; }
    [[nodiscard]] std::size_t process_count() const noexcept { return processes_.size(); }
    [[nodiscard]] Reporter& reporter() noexcept { return reporter_; }

    /// Abort with an error after this many delta cycles at one time point
    /// (guards against zero-delay activity loops in models). Default 1M.
    void set_max_deltas_per_instant(std::uint64_t n) noexcept { max_deltas_per_instant_ = n; }

    // ---- timed-queue introspection (timing wheel) ----

    /// Timed entries that can still fire (wheel + the staged hot timeout).
    [[nodiscard]] std::size_t timed_live() const noexcept {
        return wheel_.live() + (hot_.proc != nullptr ? 1 : 0);
    }
    /// Cancelled entries awaiting lazy reclamation.
    [[nodiscard]] std::size_t timed_tombstones() const noexcept {
        return wheel_.tombstones();
    }
    /// High-water mark of concurrently stored timed entries.
    [[nodiscard]] std::size_t timed_arena_size() const noexcept {
        return wheel_.arena_size();
    }
    /// Tombstone compaction sweeps performed so far.
    [[nodiscard]] std::uint64_t timed_compactions() const noexcept {
        return wheel_.compactions();
    }

    // ---- host self-profiling ----

    /// Wall-clock cost of the kernel's own phases, accumulated while
    /// set_host_profiling(true). Purely host-side: enabling it never changes
    /// simulated behaviour (the skip-ahead branch, delta counters and every
    /// trace observable stay bit-identical), it only adds two steady_clock
    /// reads around each phase. Off by default — one untaken branch per
    /// phase — because wall-clock readings are inherently nondeterministic.
    struct HostProfile {
        std::uint64_t evaluate_ns = 0;     ///< evaluate phases
        /// Always 0: the kernel has no update phase. Kept only because the
        /// repository benchmark (perfbench/src/ring.cpp) reads it.
        std::uint64_t update_ns = 0;
        std::uint64_t delta_notify_ns = 0; ///< delta-notification phases
        std::uint64_t advance_ns = 0;      ///< timed-queue advances
    };
    void set_host_profiling(bool on) noexcept { host_profiling_ = on; }
    [[nodiscard]] bool host_profiling() const noexcept { return host_profiling_; }
    [[nodiscard]] const HostProfile& host_profile() const noexcept {
        return host_profile_;
    }

    // ---- skip-ahead fast path ----

    /// Toggle the skip-ahead fast path for this simulator (a new simulator
    /// starts with it on): empty delta-notification phases are elided
    /// (their counters still advance identically), the newest armed
    /// process timeout is staged in a one-slot hot buffer that can fire
    /// without touching the wheel, and a wait whose own wake comes next
    /// completes inline, without a context switch (see wait(Time)).
    /// Purely an execution-speed toggle -- every
    /// observable (trace, digests, delta_count, wheel statistics,
    /// attribution) is bit-identical either way except the switch counters
    /// process_activations() and Process::activations(), which count fewer
    /// switches with it on; the differential tests run both settings to
    /// prove it.
    void set_skip_ahead(bool on) noexcept {
        if (!on && hot_.proc != nullptr) flush_hot();
        skip_ahead_ = on;
    }
    [[nodiscard]] bool skip_ahead() const noexcept { return skip_ahead_; }

    // ---- deadlock / stall detection ----

    /// One process found blocked when the simulation ran out of activity.
    struct BlockedProcess {
        std::string process;                ///< process name
        std::vector<std::string> waiting_on;///< event names it waits for
    };
    /// Structured diagnostic produced when run() exhausts all timed activity
    /// while live (non-daemon) thread processes are still blocked.
    struct StallReport {
        Time at{};                          ///< time the stall was detected
        std::vector<BlockedProcess> blocked;
        [[nodiscard]] bool detected() const noexcept { return !blocked.empty(); }
        [[nodiscard]] std::string to_string() const;
    };

    /// When enabled, run() ending with live blocked thread processes emits a
    /// warning through the Reporter naming each stuck process and the events
    /// it waits on, and fills deadlock_report(). Off by default: servers that
    /// legitimately idle at end of simulation would otherwise be flagged
    /// (mark such processes with Process::set_daemon to exempt them).
    void set_deadlock_detection(bool on) noexcept { deadlock_detection_ = on; }
    [[nodiscard]] const StallReport& deadlock_report() const noexcept {
        return stall_report_;
    }

private:
    friend class Event;

    // Event internals.
    void schedule_timed(Event& e, Time at);
    void cancel_timed(Event& e) noexcept;   ///< drop e's pending wheel entry
    void add_delta_pending(Event& e);
    void trigger(Event& e);                 ///< wake all waiters (immediate)
    void purge_event(Event& e);             ///< event destruction cleanup

    void wake(Process& p, Process::WakeReason reason, Event* ev);
    void clear_wait_state(Process& p);
    void arm_timeout(Process& p, Time timeout);
    void flush_hot();                       ///< move the staged timeout into the wheel
    void fire_hot() noexcept;               ///< advance to the staged timeout, disarm it
    void suspend_current();                 ///< yield back to scheduler
    /// Inline wake (see wait(Time)): true when, were the caller to suspend
    /// now, the sweep would end with nothing else queued, the
    /// delta-notification phase would be empty, and the loop would go on.
    [[nodiscard]] bool sweep_ends_idle() const noexcept;
    [[nodiscard]] bool wake_inline(Process& p); ///< timed wait: true if woken in place
    void resume_in_place(Process& p, Process::WakeReason reason);
    Process& require_process(const char* what) const;

    bool advance_time(Time limit);          ///< pop next time's entries; false if none <= limit
    void check_for_stall();                 ///< fills stall_report_ after a dry run()
    void evaluate_phase();
    void delta_notify_phase();
    void run_loop(Time limit);

    Time now_{};
    std::uint64_t order_counter_ = 0;
    /// Timed entries that count as live work: every pending timed event
    /// notification plus armed timeouts of non-background processes. When
    /// an open-ended run() finds nothing runnable and this is zero, the
    /// simulation is dry — background heartbeats (obs::MetricsSampler)
    /// alone never keep it alive. run_until() ignores it: an explicit
    /// horizon means background processes run to the horizon.
    std::size_t live_timed_ = 0;
    std::uint64_t delta_count_ = 0;
    std::uint64_t deltas_this_instant_ = 0;
    std::uint64_t max_deltas_per_instant_ = 1'000'000;
    std::uint64_t activations_ = 0;
    bool stop_requested_ = false;
    bool running_ = false;
    bool deadlock_detection_ = false;
    bool host_profiling_ = false;
    bool skip_ahead_ = true;            ///< see set_skip_ahead
    int trigger_depth_ = 0;             ///< guards the trigger scratch buffer
    StallReport stall_report_;
    HostProfile host_profile_;

    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<Process*> runnable_;
    /// Evaluate-sweep cursor: the next unvisited runnable_ slot. Visited
    /// slots are nulled and kill_process() erases only unvisited ones, so
    /// `sweep_ == runnable_.size()` means nothing is queued behind the
    /// running process.
    std::size_t sweep_ = 0;
    Time limit_ = Time::max();          ///< horizon of the running run loop
    TimingWheel wheel_;                 ///< timed notifications and timeouts
    /// One-slot staging buffer for the newest armed process timeout: in the
    /// common single-runnable pattern (compute / overhead charge) it fires
    /// on the fast path without ever entering the wheel. `order` preserves
    /// the FIFO tie-break if the entry has to be flushed into the wheel.
    struct HotTimeout {
        Process* proc = nullptr;
        Time at{};
        std::uint64_t order = 0;
    };
    HotTimeout hot_;
    std::vector<TimingWheel::Fired> fired_batch_; ///< reused by advance_time
    std::vector<Event*> delta_pending_;
    struct ZeroWaiter {
        Process* proc;
        std::uint64_t seq;
    };
    std::vector<ZeroWaiter> zero_waiters_; ///< processes in wait(Time::zero())
    // Reused double buffers: the phases and trigger() iterate a moved-out
    // snapshot; recycling the vectors keeps the hot loop allocation-free.
    std::vector<Event*> delta_scratch_;
    std::vector<ZeroWaiter> zero_scratch_;
    std::vector<Process*> trigger_scratch_;
    Process* current_process_ = nullptr;
    Reporter reporter_;
    Simulator* prev_current_ = nullptr; ///< restored on destruction
};

// ---- free-function wait API (SystemC style), acting on Simulator::current() ----

inline void wait(Time d) { Simulator::current().wait(d); }
inline void wait(Event& e) { Simulator::current().wait(e); }
inline void yield() { Simulator::current().yield(); }
inline Process::WakeReason wait(Time timeout, Event& e) { return Simulator::current().wait(timeout, e); }
inline Event& wait_any(std::initializer_list<Event*> evs) { return Simulator::current().wait_any(evs); }

} // namespace rtsc::kernel
