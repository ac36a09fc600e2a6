#pragma once
// Task: the software function executing on a Processor under RTOS control
// (the paper's "Function" class, renamed to avoid clashing with std::function).
//
// A Task's behaviour is a C++ callable running on its own simulation thread.
// Inside the body, the task consumes CPU time with compute(Time) — the
// "delay procedure" of §4.1, preemptible at exact event times — blocks on
// MCSE communication relations (rtsc::mcse), sleeps, or yields. The RTOS
// engines move it between the Waiting / Ready / Running states of §4.

#include <cstdint>
#include <functional>
#include <string>

#include "kernel/event.hpp"
#include "kernel/time.hpp"
#include "rtos/fwd.hpp"

namespace rtsc::kernel {
class Process;
}

namespace rtsc::rtos {

/// Static configuration of a task.
struct TaskConfig {
    std::string name;
    int priority = 0;                         ///< bigger = more urgent
    kernel::Time start_time{};                ///< release of the first activation
    std::size_t stack_bytes = 128 * 1024;
};

class Task {
public:
    using Body = std::function<void(Task&)>;

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task();

    // ---- identity & configuration ----
    [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
    [[nodiscard]] Processor& processor() const noexcept { return processor_; }
    [[nodiscard]] int base_priority() const noexcept { return config_.priority; }
    /// Priority used by the scheduler: the base priority unless boosted by
    /// priority inheritance (see mcse::SharedVariable).
    [[nodiscard]] int effective_priority() const noexcept {
        return boosted_ ? boost_priority_ : config_.priority;
    }
    /// Change the base priority at run time. Immediately re-evaluates
    /// preemption on the task's processor: raising a ready task's priority
    /// above the running task's preempts it at the current instant.
    void set_base_priority(int p);

    /// Priority-inheritance support (used by mcse::SharedVariable): raise the
    /// effective priority without touching the base priority. Does not
    /// re-evaluate preemption (the booster blocks right after, triggering a
    /// scheduling pass), but does reposition a Ready task in the queue.
    void inherit_priority(int p);
    /// Drop an inherited priority back to the base priority.
    void restore_base_priority();

    // ---- EDF support ----
    [[nodiscard]] bool has_deadline() const noexcept { return has_deadline_; }
    [[nodiscard]] kernel::Time absolute_deadline() const noexcept { return deadline_; }
    void set_absolute_deadline(kernel::Time t);
    void clear_deadline();

    // ---- state ----
    [[nodiscard]] TaskState state() const noexcept { return state_; }
    [[nodiscard]] bool terminated() const noexcept { return state_ == TaskState::terminated; }

    // ---- fault-tolerant lifecycle ----

    /// Terminate the task from any simulation context. A Running task pays
    /// context-save + scheduling like a normal leave (charged during the
    /// unwind in the task's own thread); a Ready task is unlinked from the
    /// ready queue; a Waiting task is removed from whatever it blocks on
    /// (its stack unwinds so channel registrations clean up). Idempotent.
    /// From the task's own body this throws kernel::ProcessKilled — do not
    /// swallow it.
    void kill();

    /// The task was terminated by kill() (as opposed to returning normally).
    [[nodiscard]] bool killed() const noexcept { return killed_; }
    /// The task was terminated by an exception escaping its body.
    [[nodiscard]] bool crashed() const noexcept { return crashed_; }
    /// Number of times the task has been restarted (Processor::restart_task).
    [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

    /// Fault-injection hook: when set, every compute()/delay() duration is
    /// passed through the hook first (execution-time jitter / WCET-overrun
    /// scaling). One hook per task; pass nullptr to clear.
    using ComputeHook = std::function<kernel::Time(Task&, kernel::Time)>;
    void set_compute_hook(ComputeHook hook) { compute_hook_ = std::move(hook); }

    /// Fires when the current incarnation has fully retired: the body
    /// returned or unwound AND the engine finished charging the terminal
    /// context-save + scheduling pass. Unlike the end of the task's kernel
    /// process, whose instant is an engine implementation detail (the
    /// procedural engine pays the leave charges in the leaving task's own
    /// thread, the threaded engine in the RTOS thread), this fires at the
    /// same simulated time on both engines. A killed Running task still
    /// owes those charges when kill() returns: recovery code
    /// (FaultInjector, Watchdog, DeadlineMissHandler) waits on this before
    /// Processor::restart_task().
    [[nodiscard]] kernel::Event& retired_event() noexcept { return ev_retired_; }
    /// The current incarnation has fully retired (see retired_event()).
    [[nodiscard]] bool retired() const noexcept { return retired_; }

    /// Mark the task as infrastructure that legitimately waits forever (ISR
    /// loops, server tasks): the kernel deadlock/stall detector skips it.
    /// Sticky across restarts.
    void set_daemon(bool on);
    [[nodiscard]] bool daemon() const noexcept { return daemon_; }

    /// Mark the task as an interrupt-service routine: time it steals from
    /// other tasks is attributed to the `interrupt` blame component instead
    /// of per-task preemption (obs::Attribution). Set by
    /// InterruptLine::attach_isr; sticky across restarts.
    void set_isr_task(bool on) noexcept { isr_ = on; }
    [[nodiscard]] bool isr_task() const noexcept { return isr_; }

    // ---- services callable from within the task body ----

    /// Consume `duration` of CPU time. Preemptible: a higher-priority task
    /// becoming ready suspends this operation at the exact event time and the
    /// remaining duration is consumed once the task is re-dispatched (§4.2
    /// TaskIsPreempted "computes the remaining time for completing the
    /// current operation").
    void compute(kernel::Time duration);
    /// Paper-style alias for compute().
    void delay(kernel::Time duration) { compute(duration); }

    /// Block (Waiting state) for a duration / until an absolute time. The
    /// wake timer starts when the task stops running, not when the RTOS
    /// finishes charging the context-switch overhead.
    void sleep_for(kernel::Time duration);
    void sleep_until(kernel::Time wake_at);

    /// Voluntarily release the CPU to the next ready task (no-op when no
    /// other task is ready).
    void yield_cpu();

    // ---- statistics (raw accumulators; trace::Statistics derives ratios) ----
    struct Stats {
        kernel::Time running_time{};          ///< time in Running
        kernel::Time ready_time{};            ///< time in Ready, first wait for CPU
        kernel::Time preempted_time{};        ///< time in Ready after preemption
        kernel::Time waiting_time{};          ///< time in Waiting (synchronization)
        kernel::Time waiting_resource_time{}; ///< time blocked on mutual exclusion
        std::uint64_t dispatches = 0;         ///< Ready -> Running transitions
        std::uint64_t preemptions = 0;        ///< involuntary Running -> Ready
        std::uint64_t activations = 0;        ///< Waiting/Created -> Ready
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    // ---- energy accounting (DVFS processors only; rtos/dvfs.hpp) ----
    /// Energy consumed executing this task (all jobs), model units (fJ).
    [[nodiscard]] Energy energy_exec() const noexcept { return energy_exec_; }
    /// Energy of RTOS overhead charges attributed to this task.
    [[nodiscard]] Energy energy_overhead() const noexcept { return energy_ov_; }
    /// Per-job accumulators, reset at each job release (Waiting -> Ready).
    [[nodiscard]] Energy job_energy_exec() const noexcept { return job_energy_exec_; }
    [[nodiscard]] Energy job_energy_overhead() const noexcept { return job_energy_ov_; }
    /// Nominal (full-speed) CPU demand consumed by the current job — what the
    /// cycle-conserving policies compare against the declared WCET.
    [[nodiscard]] kernel::Time job_work() const noexcept { return job_work_; }

    /// stats() with the in-progress state episode folded in up to `now`
    /// (use while the simulation is still running or a task never ended).
    [[nodiscard]] Stats stats_at(kernel::Time now) const noexcept {
        Stats s = stats_;
        const kernel::Time d = kernel::Time::sat_sub(now, state_since_);
        switch (state_) {
            case TaskState::running: s.running_time += d; break;
            case TaskState::ready:
                if (entered_ready_preempted_)
                    s.preempted_time += d;
                else
                    s.ready_time += d;
                break;
            case TaskState::waiting: s.waiting_time += d; break;
            case TaskState::waiting_resource: s.waiting_resource_time += d; break;
            case TaskState::created:
            case TaskState::terminated: break;
        }
        return s;
    }

private:
    friend class Processor;
    friend class SchedulerEngine;

    Task(Processor& processor, TaskConfig config, Body body);

    void set_state(TaskState s);

    /// Process body: start/body/finish with exception isolation. A kill
    /// unwind or an exception escaping the user body terminates only this
    /// task; the engine bookkeeping runs after the exception is destroyed
    /// (yielding inside a catch block would corrupt the thread-local
    /// exception-handling state shared by all coroutines).
    void run_body();
    void spawn_process();
    /// Reset lifecycle/engine flags and spawn a fresh process (restart).
    void prepare_restart(kernel::Time delay);

    Processor& processor_;
    TaskConfig config_;
    Body body_;
    kernel::Process* proc_ = nullptr;

    TaskState state_ = TaskState::created;
    kernel::Time state_since_{};

    // EDF
    bool has_deadline_ = false;
    kernel::Time deadline_{};

    // priority inheritance
    bool boosted_ = false;
    int boost_priority_ = 0;

    // engine handshake flags (see SchedulerEngine)
    kernel::Event ev_run_;        ///< TaskRun: dispatch grant / scheduler kick
    kernel::Event ev_preempt_;    ///< TaskPreempt: preemption + slice timer
    kernel::Event ev_ack_;        ///< threaded engine: synchronous-call ack
    kernel::Event ev_retired_;    ///< TaskRetired: terminal leave settled
    bool granted_ = false;        ///< selected by the scheduler, may load+run
    kernel::Time granted_at_{};   ///< when granted_ was last set (dispatch latency)
    bool kicked_ = false;         ///< must execute a scheduling pass (procedural)
    bool preempt_pending_ = false;
    PreemptReason preempt_reason_ = PreemptReason::none;
    bool entered_ready_preempted_ = false; ///< current Ready episode follows a preemption
    kernel::Time ready_enqueued_at_{};     ///< written only under a ScheduleOracle

    // fault-tolerant lifecycle (see SchedulerEngine::kill / on_body_unwound)
    bool daemon_ = false;                ///< exempt from stall diagnostics
    bool isr_ = false;                   ///< interrupt-service task (blame class)
    bool killed_ = false;                ///< kill() initiated (sticky until restart)
    bool retired_ = false;               ///< incarnation fully retired (ev_retired_)
    bool crashed_ = false;               ///< body exited via unhandled exception
    bool redispatch_on_unwind_ = false;  ///< killed while granted/loading: rerun sched
    std::uint64_t restarts_ = 0;
    kernel::Time start_delay_{};         ///< release delay of the current incarnation
    ComputeHook compute_hook_;

    // energy accounting (engine-managed, only written on DVFS processors)
    Energy energy_exec_ = 0;      ///< lifetime execution energy
    Energy energy_ov_ = 0;        ///< lifetime attributed-overhead energy
    Energy job_energy_exec_ = 0;  ///< current job's execution energy
    Energy job_energy_ov_ = 0;    ///< current job's attributed-overhead energy
    kernel::Time job_work_{};     ///< current job's nominal CPU demand

    Stats stats_;
};

/// The Task whose simulation thread is currently executing, or nullptr when
/// running in a hardware process / scheduler context. Communication relations
/// use this to decide between RTOS-level and kernel-level blocking.
[[nodiscard]] Task* current_task() noexcept;

} // namespace rtsc::rtos
