#pragma once
// SchedulerEngine: the RTOS mechanics shared by the paper's two
// implementation techniques (§4.1 dedicated RTOS thread, §4.2 procedure
// calls). Both engines implement identical *simulated-time* behaviour — the
// charging rules below — and differ only in which simulation thread executes
// the RTOS algorithm, which is what makes the procedure-call variant faster
// to simulate (fewer kernel context switches).
//
// Charging rules (all durations from the Processor's RtosOverheads):
//   running task blocks/ends     : save + sched, then the winner pays load
//   preemption                   : save + sched, then the winner pays load
//   idle CPU, task becomes ready : sched, then the winner pays load (no save)
//   running task readies another
//     - no preemption            : sched charged to the caller  (Fig. 6 "(c)")
//     - preemption               : save + sched + load           (Fig. 6 "(b)")
// With the paper's 5 us / 5 us / 5 us parameters this reproduces the 15 us
// end-of-task / preemption gaps and the 5 us no-preempt overhead annotated in
// Figure 6.
//
// The scheduling *decision* is taken at the END of the scheduling-duration
// charge, so tasks becoming ready while the RTOS is scheduling are considered
// by that very pass — and a task that becomes ready while another is being
// context-loaded preempts it immediately after the load completes.

#include <cstdint>
#include <optional>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/time.hpp"
#include "rtos/fwd.hpp"
#include "rtos/policy.hpp"

namespace rtsc::mcse {
class Relation;
}

namespace rtsc::rtos {

class ScheduleOracle;

class SchedulerEngine {
public:
    /// What the processor is doing right now.
    enum class Phase : std::uint8_t { idle, overhead, running };

    explicit SchedulerEngine(Processor& processor);
    virtual ~SchedulerEngine() = default;

    SchedulerEngine(const SchedulerEngine&) = delete;
    SchedulerEngine& operator=(const SchedulerEngine&) = delete;

    [[nodiscard]] virtual const char* kind_name() const noexcept = 0;

    // ---- entry points called from the task's own thread ----
    void start_task(Task& t);                ///< created -> ready -> ... -> running
    void consume(Task& t, kernel::Time d);   ///< compute(): preemptible CPU use
    /// running -> waiting; returns when running again. Communication
    /// relations pass themselves as `on`, which Observer::on_block reports.
    void block(Task& t, TaskState kind, const mcse::Relation* on = nullptr);
    /// Like block(), but gives up after `timeout`. Returns true when the
    /// task was made ready by someone else (delivery), false when the
    /// timeout expired first (the task re-dispatches itself either way and
    /// this returns only once it is Running again).
    bool block_timed(Task& t, TaskState kind, kernel::Time timeout,
                     const mcse::Relation* on = nullptr);
    void sleep_for(Task& t, kernel::Time d); ///< timed block
    void finish_task(Task& t);               ///< running -> terminated (+dispatch next)
    void yield_cpu(Task& t);

    // ---- entry points callable from any simulation context ----
    /// The task stops waiting (synchronization arrived / interrupt): move it
    /// to the ReadyTaskQueue and apply the preemption rules. This is the
    /// paper's TaskIsReady() primitive.
    void make_ready(Task& t);
    /// Re-evaluate preemption after the preemption mode was re-enabled or a
    /// priority changed.
    void recheck_preemption();
    /// A scheduling key (priority / deadline) of `t` changed: reposition it
    /// in the incrementally ordered ready queue (no-op for unordered
    /// policies or when `t` is not Ready).
    void requeue_ready(Task& t);
    /// requeue_ready + recheck_preemption — the full effect of a priority
    /// change visible to the scheduler.
    void on_priority_changed(Task& t);

    /// Terminate a task with correct engine bookkeeping (see Task::kill).
    /// A Running victim pays context-save + scheduling during its unwind; a
    /// Ready victim is unlinked from the ready queue (handing off a pending
    /// idle-dispatch kick if it owned one); a granted / mid-context-load
    /// victim voids its grant and a fresh scheduling pass picks a
    /// replacement; a Waiting victim simply unwinds. Idempotent.
    void kill(Task& t);

    /// Called by Task::run_body after the task's stack unwound via kill or an
    /// exception escaping the body: completes the leave-Running charges or
    /// the replacement scheduling pass. Runs in the (still live) task thread
    /// after the exception has been destroyed, so it may consume simulated
    /// time.
    void on_body_unwound(Task& t, bool crashed);

    // ---- introspection ----
    [[nodiscard]] Task* running() const noexcept { return running_; }
    [[nodiscard]] const ReadyQueue& ready_queue() const noexcept { return ready_; }
    [[nodiscard]] Phase phase() const noexcept { return phase_; }

    struct PhaseStats {
        kernel::Time idle_time{};
        kernel::Time overhead_time{};
        kernel::Time busy_time{};
        std::uint64_t dispatches = 0;     ///< Ready -> Running transitions
        std::uint64_t scheduler_runs = 0; ///< scheduling passes executed
    };
    /// Accumulators are folded up to the current instant on read.
    [[nodiscard]] PhaseStats phase_stats() const;

    /// Install (or clear, with nullptr) the schedule-space oracle
    /// (rtos/oracle.hpp): same-instant equal-rank ready-queue tie-breaks are
    /// delegated to it instead of taking the pinned default. At most one per
    /// engine; a ready-queue insert costs one branch when none is installed.
    void set_schedule_oracle(ScheduleOracle* o) noexcept { oracle_ = o; }

protected:
    // -- locus hooks: where the RTOS algorithm executes differs per engine --

    /// Run the "save (optional) + sched + select + grant" sequence for a task
    /// that just left the Running state (block / finish / preempt / yield).
    /// Procedural engine: executed synchronously in the calling thread.
    /// Threaded engine: delegated to the RTOS thread; when `sync` the call
    /// returns only once the RTOS thread completed the pass.
    virtual void reschedule_after_leave(Task& leaver, bool charge_save, bool sync) = 0;

    /// An idle processor has a new ready task: arrange for a scheduling pass
    /// (sched charge + select + grant). dispatch_in_progress_ is already set
    /// and must be cleared by the pass.
    virtual void kick_idle_dispatch(Task& target) = 0;

    /// A running task readied another without preemption: charge the
    /// scheduling duration to the caller — Fig. 6 case (c) — and re-check
    /// preemption (a higher-priority task may have arrived meanwhile).
    virtual void inline_ready_charge(Task& caller) = 0;

    // -- shared logic (identical simulated-time behaviour in both engines) --

    /// TaskIsPreempted() (§4.2): called in the preempted task's thread from
    /// consume(); suspends until re-dispatched.
    void handle_preempt(Task& self);
    /// Clears the pending flag; returns false when nothing needs to happen
    /// (slice expired with an empty ready queue -> just re-arm).
    bool preempt_prologue(Task& self);
    /// A running task readied a higher-priority one: it is preempted inside
    /// the RTOS primitive itself.
    void inline_preempt(Task& caller);

    /// Charge one overhead component as simulated time in the *current*
    /// thread; the processor is in the overhead phase for the duration. On a
    /// DVFS processor the duration is stretched to the current operating
    /// point (RTOS code runs on the scaled core too — except the
    /// frequency-switch cost itself, a fixed hardware relock latency) and
    /// the consumed energy is booked to `about` (or the per-CPU
    /// unattributed bucket when null).
    void charge(OverheadKind kind, Task* about);

    /// Mark a terminated task's incarnation as fully retired and fire its
    /// TaskRetired event. Both engines call this at the instant the terminal
    /// leave settled — after the save + sched charges of the pass the leaver
    /// triggered — so the event's timing is engine-independent (the end of
    /// the task's kernel process is not: the engines pay those charges in
    /// different threads). Also
    /// called from the charge-free unwind paths (killed while Waiting/Ready).
    /// Idempotent; a no-op on live tasks.
    void retire_if_terminated(Task& t);

    /// Run the scheduling policy, remove the winner from the ready queue and
    /// grant it the CPU (sets granted_ + notifies TaskRun). Returns the
    /// winner; nullptr leaves the CPU idle. Consumes no simulated time (all
    /// pass charges happen before it — see apply_dvfs_level).
    Task* select_and_grant();

    /// Query the policy for the operating point and apply a level change,
    /// paying the frequency-switch charge (about-attributed). Runs at the
    /// start of every scheduling pass, before the scheduling charge. No-op
    /// without a DVFS model.
    void apply_dvfs_level(Task* about);

    /// apply_dvfs_level + charge(sched) + select_and_grant(). One scheduling
    /// pass.
    void schedule_pass(Task* about);

    /// Move the running task out of the Running state. `to` is ready
    /// (preemption/yield), waiting, waiting_resource or terminated; `on` is
    /// the relation a blocking task waits on (see block()).
    void leave_running(Task& t, TaskState to, PreemptReason reason,
                       const mcse::Relation* on = nullptr);

    /// The granted task starts running (called after the load charge).
    void enter_running(Task& t);

    /// Wait until granted — executing scheduling passes when kicked
    /// (procedural engine only) — then charge load and enter Running. With a
    /// `deadline`, a task still blocked when it passes readies itself, and
    /// the call returns false once it runs again; otherwise it returns true.
    bool await_dispatch(Task& t,
                        std::optional<kernel::Time> deadline = std::nullopt);

    /// Insert `t` into the ready queue at its pinned default slot (ahead of
    /// its equal-rank peers when `front`, behind them otherwise), or at the
    /// slot the schedule oracle picks within the same-instant tie-break
    /// window around it.
    void push_ready(Task& t, bool front);
    void set_phase(Phase p);

    /// Should candidate preempt the running task under current settings?
    [[nodiscard]] bool preempts(const Task& candidate) const;

    /// Flag + TaskPreempt notification towards the running task; it reacts
    /// inside consume() at the exact current instant.
    void post_preempt(PreemptReason reason);

    /// (Re)arm / cancel the round-robin slice timer on a task.
    void arm_slice(Task& t);
    void cancel_slice(Task& t);

    /// Count a scheduling pass and notify the observers (both engines call
    /// this for the inline Fig. 6 case (c) charge; schedule_pass calls it
    /// too).
    void note_scheduler_run();

    // Task-handshake accessors for derived engines (base-class friendship).
    static void set_kicked(Task& t) noexcept;
    static kernel::Event& run_event(Task& t) noexcept;
    static kernel::Event& ack_event(Task& t) noexcept;

    Processor& processor_;
    /// The policy maintains a strict weak order: keep ready_ sorted by it
    /// incrementally instead of scanning per decision (see ReadyQueue docs).
    bool ordered_;
    ReadyQueue ready_;
    Task* running_ = nullptr;
    Phase phase_ = Phase::idle;
    kernel::Time phase_since_{};
    /// Task the current running phase is attributed to (energy folding):
    /// captured at every set_phase(Phase::running), where running_ is always
    /// the dispatched task — including the inline-scheduling charges, where
    /// the phase briefly flips to overhead while the task stays Running.
    Task* phase_task_ = nullptr;
    bool dispatch_in_progress_ = false; ///< an idle-kick scheduling pass is pending
    /// Task whose thread is currently executing a kicked scheduling pass
    /// (procedural engine). kill() must not unwind it mid-pass: the pass
    /// completes first — keeping both engines' charges identical — and the
    /// kicked branch rechecks killed_ afterwards.
    Task* pass_runner_ = nullptr;
    PhaseStats stats_;
    ScheduleOracle* oracle_ = nullptr; ///< optional tie-break oracle, see above
};

} // namespace rtsc::rtos
