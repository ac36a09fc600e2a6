#include "rtos/engine.hpp"

#include <algorithm>
#include <exception>

#include "kernel/simulator.hpp"
#include "rtos/oracle.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

namespace {
[[noreturn]] void engine_error(const std::string& msg) {
    throw k::SimulationError("rtos engine: " + msg);
}
} // namespace

SchedulerEngine::SchedulerEngine(Processor& processor)
    : processor_(processor), ordered_(processor.policy().ordered()) {}

void SchedulerEngine::set_kicked(Task& t) noexcept { t.kicked_ = true; }
kernel::Event& SchedulerEngine::run_event(Task& t) noexcept { return t.ev_run_; }
kernel::Event& SchedulerEngine::ack_event(Task& t) noexcept { return t.ev_ack_; }

// --------------------------------------------------------- phase accounting

void SchedulerEngine::set_phase(Phase p) {
    const k::Time now = processor_.simulator().now();
    const k::Time d = now - phase_since_;
    switch (phase_) {
        case Phase::idle: stats_.idle_time += d; break;
        case Phase::overhead: stats_.overhead_time += d; break;
        case Phase::running: stats_.busy_time += d; break;
    }
    // Energy folding (DVFS): the elapsed slice burned f·V² at the level that
    // was current for its whole duration — select_and_grant re-folds before
    // flipping the level, so a slice never straddles an operating point.
    // Idle is free; a running slice is charged to the CPU ledger and,
    // simultaneously and with the identical product, to the running task —
    // that shared arithmetic is what makes conservation bit-exact.
    if (processor_.dvfs_enabled() && !d.is_zero()) {
        const Energy e =
            static_cast<Energy>(processor_.dvfs_power()) * d.raw_ps();
        if (phase_ == Phase::overhead) {
            processor_.energy_.overhead += e;
        } else if (phase_ == Phase::running) {
            processor_.energy_.busy += e;
            if (phase_task_ != nullptr) {
                phase_task_->energy_exec_ += e;
                phase_task_->job_energy_exec_ += e;
            } else {
                processor_.energy_.unattributed += e; // defensive: never expected
            }
        }
    }
    phase_ = p;
    if (p == Phase::running) phase_task_ = running_;
    phase_since_ = now;
}

SchedulerEngine::PhaseStats SchedulerEngine::phase_stats() const {
    PhaseStats s = stats_;
    const k::Time d = processor_.simulator().now() - phase_since_;
    switch (phase_) {
        case Phase::idle: s.idle_time += d; break;
        case Phase::overhead: s.overhead_time += d; break;
        case Phase::running: s.busy_time += d; break;
    }
    return s;
}

// ------------------------------------------------------------ small helpers

void SchedulerEngine::push_ready(Task& t, bool front) {
    // The pinned default slot, stable within one rank: a preempted task
    // (`front`) goes ahead of its equal-rank peers, a fresh arrival behind
    // them — the same tie-break the arrival-order queue plus select()-scan
    // produced. Unordered policies (fifo / round-robin) dispatch in pure
    // queue order, so every queued task is an equal-rank peer there.
    const SchedulingPolicy& pol = processor_.policy();
    const auto before = [&pol](const Task* a, const Task* b) {
        return pol.before(*a, *b);
    };
    auto pos = front ? ready_.begin() : ready_.end();
    if (ordered_)
        pos = front ? std::lower_bound(ready_.begin(), ready_.end(), &t, before)
                    : std::upper_bound(ready_.begin(), ready_.end(), &t, before);
    if (oracle_ != nullptr) {
        // Widen the default slot to the tie-break window: the contiguous run
        // of equal-rank tasks adjacent to it that entered the queue at this
        // same instant. Tasks queued at an earlier instant carry
        // semantically fixed FIFO seniority — crossing them would change the
        // model, not the interleaving — so the scan stops at the first one.
        const k::Time now = processor_.simulator().now();
        t.ready_enqueued_at_ = now; // only written while an oracle is installed
        const auto peer = [&](const Task* x) {
            return x->ready_enqueued_at_ == now &&
                   (!ordered_ || (!before(x, &t) && !before(&t, x)));
        };
        auto first = pos;
        auto last = pos;
        if (front)
            while (last != ready_.end() && peer(*last)) ++last;
        else
            while (first != ready_.begin() && peer(*(first - 1))) --first;
        const auto window_len = static_cast<std::size_t>(last - first);
        if (window_len > 0) {
            const ReadyInsertDecision d{processor_, t, now, front, &*first,
                                        window_len};
            const std::size_t slot =
                oracle_->choose_ready_insert(d, front ? 0 : window_len);
            if (slot <= window_len)
                pos = first + static_cast<ReadyQueue::difference_type>(slot);
        }
    }
    ready_.insert(pos, &t);
}

void SchedulerEngine::requeue_ready(Task& t) {
    if (!ordered_) return; // position is arrival order; the select scan
                           // re-reads keys on every decision anyway
    const auto it = std::find(ready_.begin(), ready_.end(), &t);
    if (it == ready_.end()) return;
    ready_.erase(it);
    push_ready(t, /*front=*/t.entered_ready_preempted_);
}

void SchedulerEngine::on_priority_changed(Task& t) {
    requeue_ready(t);
    recheck_preemption();
}

bool SchedulerEngine::preempts(const Task& candidate) const {
    return processor_.preemption_allowed() && running_ != nullptr &&
           processor_.should_preempt(candidate, *running_);
}

void SchedulerEngine::post_preempt(PreemptReason reason) {
    Task& r = *running_;
    if (!r.preempt_pending_) {
        r.preempt_pending_ = true;
        r.preempt_reason_ = reason;
    }
    // Immediate notification: interrupts a compute() at the exact current
    // instant; also cancels a pending slice timer on the same event.
    r.ev_preempt_.notify();
}

void SchedulerEngine::arm_slice(Task& t) {
    const k::Time q = processor_.policy().time_slice();
    if (!q.is_zero()) t.ev_preempt_.notify(q);
}

void SchedulerEngine::cancel_slice(Task& t) { t.ev_preempt_.cancel(); }

void SchedulerEngine::charge(OverheadKind kind, Task* about) {
    const k::Time start = processor_.simulator().now();
    k::Time d = processor_.overhead_duration(kind);
    const bool dvfs = processor_.dvfs_enabled();
    // RTOS code executes on the scaled core, so overhead durations stretch
    // with the operating point — except the frequency-switch cost itself,
    // which models a fixed hardware PLL/regulator relock latency.
    if (dvfs && kind != OverheadKind::frequency_switch)
        d = processor_.dvfs_scale(d);
    for (Observer* o : processor_.observers())
        o->on_overhead(processor_, kind, start, d, about);
    if (d.is_zero()) return;
    // Book the overhead energy charge-wise only AFTER the wait completes:
    // the time-based fold of the overhead phase in set_phase covers the
    // identical interval (the conservation check verifies exactly that),
    // and the fold only ever happens once the wait has run its course. A
    // simulation horizon that cuts the run mid-wait must therefore book
    // nothing on either side — charging up front would leave the attributed
    // split ahead of the ledger total. The operating point cannot change
    // during the wait (level flips happen inside a scheduling pass, and a
    // pass is never re-entered), so reading dvfs_power() afterwards sees
    // the same level the slice ran at.
    set_phase(Phase::overhead);
    k::wait(d);
    if (dvfs) {
        const Energy e =
            static_cast<Energy>(processor_.dvfs_power()) * d.raw_ps();
        if (about != nullptr) {
            about->energy_ov_ += e;
            about->job_energy_ov_ += e;
        } else {
            processor_.energy_.unattributed += e;
        }
    }
}

// --------------------------------------------------------------- scheduling

void SchedulerEngine::apply_dvfs_level(Task* about) {
    if (!processor_.dvfs_enabled()) return;
    // The policy decides the operating point; the engine applies it, paying
    // the frequency-switch overhead. This happens at the start of the pass,
    // BEFORE the scheduling charge: the threaded engine acks a synchronous
    // leaver right after the scheduling charge, and the procedural leaver
    // resumes after the whole pass — select_and_grant must therefore consume
    // no simulated time, or the two resume instants diverge.
    const std::size_t want = processor_.policy().dvfs_level(processor_, about);
    if (want >= processor_.dvfs().levels())
        engine_error("policy returned an out-of-range DVFS level");
    if (want != processor_.dvfs_level()) {
        // Fold the energy ledgers at the old power before flipping.
        set_phase(phase_);
        processor_.dvfs_level_ = want;
        charge(OverheadKind::frequency_switch, about);
    }
}

Task* SchedulerEngine::select_and_grant() {
    Task* next = processor_.scheduling_policy(ready_);
    if (next == nullptr) {
        set_phase(Phase::idle);
        return nullptr;
    }
    const auto it = std::find(ready_.begin(), ready_.end(), next);
    if (it == ready_.end())
        engine_error("scheduling policy selected a task that is not ready: " +
                     next->name());
    ready_.erase(it);
    // Keep the overhead phase alive until the winner finishes its context
    // load; arrivals in between only join the queue.
    set_phase(Phase::overhead);
    next->granted_ = true;
    next->granted_at_ = processor_.simulator().now();
    next->ev_run_.notify();
    return next;
}

void SchedulerEngine::note_scheduler_run() {
    ++stats_.scheduler_runs;
    for (Observer* o : processor_.observers())
        o->on_scheduler_run(processor_, ready_.size());
}

void SchedulerEngine::schedule_pass(Task* about) {
    note_scheduler_run();
    apply_dvfs_level(about);
    charge(OverheadKind::scheduling, about);
    select_and_grant();
}

void SchedulerEngine::leave_running(Task& t, TaskState to, PreemptReason reason,
                                    const mcse::Relation* on) {
    if (running_ != &t)
        engine_error("leave_running for a task that is not running: " + t.name());
    cancel_slice(t);
    running_ = nullptr;
    set_phase(Phase::overhead);
    const ObserverList& observers = processor_.observers();
    if (to == TaskState::ready) {
        t.entered_ready_preempted_ = (reason == PreemptReason::higher_priority ||
                                      reason == PreemptReason::slice_expired);
        if (t.entered_ready_preempted_) ++t.stats_.preemptions;
        // A preempted task resumes before equal-rank later arrivals; slice
        // rotation and yield go to the back of the queue.
        push_ready(t, /*front=*/reason == PreemptReason::higher_priority);
        if (t.entered_ready_preempted_ && !observers.empty()) {
            std::size_t depth = 0;
            for (const Task* r : ready_)
                if (r->entered_ready_preempted_) ++depth;
            for (Observer* o : observers) o->on_preempt(processor_, t, depth);
        }
    }
    if (to == TaskState::waiting || to == TaskState::waiting_resource)
        for (Observer* o : observers) o->on_block(processor_, t, to, on);
    // Job boundary for the RT-DVS policies: waiting = job done until the next
    // release; terminated = final job done. waiting_resource is mid-job
    // blocking and does not complete the job.
    if (processor_.dvfs_enabled() &&
        (to == TaskState::waiting || to == TaskState::terminated))
        processor_.policy().on_job_completion(t, processor_.simulator().now());
    t.set_state(to);
}

void SchedulerEngine::enter_running(Task& t) {
    running_ = &t;
    ++stats_.dispatches;
    if (!processor_.observers().empty()) {
        const k::Time now = processor_.simulator().now();
        for (Observer* o : processor_.observers())
            o->on_dispatch(processor_, t, now - t.state_since_,
                           now - t.granted_at_);
    }
    set_phase(Phase::running);
    t.set_state(TaskState::running);
    arm_slice(t);
    // Post-load preemption check: somebody may have become ready while this
    // task was being dispatched.
    if (processor_.preemption_allowed()) {
        for (Task* r : ready_) {
            if (processor_.should_preempt(*r, t)) {
                post_preempt(PreemptReason::higher_priority);
                break;
            }
        }
    }
}

void SchedulerEngine::await_dispatch(Task& t) {
    // `notified` tracks whether the grant was observed via an ev_run_ wake.
    // A grant observed *synchronously* — this thread ran the scheduling pass
    // itself (procedural kicked branch) or continued inline after a sync
    // leave pass — yields one evaluate-sweep turn first, so the body starts
    // at the runnable-queue position an immediate grant notify would have
    // given it. Without this, a self-granted procedural task starts its
    // body a sweep position earlier than the threaded engine's
    // notify-granted equivalent, and same-instant task bodies on DIFFERENT
    // processors interleave differently between the engines (found by the
    // schedule-space explorer: a cross-CPU release/acquire race at the same
    // instant resolved differently per engine).
    bool notified = false;
    for (;;) {
        if (t.granted_) {
            t.granted_ = false;
            if (!notified) k::Simulator::current().yield();
            break;
        }
        if (t.kicked_) {
            // Procedural engine: the awakened task's own thread executes the
            // scheduling pass (§4.2: "the RTOS algorithm is executed by the
            // thread of the task which was awaked"). Defer one delta cycle so
            // that other same-instant arrivals are already in the ready queue
            // when the scheduling duration is evaluated — the dedicated RTOS
            // thread of the §4.1 engine naturally runs after them, and the
            // two engines must behave identically.
            t.kicked_ = false;
            pass_runner_ = &t;
            k::wait(k::Time::zero());
            schedule_pass(&t);
            pass_runner_ = nullptr;
            dispatch_in_progress_ = false;
            if (t.killed_) throw k::ProcessKilled(t.name());
            notified = false; // a self-grant by this pass is synchronous
            continue;
        }
        // A kill that landed while this thread was deferring its own leave
        // pass (pass_runner_ protection in the procedural engine) left the
        // task terminated without unwinding the thread; no grant can ever
        // arrive, so unwind here.
        if (t.killed_) throw k::ProcessKilled(t.name());
        k::wait(t.ev_run_);
        notified = true;
    }
    charge(OverheadKind::context_load, &t);
    enter_running(t);
}

// ------------------------------------------------------ task-thread services

void SchedulerEngine::start_task(Task& t) {
    if (!t.start_delay_.is_zero()) k::wait(t.start_delay_);
    make_ready(t);
    await_dispatch(t);
}

void SchedulerEngine::consume(Task& t, k::Time d) {
    if (current_task() != &t)
        engine_error("compute() must be called from the task's own thread: " +
                     t.name());
    // DVFS stretches the nominal (full-speed) duration to the current
    // operating point; job_work_ accumulates the *nominal* demand the CC
    // policies compare against the declared WCET. The fault-injection
    // exec-jitter hook composes after scaling — scale first, then jitter —
    // identically in both engines (pinned by tests).
    if (processor_.dvfs_enabled()) {
        t.job_work_ += d;
        d = processor_.dvfs_scale(d);
    }
    if (t.compute_hook_) d = t.compute_hook_(t, d);
    k::Time remaining = d;
    for (;;) {
        if (t.preempt_pending_) {
            handle_preempt(t);
            continue;
        }
        if (remaining.is_zero()) break;
        if (t.state() != TaskState::running)
            engine_error("compute() while not running: " + t.name());
        const k::Time start = processor_.simulator().now();
        const auto reason = k::Simulator::current().wait(remaining, t.ev_preempt_);
        if (reason == k::Process::WakeReason::timeout) {
            remaining = k::Time::zero();
            continue; // one more turn to honour a preemption at this instant
        }
        //

        // TaskPreempt fired: either a real preemption (flag already set) or
        // the round-robin slice timer (timed notification, no flag).
        remaining = k::Time::sat_sub(
            remaining, processor_.simulator().now() - start);
        if (!t.preempt_pending_) {
            if (processor_.policy().time_slice().is_zero()) continue; // stray
            t.preempt_pending_ = true;
            t.preempt_reason_ = PreemptReason::slice_expired;
        }
    }
}

bool SchedulerEngine::preempt_prologue(Task& t) {
    t.preempt_pending_ = false;
    const PreemptReason reason = t.preempt_reason_;
    t.preempt_reason_ = PreemptReason::none;
    if (ready_.empty()) {
        // Nothing to switch to (e.g. slice expired but the task is alone).
        if (reason == PreemptReason::slice_expired) arm_slice(t);
        return false;
    }
    t.preempt_reason_ = reason;
    return true;
}

void SchedulerEngine::handle_preempt(Task& t) {
    if (!preempt_prologue(t)) return;
    const PreemptReason reason = t.preempt_reason_;
    t.preempt_reason_ = PreemptReason::none;
    leave_running(t, TaskState::ready, reason);
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/false);
    await_dispatch(t);
}

void SchedulerEngine::inline_preempt(Task& caller) {
    // The caller is suspended inside the RTOS primitive that readied a
    // higher-priority task.
    leave_running(caller, TaskState::ready, PreemptReason::higher_priority);
    reschedule_after_leave(caller, /*charge_save=*/true, /*sync=*/false);
    await_dispatch(caller);
}

void SchedulerEngine::block(Task& t, TaskState kind, const mcse::Relation* on) {
    if (current_task() != &t)
        engine_error("block must be called from the task's own thread: " + t.name());
    leave_running(t, kind, PreemptReason::none, on);
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/false);
    await_dispatch(t);
}

bool SchedulerEngine::block_timed(Task& t, TaskState kind, k::Time timeout,
                                  const mcse::Relation* on) {
    if (current_task() != &t)
        engine_error("block_timed must be called from the task's own thread: " +
                     t.name());
    const k::Time deadline = processor_.simulator().now() + timeout;
    leave_running(t, kind, PreemptReason::none, on);
    // sync for the same reason as sleep_for: the timeout wake must not enter
    // the ready queue before the scheduling pass caused by this very block.
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/true);

    bool timed_out = false;
    bool notified = false; // see await_dispatch: sync grants yield once
    for (;;) {
        if (t.granted_) {
            t.granted_ = false;
            if (!notified) k::Simulator::current().yield();
            break;
        }
        if (t.kicked_) {
            t.kicked_ = false;
            pass_runner_ = &t;
            k::wait(k::Time::zero());
            schedule_pass(&t);
            pass_runner_ = nullptr;
            dispatch_in_progress_ = false;
            if (t.killed_) throw k::ProcessKilled(t.name());
            notified = false;
            continue;
        }
        // See await_dispatch: a kill during this thread's own deferred leave
        // pass terminates the task without an unwind — no grant will come.
        if (t.killed_) throw k::ProcessKilled(t.name());
        if (t.state() != kind) {
            // Someone already delivered (made us ready): just await the grant.
            k::wait(t.ev_run_);
            notified = true;
            continue;
        }
        const k::Time remaining =
            k::Time::sat_sub(deadline, processor_.simulator().now());
        if (remaining.is_zero()) {
            timed_out = true;
            make_ready(t); // self wake-up, normal dispatch rules apply
            continue;
        }
        notified = k::Simulator::current().wait(remaining, t.ev_run_) ==
                   k::Process::WakeReason::event;
    }
    charge(OverheadKind::context_load, &t);
    enter_running(t);
    return !timed_out;
}

void SchedulerEngine::sleep_for(Task& t, k::Time d) {
    const k::Time wake_at = processor_.simulator().now() + d;
    leave_running(t, TaskState::waiting, PreemptReason::none);
    // sync: the wake timer must not let this task re-enter the ready queue
    // before the scheduling pass triggered by its own blocking completed
    // (keeps both engines time-identical).
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/true);
    // A kill during the deferred leave pass (see await_dispatch) terminated
    // the task without unwinding this thread: don't arm the wake timer.
    if (t.killed_) throw k::ProcessKilled(t.name());
    const k::Time remain = k::Time::sat_sub(wake_at, processor_.simulator().now());
    if (!remain.is_zero()) k::wait(remain);
    make_ready(t);
    await_dispatch(t);
}

void SchedulerEngine::finish_task(Task& t) {
    leave_running(t, TaskState::terminated, PreemptReason::none);
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/false);
}

void SchedulerEngine::yield_cpu(Task& t) {
    if (current_task() != &t)
        engine_error("yield_cpu must be called from the task's own thread: " +
                     t.name());
    if (ready_.empty()) return;
    leave_running(t, TaskState::ready, PreemptReason::yielded);
    reschedule_after_leave(t, /*charge_save=*/true, /*sync=*/false);
    await_dispatch(t);
}

// --------------------------------------------------------- any-context entry

void SchedulerEngine::make_ready(Task& t) {
    switch (t.state()) {
        case TaskState::ready:
        case TaskState::running:
            return; // already scheduled (spurious wake)
        case TaskState::terminated:
            // A late wake aimed at a killed/crashed task (timer, channel
            // delivery racing the kill at the same instant) is dropped; a
            // wake towards a normally-terminated task is still a model bug.
            if (t.killed_ || t.crashed_) return;
            engine_error("make_ready on terminated task: " + t.name());
        case TaskState::created:
        case TaskState::waiting:
        case TaskState::waiting_resource:
            break;
    }
    // Job boundary for the RT-DVS policies: a wake out of created/waiting
    // releases a fresh job (reset the per-job accumulators before the policy
    // sees it); waking from waiting_resource resumes the same job.
    if (processor_.dvfs_enabled() &&
        (t.state() == TaskState::created || t.state() == TaskState::waiting)) {
        t.job_work_ = k::Time::zero();
        t.job_energy_exec_ = 0;
        t.job_energy_ov_ = 0;
        processor_.policy().on_job_release(t, processor_.simulator().now());
    }
    t.entered_ready_preempted_ = false;
    ++t.stats_.activations;
    push_ready(t, /*front=*/false);
    t.set_state(TaskState::ready);
    for (Observer* o : processor_.observers()) o->on_wake(processor_, t);

    Task* caller = current_task();
    // A killed/crashed caller is unwinding (ProcessKilled or a body
    // exception in flight): cleanup code — guards releasing semaphores or
    // shared variables — must not suspend, so its wakes take the
    // non-blocking interrupt-style path below; the leave charges the dying
    // task still owes will run the scheduling pass that dispatches the
    // woken task.
    const bool rtos_call_from_running =
        caller != nullptr && &caller->processor() == &processor_ &&
        caller == running_ && !caller->killed() &&
        std::uncaught_exceptions() == 0;
    if (rtos_call_from_running) {
        if (preempts(t))
            inline_preempt(*caller);
        else
            inline_ready_charge(*caller);
        return;
    }
    // Interrupt-style arrival: hardware process, another processor's task,
    // a timer wake (possibly the task's own thread) or scheduler context.
    if (phase_ == Phase::running) {
        if (preempts(t)) post_preempt(PreemptReason::higher_priority);
    } else if (phase_ == Phase::idle && !dispatch_in_progress_) {
        dispatch_in_progress_ = true;
        kick_idle_dispatch(t);
    }
    // overhead phase: the in-flight scheduling pass (or the post-load check)
    // will consider the new arrival.
}

void SchedulerEngine::kill(Task& t) {
    if (t.state() == TaskState::terminated || t.killed_) return;
    t.killed_ = true;
    cancel_slice(t);
    k::Simulator& sim = processor_.simulator();

    if (pass_runner_ == &t) {
        // Its thread is executing an in-flight scheduling pass (procedural
        // engine: the kicked idle-dispatch pass, or its own deferred leave
        // pass including the save/sched charges). Let the pass complete —
        // both engines always finish a started pass, and the threaded
        // engine's queued reschedule request cannot be retracted either.
        // The wait sites recheck killed_ right after the pass; here we only
        // take the task out of contention.
        const auto it = std::find(ready_.begin(), ready_.end(), &t);
        if (it != ready_.end()) ready_.erase(it);
        t.set_state(TaskState::terminated);
        return;
    }
    if (current_task() == &t) {
        // Self-kill: unwind this thread; run_body completes the Running
        // leave (save + sched) afterwards.
        throw k::ProcessKilled(t.name());
    }

    switch (t.state()) {
        case TaskState::running:
            // The save + sched charges are paid during the unwind in the
            // task's own thread, exactly like a normal leave.
            sim.kill_process(*t.proc_);
            break;
        case TaskState::ready: {
            const auto it = std::find(ready_.begin(), ready_.end(), &t);
            if (it != ready_.end()) {
                ready_.erase(it);
                t.set_state(TaskState::terminated);
                const bool owned_kick = t.kicked_;
                t.kicked_ = false;
                sim.kill_process(*t.proc_);
                if (owned_kick) {
                    // The victim was designated to execute an idle-dispatch
                    // pass that has not started yet: hand the kick to another
                    // ready task, or drop the dispatch.
                    if (!ready_.empty())
                        kick_idle_dispatch(*ready_.front());
                    else
                        dispatch_in_progress_ = false;
                }
            } else {
                // Granted or mid-context-load: the dispatch decision is
                // void; the unwind charges a fresh scheduling pass so a
                // replacement is picked (or the CPU goes idle).
                t.granted_ = false;
                t.redispatch_on_unwind_ = true;
                t.set_state(TaskState::terminated);
                sim.kill_process(*t.proc_);
            }
            break;
        }
        case TaskState::created:
        case TaskState::waiting:
        case TaskState::waiting_resource:
            t.set_state(TaskState::terminated);
            sim.kill_process(*t.proc_);
            // A never-started process is terminated in place: no unwind will
            // run, so the incarnation is already fully retired.
            if (t.proc_->terminated()) retire_if_terminated(t);
            break;
        case TaskState::terminated:
            break; // unreachable (guarded above)
    }
}

void SchedulerEngine::on_body_unwound(Task& t, bool crashed) {
    if (crashed) t.crashed_ = true;
    if (t.state() == TaskState::running) {
        // Killed / crashed while Running: a normal leave — save + sched,
        // then the next winner pays its load.
        finish_task(t);
        return;
    }
    if (t.state() != TaskState::terminated) {
        const auto it = std::find(ready_.begin(), ready_.end(), &t);
        if (it != ready_.end()) ready_.erase(it);
        t.set_state(TaskState::terminated);
    }
    if (t.redispatch_on_unwind_) {
        t.redispatch_on_unwind_ = false;
        reschedule_after_leave(t, /*charge_save=*/false, /*sync=*/false);
    } else {
        // Charge-free unwind (killed while Waiting / Ready-in-queue): the
        // incarnation retires the moment the stack finished unwinding.
        retire_if_terminated(t);
    }
}

void SchedulerEngine::retire_if_terminated(Task& t) {
    if (t.state() != TaskState::terminated || t.retired_) return;
    t.retired_ = true;
    t.ev_retired_.notify();
}

void SchedulerEngine::recheck_preemption() {
    if (phase_ != Phase::running || running_ == nullptr ||
        !processor_.preemption_allowed())
        return;
    for (Task* r : ready_) {
        if (processor_.should_preempt(*r, *running_)) {
            post_preempt(PreemptReason::higher_priority);
            return;
        }
    }
}

} // namespace rtsc::rtos
