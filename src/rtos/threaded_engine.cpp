#include "rtos/threaded_engine.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

ThreadedEngine::ThreadedEngine(Processor& processor)
    : SchedulerEngine(processor), rtk_run_(processor.name() + ".RTKRun") {
    rtk_proc_ = &processor.simulator().spawn(processor.name() + ".rtos",
                                             [this] { rtos_thread_body(); });
    // The RTOS thread legitimately waits forever on RTKRun; keep it out of
    // deadlock/stall diagnostics.
    rtk_proc_->set_daemon(true);
}

void ThreadedEngine::rtos_thread_body() {
    for (;;) {
        while (queue_.empty()) k::wait(rtk_run_);
        const Request r = queue_.front();
        queue_.pop_front();
        process(r);
    }
}

void ThreadedEngine::process(const Request& r) {
    switch (r.kind) {
        case Request::Kind::reschedule:
            if (r.charge_save) charge(OverheadKind::context_save, r.task);
            note_scheduler_run();
            apply_dvfs_level(r.task);
            charge(OverheadKind::scheduling, r.task);
            // Ack before the grant: a synchronous leaver (sleep_for /
            // block_timed) whose wake time already passed during this pass
            // re-enters the ready queue at this very instant, and that wake
            // must precede the winner's context-load charge — the procedural
            // engine's leaver continues inline after the pass and does
            // exactly that, and formula overheads read the ready count at
            // the charge. The runnable queue is FIFO, so notifying the ack
            // first runs the leaver's thread before the grantee's.
            if (r.ack) ack_event(*r.task).notify();
            select_and_grant();
            retire_if_terminated(*r.task);
            break;
        case Request::Kind::idle_dispatch:
            schedule_pass(r.task);
            dispatch_in_progress_ = false;
            break;
        case Request::Kind::inline_sched:
            note_scheduler_run();
            charge(OverheadKind::scheduling, r.task);
            set_phase(Phase::running);
            recheck_preemption();
            ack_event(*r.task).notify();
            break;
    }
}

void ThreadedEngine::reschedule_after_leave(Task& leaver, bool charge_save,
                                            bool sync) {
    queue_.push_back({Request::Kind::reschedule, &leaver, charge_save, sync});
    rtk_run_.notify();
    if (sync) k::wait(ack_event(leaver));
}

void ThreadedEngine::kick_idle_dispatch(Task& target) {
    queue_.push_back({Request::Kind::idle_dispatch, &target, false, false});
    rtk_run_.notify();
}

void ThreadedEngine::inline_ready_charge(Task& caller) {
    // The caller stays blocked for the duration of the RTOS call, exactly as
    // with a real synchronous primitive.
    queue_.push_back({Request::Kind::inline_sched, &caller, false, false});
    rtk_run_.notify();
    k::wait(ack_event(caller));
}

} // namespace rtsc::rtos
