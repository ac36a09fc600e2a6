#include "rtos/procedural_engine.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

void ProceduralEngine::reschedule_after_leave(Task& leaver, bool charge_save,
                                              bool /*sync*/) {
    // Everything happens synchronously in the leaving task's thread
    // (Figure 5: the blocked/preempted task's thread executes TaskContextSave
    // and the Scheduling portion of the RTOS overhead). Defer one delta cycle
    // first so other same-instant wakes are already in the ready queue when
    // the overhead durations are evaluated and the observers sample the queue —
    // the §4.1 engine's dedicated RTOS thread naturally runs after them, and
    // the engines must agree on the state every charge observes (same
    // reasoning as the kicked branch of await_dispatch). pass_runner_ covers
    // the deferral: a kill landing in that window lets the charges complete,
    // exactly as a kill cannot retract the threaded engine's already-queued
    // reschedule request; the killed leaver then unwinds from its dispatch
    // wait.
    pass_runner_ = &leaver;
    k::wait(k::Time::zero());
    if (charge_save) charge(OverheadKind::context_save, &leaver);
    schedule_pass(&leaver);
    pass_runner_ = nullptr;
    retire_if_terminated(leaver);
}

void ProceduralEngine::kick_idle_dispatch(Task& target) {
    // The awakened task's own thread will execute the scheduling pass when it
    // reaches await_dispatch (the kicked_ branch). If the wake came from its
    // own thread (timer expiry), no notification is even needed; otherwise
    // TaskRun wakes it.
    set_kicked(target);
    run_event(target).notify();
}

void ProceduralEngine::inline_ready_charge(Task& caller) {
    // Fig. 6 case (c): the running task pays the scheduling duration of the
    // primitive that readied a lower-priority task, then keeps running.
    note_scheduler_run();
    charge(OverheadKind::scheduling, &caller);
    set_phase(Phase::running);
    recheck_preemption();
}

} // namespace rtsc::rtos
