#include "kernel/simulator.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

namespace rtsc::kernel {

namespace {
thread_local Simulator* g_current_sim = nullptr;
} // namespace

// ---------------------------------------------------------------- Process

Process::Process(Simulator& sim, std::string name, std::function<void()> body,
                 std::size_t stack_bytes)
    : sim_(sim),
      name_(std::move(name)),
      coro_(std::make_unique<Coroutine>(std::move(body), stack_bytes)),
      done_event_(std::make_unique<Event>(name_ + ".done")) {}

// ------------------------------------------------------------------ Event

Event::Event(std::string name) : sim_(Simulator::current()), name_(std::move(name)) {}

Event::~Event() { sim_.purge_event(*this); }

void Event::notify() {
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::none;
    sim_.trigger(*this);
}

void Event::notify_delta() {
    if (pending_ == Pending::delta) return;
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::delta;
    sim_.add_delta_pending(*this);
}

void Event::notify(Time delay) {
    if (delay.is_zero()) {
        notify_delta();
        return;
    }
    if (pending_ == Pending::delta) return; // delta wins over timed
    const Time at = sim_.now() + delay;
    if (pending_ == Pending::timed && timed_at_ <= at) return; // earlier pending wins
    pending_ = Pending::timed;
    timed_at_ = at;
    sim_.schedule_timed(*this, at);
}

void Event::cancel() {
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::none;
}

// -------------------------------------------------------------- Simulator

Simulator::Simulator() {
    prev_current_ = g_current_sim;
    g_current_sim = this;
}

Simulator::~Simulator() { g_current_sim = prev_current_; }

Simulator& Simulator::current() {
    if (!g_current_sim) throw SimulationError("no active Simulator on this thread");
    return *g_current_sim;
}

Simulator* Simulator::current_or_null() noexcept { return g_current_sim; }

Process& Simulator::spawn(std::string name, std::function<void()> body,
                          std::size_t stack_bytes) {
    auto proc = std::unique_ptr<Process>(
        new Process(*this, std::move(name), std::move(body), stack_bytes));
    Process& p = *proc;
    processes_.push_back(std::move(proc));
    p.runnable_ = true;
    runnable_.push_back(&p);
    return p;
}

Process& Simulator::require_process(const char* what) const {
    if (!current_process_)
        throw SimulationError(std::string(what) + " called outside of a process");
    return *current_process_;
}

// ---- event machinery ----

void Simulator::schedule_timed(Event& e, Time at) {
    // Rescheduling earlier: the previous wheel entry is cancelled through
    // its handle, never left to go stale.
    if (e.timed_handle_.valid())
        wheel_.cancel(e.timed_handle_);
    else
        ++live_timed_; // a reschedule is already counted
    e.timed_handle_ = wheel_.insert(at, now_, order_counter_++,
                                    TimingWheel::Kind::event_notify, &e, nullptr);
}

void Simulator::cancel_timed(Event& e) noexcept {
    if (e.timed_handle_.valid()) {
        wheel_.cancel(e.timed_handle_);
        e.timed_handle_.reset();
        --live_timed_;
    }
}

void Simulator::add_delta_pending(Event& e) { delta_pending_.push_back(&e); }

void Simulator::trigger(Event& e) {
    if (e.waiters_.empty()) return;
    // Waking modifies e.waiters_ via clear_wait_state; iterate over a moved-
    // out copy. The scratch buffer makes the common non-nested notification
    // allocation-free (wake() runs no user code, so trigger() only re-enters
    // through exotic observer hooks -- those fall back to a local vector).
    if (trigger_depth_ == 0) {
        ++trigger_depth_;
        trigger_scratch_.clear();
        trigger_scratch_.swap(e.waiters_);
        for (Process* p : trigger_scratch_)
            wake(*p, Process::WakeReason::event, &e);
        --trigger_depth_;
    } else {
        std::vector<Process*> waiters;
        waiters.swap(e.waiters_);
        for (Process* p : waiters) wake(*p, Process::WakeReason::event, &e);
    }
}

void Simulator::purge_event(Event& e) {
    // Unregister from any process still waiting on e (they keep waiting on
    // their other wake sources).
    for (Process* p : e.waiters_) std::erase(p->waiting_on_, &e);
    e.waiters_.clear();
    std::erase(delta_pending_, &e);
    // Cancel a pending timed notification through the handle: the wheel
    // never dereferences the Event, so destroying one mid-schedule is safe
    // (the old priority queue popped and inspected the dangling pointer).
    cancel_timed(e);
}

void Simulator::wake(Process& p, Process::WakeReason reason, Event* ev) {
    if (p.runnable_ || p.terminated_) return;
    clear_wait_state(p);
    p.wake_reason_ = reason;
    p.waking_event_ = ev;
    p.runnable_ = true;
    runnable_.push_back(&p);
}

void Simulator::clear_wait_state(Process& p) {
    for (Event* e : p.waiting_on_) std::erase(e->waiters_, &p);
    p.waiting_on_.clear();
    if (p.timeout_armed_) {
        ++p.timeout_seq_; // invalidates a zero-waiter entry, if any
        p.timeout_armed_ = false;
        if (p.timeout_counted_) {
            p.timeout_counted_ = false;
            --live_timed_;
        }
        if (hot_.proc == &p) {
            hot_.proc = nullptr; // staged: dropped in place, no tombstone
        } else if (p.timeout_handle_.valid()) {
            wheel_.cancel(p.timeout_handle_);
            p.timeout_handle_.reset();
        }
    }
}

void Simulator::arm_timeout(Process& p, Time timeout) {
    ++p.timeout_seq_;
    p.timeout_armed_ = true;
    const Time at = now_ + timeout; // saturating: Time::max() means "never"
    if (at == Time::max()) return;  // no wheel entry: the timeout cannot fire
    if (!p.background_) {
        // Snapshot the background flag at arm time: toggling it while the
        // timeout is in flight must not unbalance the live-work count.
        p.timeout_counted_ = true;
        ++live_timed_;
    }
    if (skip_ahead_) {
        // Stage the newest timeout; in the dominant compute/charge pattern
        // it is also the next to fire and never touches the wheel.
        if (hot_.proc != nullptr) flush_hot();
        hot_ = HotTimeout{&p, at, order_counter_++};
        return;
    }
    p.timeout_handle_ = wheel_.insert(
        at, now_, order_counter_++, TimingWheel::Kind::process_timeout,
        nullptr, &p);
}

void Simulator::flush_hot() {
    Process* p = hot_.proc;
    hot_.proc = nullptr;
    // The original order stamp keeps the FIFO tie-break identical to a
    // direct insert at arm time.
    p->timeout_handle_ = wheel_.insert(
        hot_.at, now_, hot_.order, TimingWheel::Kind::process_timeout,
        nullptr, p);
}

void Simulator::fire_hot() noexcept {
    Process& p = *hot_.proc;
    hot_.proc = nullptr;
    if (hot_.at > now_) {
        now_ = hot_.at;
        deltas_this_instant_ = 0;
    }
    p.timeout_armed_ = false;
    if (p.timeout_counted_) {
        p.timeout_counted_ = false;
        --live_timed_;
    }
}

void Simulator::suspend_current() {
    Process& p = *current_process_;
    p.wake_reason_ = Process::WakeReason::none;
    p.waking_event_ = nullptr;
    p.coro_->yield();
    // A kill posted while this process was suspended surfaces here, on the
    // process's own stack, so the wait()er's frames unwind with RAII intact.
    if (p.kill_requested_) {
        p.kill_requested_ = false;
        throw ProcessKilled(p.name_);
    }
}

void Simulator::kill_process(Process& p) {
    if (p.terminated_) return;
    if (&p == current_process_) {
        p.kill_requested_ = false;
        throw ProcessKilled(p.name_);
    }
    if (!p.coro_->started()) {
        // No live stack to unwind: retire the process in place.
        p.terminated_ = true;
        clear_wait_state(p);
        std::erase(runnable_, &p);
        p.runnable_ = false;
        p.done_event_->notify_delta();
        return;
    }
    p.kill_requested_ = true;
    wake(p, Process::WakeReason::killed, nullptr);
}

// ---- inline wake ----
//
// With skip-ahead on, a wait whose wake is provably the run loop's next step
// completes in place: nothing else is queued in this sweep, and the
// delta-notification phase would be empty, so the loop would end the sweep,
// count one delta cycle, and (for a timeout) take advance_time's fast path
// straight back to this process. The caller applies exactly that
// bookkeeping and keeps running; only the switch counters differ. The
// skip-ahead-off path stays the reference the differential legs compare to.

bool Simulator::sweep_ends_idle() const noexcept {
    // A cancelled entry still in delta_pending_ or a stale zero-waiter entry
    // counts as pending: the exact path runs delta_notify_phase() for it,
    // with its per-instant limit check.
    return skip_ahead_ && !stop_requested_ && sweep_ == runnable_.size() &&
           delta_pending_.empty() && zero_waiters_.empty();
}

bool Simulator::wake_inline(Process& p) {
    // advance_time's fast-path test (ties fall through), its horizon check,
    // and run()'s dry-run exit: a background timeout is not live work.
    if (hot_.proc != &p || !sweep_ends_idle() ||
        hot_.at.raw_ps() >= wheel_.next_lower_bound() || hot_.at > limit_ ||
        (limit_ == Time::max() && live_timed_ == 0))
        return false;
    ++delta_count_; // the empty delta cycle the suspension would have ended
    ++deltas_this_instant_;
    fire_hot();
    resume_in_place(p, Process::WakeReason::timeout);
    return true;
}

void Simulator::resume_in_place(Process& p, Process::WakeReason reason) {
    clear_wait_state(p);
    p.wake_reason_ = reason;
    p.waking_event_ = nullptr;
    // Every slot of the sweep has been visited (nulled): recycle the queue so
    // a long streak of inline wakes inside one sweep keeps it short.
    runnable_.clear();
    sweep_ = 0;
}

// ---- wait services ----

void Simulator::yield() {
    Process& p = require_process("yield()");
    if (skip_ahead_ && sweep_ == runnable_.size()) {
        resume_in_place(p, Process::WakeReason::none);
        return;
    }
    // The evaluate sweep already dequeued this process (runnable_ false);
    // re-appending lets the same index-based FIFO sweep pick it up again
    // after everything queued ahead of it.
    p.runnable_ = true;
    runnable_.push_back(&p);
    suspend_current();
}

void Simulator::wait(Time duration) {
    Process& p = require_process("wait(Time)");
    if (duration.is_zero()) {
        // One delta cycle: a private delta-notified wake through the done
        // machinery would be heavier; reuse the timeout path at +0 is wrong
        // (same-instant timeouts fire in a later *timed* batch). Use a
        // dedicated delta wake instead.
        ++p.timeout_seq_;
        if (sweep_ends_idle() && deltas_this_instant_ < max_deltas_per_instant_) {
            // This process is the delta cycle's only wake; at the limit the
            // exact path raises the error where it always has.
            ++delta_count_;
            ++deltas_this_instant_;
            resume_in_place(p, Process::WakeReason::timeout);
            return;
        }
        p.timeout_armed_ = true;
        zero_waiters_.push_back({&p, p.timeout_seq_});
        suspend_current();
        return;
    }
    arm_timeout(p, duration);
    if (!wake_inline(p)) suspend_current();
}

void Simulator::wait(Event& e) {
    Process& p = require_process("wait(Event)");
    e.waiters_.push_back(&p);
    p.waiting_on_.push_back(&e);
    suspend_current();
}

Process::WakeReason Simulator::wait(Time timeout, Event& e) {
    Process& p = require_process("wait(Time, Event)");
    e.waiters_.push_back(&p);
    p.waiting_on_.push_back(&e);
    arm_timeout(p, timeout);
    if (!wake_inline(p)) suspend_current();
    return p.wake_reason_;
}

Event& Simulator::wait_any(std::initializer_list<Event*> events) {
    return wait_any(std::vector<Event*>(events));
}

Event& Simulator::wait_any(const std::vector<Event*>& events) {
    Process& p = require_process("wait_any");
    for (Event* e : events) {
        e->waiters_.push_back(&p);
        p.waiting_on_.push_back(e);
    }
    suspend_current();
    return *p.waking_event_;
}

Event* Simulator::wait_any(Time timeout, const std::vector<Event*>& events) {
    Process& p = require_process("wait_any");
    for (Event* e : events) {
        e->waiters_.push_back(&p);
        p.waiting_on_.push_back(e);
    }
    arm_timeout(p, timeout);
    if (!wake_inline(p)) suspend_current();
    return p.wake_reason_ == Process::WakeReason::event ? p.waking_event_ : nullptr;
}

// ---- the scheduling loop ----

bool Simulator::advance_time(Time limit) {
    if (hot_.proc != nullptr) {
        if (hot_.at.raw_ps() < wheel_.next_lower_bound()) {
            // Skip-ahead fast path: the staged timeout fires strictly before
            // anything the wheel could produce (the bound is conservative:
            // a tie or a stale bound falls through to the general path,
            // which restores the event-before-timeout and FIFO ordering).
            if (hot_.at > limit) return false;
            Process& p = *hot_.proc;
            fire_hot();
            wake(p, Process::WakeReason::timeout, nullptr);
            return true;
        }
        flush_hot();
    }
    Time t{};
    if (!wheel_.pop_due(limit, t, fired_batch_)) return false;
    if (t > now_) {
        now_ = t;
        deltas_this_instant_ = 0;
    }
    for (const TimingWheel::Fired& f : fired_batch_) {
        // An earlier wake in this batch may have cancelled the entry
        // (e.g. an event waking a process whose timeout shares the
        // instant); take() claims it exactly once.
        if (!wheel_.take(f.h)) continue;
        if (f.kind == TimingWheel::Kind::event_notify) {
            f.ev->timed_handle_.reset();
            f.ev->pending_ = Event::Pending::none;
            --live_timed_;
            trigger(*f.ev);
        } else {
            f.proc->timeout_handle_.reset();
            f.proc->timeout_armed_ = false;
            if (f.proc->timeout_counted_) {
                f.proc->timeout_counted_ = false;
                --live_timed_;
            }
            wake(*f.proc, Process::WakeReason::timeout, nullptr);
        }
    }
    fired_batch_.clear();
    return true;
}

void Simulator::evaluate_phase() {
    // Index-based FIFO over a plain vector: processes woken mid-phase append
    // and are picked up by the same sweep. Visited slots are nulled so a
    // kill_process() erase (which only matches live queue entries) cannot
    // shift unvisited elements across the cursor. The cursor is a member:
    // an inline wake reads it, and may restart an all-visited queue. If a
    // process body throws, the nulls are dropped so only unprocessed entries
    // remain queued.
    try {
    for (sweep_ = 0; sweep_ < runnable_.size();) {
        Process* p = runnable_[sweep_];
        runnable_[sweep_++] = nullptr;
        if (p == nullptr) continue;
        p->runnable_ = false;
        if (p->terminated_) continue;
        current_process_ = p;
        ++activations_;
        ++p->activations_;
        p->coro_->resume();
        current_process_ = nullptr;
        if (p->coro_->finished()) {
            p->terminated_ = true;
            clear_wait_state(*p);
            p->done_event_->notify_delta();
        }
    }
    } catch (...) {
        std::erase(runnable_, static_cast<Process*>(nullptr));
        throw;
    }
    runnable_.clear();
}

void Simulator::delta_notify_phase() {
    if (!delta_pending_.empty()) {
        delta_scratch_.clear();
        delta_scratch_.swap(delta_pending_);
        for (Event* e : delta_scratch_) {
            if (e->pending_ != Event::Pending::delta) continue; // cancelled/overridden
            e->pending_ = Event::Pending::none;
            trigger(*e);
        }
    }
    if (!zero_waiters_.empty()) {
        zero_scratch_.clear();
        zero_scratch_.swap(zero_waiters_);
        for (const ZeroWaiter& z : zero_scratch_) {
            if (z.proc->timeout_armed_ && z.proc->timeout_seq_ == z.seq) {
                z.proc->timeout_armed_ = false;
                wake(*z.proc, Process::WakeReason::timeout, nullptr);
            }
        }
    }
    ++delta_count_;
    if (++deltas_this_instant_ > max_deltas_per_instant_)
        reporter_.report(Severity::error,
                         "delta-cycle limit exceeded at t=" + now_.to_string() +
                             " (zero-delay activity loop?)");
}

void Simulator::run_loop(Time limit) {
    if (running_) {
        // Re-entrant invocation (typically run()/run_until() called from
        // inside a process) would corrupt the scheduler state; refuse with a
        // diagnostic through the Reporter (error severity throws).
        std::string msg = "Simulator::run()/run_until() is not reentrant";
        if (current_process_ != nullptr)
            msg += " (called from inside process '" + current_process_->name_ + "')";
        reporter_.report(Severity::error, msg);
        return; // unreachable: error severity throws
    }
    running_ = true;
    stop_requested_ = false;
    limit_ = limit;
    // Host self-profiling wraps each phase in two steady_clock reads; the
    // timed wrapper compiles down to the plain call when disabled. It must
    // not perturb the phase sequencing in any way — only measure it.
    const auto timed = [this](auto&& phase, std::uint64_t& acc) {
        if (!host_profiling_) return phase();
        const auto t0 = std::chrono::steady_clock::now();
        using R = decltype(phase());
        if constexpr (std::is_void_v<R>) {
            phase();
            acc += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        } else {
            R r = phase();
            acc += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            return r;
        }
    };
    try {
        while (!stop_requested_) {
            if (runnable_.empty() && delta_pending_.empty() && zero_waiters_.empty()) {
                // Open-ended run: background heartbeats alone are not work.
                // An explicit run_until() horizon keeps them ticking to it.
                if (limit == Time::max() && live_timed_ == 0) break;
                if (!timed([&] { return advance_time(limit); },
                           host_profile_.advance_ns))
                    break;
            }
            timed([&] { evaluate_phase(); }, host_profile_.evaluate_ns);
            if (skip_ahead_ && delta_pending_.empty() && zero_waiters_.empty()) {
                // Skip-ahead: the delta-notification phase has nothing to
                // do; count the empty delta cycle exactly as
                // delta_notify_phase() would and return to the timed queue.
                // The per-instant delta guard is not needed here: with no
                // pending delta activity, time strictly advances (or the run
                // ends) before the next evaluation.
                ++delta_count_;
                ++deltas_this_instant_;
                continue;
            }
            timed([&] { delta_notify_phase(); }, host_profile_.delta_notify_ns);
        }
    } catch (...) {
        running_ = false;
        throw;
    }
    running_ = false;
}

void Simulator::check_for_stall() {
    stall_report_ = StallReport{};
    stall_report_.at = now_;
    for (const auto& up : processes_) {
        const Process& p = *up;
        if (p.terminated_ || p.runnable_ || p.daemon_ || !p.coro_->started())
            continue;
        BlockedProcess b;
        b.process = p.name_;
        for (const Event* e : p.waiting_on_) b.waiting_on.push_back(e->name());
        if (b.waiting_on.empty())
            b.waiting_on.emplace_back("<nothing: suspended forever>");
        stall_report_.blocked.push_back(std::move(b));
    }
    if (stall_report_.detected())
        reporter_.report(Severity::warning, stall_report_.to_string());
}

std::string Simulator::StallReport::to_string() const {
    std::string msg = "deadlock/stall at t=" + at.to_string() + ": " +
                      std::to_string(blocked.size()) +
                      " process(es) blocked with no pending activity";
    for (const auto& b : blocked) {
        msg += "\n  " + b.process + " waits on:";
        for (const std::string& e : b.waiting_on) msg += " " + e;
    }
    return msg;
}

void Simulator::run() {
    run_loop(Time::max());
    // The run went dry (rather than being stopped): with detection enabled,
    // diagnose processes that are still blocked and can never wake.
    if (deadlock_detection_ && !stop_requested_) check_for_stall();
}

void Simulator::run_until(Time t) {
    run_loop(t);
    if (now_ < t && !stop_requested_) now_ = t;
}

} // namespace rtsc::kernel
