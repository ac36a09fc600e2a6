#pragma once
// Scheduling policies (paper §3.1).
//
// "The scheduling policy defines the RTOS algorithm used to select the
// running task among the ready tasks. It can be based on task priorities or
// deadlines for example. [...] Several scheduling policies are implemented
// but since we cannot implement all specific ones, designers can also define
// their own policies by overloading the SchedulingPolicy method of our
// Processor class."
//
// Policies are strategy objects. A policy answers three questions:
//   select()         which ready task gets the CPU next
//   should_preempt() does a newly ready task displace the running one
//   time_slice()     a non-zero value enables round-robin quantum rotation

#include <memory>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "rtos/fwd.hpp"

namespace rtsc::rtos {

/// The ReadyTaskQueue. For policies without an incremental order (ordered()
/// == false) it holds ready tasks in arrival order, preempted tasks
/// re-inserted at the front so that, within one priority level, a preempted
/// task resumes before later arrivals of the same priority. For ordering-
/// aware policies the engine keeps it sorted by SchedulingPolicy::before()
/// instead — same dispatch sequence, but the decision reads the front in
/// O(1) rather than re-scanning (or re-sorting) the queue every time.
using ReadyQueue = std::vector<Task*>;

class SchedulingPolicy {
public:
    virtual ~SchedulingPolicy() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Pick the next task to run among the ready tasks (nullptr if the queue
    /// is empty). Must NOT modify the queue; the engine removes the winner.
    [[nodiscard]] virtual Task* select(const ReadyQueue& ready) const = 0;

    /// Should `candidate` (just became ready) preempt `running`? Only
    /// consulted when the processor is in preemptive mode.
    [[nodiscard]] virtual bool should_preempt(const Task& candidate,
                                              const Task& running) const = 0;

    /// Round-robin quantum; Time::zero() disables slicing (the default).
    [[nodiscard]] virtual kernel::Time time_slice() const { return kernel::Time::zero(); }

    // ---- incremental-ordering support ----

    /// A policy returning true here promises that before() is a strict weak
    /// "a runs before b" order consistent with select(). The engine then
    /// maintains the ready queue in that order incrementally — sorted insert
    /// on membership change, repositioning on priority/deadline change — and
    /// the default Processor::scheduling_policy dispatches the front task
    /// without consulting select() at all. select() must still implement the
    /// full scan: it is the fallback for custom Processor overrides and for
    /// direct use on arbitrary (unsorted) queues.
    [[nodiscard]] virtual bool ordered() const noexcept { return false; }
    /// Strict weak order: should `a` run before `b`? Only consulted when
    /// ordered() is true. Equal-rank FIFO is handled by the engine's stable
    /// insertion, not by this predicate.
    [[nodiscard]] virtual bool before(const Task& a, const Task& b) const;

    // ---- DVFS support (rtos/dvfs.hpp) ----
    // Only consulted on processors with a DVFS model installed; the engine
    // applies level changes (including the frequency-switch overhead), the
    // policy merely decides.

    /// Operating-point level the processor should run at, queried at the
    /// start of every scheduling pass — before the scheduling charge, so a
    /// level change's frequency-switch cost precedes the point where a
    /// synchronous leaver resumes (both engines must agree on that instant).
    /// `about` is the task the pass is charged about (leaver or woken task;
    /// may be null). Default: keep the current level.
    [[nodiscard]] virtual std::size_t dvfs_level(const Processor& cpu,
                                                 const Task* about);
    /// A new job of `t` was released (Created/Waiting -> Ready).
    virtual void on_job_release(const Task& t, kernel::Time now);
    /// The current job of `t` completed (Running -> Waiting/Terminated).
    virtual void on_job_completion(const Task& t, kernel::Time now);
};

/// Fixed-priority preemptive scheduling — "the most widely used" (§3.1) and
/// the policy of the paper's running example. Bigger number = more urgent
/// (Function_1 with priority 5 preempts Function_3 with priority 2).
/// Ties resolve in queue order (FIFO within a priority level).
class PriorityPreemptivePolicy : public SchedulingPolicy {
public:
    [[nodiscard]] std::string name() const override { return "priority_preemptive"; }
    [[nodiscard]] Task* select(const ReadyQueue& ready) const override;
    [[nodiscard]] bool should_preempt(const Task& candidate,
                                      const Task& running) const override;
    [[nodiscard]] bool ordered() const noexcept override { return true; }
    [[nodiscard]] bool before(const Task& a, const Task& b) const override;
};

/// First-come first-served: run in ready order, never preempt.
class FifoPolicy final : public SchedulingPolicy {
public:
    [[nodiscard]] std::string name() const override { return "fifo"; }
    [[nodiscard]] Task* select(const ReadyQueue& ready) const override;
    [[nodiscard]] bool should_preempt(const Task&, const Task&) const override {
        return false;
    }
};

/// Round-robin / Time-Sharing: FIFO order plus quantum rotation. The paper's
/// §4 notes Time Sharing is the policy that motivated the dedicated RTOS
/// thread variant; both of our engines support it.
class RoundRobinPolicy final : public SchedulingPolicy {
public:
    explicit RoundRobinPolicy(kernel::Time quantum) : quantum_(quantum) {}
    [[nodiscard]] std::string name() const override { return "round_robin"; }
    [[nodiscard]] Task* select(const ReadyQueue& ready) const override;
    [[nodiscard]] bool should_preempt(const Task&, const Task&) const override {
        return false;
    }
    [[nodiscard]] kernel::Time time_slice() const override { return quantum_; }

private:
    kernel::Time quantum_;
};

/// Earliest-Deadline-First: dynamic priorities from absolute deadlines
/// (Task::set_absolute_deadline). Tasks without a deadline rank last.
class EdfPolicy : public SchedulingPolicy {
public:
    [[nodiscard]] std::string name() const override { return "edf"; }
    [[nodiscard]] Task* select(const ReadyQueue& ready) const override;
    [[nodiscard]] bool should_preempt(const Task& candidate,
                                      const Task& running) const override;
    [[nodiscard]] bool ordered() const noexcept override { return true; }
    [[nodiscard]] bool before(const Task& a, const Task& b) const override;
};

/// Rate-monotonic priority assignment helper: maps shorter periods to higher
/// priorities (1..n). Returns priorities in the order of the given periods.
[[nodiscard]] std::vector<int> rate_monotonic_priorities(
    const std::vector<kernel::Time>& periods);

} // namespace rtsc::rtos
