#pragma once
// ScheduleOracle: the decision-point hook behind the bounded schedule-space
// explorer (src/explore/). The RTOS model is deterministic, but some of that
// determinism is a *pinned tie-break*, not a semantic necessity — where a
// task lands among its same-instant, equal-rank peers in the ReadyTaskQueue
// (a preempted task resumes ahead of them, a fresh arrival queues behind
// them). A real RTOS may resolve those races either way; the explorer
// enumerates them.
//
// With an oracle installed the engine exposes each such tie-break as an
// explicit decision: the contiguous window of already-queued tasks the new
// entry may legitimately permute with (equal rank under the policy, queued
// at the same simulated instant), and the pinned default slot. The oracle
// answers with the slot to use; returning the preset everywhere reproduces
// the pinned behaviour bit-for-bit. Without an oracle every hook site costs
// one branch (same contract as the observer lists, rtos/observer.hpp).
//
// The two notification hooks feed the explorer's pruning: on_dispatch fires
// whenever the scheduler removes a winner from the ready queue (the only
// point where queue *order* becomes observable behaviour), and
// on_order_consumed flags the rare paths that read the queue front outside
// a scheduling pass (kill() handing a pending idle-dispatch kick to
// ready_.front()).

#include <cstddef>

#include "kernel/time.hpp"
#include "rtos/fwd.hpp"
#include "rtos/policy.hpp"

namespace rtsc::rtos {

/// One ready-queue insertion tie-break, presented to the oracle.
struct ReadyInsertDecision {
    Processor& cpu;
    Task& task;              ///< the task being inserted
    kernel::Time at;         ///< current simulated instant
    bool front;              ///< preempted-style insert (ahead of peers)
    /// The window of adjacent, same-instant, equal-rank tasks the new entry
    /// may permute with (contiguous slice of the live ready queue).
    Task* const* window = nullptr;
    std::size_t window_len = 0;
};

class ScheduleOracle {
public:
    virtual ~ScheduleOracle() = default;

    /// Pick the insertion slot within the window: 0 inserts ahead of every
    /// window member, window_len behind all of them. `preset` is the pinned
    /// default (0 for a preempted front-insert, window_len for an arrival).
    /// Out-of-range answers are clamped to the preset.
    virtual std::size_t choose_ready_insert(const ReadyInsertDecision& d,
                                            std::size_t preset) = 0;

    /// The scheduler granted `winner` the CPU and removed it from the ready
    /// queue; `remaining` is the queue after the removal. This is where
    /// relative queue order turns into observable behaviour — the explorer
    /// uses it to mark which recorded tie-breaks actually mattered.
    virtual void on_dispatch(Processor& cpu, Task& winner,
                             const ReadyQueue& remaining) {
        (void)cpu; (void)winner; (void)remaining;
    }

    /// The engine consumed ready-queue order outside a scheduling pass
    /// (e.g. kill() handing a pending idle-dispatch kick to the queue
    /// front). Conservative: the explorer marks every pending tie-break on
    /// this CPU as order-sensitive.
    virtual void on_order_consumed(Processor& cpu) { (void)cpu; }
};

} // namespace rtsc::rtos
