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
// the pinned behaviour bit-for-bit. Without an oracle the hook costs one
// branch per ready-queue insert (same contract as the observer lists,
// rtos/observer.hpp).

#include <cstddef>

#include "kernel/time.hpp"
#include "rtos/fwd.hpp"

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
};

} // namespace rtsc::rtos
