#pragma once
// Bounded exhaustive schedule-space exploration (ROADMAP item 5): enumerate
// every reachable resolution of the model's same-instant ready-queue
// tie-breaks, running an arbitrary checker on each one.
//
// The explorer is generic over a RunCheck functor so the same DFS drives
// both ModelSpec checking (explore/model_check.hpp: the 4-way differential
// runner plus conservation/decision invariants) and hand-built scenarios
// (the rotation-equivalence suite runs its nine pinned schedules through
// it). A RunCheck executes the model once under the given DecisionTrace and
// returns what it observed: the full decision log and a violation verdict.
//
// Enumeration (stateless DFS by replay): pop a trace, run it; every *free*
// decision (past the prescribed per-CPU prefix) with more than one slot
// spawns children — one per non-default slot, each child prescribing the
// per-CPU decisions observed up to that point with the flipped slot last.
// A child's trace always ends in a non-default choice, so each choice
// string has exactly one generating parent (cut at its last non-default
// position): every schedule is visited exactly once, and draining the
// frontier proves the enumeration complete.
//
// No reduction is applied: every order of every same-instant group runs.
// docs/EXPLORE.md ("Why nothing is pruned") says why a dispatch-based
// pruning rule almost never fires; sound reductions are ROADMAP item 6.
//
// The frontier (pending traces + progress counters) serializes to a text
// stream, so a bounded run can stop at its budget and resume later.

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>

#include "explore/decision.hpp"

namespace rtsc::explore {

/// What one checked run reports back to the explorer.
struct RunOutcome {
    DecisionLog log;         ///< every tie-break the run consumed
    bool violation = false;  ///< an invariant broke under this schedule
    std::string diagnosis;   ///< first failure description when violation
    std::string error;       ///< run failure text (empty = ran to completion)
};

/// Execute the model once under `trace`; must be deterministic.
using RunCheck = std::function<RunOutcome(const DecisionTrace&)>;

struct Bounds {
    std::uint64_t max_schedules = 1u << 20; ///< run budget for this call
    std::size_t max_decisions = 4096; ///< branch only on the first N decisions
    std::size_t max_group = 16;       ///< widest window branched on (slots-1)
    bool stop_at_violation = true;    ///< abort the DFS on the first finding
};

struct ExploreResult {
    std::uint64_t schedules = 0;       ///< runs executed (distinct schedules)
    std::uint64_t clipped_branches = 0;///< alternatives dropped by max_* bounds
    bool complete = false;   ///< frontier drained and nothing clipped
    bool violation = false;
    DecisionTrace counterexample; ///< trace of the violating schedule
    std::string diagnosis;
};

class Explorer {
public:
    Explorer(RunCheck check, Bounds bounds)
        : check_(std::move(check)), bounds_(bounds) {
        frontier_.push_back({});
    }

    /// Run the DFS until the frontier drains, the schedule budget is spent
    /// or (by default) a violation is found. Callable again after a bounded
    /// stop: continues from the saved frontier with a fresh budget.
    ExploreResult run();

    [[nodiscard]] bool frontier_empty() const noexcept {
        return frontier_.empty();
    }

    /// Persist the pending frontier + progress counters ("explore-frontier
    /// v1" header, one trace per line). Round-trips through load_frontier,
    /// which also accepts and ignores the `pruned=` counter older files
    /// carry.
    void save_frontier(std::ostream& os) const;
    /// Replace the frontier with a previously saved one. Throws
    /// std::runtime_error on malformed input.
    void load_frontier(std::istream& is);

private:
    void expand(const DecisionTrace& parent, const RunOutcome& outcome,
                ExploreResult& result);

    RunCheck check_;
    Bounds bounds_;
    std::deque<DecisionTrace> frontier_;
    std::uint64_t schedules_total_ = 0; ///< across resumed runs
    std::uint64_t clipped_total_ = 0;
};

} // namespace rtsc::explore
