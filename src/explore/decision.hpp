#pragma once
// Decision traces: the record/replay currency of the schedule-space
// explorer.
//
// A *decision* is one same-instant ready-queue tie-break the engine exposed
// through the ScheduleOracle hook (rtos/oracle.hpp): task T entered CPU C's
// ready queue at instant A adjacent to a window of W equal-rank, same-
// instant peers, and was inserted at slot `chosen` of the W+1 possible
// slots. A *trace* prescribes the slots of a per-CPU prefix of those
// decisions; decisions past the prefix take the engine's pinned default and
// are recorded as free. Replaying the empty trace therefore reproduces the
// pinned behaviour exactly, and every reachable interleaving of the model's
// tie-breaks corresponds to exactly one trace.
//
// Streams are per-CPU (keyed by processor name) because cross-CPU decision
// interleaving within one instant is a kernel activation-order detail that
// legitimately differs between the two engines; per-CPU order is simulated
// behaviour and must match — decision_rows() canonicalizes a log into
// comparable per-CPU projections and the model checker diffs them across
// all four runs as an extra equivalence invariant.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rtos/oracle.hpp"

namespace rtsc::explore {

/// One recorded tie-break.
struct Decision {
    std::string cpu;      ///< processor name (engine-independent identity)
    std::string task;     ///< task being inserted
    std::uint64_t at_ps = 0;
    bool front = false;   ///< preempted-style insert
    std::uint32_t n = 1;  ///< alternative slots (window_len + 1)
    std::uint32_t chosen = 0;
    bool forced = false;  ///< prescribed by the replayed trace
    std::vector<std::string> group; ///< window members + the inserted task
};

/// Global observation-order log of one run.
using DecisionLog = std::vector<Decision>;

/// Per-CPU prescribed slot prefixes (cpu name -> slots in observation order).
using DecisionTrace = std::map<std::string, std::vector<std::uint32_t>>;

/// "cpu0:1,0,2;cpu1:0" — stable text form for frontier files and reports.
[[nodiscard]] std::string to_text(const DecisionTrace& trace);
/// Inverse of to_text. Throws std::runtime_error on malformed input.
[[nodiscard]] DecisionTrace trace_from_text(const std::string& text);

/// Canonical per-CPU projection rows ("cpu0 at=5000 task=t1 n=3 chosen=2"),
/// grouped by CPU in name order, decisions in observation order. Two runs
/// with equal rows consumed the identical per-CPU decision streams.
[[nodiscard]] std::vector<std::string> decision_rows(const DecisionLog& log);

/// Human-readable dump of a full log (diagnostics).
[[nodiscard]] std::string log_to_text(const DecisionLog& log);

/// The ScheduleOracle that records every tie-break and replays a prescribed
/// per-CPU prefix. Decisions beyond the prefix take the preset (pinned
/// default). One oracle instance serves every processor of one run; it is
/// not reusable across runs.
class TraceOracle final : public rtos::ScheduleOracle {
public:
    explicit TraceOracle(const DecisionTrace* prefix = nullptr)
        : prefix_(prefix) {}

    std::size_t choose_ready_insert(const rtos::ReadyInsertDecision& d,
                                    std::size_t preset) override;

    [[nodiscard]] const DecisionLog& log() const noexcept { return log_; }
    [[nodiscard]] DecisionLog take_log() noexcept { return std::move(log_); }

    /// False when a prescribed slot did not fit its decision's window (the
    /// run diverged structurally from the recording — itself a finding).
    [[nodiscard]] bool replay_ok() const noexcept { return replay_error_.empty(); }
    [[nodiscard]] const std::string& replay_error() const noexcept {
        return replay_error_;
    }

private:
    const DecisionTrace* prefix_;
    DecisionLog log_;
    /// Per-CPU count of decisions consumed so far (prefix cursor).
    std::map<std::string, std::size_t> cursor_;
    std::string replay_error_;
};

} // namespace rtsc::explore
