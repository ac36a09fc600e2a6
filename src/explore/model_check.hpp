#pragma once
// ModelSpec adapter for the schedule-space explorer: every explored
// schedule is checked with the full differential arsenal the fuzzer
// already maintains, plus the decision-stream invariant the explorer adds.
//
// One checked schedule = the four legs of fuzz::kLegs (both engines x
// skip-ahead on/off), all replaying the same DecisionTrace. A schedule
// *violates* when
//   - a prescribed slot did not fit its decision window (replay desync),
//   - fuzz::check_legs reports a divergence: a leg pair differs on any
//     stream (states, overheads, comms, markers, metrics incl. the energy
//     ledger rows, attribution incl. the per-job invariant), or a
//     BROKEN-ENERGY / BROKEN-INVARIANT row broke identically on every leg,
//   - the four per-CPU decision streams disagree (the engines consumed
//     different tie-breaks: the same-instant structure itself diverged),
//   - the run fails where the default schedule did not (a tie-break order
//     triggered a deadlock / lost-wakeup / stall diagnostic).
//
// On top of the tie-break DFS, explore_model() enumerates the *spec-level*
// decision points of ISSUE/ROADMAP item 5: sporadic arrival offsets (tasks
// with a single time-triggered release get their start quantized over a
// window) and fault-plan crash placements. Each variant spec runs its own
// full DFS; reports carry per-variant schedule counts.

#include <cstdint>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "fuzz/spec.hpp"

namespace rtsc::explore {

struct ModelCheckConfig {
    Bounds bounds;
    /// Sporadic-arrival quantization: each single-release, time-triggered
    /// task tries `offsets` start times spread over `offset_window_ps`
    /// (offset k = k * window / offsets; k = 0 keeps the spec's start).
    /// 1 / 0 disables the dial.
    std::uint32_t offsets = 1;
    std::uint64_t offset_window_ps = 0;
    /// Fault-plan placement quantization: each crash entry tries
    /// `crash_offsets` trigger times over `crash_window_ps`.
    std::uint32_t crash_offsets = 1;
    std::uint64_t crash_window_ps = 0;
    /// Cap on the variant cross-product; exceeding it clips (incomplete).
    std::size_t max_variants = 64;
};

struct VariantReport {
    std::string name; ///< "base" or the applied offsets, e.g. "t1+500000ps"
    ExploreResult result;
};

struct ModelReport {
    std::vector<VariantReport> variants;
    std::uint64_t schedules = 0; ///< total runs across variants
    /// Always 0: the explorer prunes nothing. Kept only because the
    /// repository benchmark (perfbench/src/verify.cpp) reads and pins it.
    std::uint64_t pruned_branches = 0;
    std::uint64_t clipped_branches = 0;
    bool complete = false; ///< every variant drained, variant space not clipped
    bool violation = false;
    std::string diagnosis;
    std::string violating_variant;
    fuzz::ModelSpec violating_spec;   ///< variant spec that violated
    DecisionTrace counterexample;     ///< trace within that spec
};

/// Check one spec under one decision trace (the explorer's RunCheck for
/// models). `baseline_error` is the error string of the default-trace run:
/// a run failing differently is flagged. Null when this run is the default
/// run and so defines the baseline itself: a model that fails identically
/// on every leg under its pinned schedule is model behaviour, not a
/// finding. Exposed for tests and the CLI's replay mode.
[[nodiscard]] RunOutcome check_model_once(const fuzz::ModelSpec& spec,
                                          const DecisionTrace& trace,
                                          const std::string* baseline_error);

/// Build the explorer RunCheck for `spec` (captures the baseline error from
/// the first default-trace run, or derives it on demand for resumed runs).
[[nodiscard]] RunCheck make_model_check(const fuzz::ModelSpec& spec);

/// Enumerate the spec-level variants (arrival / crash quantization) and run
/// the bounded-exhaustive tie-break DFS on each.
[[nodiscard]] ModelReport explore_model(const fuzz::ModelSpec& spec,
                                        const ModelCheckConfig& cfg);

/// Shrinker predicate: does a small bounded exploration of `spec` still
/// find a violating schedule? (The counterexample trace is spec-coupled, so
/// the spec is shrunk against "exploration still finds it" rather than
/// against one fixed trace.)
[[nodiscard]] bool explore_finds_violation(const fuzz::ModelSpec& spec);

} // namespace rtsc::explore
