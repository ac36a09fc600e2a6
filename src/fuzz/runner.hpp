#pragma once
// Differential harness: execute one ModelSpec on a given RTOS engine and
// canonicalize everything observable — the full trace::Recorder streams
// (task state transitions, overhead charges, communication accesses, fault
// markers) and the obs::MetricsRegistry snapshot — into text rows that can
// be compared bit-for-bit between the threaded (§4.1) and procedural (§4.2)
// engines. Kernel-level counters (process activations, delta cycles) differ
// between the engines *by design* (that difference is the paper's §4
// result), so they are reported but never compared.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/spec.hpp"
#include "rtos/processor.hpp"

namespace rtsc::rtos {
class ScheduleOracle;
}

namespace rtsc::fuzz {

struct RunResult {
    /// Canonical rows, in recorded order, one stream per record class.
    std::vector<std::string> states;
    std::vector<std::string> overheads;
    std::vector<std::string> comms;
    std::vector<std::string> markers;
    /// Flattened obs metrics ("name=value"), name-sorted by the registry.
    std::vector<std::string> metrics;
    /// Per-job causal blame decomposition (obs::Attribution), one canonical
    /// row per completed job ordered by (release, task, index). Compared
    /// bit-for-bit: the engines must agree not only on what happened but on
    /// *why* every job took as long as it did.
    std::vector<std::string> attribution;
    /// Simulated end time (ps).
    std::uint64_t end_ps = 0;
    /// FNV-1a digest over every compared row (streams + metrics + end time).
    std::uint64_t digest = 0;
    /// Engine-dependent info, excluded from digest/comparison.
    std::uint64_t kernel_activations = 0;
    std::uint64_t delta_cycles = 0;
    /// Non-empty when the run threw; the message is compared (both engines
    /// must fail identically or that is itself a divergence).
    std::string error;
};

/// `skip_ahead` forces the kernel's skip-ahead fast path on or off for this
/// run (independent of the process-wide default); the result must be
/// bit-identical either way, and diff_engines checks exactly that.
/// `oracle`, when non-null, is installed on every processor's engine before
/// the run: the schedule-space explorer (src/explore/) uses it to record and
/// replay same-instant ready-queue tie-breaks.
[[nodiscard]] RunResult run_model(const ModelSpec& spec, rtos::EngineKind kind,
                                  bool skip_ahead = true,
                                  rtos::ScheduleOracle* oracle = nullptr);

/// First point where two runs disagree.
struct Divergence {
    bool diverged = false;
    std::string stream;     ///< "states", "overheads", "comms", "markers",
                            ///< "metrics", "attribution", "end_time" or
                            ///< "error"
    std::size_t index = 0;  ///< first differing row in that stream
    std::string lhs, rhs;   ///< the differing rows ("<missing>" when absent)
    [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] Divergence compare(const RunResult& procedural,
                                 const RunResult& threaded);

/// The first conservation-invariant row of one run — a BROKEN-ENERGY
/// ledger row in `metrics` or a BROKEN-INVARIANT job row in `attribution` —
/// reported as a Divergence whose stream is "metrics [conservation]" or
/// "attribution [conservation]" and whose lhs and rhs both hold the row.
/// Not diverged when the run balances. Diffing legs cannot see a break they
/// all share, so diff_engines and the schedule explorer both apply this.
[[nodiscard]] Divergence conservation_break(const RunResult& r);

/// Run the spec on both engines — each with the skip-ahead fast path forced
/// on AND forced off — and diff all four runs (engine-vs-engine plus
/// skip-ahead-vs-exact per engine); when they agree, report a conservation
/// break (conservation_break). Optional out-params receive the full
/// skip-ahead-enabled results (for reporting).
[[nodiscard]] Divergence diff_engines(const ModelSpec& spec,
                                      RunResult* procedural = nullptr,
                                      RunResult* threaded = nullptr);

/// FNV-1a 64-bit over a byte string (the digest primitive, exposed for the
/// campaign report).
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const std::string& s) noexcept;
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

} // namespace rtsc::fuzz
