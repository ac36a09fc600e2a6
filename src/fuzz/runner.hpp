#pragma once
// Differential harness: execute one ModelSpec on a given RTOS engine and
// canonicalize everything observable — the full trace::Recorder streams
// (task state transitions, overhead charges, communication accesses, fault
// markers) and the obs::MetricsRegistry snapshot — into text rows that can
// be compared bit-for-bit between the threaded (§4.1) and procedural (§4.2)
// engines. Kernel-level counters (process activations, delta cycles) differ
// between the engines *by design* (that difference is the paper's §4
// result), so they are reported but never compared.
//
// The four-leg check (kLegs, check_legs, run_legs) is defined here once;
// the fuzz sweep and every schedule the explorer checks go through it.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/spec.hpp"
#include "rtos/processor.hpp"

namespace rtsc::rtos {
class ScheduleOracle;
}

namespace rtsc::fuzz {

class RowWriter;

/// One stream of canonical rows: the rows' bytes back to back in one buffer
/// plus where each row ends. Streams compare and hash as whole buffers; a
/// row is cut out as a view only where a report names it.
class RowTable {
public:
    RowTable() = default;
    RowTable(std::initializer_list<std::string_view> rows);

    [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
    [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }
    /// Row `i`, a view valid until the table changes.
    [[nodiscard]] std::string_view operator[](std::size_t i) const noexcept {
        const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
        return {bytes_.data() + begin, ends_[i] - begin};
    }

    void push_back(std::string_view row);

    /// Index of the first row containing `text` (not empty), or size() when
    /// none does.
    [[nodiscard]] std::size_t find(std::string_view text) const noexcept;

    /// Same rows, byte for byte: a size check and a memcmp of the bytes and
    /// of the row ends.
    friend bool operator==(const RowTable&, const RowTable&) = default;

private:
    friend class RowWriter; // renders rows straight into bytes_
    std::string bytes_;
    std::vector<std::size_t> ends_; ///< one past each row's last byte
};

struct RunResult {
    /// Canonical rows, in recorded order, one stream per record class.
    RowTable states;
    RowTable overheads;
    RowTable comms;
    RowTable markers;
    /// Flattened obs metrics ("name=value"), name-sorted by the registry.
    RowTable metrics;
    /// Per-job causal blame decomposition (obs::Attribution), one canonical
    /// row per completed job ordered by (release, task, index). Compared
    /// bit-for-bit: the engines must agree not only on what happened but on
    /// *why* every job took as long as it did.
    RowTable attribution;
    /// Simulated end time (ps).
    std::uint64_t end_ps = 0;
    /// FNV-1a digest over every compared row (streams + metrics + end time)
    /// and the error. Set by run_model only; run_legs leaves it 0.
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
/// bit-identical either way, and check_legs checks exactly that.
/// `oracle`, when non-null, is installed on every processor's engine before
/// the run: the schedule-space explorer (src/explore/) uses it to record and
/// replay same-instant ready-queue tie-breaks.
[[nodiscard]] RunResult run_model(const ModelSpec& spec, rtos::EngineKind kind,
                                  bool skip_ahead = true,
                                  rtos::ScheduleOracle* oracle = nullptr);

/// One engine/skip-ahead configuration of the four-leg check.
struct Leg {
    const char* name;
    rtos::EngineKind kind;
    bool skip_ahead;
};

/// The leg matrix. Leg 0 is the reference: the engines are compared on legs
/// 0 and 1, skip-ahead neutrality on 0/2 and 1/3.
inline constexpr Leg kLegs[4] = {
    {"procedural/skip", rtos::EngineKind::procedure_calls, true},
    {"threaded/skip", rtos::EngineKind::rtos_thread, true},
    {"procedural/exact", rtos::EngineKind::procedure_calls, false},
    {"threaded/exact", rtos::EngineKind::rtos_thread, false},
};

/// First point where two runs disagree, or a conservation row of one run.
struct Divergence {
    bool diverged = false;
    std::string stream;     ///< "states", "overheads", "comms", "markers",
                            ///< "metrics", "attribution", "end_time" or
                            ///< "error"
    std::size_t index = 0;  ///< first differing row in that stream
    std::string lhs, rhs;   ///< the differing rows ("<missing>" when absent)
    /// The two runs, by index into kLegs. Both name the same leg when the
    /// row is a conservation break (lhs == rhs, the BROKEN row).
    std::size_t lhs_leg = 0, rhs_leg = 1;
    [[nodiscard]] std::string to_string() const;
};

/// Diff two runs stream by stream; the result names legs 0 and 1.
[[nodiscard]] Divergence compare(const RunResult& procedural,
                                 const RunResult& threaded);

/// The four-leg verdict over runs ordered as kLegs: the first divergence of
/// legs 0/1, then 0/2, then 1/3; when all agree, the first BROKEN-ENERGY
/// ledger row in leg 0's `metrics` or BROKEN-INVARIANT job row in its
/// `attribution` (a break every leg shares is invisible to the diffs).
/// Not diverged when all four agree and balance.
[[nodiscard]] Divergence check_legs(const RunResult (&legs)[4]);

/// The four legs of one spec and their verdict.
struct LegRuns {
    RunResult legs[4];  ///< ordered as kLegs
    Divergence verdict; ///< check_legs(legs)
};

/// Run the spec on every leg of kLegs, the one four-leg loop; `oracles[i]`,
/// when non-null, is leg i's `oracle` (see run_model). No leg is hashed:
/// the verdict compares every row, the end time and the error.
[[nodiscard]] LegRuns run_legs(const ModelSpec& spec,
                               const std::array<rtos::ScheduleOracle*, 4>&
                                   oracles = {});

/// run_legs' verdict. Optional out-params receive legs 0 and 1 (for
/// reporting).
[[nodiscard]] Divergence diff_engines(const ModelSpec& spec,
                                      RunResult* procedural = nullptr,
                                      RunResult* threaded = nullptr);

/// Side-by-side text of two runs (the first column `a`), one "---- name"
/// section per compared stream in comparison order; rows that differ are
/// marked with '!'.
[[nodiscard]] std::string dump_streams(const RunResult& a, const RunResult& b);

/// FNV-1a 64-bit over a byte string (the digest primitive, exposed for the
/// campaign report).
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::string_view s) noexcept;
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

} // namespace rtsc::fuzz
