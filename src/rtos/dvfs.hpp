#pragma once
// Per-processor DVFS (dynamic voltage and frequency scaling) model.
//
// A DvfsModel is a table of discrete {frequency, voltage} operating points,
// sorted fastest-first (level 0 = full speed). The processor carries a
// current level; the engine applies it at the single choke point where
// compute()/delay() durations are charged (SchedulerEngine::consume) and
// where overhead durations are charged, so both engine implementations stay
// bit-identical. Dynamic power follows the classic CMOS model P ∝ f·V²
// (effective switched capacitance normalized to 1), so
//
//     energy = Σ  f[kHz] · V²[mV²] · Δt[ps]
//
// over every executed slice — one model unit is exactly 1e-15 J (a
// femtojoule) under that normalization. Energy bookkeeping is pure integer
// arithmetic (128-bit accumulators, rtos/fwd.hpp), which is what makes the
// conservation invariant checkable bit-exactly.
//
// Level decisions belong to the scheduling policy (Pillai & Shin's RT-DVS
// variants below); the engine only applies them, charging the configurable
// frequency-switch overhead (RtosOverheads::frequency_switch) whenever the
// level actually changes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "rtos/policy.hpp"

namespace rtsc::rtos {

/// Longest write_energy rendering: 2^128 - 1 has 39 decimal digits.
inline constexpr std::size_t kMaxEnergyChars = 39;

/// Write a 128-bit energy accumulator at `p` as decimal digits (no locale)
/// and return the end; at most kMaxEnergyChars bytes.
char* write_energy(char* p, Energy raw) noexcept;

/// write_energy appended to `out` (the fuzz harness renders its canonical
/// rows with it).
void append_energy(std::string& out, Energy raw);

/// append_energy into a new string.
[[nodiscard]] std::string energy_to_string(Energy raw);

/// Model units -> joules (1 unit = 1 fJ with C_eff normalized to 1).
[[nodiscard]] inline double energy_to_joules(Energy raw) noexcept {
    return static_cast<double>(raw) * 1e-15;
}

/// One DVFS operating point. Integer units keep all derived arithmetic
/// exact: kHz resolves any realistic clock, mV any realistic rail.
struct OperatingPoint {
    std::uint32_t freq_khz = 0;
    std::uint32_t volt_mv = 0;
};

class DvfsModel {
public:
    /// Points are sorted fastest-first internally; level 0 is full speed.
    /// Throws kernel::SimulationError on an empty table, a zero frequency or
    /// voltage, or values large enough for f·V² to overflow 64 bits
    /// (freq > 100 GHz or volt > 100 V — far outside any real silicon).
    explicit DvfsModel(std::vector<OperatingPoint> points);

    /// Single full-speed point: DVFS compiled in but inert. Scaling is the
    /// exact identity, so schedules are bit-identical to a processor with no
    /// model installed — only the energy ledger starts counting.
    [[nodiscard]] static DvfsModel single(std::uint32_t freq_khz,
                                          std::uint32_t volt_mv);

    [[nodiscard]] std::size_t levels() const noexcept { return points_.size(); }
    [[nodiscard]] const OperatingPoint& point(std::size_t level) const noexcept {
        return points_[level];
    }
    [[nodiscard]] std::uint32_t f_max_khz() const noexcept {
        return points_.front().freq_khz;
    }

    /// Dynamic power at a level: f·V² in kHz·mV² (fits 64 bits by the
    /// constructor's range check).
    [[nodiscard]] std::uint64_t power(std::size_t level) const noexcept {
        const OperatingPoint& p = points_[level];
        return std::uint64_t{p.freq_khz} * p.volt_mv * p.volt_mv;
    }

    /// Stretch a full-speed duration to wall-clock time at `level`:
    ///   scaled_ps = round_half_up(d_ps · f_max / f_level)
    /// computed in 128 bits and saturating at Time::max(). Round-half-up at
    /// picosecond granularity is pinned by tests — both engines and the
    /// skip-ahead fast path must agree on the exact psec. At full speed the
    /// result is exactly `d` (the no-regression guarantee).
    [[nodiscard]] kernel::Time scale(kernel::Time d, std::size_t level) const noexcept;

    /// Slowest level whose frequency still covers `utilization` (fraction of
    /// full speed, typically Σ C_i/P_i). Clamps to level 0 for u >= 1.
    [[nodiscard]] std::size_t level_for_utilization(double utilization) const noexcept;

private:
    std::vector<OperatingPoint> points_; ///< sorted fastest-first
};

// ---------------------------------------------------------------------------
// RT-DVS scheduling policies (Pillai & Shin, SOSP 2001).
//
// Each policy derives from the plain EDF / fixed-priority policy — the
// *schedule* is unchanged; only the operating-point decision is added — and
// mixes in a per-task {WCET, period} table registered via declare_task().
// The engine queries dvfs_level() at the start of every scheduling pass and
// feeds job boundaries through on_job_release()/on_job_completion().
// ---------------------------------------------------------------------------

/// Per-task budget table shared by the DVFS-aware policies.
class DvfsTaskSet {
public:
    /// Register a task's worst-case execution time (at full speed) and
    /// period. Call once per task, before the simulation runs. Throws
    /// kernel::SimulationError on a zero period or duplicate registration.
    void declare_task(const Task& t, kernel::Time wcet, kernel::Time period);

    struct Budget {
        const Task* task;
        kernel::Time wcet;
        kernel::Time period;
        double util;    ///< current utilization estimate (C_i/P_i or cc_i/P_i)
        bool released;  ///< a job of this task is currently active
    };

protected:
    [[nodiscard]] Budget* find(const Task& t) noexcept;
    /// Σ of the current per-task utilization estimates.
    [[nodiscard]] double total_util() const noexcept;

    std::vector<Budget> budgets_;
};

/// Static voltage scaling over EDF: run permanently at the slowest level
/// whose frequency covers the worst-case utilization Σ C_i/P_i (EDF is
/// schedulable up to U = 1, so frequency f/f_max >= U suffices).
class StaticEdfPolicy : public EdfPolicy, public DvfsTaskSet {
public:
    [[nodiscard]] std::string name() const override { return "static_edf"; }
    [[nodiscard]] std::size_t dvfs_level(const Processor& cpu,
                                         const Task* about) override;
};

/// Cycle-conserving EDF: a completing job's unused WCET budget (slack) is
/// reclaimed until its next release — utilization drops to cc_i/P_i (actual
/// cycles over period) at completion and snaps back to C_i/P_i at release.
class CcEdfPolicy : public EdfPolicy, public DvfsTaskSet {
public:
    [[nodiscard]] std::string name() const override { return "cc_edf"; }
    [[nodiscard]] std::size_t dvfs_level(const Processor& cpu,
                                         const Task* about) override;
    void on_job_release(const Task& t, kernel::Time now) override;
    void on_job_completion(const Task& t, kernel::Time now) override;
};

/// Look-ahead EDF: defer as much work as possible past the earliest active
/// deadline (Pillai & Shin's defer() pass over tasks in reverse-EDF order),
/// then run just fast enough to finish the non-deferrable remainder s by
/// that deadline: f/f_max >= s / (D_earliest - now).
class LaEdfPolicy : public EdfPolicy, public DvfsTaskSet {
public:
    [[nodiscard]] std::string name() const override { return "la_edf"; }
    [[nodiscard]] std::size_t dvfs_level(const Processor& cpu,
                                         const Task* about) override;
    void on_job_release(const Task& t, kernel::Time now) override;
    void on_job_completion(const Task& t, kernel::Time now) override;
};

/// Static voltage scaling over rate-monotonic fixed priorities. Level
/// selection uses the utilization-sum test (a simplification of Pillai &
/// Shin's per-task RM schedulability test, documented in docs/ENERGY.md):
/// pessimistic-safe for task sets within the Liu-Layland bound.
class StaticRmPolicy : public PriorityPreemptivePolicy, public DvfsTaskSet {
public:
    [[nodiscard]] std::string name() const override { return "static_rm"; }
    [[nodiscard]] std::size_t dvfs_level(const Processor& cpu,
                                         const Task* about) override;
};

/// Cycle-conserving RM: slack reclamation as in CC-EDF, level selection via
/// the same utilization-sum simplification as StaticRmPolicy.
class CcRmPolicy : public PriorityPreemptivePolicy, public DvfsTaskSet {
public:
    [[nodiscard]] std::string name() const override { return "cc_rm"; }
    [[nodiscard]] std::size_t dvfs_level(const Processor& cpu,
                                         const Task* about) override;
    void on_job_release(const Task& t, kernel::Time now) override;
    void on_job_completion(const Task& t, kernel::Time now) override;
};

} // namespace rtsc::rtos
