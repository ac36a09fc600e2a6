#include "rtos/dvfs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::rtos {

namespace k = rtsc::kernel;

char* write_energy(char* p, Energy raw) noexcept {
    // Most ledgers fit 64 bits, where to_chars needs no 128-bit division.
    if (raw <= std::numeric_limits<std::uint64_t>::max())
        return std::to_chars(p, p + kMaxEnergyChars,
                             static_cast<std::uint64_t>(raw))
            .ptr;
    char buf[kMaxEnergyChars];
    char* digits = buf + sizeof buf;
    do {
        *--digits = static_cast<char>('0' + static_cast<unsigned>(raw % 10));
        raw /= 10;
    } while (raw != 0);
    return std::copy(digits, buf + sizeof buf, p);
}

void append_energy(std::string& out, Energy raw) {
    char buf[kMaxEnergyChars];
    out.append(buf, write_energy(buf, raw));
}

std::string energy_to_string(Energy raw) {
    std::string out;
    append_energy(out, raw);
    return out;
}

DvfsModel::DvfsModel(std::vector<OperatingPoint> points)
    : points_(std::move(points)) {
    if (points_.empty())
        throw k::SimulationError("DvfsModel: empty operating-point table");
    for (const OperatingPoint& p : points_) {
        if (p.freq_khz == 0 || p.volt_mv == 0)
            throw k::SimulationError(
                "DvfsModel: operating point with zero frequency or voltage");
        if (p.freq_khz > 100'000'000u || p.volt_mv > 100'000u)
            throw k::SimulationError(
                "DvfsModel: operating point out of range (max 100 GHz, 100 V)");
    }
    // Fastest first; ties broken by higher voltage first so level order is
    // deterministic regardless of the caller's table order.
    std::stable_sort(points_.begin(), points_.end(),
                     [](const OperatingPoint& a, const OperatingPoint& b) {
                         if (a.freq_khz != b.freq_khz)
                             return a.freq_khz > b.freq_khz;
                         return a.volt_mv > b.volt_mv;
                     });
}

DvfsModel DvfsModel::single(std::uint32_t freq_khz, std::uint32_t volt_mv) {
    return DvfsModel{{OperatingPoint{freq_khz, volt_mv}}};
}

kernel::Time DvfsModel::scale(kernel::Time d, std::size_t level) const noexcept {
    const std::uint64_t f = points_[level].freq_khz;
    const std::uint64_t fmax = points_.front().freq_khz;
    if (f == fmax) return d; // full speed: exact identity, bit-for-bit
    __extension__ typedef unsigned __int128 u128;
    // Round half up at picosecond granularity: floor((d*fmax + f/2) / f).
    const u128 q = (static_cast<u128>(d.raw_ps()) * fmax + f / 2) / f;
    const std::uint64_t cap = ~std::uint64_t{0};
    return kernel::Time::ps(q > cap ? cap : static_cast<std::uint64_t>(q));
}

std::size_t DvfsModel::level_for_utilization(double utilization) const noexcept {
    // Points are sorted fastest-first, so the levels satisfying
    // f >= u * f_max form a prefix; pick the last (slowest) of them.
    const double fmax = static_cast<double>(points_.front().freq_khz);
    std::size_t best = 0;
    for (std::size_t i = 0; i < points_.size(); ++i)
        if (static_cast<double>(points_[i].freq_khz) >= utilization * fmax)
            best = i;
        else
            break;
    return best;
}

// ---- DvfsTaskSet ----------------------------------------------------------

void DvfsTaskSet::declare_task(const Task& t, kernel::Time wcet,
                               kernel::Time period) {
    if (period.is_zero())
        throw k::SimulationError("declare_task: zero period for " + t.name());
    for (const Budget& b : budgets_)
        if (b.task == &t)
            throw k::SimulationError("declare_task: duplicate for " + t.name());
    const double util = wcet.to_sec() / period.to_sec();
    budgets_.push_back({&t, wcet, period, util, false});
}

DvfsTaskSet::Budget* DvfsTaskSet::find(const Task& t) noexcept {
    for (Budget& b : budgets_)
        if (b.task == &t) return &b;
    return nullptr;
}

double DvfsTaskSet::total_util() const noexcept {
    double u = 0.0;
    for (const Budget& b : budgets_) u += b.util;
    return u;
}

// ---- Static scaling (EDF / RM) --------------------------------------------

std::size_t StaticEdfPolicy::dvfs_level(const Processor& cpu, const Task*) {
    return cpu.dvfs().level_for_utilization(total_util());
}

std::size_t StaticRmPolicy::dvfs_level(const Processor& cpu, const Task*) {
    return cpu.dvfs().level_for_utilization(total_util());
}

// ---- Cycle-conserving (EDF / RM) ------------------------------------------

namespace {

/// Shared CC bookkeeping: worst case at release, actual cycles at completion
/// (the job's nominal full-speed work, Task::job_work, over its period).
void cc_release(DvfsTaskSet::Budget* b) {
    if (b == nullptr) return;
    b->util = b->wcet.to_sec() / b->period.to_sec();
    b->released = true;
}

void cc_completion(DvfsTaskSet::Budget* b, const Task& t) {
    if (b == nullptr) return;
    b->util = t.job_work().to_sec() / b->period.to_sec();
    b->released = false;
}

} // namespace

std::size_t CcEdfPolicy::dvfs_level(const Processor& cpu, const Task*) {
    return cpu.dvfs().level_for_utilization(total_util());
}

void CcEdfPolicy::on_job_release(const Task& t, kernel::Time) {
    cc_release(find(t));
}

void CcEdfPolicy::on_job_completion(const Task& t, kernel::Time) {
    cc_completion(find(t), t);
}

std::size_t CcRmPolicy::dvfs_level(const Processor& cpu, const Task*) {
    return cpu.dvfs().level_for_utilization(total_util());
}

void CcRmPolicy::on_job_release(const Task& t, kernel::Time) {
    cc_release(find(t));
}

void CcRmPolicy::on_job_completion(const Task& t, kernel::Time) {
    cc_completion(find(t), t);
}

// ---- Look-ahead EDF -------------------------------------------------------

void LaEdfPolicy::on_job_release(const Task& t, kernel::Time) {
    if (Budget* b = find(t)) b->released = true;
}

void LaEdfPolicy::on_job_completion(const Task& t, kernel::Time) {
    if (Budget* b = find(t)) b->released = false;
}

std::size_t LaEdfPolicy::dvfs_level(const Processor& cpu, const Task*) {
    // Pillai & Shin's defer(): walk active jobs latest-deadline-first,
    // deferring as much remaining work as possible past the earliest
    // deadline D_n while keeping every later deadline feasible at full
    // speed; the non-deferrable remainder s must finish by D_n, so run at
    // the slowest level with f/f_max >= s / (D_n - now).
    const kernel::Time now = cpu.simulator().now();

    struct Active {
        double remaining; ///< remaining worst-case work, seconds (full speed)
        double deadline;  ///< absolute deadline, seconds
        double util;      ///< C_i / P_i
    };
    std::vector<Active> active;
    active.reserve(budgets_.size());
    double d_n = 0.0;
    bool have_dn = false;
    for (const Budget& b : budgets_) {
        if (!b.released || !b.task->has_deadline()) continue;
        Active a;
        a.remaining =
            kernel::Time::sat_sub(b.wcet, b.task->job_work()).to_sec();
        a.deadline = b.task->absolute_deadline().to_sec();
        a.util = b.wcet.to_sec() / b.period.to_sec();
        if (!have_dn || a.deadline < d_n) {
            d_n = a.deadline;
            have_dn = true;
        }
        active.push_back(a);
    }
    if (!have_dn) // nothing pending: coast at the slowest point
        return cpu.dvfs().levels() - 1;
    const double horizon = d_n - now.to_sec();
    if (horizon <= 0.0) return 0; // at/past the earliest deadline: full speed

    std::stable_sort(active.begin(), active.end(),
                     [](const Active& a, const Active& b) {
                         return a.deadline > b.deadline; // latest first
                     });
    double total_u = 0.0;
    for (const Active& a : active) total_u += a.util;
    double u = total_u;
    double s = 0.0;
    for (const Active& a : active) {
        u -= a.util;
        const double span = a.deadline - d_n;
        // Work that cannot be deferred past D_n: the slice of the remaining
        // work that does not fit in the spare capacity (1 - u) of [D_n, d_i].
        const double x = std::max(0.0, a.remaining - (1.0 - u) * span);
        if (span > 0.0) u += (a.remaining - x) / span;
        s += x;
    }
    return cpu.dvfs().level_for_utilization(s / horizon);
}

} // namespace rtsc::rtos
