#pragma once
// FaultInjector: drives a FaultPlan against a running model.
//
// Determinism: the injector owns one std::mt19937_64 stream per plan entry,
// seeded from the campaign seed and the entry's position (seed ^ f(index)).
// Because the simulation itself is single-threaded and deterministic, the
// i-th draw of each stream always meets the same model state, so a campaign
// replays bit-identically: same plan + same seed => same fault pattern, same
// trace timeline, same constraint-violation list.
//
// Hook-based faults (jitter, interrupt filters, message loss) piggyback on
// the model's own calls and cost nothing when absent; time-driven faults
// (crashes, spurious interrupts) run in daemon processes spawned by arm().

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "fault/fault_plan.hpp"
#include "rtos/observer.hpp"

namespace rtsc::kernel {
class Simulator;
}

namespace rtsc::fault {

class FaultInjector {
public:
    /// Bind a plan to `sim`. Call arm() before Simulator::run().
    FaultInjector(kernel::Simulator& sim, FaultPlan plan, std::uint64_t seed);

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Install the hooks and spawn the time-driven fault processes. Call
    /// once, after the model is built.
    void arm();

    struct Counters {
        std::uint64_t jittered_computes = 0;  ///< compute() durations scaled
        std::uint64_t tasks_crashed = 0;      ///< one-shot kills performed
        std::uint64_t tasks_restarted = 0;
        std::uint64_t irqs_dropped = 0;       ///< raises suppressed
        std::uint64_t irqs_bursted = 0;       ///< raises duplicated
        std::uint64_t irqs_spurious = 0;      ///< spurious raises injected
        std::uint64_t messages_lost = 0;
    };
    [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

    /// Report injected faults (crashes, restarts, spurious interrupts,
    /// message losses) as instant markers ("fault" category) to `obs`
    /// (Observer::on_marker); a no-op when it is already subscribed. Call
    /// before arm(). The observer must outlive the injector.
    void add_observer(rtos::Observer& obs) { observers_.add(obs); }

private:
    /// One deterministic stream per plan entry, derived from the campaign
    /// seed and the entry's position so adding an entry never perturbs the
    /// draws of the others.
    [[nodiscard]] std::mt19937_64 make_stream(std::uint64_t salt) const;

    void arm_exec_jitter(const ExecJitter& e, std::uint64_t salt);
    void arm_task_crash(const TaskCrash& e);
    void arm_irq_filters();
    void arm_irq_spurious(const IrqSpurious& e, std::uint64_t salt);
    void arm_message_loss(const MessageLoss& e, std::uint64_t salt);

    kernel::Simulator& sim_;
    FaultPlan plan_;
    std::uint64_t seed_;
    bool armed_ = false;
    Counters counters_;
    rtos::ObserverList observers_;
    /// RNG streams referenced by the installed hooks; stable addresses.
    std::vector<std::unique_ptr<std::mt19937_64>> streams_;
};

} // namespace rtsc::fault
