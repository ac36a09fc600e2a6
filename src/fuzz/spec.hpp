#pragma once
// Differential-fuzzer model specification.
//
// A ModelSpec is a plain-data description of one randomly generated system:
// processors (policy, preemption mode, fixed or formula overheads), software
// tasks (periodic / event-triggered, nested compute/wait bodies), a topology
// of MCSE relations (semaphores in both wake orders, bounded and unbounded
// message queues, events of every memory policy, shared variables under each
// protection), interrupt lines with stimulus generators, and an optional
// fault plan. The same spec is executed on the threaded (§4.1) and the
// procedural (§4.2) RTOS engine and the full observable behavior is compared
// bit-for-bit (src/fuzz/runner.hpp).
//
// Specs serialize to a line-based text format (to_text / from_text) so a
// shrunk counterexample can be checked into the corpus and replayed exactly,
// independent of the generator version that found it. read_spec_file and
// spec_files are the one way to load such files; their errors name the path.

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtsc::fuzz {

/// Scheduling policy of one processor. The last five are the DVFS-aware
/// RT-DVS policies (rtos/dvfs.hpp); they schedule exactly like their plain
/// base (EDF or fixed-priority) and additionally pick operating points.
enum class PolicyKind : std::uint8_t {
    fifo,
    priority_preemptive,
    round_robin,
    edf,
    static_edf,
    cc_edf,
    la_edf,
    static_rm,
    cc_rm,
};

/// One step of a task body. Ops referencing a relation address it by index
/// into the spec's list of that relation type, taken modulo the list size at
/// run time — so a shrinker can drop relations without invalidating bodies.
enum class OpKind : std::uint8_t {
    compute,         ///< consume CPU time (dur_ps)
    sleep,           ///< Task::sleep_for (dur_ps)
    yield,           ///< Task::yield_cpu
    critical,        ///< run nested `body` under a preemption lock
    sem_acquire,     ///< Semaphore::acquire (target)
    sem_acquire_for, ///< Semaphore::acquire_for (target, timeout_ps)
    sem_try_acquire, ///< Semaphore::try_acquire (target)
    sem_release,     ///< Semaphore::release (target)
    q_write,         ///< MessageQueue::write (target)
    q_try_write,     ///< MessageQueue::try_write (target)
    q_read,          ///< MessageQueue::read (target)
    q_read_for,      ///< MessageQueue::read_for (target, timeout_ps)
    q_try_read,      ///< MessageQueue::try_read (target)
    ev_signal,       ///< Event::signal (target)
    ev_await,        ///< Event::await (target)
    ev_await_for,    ///< Event::await_for (target, timeout_ps)
    sv_read,         ///< SharedVariable::read (target, dur_ps access time)
    sv_write,        ///< SharedVariable::write (target, dur_ps access time)
    sv_guard,        ///< run nested `body` holding SharedVariable (target) —
                     ///< the op that nests mutex ownership, building blocking
                     ///< chains of depth > 1 for the attribution differential
};

struct OpSpec {
    OpKind kind = OpKind::compute;
    std::uint32_t target = 0;     ///< relation index (modulo list size)
    std::uint64_t dur_ps = 0;     ///< compute/sleep duration, sv access time
    std::uint64_t timeout_ps = 0; ///< *_for timeout
    std::uint32_t repeat = 1;     ///< run the op (or critical body) N times
    std::vector<OpSpec> body;     ///< nested ops (critical regions)
};

struct TaskSpec {
    std::string name;
    std::uint32_t cpu = 0;          ///< processor index (modulo cpu count)
    int priority = 1;
    std::uint64_t start_ps = 0;     ///< release of the first activation
    std::uint64_t period_ps = 0;    ///< 0 = single release (sporadic body)
    std::uint32_t activations = 1;  ///< bounded activation count
    std::uint64_t deadline_ps = 0;  ///< relative deadline per activation; 0 = none
    std::uint32_t trigger_event = 0;///< 1-based event index awaited per activation; 0 = time-triggered
    std::vector<OpSpec> body;
};

struct CpuSpec {
    PolicyKind policy = PolicyKind::priority_preemptive;
    std::uint64_t quantum_ps = 0;   ///< round-robin time slice
    bool preemptive = true;
    std::uint64_t sched_ps = 0;     ///< scheduling overhead
    std::uint64_t load_ps = 0;      ///< context-load overhead
    std::uint64_t save_ps = 0;      ///< context-save overhead
    /// Overheads as formulas of the live system state instead of constants:
    /// scheduling = sched_ps + ready_tasks * (sched_ps / 4), exercising the
    /// paper's state-dependent overhead modelling (§3.2).
    bool formula_overheads = false;
    /// DVFS operating points as {freq_khz, volt_mv} pairs; empty = no model
    /// installed (a DVFS policy on such a CPU degrades to its plain base).
    /// The runner sorts nothing — DvfsModel orders the table itself.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dvfs_points;
    std::uint64_t fswitch_ps = 0;   ///< frequency-switch overhead
};

struct SemSpec {
    std::uint64_t initial = 1;
    bool priority_order = false; ///< WakeOrder::priority instead of fifo
};

struct QueueSpec {
    std::uint32_t capacity = 1; ///< 0 = unbounded
};

struct EventSpec {
    std::uint8_t policy = 0; ///< mcse::EventPolicy: 0 fugitive, 1 boolean, 2 counter
};

struct SvSpec {
    std::uint8_t protection = 0; ///< mcse::Protection: 0 none, 1 lock, 2 inheritance
    std::uint64_t access_ps = 0; ///< default access duration
};

struct IrqSpec {
    std::uint32_t cpu = 0;        ///< processor hosting the ISR task
    int isr_priority = 10;
    std::uint64_t period_ps = 0;  ///< stimulus period; 0 = no generator
    std::uint64_t jitter_ps = 0;  ///< uniform extra delay per raise
    std::uint64_t until_ps = 0;   ///< stop raising at this time
    std::uint64_t cost_ps = 0;    ///< handler compute cost
    std::uint32_t max_pending = 0;///< bounded pending depth; 0 = unbounded
};

/// Fault-plan entries, referencing tasks / queues / IRQ lines by index
/// (modulo list size). Mirrors fault::FaultPlan in plain serializable form.
struct FaultSpec {
    struct Jitter {
        std::uint32_t task = 0;
        double probability = 1.0;
        double scale_min = 1.0, scale_max = 1.0;
    };
    struct Crash {
        std::uint32_t task = 0;
        std::uint64_t at_ps = 0;
        bool restart = false;
        std::uint64_t delay_ps = 0;
    };
    struct Drop {
        std::uint32_t irq = 0;
        double probability = 0.0;
    };
    struct Burst {
        std::uint32_t irq = 0;
        double probability = 0.0;
        std::uint32_t extra_min = 1, extra_max = 1;
    };
    struct Spurious {
        std::uint32_t irq = 0;
        std::uint64_t period_ps = 0, jitter_ps = 0, until_ps = 0;
    };
    struct Loss {
        std::uint32_t queue = 0;
        double probability = 0.0;
    };

    std::vector<Jitter> jitter;
    std::vector<Crash> crashes;
    std::vector<Drop> drops;
    std::vector<Burst> bursts;
    std::vector<Spurious> spurious;
    std::vector<Loss> losses;

    [[nodiscard]] bool empty() const noexcept {
        return jitter.empty() && crashes.empty() && drops.empty() &&
               bursts.empty() && spurious.empty() && losses.empty();
    }
};

struct ModelSpec {
    std::uint64_t seed = 0;       ///< generator seed (fault-injector RNG root)
    std::uint64_t horizon_ps = 0; ///< run_until bound; 0 = run to quiescence
    std::vector<CpuSpec> cpus;
    std::vector<TaskSpec> tasks;
    std::vector<SemSpec> sems;
    std::vector<QueueSpec> queues;
    std::vector<EventSpec> events;
    std::vector<SvSpec> svars;
    std::vector<IrqSpec> irqs;
    FaultSpec faults;
};

/// Serialize to the line-based corpus format. Stable: field order is fixed
/// and every field is written, so equal specs produce equal text (the
/// generator and shrinker compare specs via this).
[[nodiscard]] std::string to_text(const ModelSpec& spec);

/// Parse a corpus file. Throws std::runtime_error with a line number on
/// malformed input. Unknown keys are rejected (corpus files are authored
/// only by to_text).
[[nodiscard]] ModelSpec from_text(const std::string& text);

/// Read and parse one spec file. Throws std::runtime_error whose message
/// starts with the path when the file cannot be opened or does not parse.
[[nodiscard]] ModelSpec read_spec_file(const std::filesystem::path& path);

/// The `.model` files directly in `dir`, sorted by path. Throws
/// std::runtime_error naming `dir` when it cannot be listed.
[[nodiscard]] std::vector<std::filesystem::path> spec_files(
    const std::filesystem::path& dir);

/// Strict decimal parse of all of `s` into T: digits only (a leading '-'
/// only for signed T), no sign '+', no spaces, and the value must fit T.
/// Spec fields and command-line numbers both go through it.
template <typename T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view s) noexcept {
    T v{};
    const char* end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || stop != end) return std::nullopt;
    return v;
}

[[nodiscard]] const char* to_string(PolicyKind p) noexcept;
[[nodiscard]] const char* to_string(OpKind k) noexcept;

} // namespace rtsc::fuzz
