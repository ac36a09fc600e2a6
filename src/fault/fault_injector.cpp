#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "kernel/simulator.hpp"
#include "mcse/relation.hpp"
#include "rtos/interrupt.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::fault {

namespace k = rtsc::kernel;

namespace {
/// splitmix64 — decorrelates the per-entry seeds derived from one campaign
/// seed so neighbouring entries do not produce neighbouring streams.
std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double draw01(std::mt19937_64& rng) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}
} // namespace

FaultInjector::FaultInjector(k::Simulator& sim, FaultPlan plan,
                             std::uint64_t seed)
    : sim_(sim), plan_(std::move(plan)), seed_(seed) {}

std::mt19937_64 FaultInjector::make_stream(std::uint64_t salt) const {
    return std::mt19937_64(mix(seed_ ^ mix(salt)));
}

void FaultInjector::arm() {
    if (armed_)
        throw k::SimulationError("FaultInjector::arm() called twice");
    armed_ = true;
    std::uint64_t salt = 1;
    for (const ExecJitter& e : plan_.exec_jitter) arm_exec_jitter(e, salt++);
    salt = 1000;
    for (const TaskCrash& e : plan_.task_crashes) {
        (void)salt++;
        arm_task_crash(e);
    }
    arm_irq_filters();
    salt = 3000;
    for (const IrqSpurious& e : plan_.irq_spurious) arm_irq_spurious(e, salt++);
    salt = 4000;
    for (const MessageLoss& e : plan_.message_losses)
        arm_message_loss(e, salt++);
}

void FaultInjector::arm_exec_jitter(const ExecJitter& e, std::uint64_t salt) {
    if (e.task == nullptr) return;
    streams_.push_back(std::make_unique<std::mt19937_64>(make_stream(salt)));
    std::mt19937_64* rng = streams_.back().get();
    const double p = e.probability;
    const double lo = e.scale_min;
    const double hi = e.scale_max;
    e.task->set_compute_hook(
        [this, rng, p, lo, hi](rtos::Task&, k::Time d) -> k::Time {
            if (draw01(*rng) >= p) return d;
            const double scale =
                lo == hi ? lo
                         : std::uniform_real_distribution<double>(lo, hi)(*rng);
            ++counters_.jittered_computes;
            const double scaled =
                std::max(0.0, static_cast<double>(d.raw_ps()) * scale);
            return k::Time::ps(static_cast<k::Time::rep>(std::llround(scaled)));
        });
}

void FaultInjector::arm_task_crash(const TaskCrash& e) {
    if (e.task == nullptr) return;
    rtos::Task* t = e.task;
    const k::Time at = e.at;
    const bool restart = e.restart;
    const k::Time restart_delay = e.restart_delay;
    k::Process& p = sim_.spawn(
        "fault.crash." + t->name(), [this, t, at, restart, restart_delay] {
            const k::Time delay = k::Time::sat_sub(at, sim_.now());
            if (!delay.is_zero()) k::wait(delay);
            // A task that already left for good (returned, or was killed)
            // has nothing to crash. terminated() flips at the same instant
            // on both engines; the end of the task's kernel process does not
            // (the engines pay the terminal leave charges in different
            // threads).
            if (!t->terminated()) {
                t->kill();
                ++counters_.tasks_crashed;
                for (rtos::Observer* o : observers_)
                    o->on_marker("fault", "crash:" + t->name());
            }
            if (restart) {
                // Restart only once the incarnation fully retired: a killed
                // Running task, or one that just returned, still pays save +
                // sched. TaskRetired fires at the same instant on both
                // engines.
                if (!t->retired()) k::wait(t->retired_event());
                t->processor().restart_task(*t, restart_delay);
                ++counters_.tasks_restarted;
                for (rtos::Observer* o : observers_)
                    o->on_marker("fault", "restart:" + t->name());
            }
        });
    p.set_daemon(true);
}

void FaultInjector::arm_irq_filters() {
    // A line may appear in several drop/burst entries: install ONE filter
    // per line that consults every matching entry in plan order, each with
    // its own stream (adding an entry never perturbs the others' draws).
    struct Drop {
        double p;
        std::mt19937_64* rng;
    };
    struct Burst {
        double p;
        unsigned lo, hi;
        std::mt19937_64* rng;
    };
    std::vector<rtos::InterruptLine*> lines;
    auto note_line = [&lines](rtos::InterruptLine* l) {
        if (l != nullptr &&
            std::find(lines.begin(), lines.end(), l) == lines.end())
            lines.push_back(l);
    };
    for (const IrqDrop& e : plan_.irq_drops) note_line(e.line);
    for (const IrqBurst& e : plan_.irq_bursts) note_line(e.line);

    for (rtos::InterruptLine* line : lines) {
        std::vector<Drop> drops;
        std::vector<Burst> bursts;
        std::uint64_t salt = 2000;
        for (const IrqDrop& e : plan_.irq_drops) {
            ++salt;
            if (e.line != line) continue;
            streams_.push_back(
                std::make_unique<std::mt19937_64>(make_stream(salt)));
            drops.push_back({e.probability, streams_.back().get()});
        }
        salt = 2500;
        for (const IrqBurst& e : plan_.irq_bursts) {
            ++salt;
            if (e.line != line) continue;
            streams_.push_back(
                std::make_unique<std::mt19937_64>(make_stream(salt)));
            bursts.push_back(
                {e.probability, e.extra_min, e.extra_max, streams_.back().get()});
        }
        line->set_raise_filter([this, drops, bursts]() -> unsigned {
            for (const Drop& d : drops) {
                if (draw01(*d.rng) < d.p) {
                    ++counters_.irqs_dropped;
                    return 0;
                }
            }
            unsigned copies = 1;
            for (const Burst& b : bursts) {
                if (draw01(*b.rng) < b.p) {
                    copies += std::uniform_int_distribution<unsigned>(
                        b.lo, b.hi)(*b.rng);
                    ++counters_.irqs_bursted;
                }
            }
            return copies;
        });
    }
}

void FaultInjector::arm_irq_spurious(const IrqSpurious& e, std::uint64_t salt) {
    if (e.line == nullptr || e.period.is_zero()) return;
    streams_.push_back(std::make_unique<std::mt19937_64>(make_stream(salt)));
    std::mt19937_64* rng = streams_.back().get();
    rtos::InterruptLine* line = e.line;
    const k::Time period = e.period;
    const k::Time jitter = e.jitter;
    const k::Time until = e.until;
    k::Process& p = sim_.spawn(
        "fault.spurious." + line->name(), [this, rng, line, period, jitter, until] {
            for (;;) {
                k::Time delay = period;
                if (!jitter.is_zero()) {
                    delay += k::Time::ps(std::uniform_int_distribution<
                                         k::Time::rep>(0, jitter.raw_ps())(*rng));
                }
                k::wait(delay);
                if (!until.is_zero() && sim_.now() > until) return;
                line->raise_spurious();
                ++counters_.irqs_spurious;
                for (rtos::Observer* o : observers_)
                    o->on_marker("fault", "irq_spurious:" + line->name());
            }
        });
    p.set_daemon(true);
}

void FaultInjector::arm_message_loss(const MessageLoss& e, std::uint64_t salt) {
    if (e.channel == nullptr) return;
    streams_.push_back(std::make_unique<std::mt19937_64>(make_stream(salt)));
    std::mt19937_64* rng = streams_.back().get();
    const double p = e.probability;
    auto* channel = e.channel;
    e.channel->set_loss_hook([this, rng, p, channel]() -> bool {
        if (draw01(*rng) >= p) return false;
        ++counters_.messages_lost;
        for (rtos::Observer* o : observers_)
            o->on_marker("fault", "msg_loss:" + channel->name());
        return true;
    });
}

} // namespace rtsc::fault
