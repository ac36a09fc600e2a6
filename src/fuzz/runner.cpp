#include "fuzz/runner.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fuzz/generate.hpp" // Rng (IRQ stimulus jitter)
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/message_queue.hpp"
#include "mcse/semaphore.hpp"
#include "mcse/shared_variable.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "rtos/dvfs.hpp"
#include "rtos/interrupt.hpp"
#include "rtos/overhead.hpp"
#include "rtos/policy.hpp"
#include "rtos/task.hpp"
#include "trace/recorder.hpp"

namespace rtsc::fuzz {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) noexcept {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    // Fold in a terminator so concatenations can't collide ("ab"+"c" vs
    // "a"+"bc").
    h ^= 0xffu;
    h *= 0x100000001b3ull;
    return h;
}

RowTable::RowTable(std::initializer_list<std::string_view> rows) {
    for (const std::string_view row : rows) push_back(row);
}

void RowTable::push_back(std::string_view row) {
    bytes_ += row;
    ends_.push_back(bytes_.size());
}

std::size_t RowTable::find(std::string_view text) const noexcept {
    for (std::size_t at = bytes_.find(text); at != std::string::npos;
         at = bytes_.find(text, at + 1)) {
        // The row holding the match's first byte; a match that runs on into
        // the next row is no match.
        const auto end = std::upper_bound(ends_.begin(), ends_.end(), at);
        if (end != ends_.end() && at + text.size() <= *end)
            return static_cast<std::size_t>(end - ends_.begin());
    }
    return size();
}

namespace {

std::unique_ptr<r::SchedulingPolicy> make_policy(const CpuSpec& c) {
    switch (c.policy) {
        case PolicyKind::fifo: return std::make_unique<r::FifoPolicy>();
        case PolicyKind::priority_preemptive:
            return std::make_unique<r::PriorityPreemptivePolicy>();
        case PolicyKind::round_robin:
            return std::make_unique<r::RoundRobinPolicy>(k::Time::ps(
                c.quantum_ps != 0 ? c.quantum_ps : 10'000'000));
        case PolicyKind::edf: return std::make_unique<r::EdfPolicy>();
        case PolicyKind::static_edf:
            return std::make_unique<r::StaticEdfPolicy>();
        case PolicyKind::cc_edf: return std::make_unique<r::CcEdfPolicy>();
        case PolicyKind::la_edf: return std::make_unique<r::LaEdfPolicy>();
        case PolicyKind::static_rm:
            return std::make_unique<r::StaticRmPolicy>();
        case PolicyKind::cc_rm: return std::make_unique<r::CcRmPolicy>();
    }
    return std::make_unique<r::PriorityPreemptivePolicy>();
}

/// Nominal full-speed work of a task body: compute durations plus shared-
/// variable access times, repeats included. Only a WCET *estimate* for the
/// RT-DVS budget tables — any deterministic value is valid for the
/// differential (both engines see the same table).
std::uint64_t body_work_ps(const std::vector<OpSpec>& ops) {
    std::uint64_t sum = 0;
    for (const OpSpec& op : ops) {
        std::uint64_t one = 0;
        if (op.kind == OpKind::compute || op.kind == OpKind::sv_read ||
            op.kind == OpKind::sv_write)
            one = op.dur_ps;
        one += body_work_ps(op.body);
        sum += one * op.repeat;
    }
    return sum;
}

r::OverheadModel make_overhead(std::uint64_t fixed_ps, bool formula) {
    if (!formula || fixed_ps == 0) return {k::Time::ps(fixed_ps)};
    // State-dependent variant: base cost plus a per-ready-task term (§3.2
    // "a formula computed during the simulation according to the current
    // state of the system").
    const std::uint64_t per_task = fixed_ps / 4;
    return r::OverheadModel::formula(
        [fixed_ps, per_task](const r::SystemState& s) {
            return k::Time::ps(fixed_ps + per_task * s.ready_tasks);
        });
}

/// Everything the op interpreter touches; lives on run_model's stack.
struct Model {
    std::deque<r::Processor> cpus;
    std::deque<m::Semaphore> sems;
    std::deque<m::MessageQueue<int>> queues;
    std::deque<m::Event> events;
    std::deque<m::SharedVariable<int>> svars;
    std::deque<r::InterruptLine> irqs;
    std::vector<r::Task*> tasks;
    int payload = 0; ///< deterministic message payload counter
};

template <typename Deque>
auto* pick(Deque& d, std::uint32_t idx) {
    return d.empty() ? nullptr : &d[idx % d.size()];
}

void run_ops(r::Task& self, const std::vector<OpSpec>& ops, Model& mdl) {
    for (const OpSpec& op : ops) {
        for (std::uint32_t rep = 0; rep < op.repeat; ++rep) {
            const k::Time dur = k::Time::ps(op.dur_ps);
            const k::Time timeout = k::Time::ps(op.timeout_ps);
            switch (op.kind) {
                case OpKind::compute: self.compute(dur); break;
                case OpKind::sleep: self.sleep_for(dur); break;
                case OpKind::yield: self.yield_cpu(); break;
                case OpKind::critical: {
                    r::Processor::PreemptionGuard lock(self.processor());
                    run_ops(self, op.body, mdl);
                    break;
                }
                case OpKind::sem_acquire:
                    if (auto* s = pick(mdl.sems, op.target)) s->acquire();
                    break;
                case OpKind::sem_acquire_for:
                    if (auto* s = pick(mdl.sems, op.target))
                        (void)s->acquire_for(timeout);
                    break;
                case OpKind::sem_try_acquire:
                    if (auto* s = pick(mdl.sems, op.target)) (void)s->try_acquire();
                    break;
                case OpKind::sem_release:
                    if (auto* s = pick(mdl.sems, op.target)) s->release();
                    break;
                case OpKind::q_write:
                    if (auto* q = pick(mdl.queues, op.target)) q->write(++mdl.payload);
                    break;
                case OpKind::q_try_write:
                    if (auto* q = pick(mdl.queues, op.target))
                        (void)q->try_write(++mdl.payload);
                    break;
                case OpKind::q_read:
                    if (auto* q = pick(mdl.queues, op.target)) (void)q->read();
                    break;
                case OpKind::q_read_for:
                    if (auto* q = pick(mdl.queues, op.target)) {
                        int out = 0;
                        (void)q->read_for(out, timeout);
                    }
                    break;
                case OpKind::q_try_read:
                    if (auto* q = pick(mdl.queues, op.target)) {
                        int out = 0;
                        (void)q->try_read(out);
                    }
                    break;
                case OpKind::ev_signal:
                    if (auto* e = pick(mdl.events, op.target)) e->signal();
                    break;
                case OpKind::ev_await:
                    if (auto* e = pick(mdl.events, op.target)) e->await();
                    break;
                case OpKind::ev_await_for:
                    if (auto* e = pick(mdl.events, op.target))
                        (void)e->await_for(timeout);
                    break;
                case OpKind::sv_read:
                    if (auto* v = pick(mdl.svars, op.target)) (void)v->read(dur);
                    break;
                case OpKind::sv_write:
                    if (auto* v = pick(mdl.svars, op.target))
                        v->write(++mdl.payload, dur);
                    break;
                case OpKind::sv_guard:
                    // Hold the variable across a nested body: ops inside may
                    // block on other variables, so chains of mutex ownership
                    // (victim -> owner -> owner's owner ...) arise naturally.
                    if (auto* v = pick(mdl.svars, op.target)) {
                        auto guard = v->access();
                        guard.value() = ++mdl.payload;
                        run_ops(self, op.body, mdl);
                    } else {
                        run_ops(self, op.body, mdl);
                    }
                    break;
            }
        }
    }
}

/// Energy in exact model units (rtos::append_energy).
struct Fj {
    r::Energy v;
};
/// A double rendered exactly as printf's %.17g.
struct Real {
    double v;
};

} // namespace

/// Renders canonical rows straight into a RowTable's buffer: text,
/// integers through std::to_chars, no per-row string.
class RowWriter {
public:
    /// Render the rows of `t` from here on.
    void open(RowTable& t) {
        t_ = &t;
        at_.clear();
    }
    /// Start a row that sorts at instant `t`; its text opens with "<t> ",
    /// in picoseconds. A stream's rows all start with at() or none does.
    RowWriter& at(k::Time t) {
        at_.push_back(t.raw_ps());
        return *this << t.raw_ps() << ' ';
    }

    RowWriter& operator<<(std::string_view v) {
        t_->bytes_ += v;
        return *this;
    }
    RowWriter& operator<<(char c) {
        t_->bytes_ += c;
        return *this;
    }
    template <std::integral I>
    RowWriter& operator<<(I v) {
        char buf[24];
        t_->bytes_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }
    RowWriter& operator<<(k::Time t) { return *this << t.raw_ps(); }
    RowWriter& operator<<(Fj e) {
        r::append_energy(t_->bytes_, e.v);
        return *this;
    }
    RowWriter& operator<<(Real r) {
        obs::append_g17(t_->bytes_, r.v);
        return *this;
    }

    /// Finish the row.
    void end() { t_->ends_.push_back(t_->bytes_.size()); }

    /// Order the at() rows by (instant, text). Rows of one instant share
    /// their prefix, so this is the order of their text alone. A stream
    /// already in that order is left as it is; otherwise its (instant,
    /// offset, length) keys are sorted and its bytes rebuilt.
    void sort() {
        RowTable& t = *t_;
        keys_.clear();
        for (std::size_t n = 0; n < at_.size(); ++n) {
            const std::size_t begin = n == 0 ? 0 : t.ends_[n - 1];
            keys_.push_back({at_[n], begin, t.ends_[n] - begin});
        }
        const std::string_view bytes = t.bytes_;
        const auto less = [bytes](const Key& a, const Key& b) {
            return a.at != b.at ? a.at < b.at
                                : bytes.substr(a.begin, a.size) <
                                      bytes.substr(b.begin, b.size);
        };
        if (std::is_sorted(keys_.begin(), keys_.end(), less)) return;
        std::sort(keys_.begin(), keys_.end(), less);
        sorted_.clear();
        sorted_.reserve(bytes.size());
        for (std::size_t n = 0; n < keys_.size(); ++n) {
            sorted_.append(bytes.substr(keys_[n].begin, keys_[n].size));
            t.ends_[n] = sorted_.size();
        }
        t.bytes_.swap(sorted_);
    }

private:
    struct Key {
        std::uint64_t at;
        std::size_t begin, size;
    };
    RowTable* t_ = nullptr;
    std::vector<std::uint64_t> at_; ///< instant of each row of *t_
    std::vector<Key> keys_;         ///< sort scratch
    std::string sorted_;            ///< sort scratch
};

namespace {

/// The compared row streams, in comparison (and digest) order.
constexpr std::pair<const char*, RowTable RunResult::*> kStreams[] = {
    {"states", &RunResult::states},
    {"overheads", &RunResult::overheads},
    {"comms", &RunResult::comms},
    {"markers", &RunResult::markers},
    {"metrics", &RunResult::metrics},
    {"attribution", &RunResult::attribution}};

/// The digest: FNV-1a over every compared row, the end time and the error.
std::uint64_t digest_of(const RunResult& out) {
    std::uint64_t h = kFnvOffset;
    for (const auto& [name, stream] : kStreams) {
        const RowTable& rows = out.*stream;
        for (std::size_t i = 0; i < rows.size(); ++i) h = fnv1a(h, rows[i]);
    }
    char end[24];
    h = fnv1a(h, {end, std::to_chars(end, end + sizeof end, out.end_ps).ptr});
    return fnv1a(h, out.error);
}

/// run_model without the digest.
RunResult run_unhashed(const ModelSpec& spec, r::EngineKind kind,
                       bool skip_ahead, r::ScheduleOracle* oracle) {
    RunResult out;
    try {
        k::Simulator sim;
        sim.set_skip_ahead(skip_ahead);
        Model mdl;
        trace::Recorder rec;
        obs::MetricsRegistry reg;
        obs::MetricsCollector coll(reg);
        obs::Attribution attr;
        coll.set_attribution(&attr);

        if (spec.cpus.empty())
            throw std::runtime_error("fuzz model: no processors");

        for (std::size_t i = 0; i < spec.cpus.size(); ++i) {
            const CpuSpec& c = spec.cpus[i];
            auto& cpu = mdl.cpus.emplace_back("cpu" + std::to_string(i),
                                              make_policy(c), kind);
            cpu.set_preemptive(c.preemptive);
            cpu.set_overheads(
                {make_overhead(c.sched_ps, c.formula_overheads),
                 make_overhead(c.load_ps, c.formula_overheads),
                 make_overhead(c.save_ps, c.formula_overheads),
                 make_overhead(c.fswitch_ps, false)});
            if (!c.dvfs_points.empty()) {
                std::vector<r::OperatingPoint> pts;
                pts.reserve(c.dvfs_points.size());
                for (const auto& [f, v] : c.dvfs_points)
                    pts.push_back({f, v});
                cpu.set_dvfs(r::DvfsModel(std::move(pts)));
            }
            if (oracle != nullptr) cpu.engine().set_schedule_oracle(oracle);
            rec.attach(cpu);
            coll.attach(cpu);
        }

        for (std::size_t i = 0; i < spec.sems.size(); ++i) {
            auto& s = mdl.sems.emplace_back(
                "sem" + std::to_string(i), spec.sems[i].initial,
                spec.sems[i].priority_order ? m::WakeOrder::priority
                                            : m::WakeOrder::fifo);
            rec.attach(s);
        }
        for (std::size_t i = 0; i < spec.queues.size(); ++i) {
            auto& q = mdl.queues.emplace_back("queue" + std::to_string(i),
                                              spec.queues[i].capacity);
            rec.attach(q);
        }
        for (std::size_t i = 0; i < spec.events.size(); ++i) {
            auto& e = mdl.events.emplace_back(
                "event" + std::to_string(i),
                static_cast<m::EventPolicy>(spec.events[i].policy % 3));
            rec.attach(e);
        }
        for (std::size_t i = 0; i < spec.svars.size(); ++i) {
            auto& v = mdl.svars.emplace_back(
                "sv" + std::to_string(i), 0,
                static_cast<m::Protection>(spec.svars[i].protection % 3));
            rec.attach(v);
        }

        for (std::size_t i = 0; i < spec.irqs.size(); ++i) {
            const IrqSpec& is = spec.irqs[i];
            auto& line = mdl.irqs.emplace_back("irq" + std::to_string(i));
            if (is.max_pending != 0) line.set_max_pending(is.max_pending);
            r::Processor& cpu = mdl.cpus[is.cpu % mdl.cpus.size()];
            line.attach_isr(cpu, is.isr_priority, nullptr,
                            k::Time::ps(is.cost_ps));
            if (is.period_ps != 0) {
                // Deterministic stimulus generator: jitter drawn from a
                // stream seeded only by (spec seed, line index), so both
                // engines see the identical raise times.
                r::InterruptLine* lp = &line;
                const std::uint64_t gseed = spec.seed ^ (0x1234u + i);
                sim.spawn("irq_gen" + std::to_string(i), [lp, is, gseed]() {
                    Rng rng(gseed);
                    while (true) {
                        const std::uint64_t jitter =
                            is.jitter_ps != 0 ? rng.below(is.jitter_ps + 1) : 0;
                        const std::uint64_t delay = is.period_ps + jitter;
                        const std::uint64_t now =
                            k::Simulator::current().now().raw_ps();
                        if (now + delay > is.until_ps) break;
                        k::wait(k::Time::ps(delay));
                        lp->raise();
                    }
                });
            }
        }

        const ModelSpec* sp = &spec;
        Model* mp = &mdl;
        for (const TaskSpec& t : spec.tasks) {
            r::Processor& cpu = mdl.cpus[t.cpu % mdl.cpus.size()];
            const TaskSpec* tp = &t;
            r::Task& task = cpu.create_task(
                {.name = t.name,
                 .priority = t.priority,
                 .start_time = k::Time::ps(t.start_ps)},
                [tp, sp, mp](r::Task& self) {
                    const std::uint32_t n =
                        tp->activations != 0 ? tp->activations : 1;
                    for (std::uint32_t a = 0; a < n; ++a) {
                        if (a != 0 && tp->period_ps != 0) {
                            const k::Time release = k::Time::ps(
                                tp->start_ps + a * tp->period_ps);
                            if (release > self.processor().simulator().now())
                                self.sleep_until(release);
                        }
                        if (tp->trigger_event != 0 && !mp->events.empty())
                            mp->events[(tp->trigger_event - 1) %
                                       mp->events.size()]
                                .await();
                        if (tp->deadline_ps != 0)
                            self.set_absolute_deadline(
                                self.processor().simulator().now() +
                                k::Time::ps(tp->deadline_ps));
                        run_ops(self, tp->body, *mp);
                    }
                    (void)sp;
                });
            mdl.tasks.push_back(&task);
            // RT-DVS budget table: WCET from the body's nominal work, period
            // from the spec (aperiodic tasks get the horizon — or 1 ms — as a
            // stand-in; declare_task rejects zero). ISR tasks stay
            // undeclared: the policies treat unknown tasks as zero-budget.
            if (auto* set = dynamic_cast<r::DvfsTaskSet*>(&cpu.policy())) {
                const std::uint64_t period =
                    t.period_ps != 0
                        ? t.period_ps
                        : (spec.horizon_ps != 0 ? spec.horizon_ps
                                                : 1'000'000'000);
                set->declare_task(task, k::Time::ps(body_work_ps(t.body)),
                                  k::Time::ps(period));
            }
        }

        // Fault plan: resolve spec indices to live objects. Entries whose
        // referent class is absent are dropped (the shrinker relies on this).
        fault::FaultPlan plan;
        const FaultSpec& f = spec.faults;
        for (const auto& e : f.jitter)
            if (!mdl.tasks.empty())
                plan.exec_jitter.push_back(
                    {mdl.tasks[e.task % mdl.tasks.size()], e.probability,
                     e.scale_min, e.scale_max});
        for (const auto& e : f.crashes)
            if (!mdl.tasks.empty())
                plan.task_crashes.push_back(
                    {mdl.tasks[e.task % mdl.tasks.size()], k::Time::ps(e.at_ps),
                     e.restart, k::Time::ps(e.delay_ps)});
        for (const auto& e : f.drops)
            if (auto* l = pick(mdl.irqs, e.irq))
                plan.irq_drops.push_back({l, e.probability});
        for (const auto& e : f.bursts)
            if (auto* l = pick(mdl.irqs, e.irq))
                plan.irq_bursts.push_back(
                    {l, e.probability, e.extra_min, e.extra_max});
        for (const auto& e : f.spurious)
            if (auto* l = pick(mdl.irqs, e.irq))
                plan.irq_spurious.push_back({l, k::Time::ps(e.period_ps),
                                             k::Time::ps(e.jitter_ps),
                                             k::Time::ps(e.until_ps)});
        for (const auto& e : f.losses)
            if (auto* q = pick(mdl.queues, e.queue))
                plan.message_losses.push_back({q, e.probability});

        std::unique_ptr<fault::FaultInjector> injector;
        if (!plan.empty()) {
            injector = std::make_unique<fault::FaultInjector>(sim, std::move(plan),
                                                              spec.seed);
            injector->add_observer(rec);
            injector->arm();
        }

        if (spec.horizon_ps != 0)
            sim.run_until(k::Time::ps(spec.horizon_ps));
        else
            sim.run();

        // ---- canonicalize ----
        // Records are kept in time order, but *within* one simulated instant
        // the callback interleaving across processors (and between a CPU and
        // the fault layer) depends on kernel process activation order, which
        // legitimately differs between the engines (§4: the threaded model
        // inserts extra RTOS-thread activations). The simulated-time
        // observable is the per-instant multiset of records, so rows with
        // equal timestamps are ordered lexicographically.
        RowWriter rows;
        rows.open(out.states);
        for (const auto& st : rec.states()) {
            rows.at(st.at) << st.task->name() << ' ' << r::to_string(st.from)
                           << "->" << r::to_string(st.to);
            rows.end();
        }
        rows.sort();
        rows.open(out.overheads);
        for (const auto& o : rec.overheads()) {
            rows.at(o.at)
                << r::to_string(o.kind) << " dur=" << o.duration
                << " cpu=" << o.cpu->name() << " about="
                << (o.about != nullptr ? std::string_view(o.about->name()) : "-");
            rows.end();
        }
        rows.sort();
        rows.open(out.comms);
        for (const auto& c : rec.comms()) {
            rows.at(c.at)
                << c.relation->name() << ' '
                << (c.task != nullptr ? std::string_view(c.task->name()) : "hw")
                << ' ' << m::to_string(c.kind) << (c.blocked ? " blocked" : "");
            rows.end();
        }
        rows.sort();
        rows.open(out.markers);
        for (const auto& mk : rec.markers()) {
            rows.at(mk.at) << mk.category << ' ' << mk.name;
            rows.end();
        }
        rows.sort();
        rows.open(out.metrics);
        for (const obs::MetricSampleView& sample : reg.sample_views()) {
            rows << sample.name << sample.suffix << '=' << Real{sample.value};
            rows.end();
        }
        // Per-CPU energy ledger and its conservation check, in exact model
        // units. The rows feed the digest and the engine diff, so the 4-way
        // comparison pins the energy arithmetic bit-for-bit; a ledger that
        // fails to balance is flagged even when both engines agree.
        for (const auto& cpu : mdl.cpus) {
            if (!cpu.dvfs_enabled()) continue;
            const auto& led = cpu.energy();
            r::Energy attributed = 0;
            for (const auto& t : cpu.tasks())
                attributed += t->energy_exec() + t->energy_overhead();
            const auto ledger_row = [&](std::string_view field, r::Energy v) {
                rows << "energy." << cpu.name() << '.' << field << '=' << Fj{v};
                rows.end();
            };
            ledger_row("busy", led.busy);
            ledger_row("overhead", led.overhead);
            ledger_row("unattributed", led.unattributed);
            ledger_row("tasks", attributed);
            if (led.busy + led.overhead != attributed + led.unattributed) {
                rows << "energy." << cpu.name() << ".BROKEN-ENERGY total="
                     << Fj{led.busy + led.overhead}
                     << " split=" << Fj{attributed + led.unattributed};
                rows.end();
            }
        }
        // Attribution rows, read from the analyzer's job cores as the
        // Perfetto export reads them: completion order can differ across
        // engines when several jobs end in one instant, so canonicalize by
        // (release, task, index). Jobs still open at the end of the run
        // never completed and are excluded by construction.
        rows.open(out.attribution);
        for (std::size_t i = 0; i < attr.job_count(); ++i) {
            const obs::Attribution::JobView v = attr.job_view(i);
            const obs::Attribution::JobBlame& j = v.blame;
            rows.at(j.release)
                << v.task->name() << " #" << j.index
                << (j.aborted ? " aborted" : "") << " rel=" << j.release
                << " end=" << j.end << " exec=" << j.exec
                << " ovs=" << j.ov_scheduling << " ovl=" << j.ov_load
                << " ovv=" << j.ov_save << " ovf=" << j.ov_switch
                << " ee=" << Fj{j.energy_exec} << " eo=" << Fj{j.energy_overhead}
                << " resid=" << j.residual << " intr=" << j.interrupt << " pre[";
            for (const auto& [who, t] : v.preempted_by)
                rows << who << ':' << t << ' ';
            rows << "] blk[";
            for (const auto& [what, t] : v.blocked_on)
                rows << what << ':' << t << ' ';
            rows << ']';
            if (j.components_sum() != j.response())
                rows << " BROKEN-INVARIANT sum=" << j.components_sum();
            rows.end();
        }
        rows.sort();
        out.end_ps = sim.now().raw_ps();
        out.kernel_activations = sim.process_activations();
        out.delta_cycles = sim.delta_count();
    } catch (const std::exception& e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }

    return out;
}

constexpr std::string_view kMissing = "<missing>";

/// Row `i` of `rows`, or kMissing past its end.
std::string_view row_or_missing(const RowTable& rows, std::size_t i) {
    return i < rows.size() ? rows[i] : kMissing;
}

/// Whole-buffer equality first; only a mismatch scans for its first row.
bool diff_stream(const char* name, const RowTable& a, const RowTable& b,
                 Divergence& d) {
    if (a == b) return false;
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    d = {true, name, i, std::string(row_or_missing(a, i)),
         std::string(row_or_missing(b, i))};
    return true;
}

} // namespace

RunResult run_model(const ModelSpec& spec, r::EngineKind kind,
                    bool skip_ahead, r::ScheduleOracle* oracle) {
    RunResult out = run_unhashed(spec, kind, skip_ahead, oracle);
    out.digest = digest_of(out);
    return out;
}

std::string Divergence::to_string() const {
    if (!diverged) return "equivalent";
    const std::string where = stream + " at record " + std::to_string(index);
    if (lhs_leg == rhs_leg)
        return "conservation invariant broke in " + where + " on " +
               kLegs[lhs_leg].name + "\n  " + lhs;
    const auto row = [](std::size_t leg, const std::string& text) {
        std::string label = std::string(kLegs[leg].name) + ":";
        label.resize(18, ' '); // aligns the rows under the longest leg name
        return "\n  " + label + text;
    };
    return "diverged in " + where + row(lhs_leg, lhs) + row(rhs_leg, rhs);
}

Divergence compare(const RunResult& procedural, const RunResult& threaded) {
    if (procedural.error != threaded.error)
        return {true, "error", 0, procedural.error, threaded.error};
    Divergence d;
    for (const auto& [name, stream] : kStreams)
        if (diff_stream(name, procedural.*stream, threaded.*stream, d)) return d;
    if (procedural.end_ps != threaded.end_ps)
        return {true, "end_time", 0, std::to_string(procedural.end_ps),
                std::to_string(threaded.end_ps)};
    return d;
}

Divergence check_legs(const RunResult (&legs)[4]) {
    // Engine equivalence, then skip-ahead neutrality per engine: the fast
    // path (staged hot timeout + elided empty phases) must be purely an
    // execution-speed toggle, so a divergence there is a kernel bug even
    // when the engines agree with each other.
    constexpr std::pair<std::size_t, std::size_t> kPairs[] = {
        {0, 1}, {0, 2}, {1, 3}};
    for (const auto& [l, r] : kPairs) {
        Divergence d = compare(legs[l], legs[r]);
        if (d.diverged) {
            d.lhs_leg = l;
            d.rhs_leg = r;
            return d;
        }
    }
    // A conservation break every leg shares passes all the diffs above.
    constexpr std::pair<const char*, RowTable RunResult::*> kScanned[] = {
        {"metrics", &RunResult::metrics},
        {"attribution", &RunResult::attribution}};
    for (const auto& [name, stream] : kScanned) {
        const RowTable& rows = legs[0].*stream;
        const std::size_t i = rows.find("BROKEN");
        if (i < rows.size()) {
            const std::string row(rows[i]);
            return {true, name, i, row, row, 0, 0};
        }
    }
    return {};
}

LegRuns run_legs(const ModelSpec& spec,
                 const std::array<r::ScheduleOracle*, 4>& oracles) {
    LegRuns out;
    for (std::size_t i = 0; i < 4; ++i)
        out.legs[i] = run_unhashed(spec, kLegs[i].kind, kLegs[i].skip_ahead,
                                   oracles[i]);
    out.verdict = check_legs(out.legs);
    return out;
}

Divergence diff_engines(const ModelSpec& spec, RunResult* procedural,
                        RunResult* threaded) {
    LegRuns runs = run_legs(spec);
    if (procedural != nullptr) *procedural = std::move(runs.legs[0]);
    if (threaded != nullptr) *threaded = std::move(runs.legs[1]);
    return runs.verdict;
}

std::string dump_streams(const RunResult& a, const RunResult& b) {
    std::string out;
    for (const auto& [name, stream] : kStreams) {
        const RowTable& l = a.*stream;
        const RowTable& r = b.*stream;
        out += "---- ";
        out += name;
        out += " (procedural | threaded) ----\n";
        for (std::size_t i = 0; i < std::max(l.size(), r.size()); ++i) {
            const std::string_view x = row_or_missing(l, i);
            const std::string_view y = row_or_missing(r, i);
            out += x == y ? "  " : "! ";
            out += x;
            if (x.size() < 55) out.append(55 - x.size(), ' ');
            out += " | ";
            out += y;
            out += '\n';
        }
    }
    return out;
}

} // namespace rtsc::fuzz
