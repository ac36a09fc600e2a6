#include "fuzz/runner.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
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
    /// Start a row that sorts at instant `ps`; its text opens with "<ps> ".
    /// A stream's rows all start with at() or none does.
    RowWriter& at(std::uint64_t ps) {
        at_.push_back(ps);
        return *this << ps << ' ';
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

using Id = LegRecord::Id;

/// The record's ids of the model's objects: each object added is a row of
/// the name table, found again by its address.
class ObjectIds {
public:
    explicit ObjectIds(RowTable& names) : names_(names) {}

    void add(const void* object, std::string_view name) {
        by_object_.push_back({object, static_cast<Id>(names_.size())});
        names_.push_back(name);
    }
    /// Call once every object is added.
    void seal() { std::sort(by_object_.begin(), by_object_.end()); }

    /// The id of an added object; kNone for nullptr.
    [[nodiscard]] Id operator()(const void* object) const {
        if (object == nullptr) return LegRecord::kNone;
        const auto it = std::lower_bound(
            by_object_.begin(), by_object_.end(),
            std::pair<const void*, Id>{object, 0});
        if (it == by_object_.end() || it->first != object)
            throw std::logic_error("fuzz record: an object outside the model");
        return it->second;
    }

private:
    RowTable& names_;
    std::vector<std::pair<const void*, Id>> by_object_; ///< sorted by seal()
};

} // namespace

LegRecord record_model(const ModelSpec& spec, r::EngineKind kind,
                       bool skip_ahead, r::ScheduleOracle* oracle) {
    LegRecord out;
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

        // ---- record ----
        // The name table: processors, their tasks, the relations, "?".
        ObjectIds ids(out.names);
        for (const r::Processor& cpu : mdl.cpus) ids.add(&cpu, cpu.name());
        for (const r::Processor& cpu : mdl.cpus)
            for (const auto& t : cpu.tasks()) ids.add(t.get(), t->name());
        const auto add_relations = [&ids](const auto& relations) {
            for (const m::Relation& rel : relations) ids.add(&rel, rel.name());
        };
        const Id first_relation = static_cast<Id>(out.names.size());
        add_relations(mdl.sems);
        add_relations(mdl.queues);
        add_relations(mdl.events);
        add_relations(mdl.svars);
        const Id unknown_resource = static_cast<Id>(out.names.size());
        out.names.push_back("?");
        ids.seal();

        out.states.reserve(rec.states().size());
        for (const auto& st : rec.states())
            out.states.push_back({st.at.raw_ps(), ids(st.task), st.from, st.to});
        out.overheads.reserve(rec.overheads().size());
        for (const auto& o : rec.overheads())
            out.overheads.push_back({o.at.raw_ps(), o.duration.raw_ps(),
                                     ids(o.cpu), ids(o.about), o.kind});
        out.comms.reserve(rec.comms().size());
        for (const auto& c : rec.comms())
            out.comms.push_back(
                {c.at.raw_ps(), ids(c.relation), ids(c.task), c.kind, c.blocked});
        out.markers.reserve(rec.markers().size());
        for (const auto& mk : rec.markers()) {
            const auto row = static_cast<std::uint32_t>(out.marker_text.size());
            out.marker_text.push_back(mk.category);
            out.marker_text.push_back(mk.name);
            out.markers.push_back({mk.at.raw_ps(), row, row + 1});
        }
        // Per-CPU energy ledgers with the sum their tasks were charged.
        for (std::size_t i = 0; i < mdl.cpus.size(); ++i) {
            const r::Processor& cpu = mdl.cpus[i];
            if (!cpu.dvfs_enabled()) continue;
            const auto& led = cpu.energy();
            r::Energy attributed = 0;
            for (const auto& t : cpu.tasks())
                attributed += t->energy_exec() + t->energy_overhead();
            out.energy.push_back({static_cast<Id>(i), led.busy, led.overhead,
                                  led.unattributed, attributed});
        }
        // Attribution's completed jobs; jobs still open at the end of the
        // run never completed and are excluded by construction.
        const auto resource_id = [&](std::string_view name) {
            for (Id i = first_relation; i <= unknown_resource; ++i)
                if (out.names[i] == name) return i;
            throw std::logic_error("fuzz record: a resource outside the model");
        };
        out.jobs.reserve(attr.job_count());
        for (std::size_t i = 0; i < attr.job_count(); ++i) {
            const obs::Attribution::JobView v = attr.job_view(i);
            LegRecord::Job& job = out.jobs.emplace_back();
            job.task = ids(v.task);
            job.blame = v.blame;
            job.pre_first = static_cast<std::uint32_t>(out.preempted_by.size());
            job.pre_count = static_cast<std::uint32_t>(v.preempted_by.size());
            for (const auto& [who, t] : v.preempted_by)
                out.preempted_by.push_back({ids(who), t.raw_ps()});
            job.blk_first = static_cast<std::uint32_t>(out.blocked_on.size());
            job.blk_count = static_cast<std::uint32_t>(v.blocked_on.size());
            for (const auto& [what, t] : v.blocked_on)
                out.blocked_on.push_back({resource_id(what), t.raw_ps()});
        }
        out.metrics = std::move(reg);
        out.end_ps = sim.now().raw_ps();
        out.kernel_activations = sim.process_activations();
        out.delta_cycles = sim.delta_count();
    } catch (const std::exception& e) {
        out = LegRecord{};
        out.error = e.what();
    } catch (...) {
        out = LegRecord{};
        out.error = "unknown exception";
    }
    return out;
}

bool LegRecord::conservation_flagged() const {
    for (const Ledger& l : energy)
        if (!l.balanced()) return true;
    for (const Job& j : jobs)
        if (!j.balanced()) return true;
    return names.find("BROKEN") < names.size();
}

RunResult render(const LegRecord& rec) {
    RunResult out;
    out.end_ps = rec.end_ps;
    out.kernel_activations = rec.kernel_activations;
    out.delta_cycles = rec.delta_cycles;
    out.error = rec.error;
    const auto name = [&rec](Id id) { return rec.names[id]; };
    // Records are kept in time order, but *within* one simulated instant
    // the callback interleaving across processors (and between a CPU and
    // the fault layer) depends on kernel process activation order, which
    // legitimately differs between the engines (§4: the threaded model
    // inserts extra RTOS-thread activations). The simulated-time
    // observable is the per-instant multiset of records, so rows with
    // equal timestamps are ordered lexicographically.
    RowWriter rows;
    rows.open(out.states);
    for (const auto& st : rec.states) {
        rows.at(st.at) << name(st.task) << ' ' << r::to_string(st.from) << "->"
                       << r::to_string(st.to);
        rows.end();
    }
    rows.sort();
    rows.open(out.overheads);
    for (const auto& o : rec.overheads) {
        rows.at(o.at) << r::to_string(o.kind) << " dur=" << o.duration
                      << " cpu=" << name(o.cpu) << " about="
                      << (o.about != LegRecord::kNone ? name(o.about) : "-");
        rows.end();
    }
    rows.sort();
    rows.open(out.comms);
    for (const auto& c : rec.comms) {
        rows.at(c.at) << name(c.relation) << ' '
                      << (c.task != LegRecord::kNone ? name(c.task) : "hw")
                      << ' ' << m::to_string(c.kind)
                      << (c.blocked ? " blocked" : "");
        rows.end();
    }
    rows.sort();
    rows.open(out.markers);
    for (const auto& mk : rec.markers) {
        rows.at(mk.at) << rec.marker_text[mk.category] << ' '
                       << rec.marker_text[mk.name];
        rows.end();
    }
    rows.sort();
    rows.open(out.metrics);
    for (const obs::MetricSampleView& sample : rec.metrics.sample_views()) {
        rows << sample.name << sample.suffix << '=' << Real{sample.value};
        rows.end();
    }
    // Per-CPU energy ledger and its conservation check, in exact model
    // units. The rows feed the digest and the engine diff, so the 4-way
    // comparison pins the energy arithmetic bit-for-bit; a ledger that
    // fails to balance is flagged even when both engines agree.
    for (const LegRecord::Ledger& led : rec.energy) {
        const auto ledger_row = [&](std::string_view field, r::Energy v) {
            rows << "energy." << name(led.cpu) << '.' << field << '=' << Fj{v};
            rows.end();
        };
        ledger_row("busy", led.busy);
        ledger_row("overhead", led.overhead);
        ledger_row("unattributed", led.unattributed);
        ledger_row("tasks", led.tasks);
        if (!led.balanced()) {
            rows << "energy." << name(led.cpu) << ".BROKEN-ENERGY total="
                 << Fj{led.busy + led.overhead}
                 << " split=" << Fj{led.tasks + led.unattributed};
            rows.end();
        }
    }
    // Attribution rows, as the Perfetto export renders the analyzer's job
    // cores: completion order can differ across engines when several jobs
    // end in one instant, so canonicalize by (release, task, index).
    rows.open(out.attribution);
    for (const LegRecord::Job& job : rec.jobs) {
        const obs::Attribution::JobBlame& j = job.blame;
        rows.at(j.release.raw_ps())
            << name(job.task) << " #" << j.index
            << (j.aborted ? " aborted" : "") << " rel=" << j.release
            << " end=" << j.end << " exec=" << j.exec
            << " ovs=" << j.ov_scheduling << " ovl=" << j.ov_load
            << " ovv=" << j.ov_save << " ovf=" << j.ov_switch
            << " ee=" << Fj{j.energy_exec} << " eo=" << Fj{j.energy_overhead}
            << " resid=" << j.residual << " intr=" << j.interrupt << " pre[";
        for (std::uint32_t i = 0; i < job.pre_count; ++i) {
            const LegRecord::Share& s = rec.preempted_by[job.pre_first + i];
            rows << name(s.who) << ':' << s.ps << ' ';
        }
        rows << "] blk[";
        for (std::uint32_t i = 0; i < job.blk_count; ++i) {
            const LegRecord::Share& s = rec.blocked_on[job.blk_first + i];
            rows << name(s.who) << ':' << s.ps << ' ';
        }
        rows << ']';
        if (!job.balanced())
            rows << " BROKEN-INVARIANT sum=" << j.components_sum();
        rows.end();
    }
    rows.sort();
    return out;
}

namespace {

/// `a` and `b` as streams in time order whose records of one instant may
/// come in any order: equal when they hold the same records. Records are
/// matched position by position; from a mismatch to the end of that
/// record's instant in `a`, the two runs are matched as multisets.
template <typename T, typename At, typename Eq>
bool same_per_instant(const std::vector<T>& a, const std::vector<T>& b, At at,
                      Eq eq) {
    if (a.size() != b.size()) return false;
    std::vector<bool> used;
    for (std::size_t i = 0; i < a.size();) {
        if (eq(a[i], b[i])) {
            ++i;
            continue;
        }
        std::size_t end = i + 1;
        while (end < a.size() && at(a[end]) == at(a[i])) ++end;
        used.assign(end - i, false);
        for (std::size_t x = i; x < end; ++x) {
            std::size_t y = 0;
            while (y < used.size() && (used[y] || !eq(a[x], b[i + y]))) ++y;
            if (y == used.size()) return false;
            used[y] = true;
        }
        i = end;
    }
    return true;
}

/// Bit-equal doubles: -0.0 and 0.0 render differently.
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_metrics(const obs::MetricsRegistry& a, const obs::MetricsRegistry& b) {
    return std::ranges::equal(
               a.counters(), b.counters(),
               [](const auto& x, const auto& y) {
                   return x.first == y.first &&
                          x.second.value() == y.second.value();
               }) &&
           std::ranges::equal(
               a.gauges(), b.gauges(),
               [](const auto& x, const auto& y) {
                   const obs::Gauge &g = x.second, &h = y.second;
                   return x.first == y.first && g.samples() == h.samples() &&
                          same_bits(g.last(), h.last()) &&
                          same_bits(g.min(), h.min()) &&
                          same_bits(g.max(), h.max()) &&
                          same_bits(g.sum(), h.sum());
               }) &&
           std::ranges::equal(a.histograms(), b.histograms(),
                              [](const auto& x, const auto& y) {
                                  return x.first == y.first &&
                                         x.second == y.second;
                              });
}

} // namespace

bool same_observations(const LegRecord& a, const LegRecord& b) {
    const auto at = [](const auto& rec) { return rec.at; };
    const auto same_markers = [&](const LegRecord::Marker& x,
                                  const LegRecord::Marker& y) {
        return x.at == y.at &&
               a.marker_text[x.category] == b.marker_text[y.category] &&
               a.marker_text[x.name] == b.marker_text[y.name];
    };
    const auto same_shares = [](const std::vector<LegRecord::Share>& x,
                                std::uint32_t x_first,
                                const std::vector<LegRecord::Share>& y,
                                std::uint32_t y_first, std::uint32_t n) {
        return std::equal(x.begin() + x_first, x.begin() + x_first + n,
                          y.begin() + y_first);
    };
    const auto same_jobs = [&](const LegRecord::Job& x,
                               const LegRecord::Job& y) {
        return x.task == y.task && x.blame == y.blame &&
               x.pre_count == y.pre_count && x.blk_count == y.blk_count &&
               same_shares(a.preempted_by, x.pre_first, b.preempted_by,
                           y.pre_first, x.pre_count) &&
               same_shares(a.blocked_on, x.blk_first, b.blocked_on,
                           y.blk_first, x.blk_count);
    };
    return a.error == b.error && a.end_ps == b.end_ps && a.names == b.names &&
           a.energy == b.energy &&
           same_per_instant(a.states, b.states, at, std::equal_to<>{}) &&
           same_per_instant(a.overheads, b.overheads, at, std::equal_to<>{}) &&
           same_per_instant(a.comms, b.comms, at, std::equal_to<>{}) &&
           same_per_instant(a.markers, b.markers, at, same_markers) &&
           // Jobs complete in time order: grouped by their end instant.
           same_per_instant(
               a.jobs, b.jobs,
               [](const LegRecord::Job& j) { return j.blame.end.raw_ps(); },
               same_jobs) &&
           same_metrics(a.metrics, b.metrics);
}

namespace {

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
    RunResult out = render(record_model(spec, kind, skip_ahead, oracle));
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

Divergence check_records(const LegRecord (&legs)[4]) {
    if (same_observations(legs[0], legs[1]) &&
        same_observations(legs[0], legs[2]) &&
        same_observations(legs[1], legs[3]) && !legs[0].conservation_flagged())
        return {};
    // Something differs or may not balance: the text decides and reports.
    RunResult rows[4];
    for (std::size_t i = 0; i < 4; ++i) rows[i] = render(legs[i]);
    return check_legs(rows);
}

LegRuns run_legs(const ModelSpec& spec,
                 const std::array<r::ScheduleOracle*, 4>& oracles) {
    LegRuns out;
    for (std::size_t i = 0; i < 4; ++i)
        out.legs[i] = record_model(spec, kLegs[i].kind, kLegs[i].skip_ahead,
                                   oracles[i]);
    out.verdict = check_records(out.legs);
    return out;
}

Divergence diff_engines(const ModelSpec& spec) {
    return run_legs(spec).verdict;
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
