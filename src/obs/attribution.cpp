#include "obs/attribution.hpp"

#include <algorithm>

#include "kernel/simulator.hpp"
#include "mcse/relation.hpp"
#include "obs/collector.hpp"
#include "trace/constraints.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;

Attribution::~Attribution() {
    for (r::Processor* cpu : attached_) cpu->remove_observer(*this);
    if (collector_ != nullptr) collector_->set_attribution(nullptr);
}

void Attribution::attach(r::Processor& cpu) {
    cpu.add_observer(*this);
    attached_.push_back(&cpu);
    (void)cpu_ctx(cpu);
}

// ------------------------------------------------------------------ contexts

Attribution::CpuCtx& Attribution::cpu_ctx(const r::Processor& cpu) {
    for (auto& c : cpus_)
        if (c.cpu == &cpu) return c;
    cpus_.emplace_back();
    cpus_.back().cpu = &cpu;
    cpus_.back().log.reserve(1024);
    return cpus_.back();
}

Attribution::TaskCtx& Attribution::task_ctx(const r::Task& t) {
    if (cached_task_ == &t) return *cached_ctx_;
    if (cached_task2_ == &t) {
        // Promote: a context switch alternates between two tasks, so the
        // pair covers the common hook bursts.
        std::swap(cached_task_, cached_task2_);
        std::swap(cached_ctx_, cached_ctx2_);
        return *cached_ctx_;
    }
    TaskCtx* c = nullptr;
    for (std::size_t i = 0; i < task_index_.size(); ++i) {
        if (task_index_[i].first != &t) continue;
        c = task_index_[i].second;
        if (i > 0) std::swap(task_index_[i - 1], task_index_[i]);
        break;
    }
    if (c == nullptr) {
        tasks_.emplace_back();
        c = &tasks_.back();
        c->task = &t;
        c->cpu = &cpu_ctx(t.processor());
        c->slot = c->cpu->slot_tasks.size();
        c->cpu->slot_tasks.push_back(&t);
        task_index_.emplace_back(&t, c);
    }
    cached_task2_ = cached_task_;
    cached_ctx2_ = cached_ctx_;
    cached_task_ = &t;
    cached_ctx_ = c;
    return *c;
}

// ----------------------------------------------------- overhead integration

Attribution::OvMark Attribution::ov_upto(const CpuCtx& c, k::Time t) const {
    OvMark m;
    for (std::size_t i = 0; i < kOvKinds; ++i) m.upto[i] = c.ov_done[i];
    if (c.cur_kind >= 0 && t > c.cur_start) {
        const k::Time upper = std::min(t, c.cur_end);
        m.upto[static_cast<std::size_t>(c.cur_kind)] +=
            upper - c.cur_start;
    }
    return m;
}

kernel::Time Attribution::ov_total_upto(const CpuCtx& c, k::Time t) const {
    k::Time total = c.ov_done_total;
    if (c.cur_kind >= 0 && t > c.cur_start)
        total += std::min(t, c.cur_end) - c.cur_start;
    return total;
}

void Attribution::on_overhead(const r::Processor& cpu, r::OverheadKind kind,
                              k::Time start, k::Time duration, const r::Task*) {
    CpuCtx& c = cpu_ctx(cpu);
    // Fold the previous charge: charges never overlap per CPU, so by the
    // time a new one is announced the old one has elapsed — fully, or up to
    // this start when a kill cut it short (the unwind's scheduling charge
    // is announced at the kill instant).
    if (c.cur_kind >= 0) {
        const k::Time d = std::min(c.cur_end, start) - c.cur_start;
        c.ov_done[static_cast<std::size_t>(c.cur_kind)] += d;
        c.ov_done_total += d;
    }
    c.cur_kind = static_cast<int>(kind);
    c.cur_start = start;
    c.cur_end = start + duration;
}

// ------------------------------------------------------------- segmentation

void Attribution::begin_segment_with(TaskCtx& c, SliceKind kind, k::Time now,
                                     const OvMark& m, k::Time total) {
    c.seg = kind;
    c.seg_start = now;
    c.seg_mark = m;
    c.seg_ov_total = total;
    SkelSeg s;
    s.start = now;
    s.ov_at_start = total;
    s.kind = kind;
    if (kind == SliceKind::blocked) s.rel = c.blocked_rel;
    c.skel.push_back(s);
    if (kind == SliceKind::ready) {
        // Remember where the runner log stands; the close walks only the
        // edges appended inside the window.
        c.seg_log_idx = c.cpu->log.size();
        c.seg_runner_slot = c.cpu->runner_slot;
    }
}

void Attribution::close_segment_with(TaskCtx& c, k::Time now, const OvMark& m,
                                     k::Time total_now) {
    const k::Time dur = now - c.seg_start;
    if (c.seg == SliceKind::blocked) {
        // The whole wait is the resource's fault, including any RTOS
        // charges that happen to run on the CPU meanwhile: the job is off
        // the CPU for exactly this long because of the resource.
        if (!dur.is_zero())
            c.blocked_on[c.blocked_rel != nullptr ? c.blocked_rel->name()
                                                  : "?"] += dur;
        return;
    }
    // Exact overhead time inside [seg_start, now] on this CPU, per kind.
    k::Time ov_total{};
    for (std::size_t i = 0; i < kOvKinds; ++i) {
        const k::Time d = m.upto[i] - c.seg_mark.upto[i];
        c.ov[i] += d;
        ov_total += d;
    }
    if (c.seg == SliceKind::exec) {
        c.exec += dur - ov_total;
        return;
    }
    // Ready: walk the runner edges appended inside the window, charging each
    // span's net time (duration minus the overhead integral's advance) to
    // the task that held the CPU — the exact per-edge subdivision, only
    // deferred to the close. Zero-length spans contribute zero (the ov
    // integral cannot advance without elapsed time), so same-instant edge
    // ordering is immaterial.
    const CpuCtx& cpu = *c.cpu;
    if (c.pre.size() < cpu.slot_tasks.size())
        c.pre.resize(cpu.slot_tasks.size());
    const auto charge = [&c](int slot, k::Time d) {
        if (d.is_zero()) return;
        const auto s = static_cast<std::size_t>(slot);
        if (c.pre[s].is_zero())
            c.pre_touched.push_back(static_cast<std::uint32_t>(slot));
        c.pre[s] += d;
    };
    k::Time x = c.seg_start;
    k::Time ov_x = c.seg_ov_total;
    int rs = c.seg_runner_slot;
    for (std::size_t i = c.seg_log_idx; i < cpu.log.size(); ++i) {
        const CpuCtx::RunnerEdge& e = cpu.log[i];
        if (rs >= 0) charge(rs, (e.at - x) - (e.ov_total - ov_x));
        x = e.at;
        ov_x = e.ov_total;
        rs = e.slot;
    }
    if (rs >= 0) charge(rs, (now - x) - (total_now - ov_x));
}

void Attribution::begin_segment(TaskCtx& c, SliceKind kind, k::Time now) {
    const OvMark m = ov_upto(*c.cpu, now);
    k::Time total{};
    for (std::size_t i = 0; i < kOvKinds; ++i) total += m.upto[i];
    begin_segment_with(c, kind, now, m, total);
}

kernel::Time Attribution::close_segment(TaskCtx& c, k::Time now) {
    const OvMark m = ov_upto(*c.cpu, now);
    k::Time total{};
    for (std::size_t i = 0; i < kOvKinds; ++i) total += m.upto[i];
    close_segment_with(c, now, m, total);
    return total;
}

void Attribution::switch_segment(TaskCtx& c, SliceKind kind, k::Time now) {
    const OvMark m = ov_upto(*c.cpu, now);
    k::Time total{};
    for (std::size_t i = 0; i < kOvKinds; ++i) total += m.upto[i];
    close_segment_with(c, now, m, total);
    begin_segment_with(c, kind, now, m, total);
}

// ------------------------------------------------------------ job lifecycle

void Attribution::open_job(TaskCtx& c, k::Time now) {
    c.open = true;
    c.index = c.next_index++;
    c.release = now;
    c.exec = k::Time::zero();
    for (auto& o : c.ov) o = k::Time::zero();
    // c.pre needs no clearing: finish_job re-zeroed exactly the touched
    // slots, everything else is still zero.
    c.blocked_on.clear();
    c.skel.clear();
    begin_segment(c, SliceKind::ready, now);
}

void Attribution::finish_job(TaskCtx& c, k::Time now, bool aborted) {
    const k::Time ov_at_end = close_segment(c, now);
    if (c.episode != SIZE_MAX) end_episode(c, now);
    c.open = false;

    // Append the compact core and its arena entries only — no strings, and
    // JobBlame's sums are left to job_view(); the job rate is the analyzer's
    // highest-frequency site.
    if (cores_.size() == cores_.capacity()) {
        cores_.reserve(cores_.empty() ? 256 : cores_.capacity() * 4);
        skel_pool_.reserve(cores_.capacity() * 4);
        pre_pool_.reserve(cores_.capacity());
    }
    JobCore& j = cores_.emplace_back();
    j.task = c.task;
    j.index = c.index;
    j.release = c.release;
    j.end = now;
    j.aborted = aborted;
    j.exec = c.exec;
    for (std::size_t i = 0; i < kOvKinds; ++i) j.ov[i] = c.ov[i];
    // Energy blame: the engine folds the running slice and books its last
    // attributed overhead charge before the state notification that lands
    // here, so the per-job accumulators are final for this job (the terminal
    // context-save of a completed job is charged after this instant and is
    // excluded by design — conservation is checked at task level).
    j.energy_exec = c.task->job_energy_exec();
    j.energy_ov = c.task->job_energy_overhead();
    // The touched per-slot ready shares (re-zeroed here for the task's next
    // job): ISR slots feed the interrupt component, the rest the
    // name-merged preempted_by list.
    const CpuCtx& cpu = *c.cpu;
    j.pre_first = static_cast<std::uint32_t>(pre_pool_.size());
    for (const std::uint32_t s : c.pre_touched) {
        const k::Time share = c.pre[s];
        c.pre[s] = k::Time{};
        const r::Task* by = cpu.slot_tasks[s];
        if (by->isr_task())
            j.interrupt += share;
        else
            pre_pool_.emplace_back(by, share);
    }
    c.pre_touched.clear();
    const auto pre = pre_pool_.begin() + j.pre_first;
    if (pre_pool_.end() - pre > 1) {
        std::sort(pre, pre_pool_.end(), [](const auto& x, const auto& y) {
            return x.first->name() < y.first->name();
        });
        // Merge the shares of same-named preemptors in place.
        auto last = pre;
        for (auto it = pre + 1; it != pre_pool_.end(); ++it) {
            if (it->first->name() == last->first->name())
                last->second += it->second;
            else
                *++last = *it;
        }
        pre_pool_.erase(last + 1, pre_pool_.end());
    }
    j.pre_count = static_cast<std::uint32_t>(pre_pool_.size()) - j.pre_first;
    // blocked_on is a std::map: name-merged and name-sorted already.
    j.blk_first = static_cast<std::uint32_t>(blk_pool_.size());
    blk_pool_.insert(blk_pool_.end(), c.blocked_on.begin(), c.blocked_on.end());
    j.blk_count = static_cast<std::uint32_t>(blk_pool_.size()) - j.blk_first;

    j.cpu = c.cpu;
    j.ov_at_release = c.skel.empty() ? k::Time{} : c.skel.front().ov_at_start;
    j.ov_at_end = ov_at_end;
    if (c.blocked_on.empty()) {
        // No (non-zero) blocked segment: the tiling is reconstructible from
        // the runner log, so don't pay the skeleton copy. Zero-width blocked
        // segments are dropped by slices_for() anyway, so they don't force
        // the stored path.
        j.skel_count = 0;
    } else {
        j.skel_first = static_cast<std::uint32_t>(skel_pool_.size());
        j.skel_count = static_cast<std::uint32_t>(c.skel.size());
        skel_pool_.insert(skel_pool_.end(), c.skel.begin(), c.skel.end());
    }
    c.skel.clear(); // capacity survives for the task's next job

    if (on_complete_) on_complete_(job_view(cores_.size() - 1));
}

Attribution::JobView Attribution::job_view(std::size_t i) const {
    const JobCore& core = cores_[i];
    JobView v;
    v.task = core.task;
    v.ordinal = i;
    v.preempted_by = {pre_pool_.data() + core.pre_first, core.pre_count};
    v.blocked_on = {blk_pool_.data() + core.blk_first, core.blk_count};
    JobBlame& j = v.blame;
    j.index = core.index;
    j.release = core.release;
    j.end = core.end;
    j.aborted = core.aborted;
    j.exec = core.exec;
    j.ov_scheduling =
        core.ov[static_cast<std::size_t>(r::OverheadKind::scheduling)];
    j.ov_load = core.ov[static_cast<std::size_t>(r::OverheadKind::context_load)];
    j.ov_save = core.ov[static_cast<std::size_t>(r::OverheadKind::context_save)];
    j.ov_switch =
        core.ov[static_cast<std::size_t>(r::OverheadKind::frequency_switch)];
    j.interrupt = core.interrupt;
    j.energy_exec = core.energy_exec;
    j.energy_overhead = core.energy_ov;
    // The sums are derived here only: preemption and blocking sum the
    // per-culprit shares, and residual falls out of the conservation
    // identity (response = exec + preemption + interrupt + blocking +
    // overheads + residual), which holds exactly by construction of the
    // charging scheme.
    for (const auto& p : v.preempted_by) j.preemption += p.second;
    for (const auto& b : v.blocked_on) j.blocking += b.second;
    j.residual = j.response() - j.exec - j.preemption - j.interrupt -
                 j.blocking - j.ov_scheduling - j.ov_load - j.ov_save -
                 j.ov_switch;
    j.overhead =
        j.ov_scheduling + j.ov_load + j.ov_save + j.ov_switch + j.residual;
    return v;
}

// ---------------------------------------------------------- blocking chains

void Attribution::start_episode(TaskCtx& c, k::Time now) {
    BlockEpisode e;
    e.victim = c.task->name();
    e.job_index = c.index;
    e.resource = c.blocked_rel != nullptr ? c.blocked_rel->name() : "?";
    e.start = now;
    e.end = now;
    e.victim_priority = c.task->effective_priority();

    const auto it = owner_of_.find(c.blocked_rel);
    const r::Task* owner =
        it != owner_of_.end() ? it->second : nullptr;
    if (owner != nullptr) {
        e.owner = owner->name();
        e.owner_priority = owner->effective_priority();
        e.inversion = e.owner_priority < e.victim_priority;
    }
    // Follow the chain: what does the owner itself block on, and who owns
    // that — transitively (nested critical sections give depth >= 2).
    e.chain.push_back(e.victim);
    const r::Task* link = owner;
    for (std::size_t depth = 0; link != nullptr && depth < 16; ++depth) {
        if (std::find(e.chain.begin(), e.chain.end(), link->name()) !=
            e.chain.end())
            break; // ownership cycle (deadlock): stop at the repeat
        e.chain.push_back(link->name());
        const mcse::Relation* next_rel = nullptr;
        for (const auto& [lt, lc] : task_index_)
            if (lt == link) {
                next_rel = lc->blocked_rel;
                break;
            }
        if (next_rel == nullptr) break;
        const auto oit = owner_of_.find(next_rel);
        link = oit != owner_of_.end() ? oit->second : nullptr;
    }
    c.episode = episodes_.size();
    episodes_.push_back(std::move(e));
    ++c.cpu->open_episodes;
}

void Attribution::end_episode(TaskCtx& c, k::Time now) {
    episodes_[c.episode].end = now;
    c.episode = SIZE_MAX;
    if (c.cpu->open_episodes > 0) --c.cpu->open_episodes;
}

// ------------------------------------------------------------ engine hooks

void Attribution::on_block(const r::Processor&, const r::Task& t,
                           r::TaskState kind, const mcse::Relation* on) {
    TaskCtx& c = task_ctx(t);
    c.blocked_rel = kind == r::TaskState::waiting_resource ? on : nullptr;
}

void Attribution::on_resource_acquire(const r::Processor&, const r::Task& t,
                                      const mcse::Relation& r) {
    owner_of_[&r] = &t;
}

void Attribution::on_resource_release(const r::Processor&, const r::Task& t,
                                      const mcse::Relation& r) {
    const auto it = owner_of_.find(&r);
    if (it != owner_of_.end() && it->second == &t) owner_of_.erase(it);
}

// --------------------------------------------------------- state transitions

void Attribution::on_task_state(const r::Task& task, r::TaskState from,
                                r::TaskState to) {
    if (from == to) return; // creation announcement
    TaskCtx& c = task_ctx(task);
    CpuCtx& cpu = *c.cpu;
    const k::Time now = task.processor().simulator().now();

    // 1. Runner edges: when the CPU's occupant changes, append one log
    // entry. Open jobs sitting in Ready are NOT touched — their close walks
    // the logged edges, and slices_for() subdivides at them on demand. This
    // turns the former O(open jobs) close/reopen sweep per edge into O(1).
    const bool runner_edge = from == r::TaskState::running ||
                             to == r::TaskState::running;
    if (runner_edge) {
        const k::Time ovt = ov_total_upto(cpu, now);
        if (to == r::TaskState::running) {
            cpu.runner = &task;
            cpu.runner_slot = static_cast<int>(c.slot);
        } else {
            cpu.runner = nullptr;
            cpu.runner_slot = -1;
        }
        cpu.log.push_back({now, cpu.runner, cpu.runner_slot, ovt});
        // A middle-priority task taking the CPU while someone sits in a
        // priority-inverted wait stretches the inversion: record it. Only
        // scanned while an episode is actually open on this CPU.
        if (cpu.runner != nullptr && cpu.open_episodes > 0) {
            for (auto& o : tasks_) {
                if (o.episode == SIZE_MAX || o.cpu != &cpu) continue;
                BlockEpisode& e = episodes_[o.episode];
                const int p = cpu.runner->effective_priority();
                if (cpu.runner != o.task && e.owner != cpu.runner->name() &&
                    p > e.owner_priority && p < e.victim_priority &&
                    std::find(e.aggravators.begin(), e.aggravators.end(),
                              cpu.runner->name()) == e.aggravators.end())
                    e.aggravators.push_back(cpu.runner->name());
            }
        }
    }

    // 2. The task's own job transitions.
    switch (const r::JobEdge edge = r::job_edge(task, from, to)) {
        case r::JobEdge::release:
            if (c.open) {
                // Defensive: an episode convention violation would leak a
                // job; close it as aborted rather than corrupt the tiling.
                finish_job(c, now, /*aborted=*/true);
            }
            open_job(c, now);
            return;
        case r::JobEdge::completion:
        case r::JobEdge::abort:
            if (c.open) finish_job(c, now, edge == r::JobEdge::abort);
            c.blocked_rel = nullptr;
            return;
        case r::JobEdge::none:
            break;
    }
    if (!c.open) {
        if (c.blocked_rel != nullptr && to != r::TaskState::waiting_resource)
            c.blocked_rel = nullptr;
        return;
    }
    switch (to) {
        case r::TaskState::running:
            switch_segment(c, SliceKind::exec, now);
            return;
        case r::TaskState::ready:
            // Preemption / yield, or waking from a resource wait. The close
            // reads blocked_rel (the closing segment may be a blocked one),
            // so episode cleanup follows the switch.
            switch_segment(c, SliceKind::ready, now);
            if (from == r::TaskState::waiting_resource) {
                end_episode(c, now);
                c.blocked_rel = nullptr;
            }
            return;
        case r::TaskState::waiting_resource:
            // Mid-job mutual-exclusion block (blocked_rel was set by
            // on_block just before this transition).
            switch_segment(c, SliceKind::blocked, now);
            start_episode(c, now);
            return;
        case r::TaskState::created:
        case r::TaskState::waiting:
        case r::TaskState::terminated:
            return; // restart bookkeeping; the job edges are handled above
    }
}

// ----------------------------------------------------------------- queries

std::vector<const Attribution::BlockEpisode*> Attribution::inversions() const {
    std::vector<const BlockEpisode*> out;
    for (const auto& e : episodes_)
        if (e.inversion) out.push_back(&e);
    return out;
}

std::vector<Attribution::JobView> Attribution::jobs_for(
    const std::string& task) const {
    std::vector<JobView> out;
    for (std::size_t i = 0; i < cores_.size(); ++i)
        if (cores_[i].task->name() == task) out.push_back(job_view(i));
    return out;
}

std::vector<Attribution::Slice> Attribution::slices_for(
    const JobView& j) const {
    std::vector<Slice> out;
    if (j.ordinal >= cores_.size()) return out;
    const JobCore& core = cores_[j.ordinal];
    const k::Time release = core.release;
    const k::Time job_end = core.end;
    const auto& log = core.cpu->log;
    // Jobs that never blocked store no skeleton (finish_job elides the
    // copy); their ready/exec tiling is reconstructed from the runner log.
    // The job starts Ready at release; an edge whose runner is the task is
    // its dispatch (a task runs at most one job at a time, so an edge in
    // [release, end) naming the task belongs to this job); while it runs,
    // the next edge of any kind is the task leaving the CPU — a running
    // task's leave edge always precedes the successor's dispatch edge.
    std::vector<SkelSeg> synth;
    const SkelSeg* skel;
    std::size_t nseg;
    if (core.skel_count == 0) {
        synth.push_back({release, core.ov_at_release, SliceKind::ready, nullptr});
        auto it = std::lower_bound(
            log.begin(), log.end(), release,
            [](const CpuCtx::RunnerEdge& e, k::Time t) { return e.at < t; });
        for (; it != log.end() && it->at < job_end; ++it) {
            if (synth.back().kind == SliceKind::ready) {
                if (it->runner == core.task)
                    synth.push_back(
                        {it->at, it->ov_total, SliceKind::exec, nullptr});
            } else {
                synth.push_back(
                    {it->at, it->ov_total, SliceKind::ready, nullptr});
            }
        }
        skel = synth.data();
        nseg = synth.size();
    } else {
        skel = skel_pool_.data() + core.skel_first;
        nseg = core.skel_count;
    }
    for (std::size_t i = 0; i < nseg; ++i) {
        const SkelSeg& s = skel[i];
        const k::Time end = i + 1 < nseg ? skel[i + 1].start : job_end;
        const k::Time ov_end =
            i + 1 < nseg ? skel[i + 1].ov_at_start : core.ov_at_end;
        if (s.kind == SliceKind::blocked) {
            if (end == s.start) continue;
            Slice o;
            o.start = s.start;
            o.end = end;
            o.kind = SliceKind::blocked;
            o.culprit = s.rel != nullptr ? s.rel->name() : "?";
            out.push_back(std::move(o));
            continue;
        }
        if (s.kind == SliceKind::exec) {
            if (end == s.start) continue;
            Slice o;
            o.start = s.start;
            o.end = end;
            o.kind = SliceKind::exec;
            o.overhead = ov_end - s.ov_at_start;
            out.push_back(std::move(o));
            continue;
        }
        // Ready: subdivide at the runner edges strictly inside (start, end),
        // reproducing the former eager close/reopen tiling. The runner of
        // the leading sub-slice is whoever held the CPU at the segment
        // start; every logged edge both closes a sub-slice and installs the
        // next runner. Zero-width sub-slices are dropped, and a sub-slice
        // that is pure overhead keeps an empty culprit — exactly the old
        // close_segment rules.
        auto it = std::upper_bound(
            log.begin(), log.end(), s.start,
            [](k::Time t, const CpuCtx::RunnerEdge& e) { return t < e.at; });
        const r::Task* runner =
            it == log.begin() ? nullptr : std::prev(it)->runner;
        k::Time x = s.start;
        k::Time ov_x = s.ov_at_start;
        const auto emit = [&out, &x, &ov_x, &runner](k::Time y, k::Time ov_y) {
            if (y == x) return;
            Slice o;
            o.start = x;
            o.end = y;
            o.kind = SliceKind::ready;
            o.overhead = ov_y - ov_x;
            const k::Time rest = (y - x) - o.overhead;
            if (!rest.is_zero() && runner != nullptr)
                o.culprit = runner->name();
            out.push_back(std::move(o));
        };
        for (; it != log.end() && it->at < end; ++it) {
            emit(it->at, it->ov_total);
            x = it->at;
            ov_x = it->ov_total;
            runner = it->runner;
        }
        emit(end, ov_end);
    }
    return out;
}

std::vector<Attribution::DeadlineMissReport> Attribution::miss_reports(
    const trace::ConstraintMonitor& monitor) const {
    std::vector<DeadlineMissReport> out;
    for (const auto& v : monitor.violations()) {
        if (v.task == nullptr) continue; // latency rules have no job
        DeadlineMissReport r;
        r.constraint = v.constraint;
        r.task = v.task->name();
        r.at = v.at;
        r.measured = v.measured;
        r.bound = v.bound;
        // A response violation fires at the completion instant with the
        // job's response time: match on (task, end).
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            const JobCore& j = cores_[i];
            if (j.task == v.task && j.end == v.at &&
                j.end - j.release == v.measured) {
                r.job = job_view(i);
                break;
            }
        }
        if (r.job) {
            for (const Slice& s : slices_for(*r.job)) {
                DeadlineMissReport::PathItem item;
                item.start = s.start;
                item.duration = s.end - s.start;
                switch (s.kind) {
                    case SliceKind::exec:
                        item.culprit = r.task;
                        item.reason = "executing";
                        break;
                    case SliceKind::ready:
                        if (!s.culprit.empty()) {
                            item.culprit = s.culprit;
                            item.reason = "preempted by " + s.culprit;
                        } else {
                            item.culprit = "rtos";
                            item.reason = "rtos overhead";
                        }
                        break;
                    case SliceKind::blocked:
                        item.culprit = s.culprit;
                        item.reason = "blocked on " + s.culprit;
                        break;
                }
                r.critical_path.push_back(std::move(item));
            }
        }
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace rtsc::obs
