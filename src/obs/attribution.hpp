#pragma once
// Attribution: causal latency decomposition — "why did this job take 7 ms,
// and who is to blame for the deadline miss?"
//
// An online rtos::Observer fed by the engine hooks and task-state
// notifications of both scheduler engines. Every job (one response episode,
// delimited by rtos::job_edge like obs::MetricsCollector's and
// trace::ConstraintMonitor's) is tiled into contiguous segments at every edge
// that can change who occupies the CPU; each closed segment is charged to
// exactly one causal account:
//
//   exec         the job's own Running time (minus inline RTOS charges)
//   preempted_by[T]  Ready time while task T ran (per-preemptor)
//   interrupt    Ready time while an ISR task ran (Task::isr_task)
//   blocked_on[R]    time in Waiting-for-resource, per relation R
//   overhead     RTOS charges (scheduling / context load / save) inside the
//                response window, plus any residual idle slack (measured
//                zero in practice, kept so the invariant is structural)
//
// Hard invariant: the components sum *bit-exactly* to the observed response
// time — they are an exact tiling of [release, end], not estimates — and the
// decomposition is engine-equivalent (fuzz_engines compares the per-job
// component vectors across both engines bit-for-bit).
//
// On top of the per-job accounting the analyzer tracks mutual-exclusion
// ownership (on_resource_acquire/release) and reconstructs the full blocking
// chain at every Waiting-for-resource entry — victim, owner, what the owner
// itself blocks on, transitively — flagging priority inversions (owner's
// effective priority below the victim's, the paper's Figure 7 scenario) and
// recording middle-priority aggravators that ran during the episode.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"
#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::mcse {
class Relation;
}
namespace rtsc::trace {
class ConstraintMonitor;
}

namespace rtsc::obs {

class MetricsCollector;

class Attribution final : public rtos::Observer {
public:
    /// What the job was doing during one tiled segment of its response window.
    enum class SliceKind : std::uint8_t { exec, ready, blocked };

    /// One segment of a job's response window. `culprit` is the runner that
    /// kept the CPU (ready), the resource blocked on (blocked) or empty
    /// (exec / pure-overhead gaps); `overhead` is the RTOS charge time that
    /// fell inside [start, end] and is accounted to the overhead component.
    struct Slice {
        kernel::Time start{};
        kernel::Time end{};
        SliceKind kind = SliceKind::exec;
        std::string culprit;
        kernel::Time overhead{};
    };

    /// Exact decomposition of one completed (or aborted) job, without the
    /// names.
    struct JobBlame {
        std::uint64_t index = 0;     ///< activation ordinal, 0-based per task
        kernel::Time release{};
        kernel::Time end{};          ///< completion (or abort) instant
        bool aborted = false;        ///< ended by kill / crash, not completion

        kernel::Time exec{};         ///< own execution
        kernel::Time preemption{};   ///< sum of preempted_by
        kernel::Time blocking{};     ///< sum of blocked_on
        kernel::Time overhead{};     ///< RTOS overhead share (incl. residual)
        kernel::Time interrupt{};    ///< stolen by ISR tasks

        // Per-kind overhead breakdown (sums to overhead together with
        // `residual`).
        kernel::Time ov_scheduling{};
        kernel::Time ov_load{};
        kernel::Time ov_save{};
        kernel::Time ov_switch{};    ///< DVFS frequency-switch charges
        kernel::Time residual{};     ///< ready with idle CPU; expected zero

        // Energy blame (DVFS processors; zero otherwise). Captured from the
        // engine's per-job accumulators at the completion instant — exec
        // covers the job's Running slices, overhead the RTOS charges
        // attributed to it. Exact integers: per-task sums reconcile with the
        // Processor::EnergyLedger bit-for-bit (Σ f·V²·Δt, rtos/dvfs.hpp).
        rtos::Energy energy_exec = 0;
        rtos::Energy energy_overhead = 0;

        [[nodiscard]] kernel::Time response() const noexcept {
            return end - release;
        }
        /// The conservation invariant: bit-equal to response().
        [[nodiscard]] kernel::Time components_sum() const noexcept {
            return exec + preemption + blocking + overhead + interrupt;
        }
        friend bool operator==(const JobBlame&, const JobBlame&) = default;
    };

    /// One completed (or aborted) job: its decomposition and its per-culprit
    /// shares, name-merged, name-sorted and non-zero. A preempted_by entry
    /// stands for every preempting task of its name (same-named tasks merge
    /// into one entry); the ISR share is blame.interrupt, not an entry. A
    /// view stays valid until the next job is recorded, and while the
    /// scenario's Tasks live.
    struct JobView {
        const rtos::Task* task = nullptr;
        std::size_t ordinal = 0; ///< completion order: job_view(ordinal)
        JobBlame blame;
        std::span<const std::pair<const rtos::Task*, kernel::Time>>
            preempted_by;
        std::span<const std::pair<std::string, kernel::Time>> blocked_on;
    };

    /// One Waiting-for-resource episode with its causal chain.
    struct BlockEpisode {
        std::string victim;
        std::uint64_t job_index = 0; ///< victim's job ordinal
        std::string resource;
        std::string owner;           ///< resource holder at block time ("" = none/hw)
        kernel::Time start{};
        kernel::Time end{};
        int victim_priority = 0;     ///< effective, at block time
        int owner_priority = 0;
        /// victim, owner, owner-of-what-the-owner-blocks-on, ... (depth =
        /// chain.size() - 1).
        std::vector<std::string> chain;
        /// owner_priority < victim_priority at block time: the classic
        /// Figure 7 priority inversion (priority inheritance suppresses it
        /// by boosting the owner first).
        bool inversion = false;
        /// Middle-priority tasks (between owner and victim) that took the
        /// CPU during the episode and so stretched the inversion.
        std::vector<std::string> aggravators;

        [[nodiscard]] kernel::Time duration() const noexcept {
            return end - start;
        }
    };

    /// Why one violated response constraint was late, interval by interval.
    struct DeadlineMissReport {
        std::string constraint;
        std::string task;
        kernel::Time at{};        ///< detection instant (= completion)
        kernel::Time measured{};
        kernel::Time bound{};
        std::optional<JobView> job; ///< matched decomposition
        struct PathItem {
            kernel::Time start{};
            kernel::Time duration{};
            std::string culprit;  ///< task / resource / "rtos" / "cpu idle"
            std::string reason;   ///< human-readable classification
        };
        std::vector<PathItem> critical_path;
    };

    Attribution() = default;
    Attribution(const Attribution&) = delete;
    Attribution& operator=(const Attribution&) = delete;
    ~Attribution() override;

    /// Subscribe this analyzer to `cpu`'s events. Call before
    /// Simulator::run(). MetricsCollector::set_attribution subscribes it to
    /// the collector's processors as well. Destroying the analyzer
    /// unsubscribes it.
    void attach(rtos::Processor& cpu);

    // ---- results ----
    [[nodiscard]] const std::vector<BlockEpisode>& episodes() const noexcept {
        return episodes_;
    }
    /// Episodes flagged as priority inversions.
    [[nodiscard]] std::vector<const BlockEpisode*> inversions() const;
    /// How many jobs have completed.
    [[nodiscard]] std::size_t job_count() const noexcept {
        return cores_.size();
    }
    /// Job `i` in completion order, read from the analyzer's compact record.
    [[nodiscard]] JobView job_view(std::size_t i) const;
    /// Completed jobs of the tasks named `task`, in completion order.
    [[nodiscard]] std::vector<JobView> jobs_for(const std::string& task) const;

    /// The ordered tiling of [release, end] for one recorded job (the
    /// critical path), built on demand from the job's segment skeleton
    /// and the CPU's runner log — the hot path only appends to those, which
    /// is what keeps the online overhead low; reconstructing here yields the
    /// exact same slices the analyzer used to store eagerly (same
    /// subdivision at every runner edge, same culprit and overhead shares,
    /// zero-width slices dropped).
    [[nodiscard]] std::vector<Slice> slices_for(const JobView& j) const;

    /// Match every response violation of `monitor` against the recorded job
    /// decompositions and render its critical path.
    [[nodiscard]] std::vector<DeadlineMissReport> miss_reports(
        const trace::ConstraintMonitor& monitor) const;

    /// Invoked on every job completion/abort with job_view() of that job.
    /// MetricsCollector::set_attribution installs it for the blame
    /// counters/histograms.
    void set_completion_hook(std::function<void(const JobView&)> hook) {
        on_complete_ = std::move(hook);
    }

    // ---- rtos::Observer ----
    void on_block(const rtos::Processor& cpu, const rtos::Task& t,
                  rtos::TaskState kind, const mcse::Relation* on) override;
    void on_resource_acquire(const rtos::Processor& cpu, const rtos::Task& t,
                             const mcse::Relation& r) override;
    void on_resource_release(const rtos::Processor& cpu, const rtos::Task& t,
                             const mcse::Relation& r) override;
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override;
    void on_overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                     kernel::Time start, kernel::Time duration,
                     const rtos::Task* about) override;

private:
    friend class MetricsCollector; // links collector_, see set_attribution

    static constexpr std::size_t kOvKinds = 4;

    /// Per-processor context: who runs, the exact integral of overhead
    /// charge time per kind (charges never overlap on one CPU and are
    /// announced at their start with the full duration, so the integral up
    /// to any instant inside a charge is exact), and the append-only runner
    /// log the ready-time attribution walks.
    ///
    /// A runner edge appends one log entry — O(1), open jobs sitting in
    /// Ready are never touched. A job's ready window remembers the log
    /// length when it opens and, on close, walks only the edges that were
    /// appended inside the window, charging each span's net time
    /// (duration minus overhead inside the span) to the task that held the
    /// CPU. That walk is the exact per-edge subdivision the eager
    /// implementation performed, with the same uint64 subtractions, so the
    /// per-slot totals are bit-identical; slices_for() reuses the same log
    /// to rebuild tilings on demand.
    struct CpuCtx {
        const rtos::Processor* cpu = nullptr;
        const rtos::Task* runner = nullptr;
        kernel::Time ov_done[kOvKinds]{};
        int cur_kind = -1;
        kernel::Time cur_start{};
        kernel::Time cur_end{};

        std::vector<const rtos::Task*> slot_tasks; ///< slot -> task
        kernel::Time ov_done_total{};       ///< sum of ov_done (kept folded)
        int runner_slot = -1;               ///< slot of `runner` (-1 = idle)
        /// Every runner change, in time order; ready-window closes and
        /// slices_for() subdivide at these edges.
        struct RunnerEdge {
            kernel::Time at{};
            const rtos::Task* runner = nullptr;
            int slot = -1;                  ///< slot of `runner` (-1 = idle)
            kernel::Time ov_total{};        ///< total ov integral at `at`
        };
        std::vector<RunnerEdge> log;
        std::size_t open_episodes = 0;      ///< gates the aggravator scan
    };

    struct OvMark {
        kernel::Time upto[kOvKinds]{};
    };

    /// One entry of a job's segment skeleton: where a segment started and
    /// what the job was doing. Segment ends are implicit (the next entry's
    /// start, or the job end); ready segments are subdivided at the CPU's
    /// runner edges only when slices_for() rebuilds the tiling.
    /// Trivially copyable on purpose — the hot path memcpys these into the
    /// shared arena; the blocked culprit is the Relation pointer (nullptr =
    /// unknown, rendered "?"), its name read only in slices_for().
    struct SkelSeg {
        kernel::Time start{};
        kernel::Time ov_at_start{};  ///< CPU total ov integral at `start`
        SliceKind kind = SliceKind::exec;
        const mcse::Relation* rel = nullptr; ///< blocked: the resource
    };

    /// Per-task context: the open job (if any) and its current segment.
    struct TaskCtx {
        const rtos::Task* task = nullptr;
        CpuCtx* cpu = nullptr;
        std::size_t slot = 0;        ///< index into cpu->slot_tasks
        std::uint64_t next_index = 0;

        bool open = false;
        std::uint64_t index = 0;
        kernel::Time release{};

        SliceKind seg = SliceKind::exec;
        kernel::Time seg_start{};
        OvMark seg_mark;
        kernel::Time seg_ov_total{}; ///< sum of seg_mark at segment open
        /// Ready segments: the log length and runner when the window opened;
        /// the close walks the edges appended since.
        std::size_t seg_log_idx = 0;
        int seg_runner_slot = -1;

        const mcse::Relation* blocked_rel = nullptr; ///< set by on_block
        std::size_t episode = SIZE_MAX; ///< open episode index or SIZE_MAX

        // accumulators
        kernel::Time exec;
        kernel::Time ov[kOvKinds];
        std::vector<kernel::Time> pre;  ///< slot -> ready time while it ran
        /// Slots with a non-zero pre entry, in first-charge order; the
        /// finish reads and re-zeroes exactly these instead of sweeping (and
        /// the open does not have to clear the whole vector).
        std::vector<std::uint32_t> pre_touched;
        std::map<std::string, kernel::Time> blocked_on;
        std::vector<SkelSeg> skel;      ///< segment skeleton of the open job
    };

    /// Completed-job record — plain data, appended on the hot path;
    /// deliberately small, since its pages are most of the per-job memory
    /// traffic. job_view() derives the rest of JobBlame from it. skel_count
    /// == 0 means the job had no (non-zero) blocked segment and its
    /// exec/ready tiling is reconstructed from the CPU's runner log instead
    /// of a stored skeleton: a job's segment boundaries inside (release,
    /// end] are exactly the edges that install the task as runner (exec
    /// begins) or remove it (ready begins).
    struct JobCore {
        const rtos::Task* task = nullptr;
        std::uint64_t index = 0;
        kernel::Time release{}, end{};
        kernel::Time exec{};
        kernel::Time ov[kOvKinds]{};
        kernel::Time interrupt{};     ///< the ISR tasks' ready shares
        rtos::Energy energy_exec = 0; ///< job energy at completion (DVFS)
        rtos::Energy energy_ov = 0;
        const CpuCtx* cpu = nullptr;
        kernel::Time ov_at_release{}; ///< CPU total ov integral at release
        kernel::Time ov_at_end{};     ///< CPU total ov integral at job end
        std::uint32_t pre_first = 0, pre_count = 0;  ///< span in pre_pool_
        std::uint32_t blk_first = 0, blk_count = 0;  ///< span in blk_pool_
        std::uint32_t skel_first = 0, skel_count = 0; ///< span in skel_pool_
        bool aborted = false;
    };

    [[nodiscard]] CpuCtx& cpu_ctx(const rtos::Processor& cpu);
    [[nodiscard]] TaskCtx& task_ctx(const rtos::Task& t);
    [[nodiscard]] OvMark ov_upto(const CpuCtx& c, kernel::Time t) const;
    [[nodiscard]] kernel::Time ov_total_upto(const CpuCtx& c,
                                             kernel::Time t) const;

    void begin_segment_with(TaskCtx& c, SliceKind kind, kernel::Time now,
                            const OvMark& m, kernel::Time total);
    void close_segment_with(TaskCtx& c, kernel::Time now, const OvMark& m,
                            kernel::Time total);
    void begin_segment(TaskCtx& c, SliceKind kind, kernel::Time now);
    /// Returns the CPU total ov integral at `now` (the close computes it
    /// anyway; finish_job stores it as the job's ov_at_end).
    kernel::Time close_segment(TaskCtx& c, kernel::Time now);
    /// close + begin sharing one overhead-mark computation — every mid-job
    /// transition is such a pair.
    void switch_segment(TaskCtx& c, SliceKind kind, kernel::Time now);
    void open_job(TaskCtx& c, kernel::Time now);
    void finish_job(TaskCtx& c, kernel::Time now, bool aborted);
    void start_episode(TaskCtx& c, kernel::Time now);
    void end_episode(TaskCtx& c, kernel::Time now);

    // deques: contexts cross-reference each other, references must be stable
    std::deque<CpuCtx> cpus_;
    std::deque<TaskCtx> tasks_;
    /// Transposition-ordered task lookup behind the two-entry cache: a hit
    /// swaps one step toward the front, so the handful of live tasks settle
    /// in rough access-frequency order and a miss of the cache pair costs a
    /// few pointer compares instead of a hash probe.
    std::vector<std::pair<const rtos::Task*, TaskCtx*>> task_index_;
    // Two-entry lookup cache: hook bursts alternate between the outgoing
    // and incoming task of a context switch (deque references are stable,
    // so the pointers stay valid).
    const rtos::Task* cached_task_ = nullptr;
    TaskCtx* cached_ctx_ = nullptr;
    const rtos::Task* cached_task2_ = nullptr;
    TaskCtx* cached_ctx2_ = nullptr;
    std::vector<SkelSeg> skel_pool_;  ///< finished jobs' skeletons, packed
    std::vector<JobCore> cores_;      ///< completed jobs, completion order
    /// Per-culprit shares of finished jobs, name-merged and name-sorted,
    /// packed arenas referenced by JobCore spans (JobView points into them).
    std::vector<std::pair<const rtos::Task*, kernel::Time>> pre_pool_;
    std::vector<std::pair<std::string, kernel::Time>> blk_pool_;
    std::map<const mcse::Relation*, const rtos::Task*> owner_of_;
    std::vector<BlockEpisode> episodes_;
    std::function<void(const JobView&)> on_complete_;
    std::vector<rtos::Processor*> attached_;
    MetricsCollector* collector_ = nullptr; ///< recording this analyzer's blame
};

} // namespace rtsc::obs
