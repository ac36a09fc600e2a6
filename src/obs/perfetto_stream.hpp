#pragma once
// Streaming Perfetto / Chrome trace-event exporter with bounded memory.
//
// Where obs::write_perfetto_file serialises a whole trace::Recorder after
// the run, PerfettoStreamWriter observes the model directly (an
// rtos::Observer of processors, relations and fault components) and spools
// events to disk *as the simulation runs*: resident state is two append
// windows of at most ~window_bytes plus O(#tasks) per-task cursors and
// templates, independent of trace length. A long-horizon scenario that
// would hold millions of records in a Recorder streams in about two windows
// (tests/obs/test_perfetto_stream.cpp pins the peak window occupancy).
//
// Equivalence contract: for one run observed by both a Recorder and a
// PerfettoStreamWriter (same processors/relations attached, both subscribed
// to the same marker sources), the streamed file contains exactly the
// same events as write_perfetto_file's, byte-for-byte per event — only the
// event *order* differs (the stream interleaves tracks as time advances).
// Canonically sorting both files' event lines yields identical bytes; CI
// checks this for both engines with skip-ahead on and off. Event strings
// and the track layout come from obs::pfmt, shared with the batch writer,
// so the two cannot drift. Counter tracks (see counter() and
// obs::MetricsSampler) are the deliberate exception: they exist only in
// streamed exports, so a sampled export is written as a separate artifact,
// not sort-compared.
//
// Spool format: events are appended to `path + ".spool-<pid>-<n>"`
// (spool_path(); unique per writer, so concurrent runs targeting the same
// output never share a spool) — a valid, growing prefix of the final JSON
// ({"traceEvents": [ <events so far>) that crash diagnostics can inspect;
// finish() closes open task segments, emits the metadata and optional
// attribution events, writes the footer and atomically renames the spool
// onto `path`. A writer destroyed without finish() removes its spool.
//
// Rendering and spooling (obs/perfetto_format.hpp): every event renders
// from its track's template straight into an in-memory window. A full
// window goes to the writer's I/O thread, which appends it to the spool
// while the simulation renders into a second window, so the spool prefix
// lags the events emitted by at most one window. The thread starts at the
// first spill and is joined by finish() and the destructor; the simulation
// waits for it only while the previous window is still being written.
// Resident memory is two windows plus one event.
//
// Requirements: attach every processor/relation *before* the simulation
// starts (pid numbering follows attach order, and events emitted mid-run
// bake their pids in), and call finish() while the model is still alive.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "obs/perfetto_format.hpp"
#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::obs {

class PerfettoStreamWriter final : public rtos::Observer {
public:
    struct Options {
        /// Hand the in-memory window to the spool once it reaches this many
        /// bytes. Peak residency stays below two windows plus one event.
        std::size_t window_bytes = 64 * 1024;
    };

    /// Events emitted, window occupancy and its high-water mark, windows
    /// handed to the spool and the event bytes they carried.
    using Stats = pfmt::EventArray::Stats;

    /// One counter track of this writer (see counter_track()).
    struct CounterHandle {
        std::size_t index = SIZE_MAX;
        [[nodiscard]] bool valid() const noexcept { return index != SIZE_MAX; }
    };

    /// Opens a writer-unique spool file (see spool_path()) and emits the
    /// JSON header. Throws kernel::SimulationError when the spool cannot be
    /// created.
    explicit PerfettoStreamWriter(std::string path)
        : PerfettoStreamWriter(std::move(path), Options()) {}
    PerfettoStreamWriter(std::string path, Options opts);
    ~PerfettoStreamWriter() override;

    PerfettoStreamWriter(const PerfettoStreamWriter&) = delete;
    PerfettoStreamWriter& operator=(const PerfettoStreamWriter&) = delete;

    /// Observe a processor (all of its tasks, present and future). Its pid
    /// is the attach index + 1, matching the batch exporter's layout.
    void attach(rtos::Processor& cpu);
    /// Observe a communication relation (thread attach index + 1 under the
    /// "comm" process).
    void attach(mcse::Relation& rel);

    // rtos::Observer (markers: subscribe the writer to the fault components)
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override;
    void on_overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                     kernel::Time start, kernel::Time duration,
                     const rtos::Task* about) override;

    void on_access(const mcse::Relation& rel, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) override;
    void on_marker(const std::string& category,
                   const std::string& name) override;

    /// Emit one counter sample on `cpu`'s process track. The value renders
    /// with %.17g; `at` must be non-decreasing per counter name (the
    /// validator checks). Throws kernel::SimulationError when `cpu` was never
    /// attached or `value` is not finite (JSON has no NaN or infinity).
    void counter(const rtos::Processor& cpu, kernel::Time at,
                 std::string_view name, double value);

    /// Emit one counter sample on the auxiliary process `process` (e.g.
    /// "kernel"), allocated a pid past the marker process on first use.
    /// Throws kernel::SimulationError when `value` is not finite.
    void counter(std::string_view process, kernel::Time at,
                 std::string_view name, double value);

    /// The counter track `name` on `cpu`'s process, or on the auxiliary
    /// process `process` (allocating its pid on first use): its template is
    /// rendered once, and counter(handle, ...) skips the name lookup the
    /// overloads above make. Throws kernel::SimulationError when `cpu` was
    /// never attached.
    [[nodiscard]] CounterHandle counter_track(const rtos::Processor& cpu,
                                              std::string_view name);
    [[nodiscard]] CounterHandle counter_track(std::string_view process,
                                              std::string_view name);
    /// Emit one sample on `track`, as the overloads above do.
    void counter(CounterHandle track, kernel::Time at, double value);

    /// Close open task segments at the end of the trace, emit process/thread
    /// metadata (plus attribution events when given), write the footer and
    /// atomically rename the spool onto the final path. Must be called
    /// exactly once, while the model is still alive. Throws
    /// kernel::SimulationError on I/O failure, std::logic_error on reuse.
    void finish(const Attribution* attribution = nullptr,
                const std::vector<Attribution::DeadlineMissReport>* misses =
                    nullptr);

    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] const Stats& stats() const noexcept { return events_.stats(); }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// Where events spool until finish() renames them onto path().
    [[nodiscard]] const std::string& spool_path() const noexcept {
        return spool_.path;
    }

private:
    struct TaskCursor {
        kernel::Time prev_at{};
        rtos::TaskState prev_state = rtos::TaskState::created;
        bool seen = false;
        const pfmt::TaskTrack* track = nullptr;
    };

    /// The spool file, removed on destruction unless finish() renamed it.
    struct Spool {
        std::string path;
        std::ofstream os;
        bool renamed = false;
        ~Spool();
    };

    struct CounterSlot {
        int pid = 0;
        std::string name;
        pfmt::CounterTrack track;
    };

    [[nodiscard]] int comm_pid() const noexcept {
        return static_cast<int>(processors_.size()) + 1;
    }
    [[nodiscard]] int marker_pid() const noexcept { return comm_pid() + 1; }
    void note_time(kernel::Time t) noexcept {
        if (t > trace_end_) trace_end_ = t;
    }
    [[nodiscard]] CounterHandle counter_track_at(int pid, std::string_view name);

    std::string path_;
    std::vector<rtos::Processor*> processors_;
    std::vector<mcse::Relation*> relations_;
    pfmt::Tracks tracks_{processors_, relations_};
    // Members are destroyed in reverse order: the event array joins its I/O
    // thread before the spool file is closed and removed.
    Spool spool_;
    pfmt::EventArray events_; ///< renders into its window, spills to spool_
    bool finished_ = false;
    bool any_marker_ = false;
    kernel::Time trace_end_{};

    std::unordered_map<const rtos::Task*, TaskCursor> cursors_;
    std::vector<std::string> counter_procs_; ///< aux counter process names
    std::vector<CounterSlot> counters_;
};

} // namespace rtsc::obs
