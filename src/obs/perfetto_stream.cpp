#include "obs/perfetto_stream.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <utility>

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

namespace {

// Unique per writer so concurrent runs targeting the same output path never
// share a spool (they would interleave events and race the final rename);
// like the batch exporter, the last finish() wins and every renamed file is
// internally consistent.
std::string unique_spool_path(const std::string& path) {
    static std::atomic<unsigned> seq{0};
    return path + ".spool-" + std::to_string(::getpid()) + "-" +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

void require_finite(std::string_view name, double value) {
    if (!std::isfinite(value))
        throw k::SimulationError("counter() value of '" + std::string(name) +
                                 "' is not finite");
}

} // namespace

PerfettoStreamWriter::Spool::~Spool() {
    if (renamed) return;
    // Abandoned mid-run (exception unwound past the writer, test bailed):
    // leave no half-written artifact behind.
    os.close();
    std::remove(path.c_str());
}

PerfettoStreamWriter::PerfettoStreamWriter(std::string path, Options opts)
    : path_(std::move(path)), spool_{unique_spool_path(path_), {}},
      events_(spool_.os, opts.window_bytes) {
    spool_.os.open(spool_.path, std::ios::trunc);
    if (!spool_.os)
        throw k::SimulationError("cannot open perfetto spool file: " +
                                 spool_.path);
    events_.open();
    if (!spool_.os)
        throw k::SimulationError("failed writing perfetto spool file: " +
                                 spool_.path);
}

PerfettoStreamWriter::~PerfettoStreamWriter() = default;

void PerfettoStreamWriter::attach(rtos::Processor& cpu) {
    cpu.add_observer(*this);
    processors_.push_back(&cpu);
}

void PerfettoStreamWriter::attach(mcse::Relation& rel) {
    rel.add_observer(*this);
    relations_.push_back(&rel);
}

void PerfettoStreamWriter::on_task_state(const rtos::Task& task,
                                         rtos::TaskState from,
                                         rtos::TaskState to) {
    const k::Time at = task.processor().simulator().now();
    note_time(at);
    TaskCursor& cur = cursors_[&task];
    if (!cur.seen) { // first sight: render the task's templates once
        cur.seen = true;
        cur.prev_at = at;
        cur.prev_state = from;
        cur.track = &tracks_.task(task);
    }
    if (from == to) return; // creation announcement
    if (pfmt::visible(cur.prev_state) && at > cur.prev_at)
        events_.emit([&](pfmt::Buffer& out) {
            pfmt::state_slice(out, *cur.track, cur.prev_at, at - cur.prev_at,
                              cur.prev_state);
        });
    cur.prev_at = at;
    cur.prev_state = to;
}

void PerfettoStreamWriter::on_overhead(const rtos::Processor& cpu,
                                       rtos::OverheadKind kind,
                                       kernel::Time start,
                                       kernel::Time duration,
                                       const rtos::Task* about) {
    note_time(start + duration);
    if (duration.is_zero()) return;
    const std::string* track = tracks_.rtos_track(cpu);
    if (track == nullptr) return; // overhead of an unattached processor
    const pfmt::TaskTrack* about_track =
        about != nullptr ? &tracks_.task(*about) : nullptr;
    events_.emit([&](pfmt::Buffer& out) {
        pfmt::overhead(out, *track, start, duration, kind, about_track);
    });
}

void PerfettoStreamWriter::on_access(const mcse::Relation& rel,
                                     const rtos::Task* task,
                                     mcse::AccessKind kind, bool blocked) {
    const k::Time at = task != nullptr
                           ? task->processor().simulator().now()
                           : k::Simulator::current().now();
    note_time(at);
    const std::string* track = tracks_.relation_track(rel);
    if (track == nullptr) return;
    const pfmt::TaskTrack* task_track =
        task != nullptr ? &tracks_.task(*task) : nullptr;
    events_.emit([&](pfmt::Buffer& out) {
        pfmt::access(out, *track, at, task_track, kind, blocked);
    });
}

void PerfettoStreamWriter::on_marker(const std::string& category,
                                     const std::string& name) {
    const k::Time at = k::Simulator::current().now();
    note_time(at);
    any_marker_ = true;
    events_.emit([&](pfmt::Buffer& out) {
        pfmt::instant(out, marker_pid(), 1, at, 'g', category, name);
    });
}

PerfettoStreamWriter::CounterHandle PerfettoStreamWriter::counter_track_at(
    int pid, std::string_view name) {
    for (std::size_t i = 0; i < counters_.size(); ++i)
        if (counters_[i].pid == pid && counters_[i].name == name) return {i};
    counters_.push_back({pid, std::string(name), pfmt::counter_track(pid, name)});
    return {counters_.size() - 1};
}

PerfettoStreamWriter::CounterHandle PerfettoStreamWriter::counter_track(
    const rtos::Processor& cpu, std::string_view name) {
    const int pid = pfmt::track_id(processors_, &cpu);
    if (pid == 0)
        throw k::SimulationError("counter() on a processor never attached "
                                 "to this PerfettoStreamWriter");
    return counter_track_at(pid, name);
}

PerfettoStreamWriter::CounterHandle PerfettoStreamWriter::counter_track(
    std::string_view process, std::string_view name) {
    int idx = -1;
    for (std::size_t i = 0; i < counter_procs_.size(); ++i)
        if (counter_procs_[i] == process) idx = static_cast<int>(i);
    if (idx < 0) {
        idx = static_cast<int>(counter_procs_.size());
        counter_procs_.emplace_back(process);
    }
    return counter_track_at(marker_pid() + 1 + idx, name);
}

void PerfettoStreamWriter::counter(CounterHandle track, kernel::Time at,
                                   double value) {
    const CounterSlot& slot = counters_.at(track.index);
    require_finite(slot.name, value);
    events_.emit([&](pfmt::Buffer& out) {
        pfmt::counter(out, slot.track, at, value);
    });
}

void PerfettoStreamWriter::finish(
    const Attribution* attribution,
    const std::vector<Attribution::DeadlineMissReport>* misses) {
    if (finished_)
        throw std::logic_error("PerfettoStreamWriter::finish() called twice");

    // Close every open task segment at the end of the trace, exactly where
    // Timeline::segments closes its final segment for the batch exporter.
    for (const rtos::Processor* cpu : processors_) {
        for (const auto& t : cpu->tasks()) {
            const auto it = cursors_.find(t.get());
            if (it == cursors_.end() || !it->second.seen) continue;
            const TaskCursor& cur = it->second;
            const k::Time end = std::max(cur.prev_at, trace_end_);
            if (pfmt::visible(cur.prev_state) && end > cur.prev_at)
                events_.emit([&](pfmt::Buffer& out) {
                    pfmt::state_slice(out, *cur.track, cur.prev_at,
                                      end - cur.prev_at, cur.prev_state);
                });
        }
    }

    // Metadata last: sort-canonical comparison with the batch exporter does
    // not care about position, and emitting here lets tid numbering for the
    // jobs tracks use the final task count, as the batch layout does.
    pfmt::emit_layout(events_, processors_, relations_, attribution != nullptr,
                      any_marker_);
    for (std::size_t ci = 0; ci < counter_procs_.size(); ++ci)
        events_.emit([&](pfmt::Buffer& out) {
            pfmt::meta_process(out, marker_pid() + 1 + static_cast<int>(ci),
                               counter_procs_[ci]);
        });
    if (attribution != nullptr)
        pfmt::emit_attribution(events_, pfmt::track_index(processors_),
                               *attribution, misses);

    events_.close(); // joins the I/O thread
    spool_.os.flush();
    if (!spool_.os)
        throw k::SimulationError("failed writing perfetto spool file: " +
                                 spool_.path);
    spool_.os.close();
    if (std::rename(spool_.path.c_str(), path_.c_str()) != 0)
        throw k::SimulationError("cannot rename perfetto spool onto: " +
                                 path_);
    spool_.renamed = true;
    finished_ = true;
}

} // namespace rtsc::obs
