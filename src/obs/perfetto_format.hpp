#pragma once
// Shared Perfetto/Chrome trace-event formatting layer.
//
// Both exporters — the post-hoc batch writer (obs/perfetto.hpp) and the
// streaming bounded-memory writer (obs/perfetto_stream.hpp) — must emit
// byte-identical event strings for the same underlying record, or the
// "streamed export equals batch export after canonical sort" contract
// (tests/obs/test_perfetto_stream.cpp) breaks. Every event and the track
// layout (pid/tid numbering, process/thread metadata) are rendered here, in
// one place, into one EventArray per export; the writers only decide *when*
// an event is emitted.
//
// Templates: an event's bytes split into a head fixed by its kind (state,
// overhead kind, access kind, counter name), its times, and a tail fixed by
// its track. Every track renders its escaped name, pid/tid and fixed args
// once, into a template (TaskTrack, the strings of Tracks, CounterTrack, and
// the jobs tracks inside emit_attribution); after that an event costs one
// copy of its head, its times through trace::write_us and one copy of its
// tail, written into the window through one capacity check. There is one
// renderer per event kind, and both writers call it.
//
// Also hosts the causal-attribution event emitter: the per-job blame
// slices, blocking-chain instants, culprit->victim flows and deadline-miss
// instants are a pure function of (track index, Attribution) and are always
// emitted post-run, so batch and streaming share the exact code path.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"
#include "obs/attribution.hpp"
#include "rtos/processor.hpp"

namespace rtsc::mcse {
class Relation;
enum class AccessKind : std::uint8_t;
} // namespace rtsc::mcse

namespace rtsc::obs::pfmt {

/// Growable byte buffer events render into. A renderer asks room() for an
/// upper bound of what it writes, writes through the returned cursor and
/// hands the end to commit(): one capacity check per event.
class Buffer {
public:
    Buffer();

    void append(std::string_view s) {
        commit(std::char_traits<char>::copy(room(s.size()), s.data(), s.size()) +
               s.size());
    }
    void push_back(char c) {
        *room(1) = c;
        ++size_;
    }
    /// At least `n` writable bytes at the end of the contents.
    [[nodiscard]] char* room(std::size_t n) {
        if (cap_ - size_ < n) grow(n);
        return data_.get() + size_;
    }
    /// The contents now end at `end`, a cursor into the last room().
    void commit(char* end) noexcept {
        size_ = static_cast<std::size_t>(end - data_.get());
    }
    void reserve(std::size_t n) {
        if (cap_ < n) grow(n - size_);
    }
    void clear() noexcept { size_ = 0; }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::string_view view() const noexcept {
        return {data_.get(), size_};
    }

private:
    void grow(std::size_t n);

    std::unique_ptr<char[]> data_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/// `s` JSON-escaped into `out` (obs::append_json_escaped's rules).
void append_escaped(Buffer& out, std::string_view s);

/// The `{"traceEvents": [...]}` document both writers produce. Events are
/// rendered straight into one window. Once it holds `window_bytes` it is
/// handed to an I/O thread that writes it to the output stream while
/// rendering goes on into a second window; rendering waits only while the
/// previous window is still being written. The thread starts at the first
/// spill (a document that never spills never starts one), and close() and
/// the destructor join it. Resident memory stays below two windows plus one
/// event whatever the trace length, and what the stream holds lags the
/// events emitted by at most one window.
class EventArray {
public:
    struct Stats {
        std::size_t events = 0;            ///< events emitted so far
        std::size_t window_bytes = 0;      ///< current window occupancy
        std::size_t peak_window_bytes = 0; ///< high-water mark of the window
        std::size_t flushes = 0;           ///< windows spilled to the stream
        std::size_t spooled_bytes = 0;     ///< event bytes spilled so far
    };

    /// With `one_per_line` every event sits on its own line.
    EventArray(std::ostream& os, std::size_t window_bytes,
               bool one_per_line = true);
    /// Joins the I/O thread after its current write; an unclosed document
    /// stays unfinished.
    ~EventArray();
    EventArray(const EventArray&) = delete;
    EventArray& operator=(const EventArray&) = delete;

    /// Write the document head straight to the stream.
    void open();
    /// Append one event: `render(window)` appends its JSON object.
    template <class Render>
    void emit(Render&& render) {
        if (stats_.events != 0) {
            char* p = window_.room(2);
            p[0] = ',';
            p[1] = '\n';
            window_.commit(p + sep_.size());
        }
        render(window_);
        ++stats_.events;
        stats_.window_bytes = window_.size();
        if (window_.size() > stats_.peak_window_bytes)
            stats_.peak_window_bytes = window_.size();
        if (window_.size() >= limit_) spill();
    }
    /// Join the I/O thread, write the last window and the document tail.
    /// Rethrows an exception the stream raised on the I/O thread.
    void close();

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
    void spill();
    void write_windows();
    void stop_writer() noexcept;

    std::ostream& os_;
    std::size_t limit_;
    std::string_view sep_;
    Buffer window_;   ///< being rendered into
    Buffer spooling_; ///< handed to the I/O thread
    Stats stats_;

    std::mutex mu_;
    std::condition_variable cv_;
    bool pending_ = false;  ///< spooling_ waits to be written (guarded by mu_)
    bool stopping_ = false; ///< the I/O thread exits once idle (mu_)
    std::exception_ptr error_; ///< the stream's exception, if it threw (mu_)
    std::thread writer_;
};

// ---- templates ----

/// Fixed bytes of one task's events.
struct TaskTrack {
    std::string state_tail; ///< `, "pid": P, "tid": T}`: its state track
    std::string args;       ///< `, "args": {"task": "<name>"`: names it
};

/// Counter `name` on process `pid`: the bytes around its time and value.
struct CounterTrack {
    std::string head; ///< `{"name": "<name>", "ph": "C", "ts": `
    std::string tail; ///< `, "pid": P, "tid": 0, "args": {"value": `
};
[[nodiscard]] CounterTrack counter_track(int pid, std::string_view name);

/// The templates of one export's processors, tasks and relations, rendered
/// on first use. `cpus` and `relations` may still grow after construction
/// (the streaming writer attaches later); both must outlive the Tracks.
class Tracks {
public:
    Tracks(const std::vector<rtos::Processor*>& cpus,
           const std::vector<mcse::Relation*>& relations) noexcept
        : cpus_(cpus), relations_(relations) {}

    /// `t`'s templates. Its state track is (its processor's pid, its
    /// creation index + 1), pid 0 when the processor was never attached.
    [[nodiscard]] const TaskTrack& task(const rtos::Task& t);
    /// `, "pid": P, "tid": 0` of `cpu`'s RTOS track, or nullptr when `cpu`
    /// was never attached. Valid until the next call.
    [[nodiscard]] const std::string* rtos_track(const rtos::Processor& cpu);
    /// `, "pid": C, "tid": R` of `rel`'s track on the comm process, or
    /// nullptr when `rel` was never attached. Valid until the next call.
    [[nodiscard]] const std::string* relation_track(const mcse::Relation& rel);

private:
    const std::vector<rtos::Processor*>& cpus_;
    const std::vector<mcse::Relation*>& relations_;
    std::unordered_map<const rtos::Task*, TaskTrack> tasks_;
    const rtos::Task* last_task_ = nullptr; ///< the last task() lookup
    const TaskTrack* last_track_ = nullptr;
    std::vector<std::string> rtos_tracks_;     ///< by pid - 1
    std::vector<std::string> relation_tracks_; ///< by tid - 1
};

// ---- event renderers: each appends one event to `out` ----

/// Process name metadata ("M").
void meta_process(Buffer& out, int pid, std::string_view name);

/// Instant ("i") with scope `scope` ("t" thread, "g" global).
void instant(Buffer& out, int pid, int tid, kernel::Time at, char scope,
             std::string_view cat, std::string_view name);

/// Counter sample ("C"): one point of `track`. The value renders exactly as
/// printf's %.17g does — round-trippable, and deterministic for the
/// simulated-time quantities the MetricsSampler emits. A non-finite value
/// would not be JSON; callers reject it.
void counter(Buffer& out, const CounterTrack& track, kernel::Time at,
             double value);

/// Task-state slice on a task's state track. Only visible() states get
/// one: created and terminated stretches stay blank.
void state_slice(Buffer& out, const TaskTrack& task, kernel::Time at,
                 kernel::Time dur, rtos::TaskState state);
[[nodiscard]] constexpr bool visible(rtos::TaskState s) noexcept {
    return s != rtos::TaskState::created && s != rtos::TaskState::terminated;
}

/// RTOS overhead slice on a processor's RTOS track (Tracks::rtos_track);
/// args name the task it was charged for, if any.
void overhead(Buffer& out, const std::string& rtos_track, kernel::Time start,
              kernel::Time dur, rtos::OverheadKind kind,
              const TaskTrack* about);

/// Relation access as a thread instant on the relation's track
/// (Tracks::relation_track); args name the accessing task ("<hw>" for
/// hardware processes, `task` nullptr) and whether it blocked.
void access(Buffer& out, const std::string& relation_track, kernel::Time at,
            const TaskTrack* task, mcse::AccessKind kind, bool blocked);

// ---- track layout (documented in obs/perfetto.hpp) ----
// The numbering depends only on attach and creation order, so repeated
// exports of one model agree.

/// 1-based attach position of `x` — a processor's pid, a relation's tid on
/// the comm process — or 0 when it was never attached.
template <class T>
[[nodiscard]] int track_id(const std::vector<T*>& attached, const T* x) {
    for (std::size_t i = 0; i < attached.size(); ++i)
        if (attached[i] == x) return static_cast<int>(i) + 1;
    return 0;
}

/// Process and thread names of the layout: every processor with its RTOS,
/// task and (with `jobs`) jobs threads; the comm process when `comms` and
/// a relation is attached; the events process when `markers`.
void emit_layout(EventArray& events, const std::vector<rtos::Processor*>& cpus,
                 const std::vector<mcse::Relation*>& relations, bool jobs,
                 bool comms, bool markers);

/// Where a task's slices live: its processor's pid, its state track and
/// (with attribution) its jobs track. Keyed by task name — Attribution
/// records names so its results outlive the model.
struct Track {
    int pid = 0;
    int state_tid = 0;
    int jobs_tid = 0;
};
using TrackIndex = std::map<std::string, Track>;

/// The tracks of every task of `cpus`, laid out as above.
[[nodiscard]] TrackIndex track_index(const std::vector<rtos::Processor*>& cpus);

/// Emit every attribution-derived event — per-job blame slices, blocking
/// chains + flow arrows, and (when `misses` is non-null) deadline-miss
/// instants — in the deterministic order both writers share: jobs track by
/// track in name order, each track's jobs in completion order. The jobs are
/// read straight from the analyzer's compact cores (Attribution::job_view),
/// bucketed by track in one pass. Tasks absent from `tracks` are skipped,
/// matching the batch exporter's historical behaviour.
void emit_attribution(EventArray& events, const TrackIndex& tracks,
                      const Attribution& attribution,
                      const std::vector<Attribution::DeadlineMissReport>* misses);

} // namespace rtsc::obs::pfmt
