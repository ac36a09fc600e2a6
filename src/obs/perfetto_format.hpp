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
// Rendering appends in place: each builder appends one complete JSON object
// (no separator — EventArray owns the comma/newline plumbing) to the
// caller's buffer. Names are JSON-escaped straight into it and numbers are
// rendered with std::to_chars, so no event streamed while the model runs
// builds a temporary string.
//
// Also hosts the causal-attribution event emitter: the per-job blame
// slices, blocking-chain instants, culprit->victim flows and deadline-miss
// instants are a pure function of (track index, Attribution) and are always
// emitted post-run, so batch and streaming share the exact code path.

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/time.hpp"
#include "obs/attribution.hpp"
#include "rtos/processor.hpp"

namespace rtsc::mcse {
class Relation;
enum class AccessKind : std::uint8_t;
} // namespace rtsc::mcse

namespace rtsc::obs::pfmt {

/// The `{"traceEvents": [...]}` document both writers produce. Events are
/// rendered straight into one window, which spills to the output stream as
/// soon as it holds `window_bytes`, so resident memory stays below
/// window_bytes plus one event whatever the trace length.
class EventArray {
public:
    struct Stats {
        std::size_t events = 0;            ///< events emitted so far
        std::size_t window_bytes = 0;      ///< current window occupancy
        std::size_t peak_window_bytes = 0; ///< high-water mark of the window
        std::size_t flushes = 0;           ///< window spills to the stream
        std::size_t spooled_bytes = 0;     ///< event bytes spilled so far
    };

    /// With `one_per_line` every event sits on its own line.
    EventArray(std::ostream& os, std::size_t window_bytes,
               bool one_per_line = true);

    /// Write the document head straight to the stream.
    void open();
    /// Append one event: `render(window)` appends its JSON object.
    template <class Render>
    void emit(Render&& render) {
        if (stats_.events != 0) window_ += sep_;
        render(window_);
        ++stats_.events;
        stats_.window_bytes = window_.size();
        if (window_.size() > stats_.peak_window_bytes)
            stats_.peak_window_bytes = window_.size();
        if (window_.size() >= limit_) flush();
    }
    /// Spill the window and write the document tail.
    void close();

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
    void flush();

    std::ostream& os_;
    std::size_t limit_;
    std::string_view sep_;
    std::string window_;
    Stats stats_;
};

// ---- event builders: each appends one event to `out` ----

/// Process name metadata ("M").
void meta_process(std::string& out, int pid, std::string_view name);

/// Instant ("i") with scope `scope` ("t" thread, "g" global).
void instant(std::string& out, int pid, int tid, kernel::Time at, char scope,
             std::string_view cat, std::string_view name);

/// Counter sample ("C"): one point of the counter track `name` under `pid`.
/// The value renders exactly as printf's %.17g does — round-trippable, and
/// deterministic for the simulated-time quantities the MetricsSampler emits.
/// A non-finite value would not be JSON; callers reject it.
void counter(std::string& out, int pid, kernel::Time at, std::string_view name,
             double value);

/// Task-state slice on a task's state track. Only visible() states get
/// one: created and terminated stretches stay blank.
void state_slice(std::string& out, int pid, int tid, kernel::Time at,
                 kernel::Time dur, rtos::TaskState state);
[[nodiscard]] constexpr bool visible(rtos::TaskState s) noexcept {
    return s != rtos::TaskState::created && s != rtos::TaskState::terminated;
}

/// RTOS overhead slice on tid 0 of processor `pid`; args name the task it
/// was charged for, if any.
void overhead(std::string& out, int pid, kernel::Time start, kernel::Time dur,
              rtos::OverheadKind kind, const rtos::Task* about);

/// Relation access as a thread instant on the comm process (`tid` = the
/// relation's track); args name the accessing task ("<hw>" for hardware
/// processes) and whether it blocked.
void access(std::string& out, int pid, int tid, kernel::Time at,
            const rtos::Task* task, mcse::AccessKind kind, bool blocked);

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
/// instants — in the deterministic order both writers share. Tasks absent
/// from `tracks` are skipped, matching the batch exporter's historical
/// behaviour.
void emit_attribution(EventArray& events, const TrackIndex& tracks,
                      const Attribution& attribution,
                      const std::vector<Attribution::DeadlineMissReport>* misses);

} // namespace rtsc::obs::pfmt
