#pragma once
// Shared Perfetto/Chrome trace-event formatting layer.
//
// Both exporters — the post-hoc batch writer (obs/perfetto.hpp) and the
// streaming bounded-memory writer (obs/perfetto_stream.hpp) — must emit
// byte-identical event strings for the same underlying record, or the
// "streamed export equals batch export after canonical sort" contract
// (tests/obs/test_perfetto_stream.cpp) breaks. Every event string and the
// track layout (pid/tid numbering, process/thread metadata) are built
// here, in one place, by allocation-light append formatting; the writers
// only decide *when* an event is emitted and where its bytes go.
//
// Also hosts the causal-attribution event emitter: the per-job blame
// slices, blocking-chain instants, culprit->victim flows and deadline-miss
// instants are a pure function of (track index, Attribution) and are always
// emitted post-run, so batch and streaming share the exact code path.

#include <functional>
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

/// Where a writer sends each finished event string.
using Sink = std::function<void(std::string)>;

/// Append-formatted event strings; each returns one complete JSON object
/// (no trailing comma/newline — the writers own the separator plumbing).
[[nodiscard]] std::string meta_process(int pid, std::string_view name);
[[nodiscard]] std::string meta_thread(int pid, int tid, std::string_view name);

/// Complete slice ("X"). `args_json` is a full {"k": v} object or empty.
[[nodiscard]] std::string slice(int pid, int tid, kernel::Time at,
                                kernel::Time dur, std::string_view cat,
                                std::string_view name,
                                const std::string& args_json = {});

/// Instant ("i") with scope `scope` ("t" thread, "g" global).
[[nodiscard]] std::string instant(int pid, int tid, kernel::Time at,
                                  char scope, std::string_view cat,
                                  std::string_view name,
                                  const std::string& args_json = {});

/// Counter sample ("C"): one point of the counter track `name` under `pid`.
/// The value is rendered with %.17g — round-trippable, and deterministic
/// for the simulated-time quantities the MetricsSampler emits.
[[nodiscard]] std::string counter(int pid, kernel::Time at,
                                  std::string_view name, double value);

/// Task-state slice on a task's state track. Only visible() states get
/// one: created and terminated stretches stay blank.
[[nodiscard]] std::string state_slice(int pid, int tid, kernel::Time at,
                                      kernel::Time dur, rtos::TaskState state);
[[nodiscard]] constexpr bool visible(rtos::TaskState s) noexcept {
    return s != rtos::TaskState::created && s != rtos::TaskState::terminated;
}

/// RTOS overhead slice on tid 0 of processor `pid`; args name the task it
/// was charged for, if any.
[[nodiscard]] std::string overhead(int pid, kernel::Time start,
                                   kernel::Time dur, rtos::OverheadKind kind,
                                   const rtos::Task* about);

/// Relation access as a thread instant on the comm process (`tid` = the
/// relation's track); args name the accessing task ("<hw>" for hardware
/// processes) and whether it blocked.
[[nodiscard]] std::string access(int pid, int tid, kernel::Time at,
                                 const rtos::Task* task, mcse::AccessKind kind,
                                 bool blocked);

/// Flow endpoints used for culprit->victim blocking arrows.
[[nodiscard]] std::string flow_start(std::uint64_t id, kernel::Time at,
                                     int pid, int tid);
[[nodiscard]] std::string flow_finish(std::uint64_t id, kernel::Time at,
                                      int pid, int tid);

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
void emit_layout(const Sink& sink, const std::vector<rtos::Processor*>& cpus,
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
/// instants — through `sink`, in the deterministic order both writers
/// share. Tasks absent from `tracks` are skipped, matching the batch
/// exporter's historical behaviour.
void emit_attribution(const Sink& sink, const TrackIndex& tracks,
                      const Attribution& attribution,
                      const std::vector<Attribution::DeadlineMissReport>* misses);

} // namespace rtsc::obs::pfmt
