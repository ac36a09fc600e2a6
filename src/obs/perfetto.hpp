#pragma once
// Perfetto / Chrome trace-event exporter: renders a trace::Recorder stream
// as a JSON object ({"traceEvents": [...]}) loadable by ui.perfetto.dev and
// chrome://tracing.
//
// Track layout:
//   pid 1..P        one "process" per attached Processor (process_name)
//     tid 0           RTOS overhead slices ("X", name = overhead kind)
//     tid 1..N        one thread per task (thread_name); complete slices
//                     ("X") for ready / running / waiting / waiting_resource
//                     periods, built from Timeline::segments — created and
//                     terminated stretches are blank, zero-length segments
//                     are dropped
//   pid P+1         "comm" process: one thread per attached Relation,
//                     thread instants ("i", scope "t") per access
//   pid P+2         "events" process: fault / watchdog / deadline markers
//                     (Recorder::on_marker) as global instants ("i", scope "g")
//
// With an Attribution analyzer (PerfettoOptions::attribution) each task
// additionally gets a "<task>.jobs" track (tid N+1+j on its processor): one
// complete slice per job carrying the full blame decomposition as args
// (exec/preempt/block/overhead/interrupt shares in exact picoseconds, plus
// per-culprit maps), "blocking_chain" instants per Waiting-for-resource
// episode (chain, owner, inversion flag, aggravators) and legacy flow events
// ("s"/"f", cat "blocking") from the culprit's state track to the victim's.
// PerfettoOptions::misses adds "deadline_miss" instants with the per-
// interval critical path (see Attribution::miss_reports).
//
// Timestamps are exact: ts/dur are emitted in microseconds with up to six
// fractional digits (picosecond resolution, the kernel's native unit) via
// trace::append_us — never through a lossy double round-trip. Names pass
// through JSON string escaping, so hostile task/relation names stay valid.
//
// The output is deterministic: identical recorder content yields
// byte-identical JSON.
//
// Lifetime: the Recorder stores pointers into the model (tasks, processors,
// relations). Export while those objects are still alive — i.e. before the
// Processor/Simulator that produced the trace is destroyed.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attribution.hpp"
#include "trace/recorder.hpp"

namespace rtsc::obs {

struct PerfettoOptions {
    bool include_comms = true;
    bool include_markers = true;
    /// Pretty-print one event per line (slightly larger, diff-friendly).
    bool one_event_per_line = true;
    /// When set, per-job blame slices, blocking-chain instants and
    /// culprit->victim flow events are emitted (see header comment). The
    /// analyzer must have observed the same processors as the recorder.
    const Attribution* attribution = nullptr;
    /// When set (together with attribution), deadline-miss instants with
    /// their critical path are emitted on the victims' jobs tracks.
    const std::vector<Attribution::DeadlineMissReport>* misses = nullptr;
};

/// Append `s` to `out` escaped for inclusion inside a JSON string literal
/// (without the surrounding quotes). Control characters become \u00XX; all
/// other bytes, UTF-8 sequences included, pass through. A string that needs
/// no escaping is appended in one piece.
void append_json_escaped(std::string& out, std::string_view s);

/// append_json_escaped into a fresh string.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Write the whole recorder stream as Chrome trace-event JSON.
void write_perfetto_json(std::ostream& os, const trace::Recorder& rec,
                         const PerfettoOptions& opts = {});

/// Convenience: export to a file. Throws kernel::SimulationError on I/O
/// failure.
void write_perfetto_file(const std::string& path, const trace::Recorder& rec,
                         const PerfettoOptions& opts = {});

} // namespace rtsc::obs
