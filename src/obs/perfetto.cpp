#include "obs/perfetto.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>

#include "kernel/report.hpp"
#include "obs/perfetto_format.hpp"
#include "trace/timeline.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

std::string json_escape(std::string_view s) {
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const unsigned char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    return out;
}

namespace {

/// Serialises one event per raw() call, handling the comma/newline plumbing.
/// Event strings themselves come from obs::pfmt so the streaming writer
/// emits identical bytes.
class EventStream {
public:
    EventStream(std::ostream& os, bool one_per_line)
        : os_(os), nl_(one_per_line ? "\n" : "") {}

    void begin() { os_ << "{\"traceEvents\": [" << nl_; }
    void end() { os_ << nl_ << "]}\n"; }

    void raw(const std::string& event) {
        if (!first_) os_ << ',' << nl_;
        first_ = false;
        os_ << event;
    }

private:
    std::ostream& os_;
    const char* nl_;
    bool first_ = true;
};

} // namespace

void write_perfetto_json(std::ostream& os, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    EventStream ev(os, opts.one_event_per_line);
    ev.begin();
    const pfmt::Sink sink = [&ev](std::string e) { ev.raw(e); };

    const auto& cpus = rec.processors();
    const auto& rels = rec.relations();
    const int comm_pid = static_cast<int>(cpus.size()) + 1;
    const int marker_pid = comm_pid + 1;

    // --- metadata: stable pid/tid assignment (obs/perfetto_format.hpp) ----
    pfmt::emit_layout(sink, cpus, rels, opts.attribution != nullptr,
                      opts.include_comms,
                      opts.include_markers && !rec.markers().empty());

    // --- task state slices ------------------------------------------------
    // Segments from one task never overlap (they partition the trace), so
    // every (pid, tid) track holds strictly sequential slices.
    const trace::Timeline tl(rec);
    for (std::size_t pi = 0; pi < cpus.size(); ++pi) {
        const int pid = static_cast<int>(pi) + 1;
        const auto& tasks = cpus[pi]->tasks();
        for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
            for (const auto& seg : tl.segments(*tasks[ti])) {
                if (!pfmt::visible(seg.state) || seg.end <= seg.begin)
                    continue;
                ev.raw(pfmt::state_slice(pid, static_cast<int>(ti) + 1,
                                         seg.begin, seg.end - seg.begin,
                                         seg.state));
            }
        }
    }

    // --- RTOS overhead slices (tid 0 of each processor) -------------------
    for (const auto& o : rec.overheads()) {
        if (o.duration.is_zero()) continue;
        const int pid = pfmt::track_id(cpus, o.cpu);
        if (pid == 0) continue; // overhead of an unattached processor
        ev.raw(pfmt::overhead(pid, o.at, o.duration, o.kind, o.about));
    }

    // --- causal latency attribution (jobs, chains, misses) ----------------
    // Each task's tracks are located by name (Attribution records names so
    // its results outlive the model; the recorder still has the model).
    if (opts.attribution != nullptr)
        pfmt::emit_attribution(sink, pfmt::track_index(cpus),
                               *opts.attribution, opts.misses);

    // --- communication accesses as thread instants ------------------------
    if (opts.include_comms) {
        for (const auto& c : rec.comms()) {
            const int tid = pfmt::track_id(rels, c.relation);
            if (tid == 0) continue;
            ev.raw(pfmt::access(comm_pid, tid, c.at, c.task, c.kind,
                                c.blocked));
        }
    }

    // --- fault / watchdog / deadline markers as global instants -----------
    if (opts.include_markers) {
        for (const auto& m : rec.markers())
            ev.raw(pfmt::instant(marker_pid, 1, m.at, 'g', m.category, m.name));
    }

    ev.end();
}

void write_perfetto_file(const std::string& path, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    std::ofstream os(path);
    if (!os)
        throw k::SimulationError("cannot open perfetto output file: " + path);
    write_perfetto_json(os, rec, opts);
    os.flush();
    if (!os)
        throw k::SimulationError("failed writing perfetto output file: " + path);
}

} // namespace rtsc::obs
