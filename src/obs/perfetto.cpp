#include "obs/perfetto.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>

#include "kernel/report.hpp"
#include "obs/perfetto_format.hpp"
#include "trace/timeline.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

void append_json_escaped(std::string& out, std::string_view s) {
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t plain = 0; // start of the pending run that needs no escaping
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out += s.substr(plain, i - plain);
        plain = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
        }
    }
    out += s.substr(plain);
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    append_json_escaped(out, s);
    return out;
}

void write_perfetto_json(std::ostream& os, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    // Events render in place into a 64 KiB window that spills to `os`.
    pfmt::EventArray ev(os, 64 * 1024, opts.one_event_per_line);
    ev.open();

    const auto& cpus = rec.processors();
    const auto& rels = rec.relations();
    const int comm_pid = static_cast<int>(cpus.size()) + 1;
    const int marker_pid = comm_pid + 1;

    // --- metadata: stable pid/tid assignment (obs/perfetto_format.hpp) ----
    pfmt::emit_layout(ev, cpus, rels, opts.attribution != nullptr,
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
                ev.emit([&](std::string& out) {
                    pfmt::state_slice(out, pid, static_cast<int>(ti) + 1,
                                      seg.begin, seg.end - seg.begin,
                                      seg.state);
                });
            }
        }
    }

    // --- RTOS overhead slices (tid 0 of each processor) -------------------
    for (const auto& o : rec.overheads()) {
        if (o.duration.is_zero()) continue;
        const int pid = pfmt::track_id(cpus, o.cpu);
        if (pid == 0) continue; // overhead of an unattached processor
        ev.emit([&](std::string& out) {
            pfmt::overhead(out, pid, o.at, o.duration, o.kind, o.about);
        });
    }

    // --- causal latency attribution (jobs, chains, misses) ----------------
    // Each task's tracks are located by name (Attribution records names so
    // its results outlive the model; the recorder still has the model).
    if (opts.attribution != nullptr)
        pfmt::emit_attribution(ev, pfmt::track_index(cpus), *opts.attribution,
                               opts.misses);

    // --- communication accesses as thread instants ------------------------
    if (opts.include_comms) {
        for (const auto& c : rec.comms()) {
            const int tid = pfmt::track_id(rels, c.relation);
            if (tid == 0) continue;
            ev.emit([&](std::string& out) {
                pfmt::access(out, comm_pid, tid, c.at, c.task, c.kind,
                             c.blocked);
            });
        }
    }

    // --- fault / watchdog / deadline markers as global instants -----------
    if (opts.include_markers) {
        for (const auto& m : rec.markers())
            ev.emit([&](std::string& out) {
                pfmt::instant(out, marker_pid, 1, m.at, 'g', m.category, m.name);
            });
    }

    ev.close();
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
