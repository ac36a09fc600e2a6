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
    std::string out;
    out.reserve(s.size());
    append_json_escaped(out, s);
    return out;
}

void write_perfetto_json(std::ostream& os, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    // Events render in place into a 64 KiB window that spills to `os`.
    pfmt::EventArray ev(os, 64 * 1024);
    ev.open();

    const auto& cpus = rec.processors();
    const auto& rels = rec.relations();
    const int marker_pid = static_cast<int>(cpus.size()) + 2;

    // --- metadata: stable pid/tid assignment (obs/perfetto_format.hpp) ----
    pfmt::emit_layout(ev, cpus, rels, opts.attribution != nullptr,
                      !rec.markers().empty());

    // --- task state slices ------------------------------------------------
    // Segments from one task never overlap (they partition the trace), so
    // every (pid, tid) track holds strictly sequential slices.
    pfmt::Tracks tracks(cpus, rels);
    const trace::Timeline tl(rec);
    for (const rtos::Processor* cpu : cpus) {
        for (const auto& task : cpu->tasks()) {
            const pfmt::TaskTrack& track = tracks.task(*task);
            for (const auto& seg : tl.segments(*task)) {
                if (!pfmt::visible(seg.state) || seg.end <= seg.begin)
                    continue;
                ev.emit([&](pfmt::Buffer& out) {
                    pfmt::state_slice(out, track, seg.begin,
                                      seg.end - seg.begin, seg.state);
                });
            }
        }
    }

    // --- RTOS overhead slices (tid 0 of each processor) -------------------
    for (const auto& o : rec.overheads()) {
        if (o.duration.is_zero()) continue;
        const std::string* track = tracks.rtos_track(*o.cpu);
        if (track == nullptr) continue; // overhead of an unattached processor
        const pfmt::TaskTrack* about =
            o.about != nullptr ? &tracks.task(*o.about) : nullptr;
        ev.emit([&](pfmt::Buffer& out) {
            pfmt::overhead(out, *track, o.at, o.duration, o.kind, about);
        });
    }

    // --- causal latency attribution (jobs, chains, misses) ----------------
    // Each task's tracks are located by name (Attribution records names so
    // its results outlive the model; the recorder still has the model).
    if (opts.attribution != nullptr)
        pfmt::emit_attribution(ev, pfmt::track_index(cpus), *opts.attribution,
                               opts.misses);

    // --- communication accesses as thread instants ------------------------
    for (const auto& c : rec.comms()) {
        const std::string* track = tracks.relation_track(*c.relation);
        if (track == nullptr) continue;
        const pfmt::TaskTrack* task =
            c.task != nullptr ? &tracks.task(*c.task) : nullptr;
        ev.emit([&](pfmt::Buffer& out) {
            pfmt::access(out, *track, c.at, task, c.kind, c.blocked);
        });
    }

    // --- fault / watchdog / deadline markers as global instants -----------
    for (const auto& m : rec.markers())
        ev.emit([&](pfmt::Buffer& out) {
            pfmt::instant(out, marker_pid, 1, m.at, 'g', m.category, m.name);
        });

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
