#include "obs/perfetto_format.hpp"

#include <charconv>
#include <concepts>
#include <ostream>

#include "mcse/relation.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "rtos/dvfs.hpp"
#include "trace/csv.hpp"

namespace rtsc::obs::pfmt {

namespace k = rtsc::kernel;

namespace {

/// Text JSON-escaped into the event.
struct Esc {
    std::string_view text;
};
/// A time in exact microseconds (trace::append_us).
struct Us {
    k::Time t;
};
/// A time in raw picoseconds.
struct Ps {
    k::Time t;
};
/// A double rendered exactly as printf's %.17g.
struct Real {
    double v;
};

/// Appends to one event in place: text verbatim, integers through
/// std::to_chars, and the tagged values above.
class Out {
public:
    explicit Out(std::string& s) noexcept : s_(s) {}

    Out& operator<<(std::string_view v) {
        s_ += v;
        return *this;
    }
    Out& operator<<(char c) {
        s_ += c;
        return *this;
    }
    template <std::integral I>
    Out& operator<<(I v) {
        char buf[24];
        s_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }
    Out& operator<<(Esc e) {
        append_json_escaped(s_, e.text);
        return *this;
    }
    Out& operator<<(Us u) {
        trace::append_us(s_, u.t);
        return *this;
    }
    Out& operator<<(Ps p) { return *this << p.t.raw_ps(); }
    Out& operator<<(Real r) {
        append_g17(s_, r.v);
        return *this;
    }

private:
    std::string& s_;
};

// An event opens with `{"name": "` and its escaped name; these append the
// fields that follow the name. Args, if any, come next as `, "args": {...}`
// and `}` closes the event.

void slice_fields(Out& o, int pid, int tid, k::Time at, k::Time dur,
                  std::string_view cat) {
    o << "\", \"cat\": \"" << Esc{cat} << "\", \"ph\": \"X\", \"ts\": " << Us{at}
      << ", \"dur\": " << Us{dur} << ", \"pid\": " << pid << ", \"tid\": " << tid;
}

void instant_fields(Out& o, int pid, int tid, k::Time at, char scope,
                    std::string_view cat) {
    o << "\", \"cat\": \"" << Esc{cat} << "\", \"ph\": \"i\", \"s\": \"" << scope
      << "\", \"ts\": " << Us{at} << ", \"pid\": " << pid << ", \"tid\": " << tid;
}

/// `{"name": "<kind>_name", "ph": "M", ...` up to the open name argument.
void meta_head(Out& o, std::string_view kind, int pid, int tid) {
    o << "{\"name\": \"" << kind << "_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"args\": {\"name\": \"";
}

void time_map(Out& o, const std::vector<std::pair<std::string, k::Time>>& m) {
    o << '{';
    for (std::size_t i = 0; i < m.size(); ++i)
        o << (i != 0 ? ", \"" : "\"") << Esc{m[i].first} << "\": "
          << Ps{m[i].second};
    o << '}';
}

void str_list(Out& o, const std::vector<std::string>& v) {
    o << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        o << (i != 0 ? ", \"" : "\"") << Esc{v[i]} << '"';
    o << ']';
}

std::string_view boolean(bool b) { return b ? "true" : "false"; }

/// Flow endpoints ("s" start, "f" finish) of a culprit->victim blocking
/// arrow.
void flow_start(std::string& out, std::uint64_t id, k::Time at, int pid,
                int tid) {
    Out(out) << "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"s\", "
                "\"id\": "
             << id << ", \"ts\": " << Us{at} << ", \"pid\": " << pid
             << ", \"tid\": " << tid << '}';
}

void flow_finish(std::string& out, std::uint64_t id, k::Time at, int pid,
                 int tid) {
    Out(out) << "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"f\", "
                "\"bp\": \"e\", \"id\": "
             << id << ", \"ts\": " << Us{at} << ", \"pid\": " << pid
             << ", \"tid\": " << tid << '}';
}

} // namespace

EventArray::EventArray(std::ostream& os, std::size_t window_bytes,
                       bool one_per_line)
    : os_(os), limit_(window_bytes), sep_(one_per_line ? ",\n" : ",") {}

void EventArray::open() {
    os_ << "{\"traceEvents\": [" << sep_.substr(1); // the newline, if any
}

void EventArray::flush() {
    if (window_.empty()) return;
    os_ << window_;
    stats_.spooled_bytes += window_.size();
    ++stats_.flushes;
    window_.clear();
    stats_.window_bytes = 0;
}

void EventArray::close() {
    flush();
    os_ << sep_.substr(1) << "]}\n";
}

void meta_process(std::string& out, int pid, std::string_view name) {
    Out o(out);
    meta_head(o, "process", pid, 0);
    o << Esc{name} << "\"}}";
}

void instant(std::string& out, int pid, int tid, k::Time at, char scope,
             std::string_view cat, std::string_view name) {
    Out o(out);
    o << "{\"name\": \"" << Esc{name};
    instant_fields(o, pid, tid, at, scope, cat);
    o << '}';
}

void counter(std::string& out, int pid, k::Time at, std::string_view name,
             double value) {
    Out(out) << "{\"name\": \"" << Esc{name} << "\", \"ph\": \"C\", \"ts\": "
             << Us{at} << ", \"pid\": " << pid
             << ", \"tid\": 0, \"args\": {\"value\": " << Real{value} << "}}";
}

void state_slice(std::string& out, int pid, int tid, k::Time at, k::Time dur,
                 rtos::TaskState state) {
    Out o(out);
    o << "{\"name\": \"" << Esc{rtos::to_string(state)};
    slice_fields(o, pid, tid, at, dur, "task_state");
    o << '}';
}

void overhead(std::string& out, int pid, k::Time start, k::Time dur,
              rtos::OverheadKind kind, const rtos::Task* about) {
    Out o(out);
    o << "{\"name\": \"" << Esc{rtos::to_string(kind)};
    slice_fields(o, pid, 0, start, dur, "rtos");
    if (about != nullptr)
        o << ", \"args\": {\"task\": \"" << Esc{about->name()} << "\"}";
    o << '}';
}

void access(std::string& out, int pid, int tid, k::Time at,
            const rtos::Task* task, mcse::AccessKind kind, bool blocked) {
    Out o(out);
    o << "{\"name\": \"" << Esc{mcse::to_string(kind)}
      << (blocked ? " [blocked]" : "");
    instant_fields(o, pid, tid, at, 't', "comm");
    o << ", \"args\": {\"task\": \"";
    if (task != nullptr)
        o << Esc{task->name()};
    else
        o << "<hw>";
    o << "\", \"blocked\": " << boolean(blocked) << "}}";
}

void emit_layout(EventArray& events, const std::vector<rtos::Processor*>& cpus,
                 const std::vector<mcse::Relation*>& relations, bool jobs,
                 bool comms, bool markers) {
    // A thread named `<name><suffix>`.
    const auto thread = [&events](int pid, int tid, std::string_view name,
                                  std::string_view suffix) {
        events.emit([&](std::string& out) {
            Out o(out);
            meta_head(o, "thread", pid, tid);
            o << Esc{name} << Esc{suffix} << "\"}}";
        });
    };
    for (std::size_t pi = 0; pi < cpus.size(); ++pi) {
        const int pid = static_cast<int>(pi) + 1;
        const auto& tasks = cpus[pi]->tasks();
        events.emit([&](std::string& out) {
            meta_process(out, pid, cpus[pi]->name());
        });
        thread(pid, 0, cpus[pi]->name(), ".rtos");
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            thread(pid, static_cast<int>(ti) + 1, tasks[ti]->name(), {});
        if (jobs)
            for (std::size_t ti = 0; ti < tasks.size(); ++ti)
                thread(pid, static_cast<int>(tasks.size() + 1 + ti),
                       tasks[ti]->name(), ".jobs");
    }
    const int comm_pid = static_cast<int>(cpus.size()) + 1;
    if (comms && !relations.empty()) {
        events.emit(
            [&](std::string& out) { meta_process(out, comm_pid, "comm"); });
        for (std::size_t ri = 0; ri < relations.size(); ++ri)
            events.emit([&](std::string& out) {
                Out o(out);
                meta_head(o, "thread", comm_pid, static_cast<int>(ri) + 1);
                o << Esc{relations[ri]->name()} << " ("
                  << Esc{relations[ri]->type_name()} << ")\"}}";
            });
    }
    if (markers)
        events.emit(
            [&](std::string& out) { meta_process(out, comm_pid + 1, "events"); });
}

TrackIndex track_index(const std::vector<rtos::Processor*>& cpus) {
    TrackIndex tracks;
    for (std::size_t pi = 0; pi < cpus.size(); ++pi) {
        const auto& tasks = cpus[pi]->tasks();
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            tracks.emplace(tasks[ti]->name(),
                           Track{static_cast<int>(pi) + 1,
                                 static_cast<int>(ti) + 1,
                                 static_cast<int>(tasks.size() + 1 + ti)});
    }
    return tracks;
}

void emit_attribution(EventArray& events, const TrackIndex& tracks,
                      const Attribution& attribution,
                      const std::vector<Attribution::DeadlineMissReport>* misses) {
    // One complete slice per job on the task's jobs track, blame
    // decomposition as args in exact picoseconds. Jobs of one task are
    // recorded in completion order == release order, so each track stays
    // monotonic; zero-response jobs are dropped (the validator rejects
    // zero-width slices) — their decomposition is all-zero anyway.
    for (const auto& [name, tr] : tracks) {
        for (const auto* j : attribution.jobs_for(name)) {
            if (j->response().is_zero()) continue;
            events.emit([&, &tr = tr](std::string& out) {
                Out o(out);
                o << "{\"name\": \"job #" << j->index
                  << (j->aborted ? " (aborted)" : "");
                slice_fields(o, tr.pid, tr.jobs_tid, j->release, j->response(),
                             "job");
                o << ", \"args\": {\"task\": \"" << Esc{j->task}
                  << "\", \"index\": " << j->index
                  << ", \"release_ps\": " << Ps{j->release}
                  << ", \"end_ps\": " << Ps{j->end}
                  << ", \"response_ps\": " << Ps{j->response()}
                  << ", \"aborted\": " << boolean(j->aborted)
                  << ", \"exec_ps\": " << Ps{j->exec}
                  << ", \"preempt_ps\": " << Ps{j->preemption}
                  << ", \"block_ps\": " << Ps{j->blocking}
                  << ", \"overhead_ps\": " << Ps{j->overhead}
                  << ", \"interrupt_ps\": " << Ps{j->interrupt}
                  << ", \"ov_sched_ps\": " << Ps{j->ov_scheduling}
                  << ", \"ov_load_ps\": " << Ps{j->ov_load}
                  << ", \"ov_save_ps\": " << Ps{j->ov_save}
                  << ", \"ov_switch_ps\": " << Ps{j->ov_switch}
                  << ", \"residual_ps\": " << Ps{j->residual}
                  // Raw model units as strings (128-bit, exact); joules as
                  // doubles for humans.
                  << ", \"energy_exec_fj\": \""
                  << rtos::energy_to_string(j->energy_exec)
                  << "\", \"energy_overhead_fj\": \""
                  << rtos::energy_to_string(j->energy_overhead)
                  << "\", \"energy_exec_j\": "
                  << Real{rtos::energy_to_joules(j->energy_exec)}
                  << ", \"energy_overhead_j\": "
                  << Real{rtos::energy_to_joules(j->energy_overhead)}
                  << ", \"preempted_by\": ";
                time_map(o, j->preempted_by);
                o << ", \"blocked_on\": ";
                time_map(o, j->blocked_on);
                o << "}}";
            });
        }
    }

    // Blocking episodes: a chain instant on the victim's jobs track plus
    // a culprit -> victim flow ("s" on the owner's state track, "f" on
    // the victim's).
    std::uint64_t flow_id = 1;
    for (const auto& e : attribution.episodes()) {
        const auto vit = tracks.find(e.victim);
        if (vit == tracks.end()) continue;
        const Track& victim = vit->second;
        events.emit([&](std::string& out) {
            Out o(out);
            o << "{\"name\": \"blocked on " << Esc{e.resource}
              << (e.inversion ? " [inversion]" : "");
            instant_fields(o, victim.pid, victim.jobs_tid, e.start, 't',
                           "blocking_chain");
            o << ", \"args\": {\"victim\": \"" << Esc{e.victim}
              << "\", \"job\": " << e.job_index << ", \"resource\": \""
              << Esc{e.resource} << "\", \"owner\": \"" << Esc{e.owner}
              << "\", \"victim_priority\": " << e.victim_priority
              << ", \"owner_priority\": " << e.owner_priority
              << ", \"duration_ps\": " << Ps{e.duration()}
              << ", \"inversion\": " << boolean(e.inversion) << ", \"chain\": ";
            str_list(o, e.chain);
            o << ", \"aggravators\": ";
            str_list(o, e.aggravators);
            o << "}}";
        });
        const auto oit = tracks.find(e.owner);
        if (oit == tracks.end()) continue;
        const Track& owner = oit->second;
        events.emit([&](std::string& out) {
            flow_start(out, flow_id, e.start, owner.pid, owner.state_tid);
        });
        events.emit([&](std::string& out) {
            flow_finish(out, flow_id, e.end, victim.pid, victim.state_tid);
        });
        ++flow_id;
    }

    // Deadline misses with their critical path.
    if (misses == nullptr) return;
    for (const auto& m : *misses) {
        const auto vit = tracks.find(m.task);
        if (vit == tracks.end()) continue;
        events.emit([&](std::string& out) {
            Out o(out);
            o << "{\"name\": \"deadline miss: " << Esc{m.constraint};
            instant_fields(o, vit->second.pid, vit->second.jobs_tid, m.at, 't',
                           "deadline_miss");
            o << ", \"args\": {\"task\": \"" << Esc{m.task}
              << "\", \"constraint\": \"" << Esc{m.constraint}
              << "\", \"measured_ps\": " << Ps{m.measured}
              << ", \"bound_ps\": " << Ps{m.bound} << ", \"critical_path\": [";
            for (std::size_t i = 0; i < m.critical_path.size(); ++i) {
                const auto& item = m.critical_path[i];
                o << (i != 0 ? ", " : "") << "{\"start_ps\": " << Ps{item.start}
                  << ", \"dur_ps\": " << Ps{item.duration} << ", \"culprit\": \""
                  << Esc{item.culprit} << "\", \"reason\": \""
                  << Esc{item.reason} << "\"}";
            }
            o << "]}}";
        });
    }
}

} // namespace rtsc::obs::pfmt
