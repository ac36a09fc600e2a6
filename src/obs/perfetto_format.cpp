#include "obs/perfetto_format.hpp"

#include <cstdio>

#include "mcse/relation.hpp"
#include "obs/perfetto.hpp"
#include "rtos/dvfs.hpp"
#include "trace/csv.hpp"

namespace rtsc::obs::pfmt {

namespace k = rtsc::kernel;

namespace {

/// Energy in joules as a round-trippable JSON number.
std::string format_joules(rtos::Energy e) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", rtos::energy_to_joules(e));
    return buf;
}

std::string ps(k::Time t) { return std::to_string(t.raw_ps()); }

std::string time_map(const std::vector<std::pair<std::string, k::Time>>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, t] : m) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + json_escape(name) + "\": " + ps(t);
    }
    return out + "}";
}

std::string str_list(const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + json_escape(v[i]) + "\"";
    }
    return out + "]";
}

} // namespace

std::string meta_process(int pid, std::string_view name) {
    std::string e = "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": 0, \"args\": {\"name\": \"";
    e += json_escape(name);
    e += "\"}}";
    return e;
}

std::string meta_thread(int pid, int tid, std::string_view name) {
    std::string e = "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    e += ", \"args\": {\"name\": \"";
    e += json_escape(name);
    e += "\"}}";
    return e;
}

std::string slice(int pid, int tid, k::Time at, k::Time dur,
                  std::string_view cat, std::string_view name,
                  const std::string& args_json) {
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"cat\": \"";
    e += json_escape(cat);
    e += "\", \"ph\": \"X\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"dur\": ";
    e += trace::format_us(dur);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    if (!args_json.empty()) {
        e += ", \"args\": ";
        e += args_json;
    }
    e += '}';
    return e;
}

std::string instant(int pid, int tid, k::Time at, char scope,
                    std::string_view cat, std::string_view name,
                    const std::string& args_json) {
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"cat\": \"";
    e += json_escape(cat);
    e += "\", \"ph\": \"i\", \"s\": \"";
    e += scope;
    e += "\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    if (!args_json.empty()) {
        e += ", \"args\": ";
        e += args_json;
    }
    e += '}';
    return e;
}

std::string counter(int pid, k::Time at, std::string_view name, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"ph\": \"C\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": 0, \"args\": {\"value\": ";
    e += buf;
    e += "}}";
    return e;
}

std::string flow_start(std::uint64_t id, k::Time at, int pid, int tid) {
    std::string e =
        "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"s\", "
        "\"id\": ";
    e += std::to_string(id);
    e += ", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    e += '}';
    return e;
}

std::string flow_finish(std::uint64_t id, k::Time at, int pid, int tid) {
    std::string e =
        "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"f\", "
        "\"bp\": \"e\", \"id\": ";
    e += std::to_string(id);
    e += ", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    e += '}';
    return e;
}

std::string state_slice(int pid, int tid, k::Time at, k::Time dur,
                        rtos::TaskState state) {
    return slice(pid, tid, at, dur, "task_state", rtos::to_string(state));
}

std::string overhead(int pid, k::Time start, k::Time dur,
                     rtos::OverheadKind kind, const rtos::Task* about) {
    std::string args;
    if (about != nullptr)
        args = "{\"task\": \"" + json_escape(about->name()) + "\"}";
    return slice(pid, 0, start, dur, "rtos", rtos::to_string(kind), args);
}

std::string access(int pid, int tid, k::Time at, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) {
    std::string args = "{\"task\": \"";
    args += task != nullptr ? json_escape(task->name()) : "<hw>";
    args += blocked ? "\", \"blocked\": true}" : "\", \"blocked\": false}";
    return instant(pid, tid, at, 't', "comm",
                   std::string(mcse::to_string(kind)) +
                       (blocked ? " [blocked]" : ""),
                   args);
}

void emit_layout(const Sink& sink, const std::vector<rtos::Processor*>& cpus,
                 const std::vector<mcse::Relation*>& relations, bool jobs,
                 bool comms, bool markers) {
    for (std::size_t pi = 0; pi < cpus.size(); ++pi) {
        const int pid = static_cast<int>(pi) + 1;
        const auto& tasks = cpus[pi]->tasks();
        sink(meta_process(pid, cpus[pi]->name()));
        sink(meta_thread(pid, 0, cpus[pi]->name() + ".rtos"));
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            sink(meta_thread(pid, static_cast<int>(ti) + 1, tasks[ti]->name()));
        if (jobs)
            for (std::size_t ti = 0; ti < tasks.size(); ++ti)
                sink(meta_thread(pid, static_cast<int>(tasks.size() + 1 + ti),
                                 tasks[ti]->name() + ".jobs"));
    }
    const int comm_pid = static_cast<int>(cpus.size()) + 1;
    if (comms && !relations.empty()) {
        sink(meta_process(comm_pid, "comm"));
        for (std::size_t ri = 0; ri < relations.size(); ++ri)
            sink(meta_thread(comm_pid, static_cast<int>(ri) + 1,
                             relations[ri]->name() + " (" +
                                 relations[ri]->type_name() + ")"));
    }
    if (markers) sink(meta_process(comm_pid + 1, "events"));
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

void emit_attribution(const Sink& sink, const TrackIndex& tracks,
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
            std::string args = "{\"task\": \"" + json_escape(j->task) +
                               "\", \"index\": " + std::to_string(j->index) +
                               ", \"release_ps\": " + ps(j->release) +
                               ", \"end_ps\": " + ps(j->end) +
                               ", \"response_ps\": " + ps(j->response()) +
                               ", \"aborted\": " +
                               (j->aborted ? "true" : "false") +
                               ", \"exec_ps\": " + ps(j->exec) +
                               ", \"preempt_ps\": " + ps(j->preemption) +
                               ", \"block_ps\": " + ps(j->blocking) +
                               ", \"overhead_ps\": " + ps(j->overhead) +
                               ", \"interrupt_ps\": " + ps(j->interrupt) +
                               ", \"ov_sched_ps\": " + ps(j->ov_scheduling) +
                               ", \"ov_load_ps\": " + ps(j->ov_load) +
                               ", \"ov_save_ps\": " + ps(j->ov_save) +
                               ", \"ov_switch_ps\": " + ps(j->ov_switch) +
                               ", \"residual_ps\": " + ps(j->residual) +
                               // Raw model units as strings (128-bit,
                               // exact); joules as doubles for humans.
                               ", \"energy_exec_fj\": \"" +
                               rtos::energy_to_string(j->energy_exec) +
                               "\", \"energy_overhead_fj\": \"" +
                               rtos::energy_to_string(j->energy_overhead) +
                               "\", \"energy_exec_j\": " +
                               format_joules(j->energy_exec) +
                               ", \"energy_overhead_j\": " +
                               format_joules(j->energy_overhead) +
                               ", \"preempted_by\": " +
                               time_map(j->preempted_by) +
                               ", \"blocked_on\": " +
                               time_map(j->blocked_on) + "}";
            sink(slice(tr.pid, tr.jobs_tid, j->release, j->response(), "job",
                       "job #" + std::to_string(j->index) +
                           (j->aborted ? " (aborted)" : ""),
                       args));
        }
    }

    // Blocking episodes: a chain instant on the victim's jobs track plus
    // a culprit -> victim flow ("s" on the owner's state track, "f" on
    // the victim's).
    std::uint64_t flow_id = 1;
    for (const auto& e : attribution.episodes()) {
        const auto vit = tracks.find(e.victim);
        if (vit == tracks.end()) continue;
        std::string args =
            "{\"victim\": \"" + json_escape(e.victim) +
            "\", \"job\": " + std::to_string(e.job_index) +
            ", \"resource\": \"" + json_escape(e.resource) +
            "\", \"owner\": \"" + json_escape(e.owner) +
            "\", \"victim_priority\": " + std::to_string(e.victim_priority) +
            ", \"owner_priority\": " + std::to_string(e.owner_priority) +
            ", \"duration_ps\": " + ps(e.duration()) +
            ", \"inversion\": " + (e.inversion ? "true" : "false") +
            ", \"chain\": " + str_list(e.chain) +
            ", \"aggravators\": " + str_list(e.aggravators) + "}";
        sink(instant(vit->second.pid, vit->second.jobs_tid, e.start, 't',
                     "blocking_chain",
                     "blocked on " + e.resource +
                         (e.inversion ? " [inversion]" : ""),
                     args));
        const auto oit = tracks.find(e.owner);
        if (oit == tracks.end()) continue;
        sink(flow_start(flow_id, e.start, oit->second.pid,
                        oit->second.state_tid));
        sink(flow_finish(flow_id, e.end, vit->second.pid,
                         vit->second.state_tid));
        ++flow_id;
    }

    // Deadline misses with their critical path.
    if (misses != nullptr) {
        for (const auto& m : *misses) {
            const auto vit = tracks.find(m.task);
            if (vit == tracks.end()) continue;
            std::string args =
                "{\"task\": \"" + json_escape(m.task) +
                "\", \"constraint\": \"" + json_escape(m.constraint) +
                "\", \"measured_ps\": " + ps(m.measured) +
                ", \"bound_ps\": " + ps(m.bound) + ", \"critical_path\": [";
            for (std::size_t i = 0; i < m.critical_path.size(); ++i) {
                const auto& item = m.critical_path[i];
                if (i != 0) args += ", ";
                args += "{\"start_ps\": " + ps(item.start) +
                        ", \"dur_ps\": " + ps(item.duration) +
                        ", \"culprit\": \"" + json_escape(item.culprit) +
                        "\", \"reason\": \"" + json_escape(item.reason) +
                        "\"}";
            }
            args += "]}";
            sink(instant(vit->second.pid, vit->second.jobs_tid, m.at, 't',
                         "deadline_miss", "deadline miss: " + m.constraint,
                         args));
        }
    }
}

} // namespace rtsc::obs::pfmt
