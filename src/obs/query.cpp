#include "obs/query.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp" // json_escape

namespace rtsc::obs::query {

namespace {

// Single-line messages on purpose: tools/trace_query prefixes them with
// "trace_query: " and they are the tool's whole error output.
[[noreturn]] void bad(const std::string& what) {
    throw std::runtime_error(what);
}

const json::Value& need(const json::Value& obj, const std::string& key) {
    const json::Value* v = obj.get(key);
    if (v == nullptr) bad("missing \"" + key + "\" in attribution args");
    return *v;
}

double need_num(const json::Value& obj, const std::string& key) {
    const json::Value& v = need(obj, key);
    if (!v.is_number()) bad("\"" + key + "\" is not a number");
    return v.num;
}

/// An integer field: integral and within T's range (doubles carry every
/// integer the exporter writes exactly).
template <class T>
T need_int(const json::Value& obj, const std::string& key) {
    const double v = need_num(obj, key);
    // T's values are [min(), 2^digits); both bounds are exact doubles, and
    // the comparisons are false for NaN.
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(v >= lo && v < hi) || std::trunc(v) != v)
        bad("\"" + key + "\" is not an integer in range");
    return static_cast<T>(v);
}

std::string need_str(const json::Value& obj, const std::string& key) {
    const json::Value& v = need(obj, key);
    if (!v.is_string()) bad("\"" + key + "\" is not a string");
    return v.str;
}

bool need_bool(const json::Value& obj, const std::string& key) {
    const json::Value& v = need(obj, key);
    if (v.kind != json::Value::Kind::boolean)
        bad("\"" + key + "\" is not a boolean");
    return v.b;
}

std::vector<std::pair<std::string, double>> need_time_map(
    const json::Value& obj, const std::string& key) {
    const json::Value& v = need(obj, key);
    if (!v.is_object()) bad("\"" + key + "\" is not an object");
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, val] : v.obj) {
        if (!val->is_number()) bad("\"" + key + "\" value is not a number");
        out.emplace_back(name, val->num);
    }
    return out; // std::map iteration: already name-sorted like the exporter
}

std::vector<std::string> need_str_list(const json::Value& obj,
                                       const std::string& key) {
    const json::Value& v = need(obj, key);
    if (!v.is_array()) bad("\"" + key + "\" is not an array");
    std::vector<std::string> out;
    for (const auto& e : v.arr) {
        if (!e->is_string()) bad("\"" + key + "\" element is not a string");
        out.push_back(e->str);
    }
    return out;
}

/// Event ts is exact decimal microseconds; recover integral picoseconds.
double ts_to_ps(double ts_us) { return std::llround(ts_us * 1e6); }

/// Picoseconds (integral, carried in a double) -> "123.456" microseconds.
std::string fmt_us(double ps) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << ps / 1e6;
    return os.str();
}

/// Picoseconds as an exact JSON integer.
std::string ips(double ps) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(0);
    os << ps;
    return os.str();
}

std::string q(const std::string& s) { return "\"" + json_escape(s) + "\""; }

/// Round-trippable JSON number for joule doubles.
std::string jnum(double v) {
    std::string out;
    append_g17(out, v);
    return out;
}

std::string json_time_map(
    const std::vector<std::pair<std::string, double>>& m) {
    std::string out = "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (i != 0) out += ", ";
        out += q(m[i].first) + ": " + ips(m[i].second);
    }
    return out + "}";
}

std::string json_str_list(const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        out += q(v[i]);
    }
    return out + "]";
}

/// "taskA 12.000us, taskB 3.500us" culprit breakdown.
std::string culprit_line(const std::vector<std::pair<std::string, double>>& m) {
    std::string out;
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (i != 0) out += ", ";
        out += m[i].first + " " + fmt_us(m[i].second) + "us";
    }
    return out;
}

} // namespace

TraceData load(const std::string& path) {
    std::ifstream is(path);
    if (!is) bad("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    const json::ValuePtr root = json::parse(text);
    if (!root->is_object()) bad("top level is not an object");
    const json::Value* events = root->get("traceEvents");
    if (events == nullptr || !events->is_array())
        bad("missing \"traceEvents\" array");

    TraceData d;
    for (const auto& evp : events->arr) {
        const json::Value& ev = *evp;
        if (!ev.is_object()) bad("event is not an object");
        const json::Value* cat = ev.get("cat");
        if (cat == nullptr || !cat->is_string()) continue; // metadata / flows
        const json::Value* args = ev.get("args");

        if (cat->str == "job") {
            if (args == nullptr || !args->is_object()) bad("job without args");
            JobRow r;
            r.task = need_str(*args, "task");
            r.index = need_int<std::uint64_t>(*args, "index");
            r.release_ps = need_num(*args, "release_ps");
            r.end_ps = need_num(*args, "end_ps");
            r.response_ps = need_num(*args, "response_ps");
            r.aborted = need_bool(*args, "aborted");
            r.exec_ps = need_num(*args, "exec_ps");
            r.preempt_ps = need_num(*args, "preempt_ps");
            r.block_ps = need_num(*args, "block_ps");
            r.overhead_ps = need_num(*args, "overhead_ps");
            r.interrupt_ps = need_num(*args, "interrupt_ps");
            // Energy fields joined the schema with the DVFS model; older
            // exports lack them, so they parse as optional as a group.
            if (args->get("energy_exec_j") != nullptr) {
                r.has_energy = true;
                r.energy_exec_j = need_num(*args, "energy_exec_j");
                r.energy_overhead_j = need_num(*args, "energy_overhead_j");
                r.energy_exec_fj = need_str(*args, "energy_exec_fj");
                r.energy_overhead_fj = need_str(*args, "energy_overhead_fj");
            }
            r.preempted_by = need_time_map(*args, "preempted_by");
            r.blocked_on = need_time_map(*args, "blocked_on");
            d.jobs.push_back(std::move(r));
        } else if (cat->str == "blocking_chain") {
            if (args == nullptr || !args->is_object())
                bad("blocking_chain without args");
            ChainRow r;
            r.victim = need_str(*args, "victim");
            r.job = need_int<std::uint64_t>(*args, "job");
            r.resource = need_str(*args, "resource");
            r.owner = need_str(*args, "owner");
            r.victim_priority = need_int<int>(*args, "victim_priority");
            r.owner_priority = need_int<int>(*args, "owner_priority");
            r.start_ps = ts_to_ps(need_num(ev, "ts"));
            r.duration_ps = need_num(*args, "duration_ps");
            r.inversion = need_bool(*args, "inversion");
            r.chain = need_str_list(*args, "chain");
            r.aggravators = need_str_list(*args, "aggravators");
            d.chains.push_back(std::move(r));
        } else if (cat->str == "deadline_miss") {
            if (args == nullptr || !args->is_object())
                bad("deadline_miss without args");
            MissRow r;
            r.task = need_str(*args, "task");
            r.constraint = need_str(*args, "constraint");
            r.at_ps = ts_to_ps(need_num(ev, "ts"));
            r.measured_ps = need_num(*args, "measured_ps");
            r.bound_ps = need_num(*args, "bound_ps");
            const json::Value& path_v = need(*args, "critical_path");
            if (!path_v.is_array()) bad("\"critical_path\" is not an array");
            for (const auto& item : path_v.arr) {
                if (!item->is_object()) bad("critical_path item not an object");
                MissRow::PathItem p;
                p.start_ps = need_num(*item, "start_ps");
                p.dur_ps = need_num(*item, "dur_ps");
                p.culprit = need_str(*item, "culprit");
                p.reason = need_str(*item, "reason");
                r.critical_path.push_back(std::move(p));
            }
            d.misses.push_back(std::move(r));
        }
    }

    std::stable_sort(d.jobs.begin(), d.jobs.end(),
                     [](const JobRow& a, const JobRow& b) {
                         if (a.task != b.task) return a.task < b.task;
                         return a.index < b.index;
                     });
    std::stable_sort(d.chains.begin(), d.chains.end(),
                     [](const ChainRow& a, const ChainRow& b) {
                         return a.start_ps < b.start_ps;
                     });
    return d;
}

std::string render_blame(const TraceData& d, const std::string& task_filter,
                         bool json) {
    std::vector<const JobRow*> rows;
    for (const auto& j : d.jobs)
        if (task_filter.empty() || j.task == task_filter) rows.push_back(&j);

    // Per-task summary: count, worst response, component totals.
    struct Sum {
        std::string task;
        std::size_t jobs = 0;
        std::size_t aborted = 0;
        double worst = 0;
        double exec = 0, preempt = 0, block = 0, overhead = 0, interrupt = 0;
        bool has_energy = false;
        double energy_exec_j = 0, energy_overhead_j = 0;
    };
    std::vector<Sum> sums;
    for (const JobRow* j : rows) {
        auto it = std::find_if(sums.begin(), sums.end(), [&](const Sum& s) {
            return s.task == j->task;
        });
        if (it == sums.end()) {
            sums.push_back(Sum{j->task});
            it = sums.end() - 1;
        }
        ++it->jobs;
        if (j->aborted) ++it->aborted;
        it->worst = std::max(it->worst, j->response_ps);
        it->exec += j->exec_ps;
        it->preempt += j->preempt_ps;
        it->block += j->block_ps;
        it->overhead += j->overhead_ps;
        it->interrupt += j->interrupt_ps;
        if (j->has_energy) {
            it->has_energy = true;
            it->energy_exec_j += j->energy_exec_j;
            it->energy_overhead_j += j->energy_overhead_j;
        }
    }

    std::ostringstream os;
    if (json) {
        os << "{\"jobs\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const JobRow& j = *rows[i];
            if (i != 0) os << ", ";
            os << "{\"task\": " << q(j.task) << ", \"index\": " << j.index
               << ", \"release_ps\": " << ips(j.release_ps)
               << ", \"end_ps\": " << ips(j.end_ps)
               << ", \"response_ps\": " << ips(j.response_ps)
               << ", \"aborted\": " << (j.aborted ? "true" : "false")
               << ", \"exec_ps\": " << ips(j.exec_ps)
               << ", \"preempt_ps\": " << ips(j.preempt_ps)
               << ", \"block_ps\": " << ips(j.block_ps)
               << ", \"overhead_ps\": " << ips(j.overhead_ps)
               << ", \"interrupt_ps\": " << ips(j.interrupt_ps);
            if (j.has_energy)
                os << ", \"energy_exec_fj\": " << q(j.energy_exec_fj)
                   << ", \"energy_overhead_fj\": " << q(j.energy_overhead_fj)
                   << ", \"energy_exec_j\": " << jnum(j.energy_exec_j)
                   << ", \"energy_overhead_j\": " << jnum(j.energy_overhead_j);
            os << ", \"preempted_by\": " << json_time_map(j.preempted_by)
               << ", \"blocked_on\": " << json_time_map(j.blocked_on) << "}";
        }
        os << "], \"summary\": [";
        for (std::size_t i = 0; i < sums.size(); ++i) {
            const Sum& s = sums[i];
            if (i != 0) os << ", ";
            os << "{\"task\": " << q(s.task) << ", \"jobs\": " << s.jobs
               << ", \"aborted\": " << s.aborted
               << ", \"worst_response_ps\": " << ips(s.worst)
               << ", \"exec_ps\": " << ips(s.exec)
               << ", \"preempt_ps\": " << ips(s.preempt)
               << ", \"block_ps\": " << ips(s.block)
               << ", \"overhead_ps\": " << ips(s.overhead)
               << ", \"interrupt_ps\": " << ips(s.interrupt);
            if (s.has_energy)
                os << ", \"energy_exec_j\": " << jnum(s.energy_exec_j)
                   << ", \"energy_overhead_j\": " << jnum(s.energy_overhead_j);
            os << "}";
        }
        os << "]}\n";
        return os.str();
    }

    if (rows.empty()) {
        os << "no jobs"
           << (task_filter.empty() ? "" : " for task " + task_filter)
           << " (was the trace exported with attribution?)\n";
        return os.str();
    }
    for (const JobRow* jp : rows) {
        const JobRow& j = *jp;
        os << j.task << " #" << j.index << (j.aborted ? " (aborted)" : "")
           << ": release " << fmt_us(j.release_ps) << "us, response "
           << fmt_us(j.response_ps) << "us\n"
           << "    exec " << fmt_us(j.exec_ps) << "us, preempted "
           << fmt_us(j.preempt_ps) << "us, blocked " << fmt_us(j.block_ps)
           << "us, rtos " << fmt_us(j.overhead_ps) << "us, interrupt "
           << fmt_us(j.interrupt_ps) << "us\n";
        if (j.has_energy)
            os << "    energy " << jnum(j.energy_exec_j) << " J exec + "
               << jnum(j.energy_overhead_j) << " J rtos\n";
        if (!j.preempted_by.empty())
            os << "    preempted by: " << culprit_line(j.preempted_by) << "\n";
        if (!j.blocked_on.empty())
            os << "    blocked on:   " << culprit_line(j.blocked_on) << "\n";
    }
    os << "--\n";
    for (const Sum& s : sums) {
        os << s.task << ": " << s.jobs << " job" << (s.jobs == 1 ? "" : "s");
        if (s.aborted != 0) os << " (" << s.aborted << " aborted)";
        os << ", worst response " << fmt_us(s.worst) << "us | exec "
           << fmt_us(s.exec) << "us, preempted " << fmt_us(s.preempt)
           << "us, blocked " << fmt_us(s.block) << "us, rtos "
           << fmt_us(s.overhead) << "us, interrupt " << fmt_us(s.interrupt)
           << "us";
        if (s.has_energy)
            os << " | energy " << jnum(s.energy_exec_j) << " J exec + "
               << jnum(s.energy_overhead_j) << " J rtos";
        os << "\n";
    }
    return os.str();
}

std::string render_chains(const TraceData& d, bool inversions_only,
                          bool json) {
    std::vector<const ChainRow*> rows;
    for (const auto& c : d.chains)
        if (!inversions_only || c.inversion) rows.push_back(&c);

    std::ostringstream os;
    if (json) {
        os << "{\"chains\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const ChainRow& c = *rows[i];
            if (i != 0) os << ", ";
            os << "{\"victim\": " << q(c.victim) << ", \"job\": " << c.job
               << ", \"resource\": " << q(c.resource)
               << ", \"owner\": " << q(c.owner)
               << ", \"victim_priority\": " << c.victim_priority
               << ", \"owner_priority\": " << c.owner_priority
               << ", \"start_ps\": " << ips(c.start_ps)
               << ", \"duration_ps\": " << ips(c.duration_ps)
               << ", \"inversion\": " << (c.inversion ? "true" : "false")
               << ", \"chain\": " << json_str_list(c.chain)
               << ", \"aggravators\": " << json_str_list(c.aggravators)
               << "}";
        }
        os << "]}\n";
        return os.str();
    }

    if (rows.empty()) {
        os << (inversions_only ? "no priority inversions\n"
                               : "no blocking episodes\n");
        return os.str();
    }
    for (const ChainRow* cp : rows) {
        const ChainRow& c = *cp;
        os << "t=" << fmt_us(c.start_ps) << "us " << c.victim << " (prio "
           << c.victim_priority << ") blocked " << fmt_us(c.duration_ps)
           << "us on " << c.resource;
        if (!c.owner.empty())
            os << " held by " << c.owner << " (prio " << c.owner_priority
               << ")";
        if (c.inversion) os << " [PRIORITY INVERSION]";
        os << "\n    chain: ";
        for (std::size_t i = 0; i < c.chain.size(); ++i)
            os << (i != 0 ? " -> " : "") << c.chain[i];
        os << "\n";
        if (!c.aggravators.empty()) {
            os << "    aggravated by: ";
            for (std::size_t i = 0; i < c.aggravators.size(); ++i)
                os << (i != 0 ? ", " : "") << c.aggravators[i];
            os << "\n";
        }
    }
    return os.str();
}

std::string render_misses(const TraceData& d, bool json) {
    std::ostringstream os;
    if (json) {
        os << "{\"misses\": [";
        for (std::size_t i = 0; i < d.misses.size(); ++i) {
            const MissRow& m = d.misses[i];
            if (i != 0) os << ", ";
            os << "{\"task\": " << q(m.task)
               << ", \"constraint\": " << q(m.constraint)
               << ", \"at_ps\": " << ips(m.at_ps)
               << ", \"measured_ps\": " << ips(m.measured_ps)
               << ", \"bound_ps\": " << ips(m.bound_ps)
               << ", \"critical_path\": [";
            for (std::size_t p = 0; p < m.critical_path.size(); ++p) {
                const auto& item = m.critical_path[p];
                if (p != 0) os << ", ";
                os << "{\"start_ps\": " << ips(item.start_ps)
                   << ", \"dur_ps\": " << ips(item.dur_ps)
                   << ", \"culprit\": " << q(item.culprit)
                   << ", \"reason\": " << q(item.reason) << "}";
            }
            os << "]}";
        }
        os << "]}\n";
        return os.str();
    }

    if (d.misses.empty()) {
        os << "no deadline misses\n";
        return os.str();
    }
    for (const MissRow& m : d.misses) {
        os << m.constraint << ": " << m.task << " measured "
           << fmt_us(m.measured_ps) << "us > bound " << fmt_us(m.bound_ps)
           << "us (at " << fmt_us(m.at_ps) << "us)\n";
        for (const auto& item : m.critical_path)
            os << "    " << fmt_us(item.start_ps) << "us +"
               << fmt_us(item.dur_ps) << "us  " << item.reason << "\n";
    }
    return os.str();
}

} // namespace rtsc::obs::query
