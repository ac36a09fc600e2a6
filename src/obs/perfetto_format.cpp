#include "obs/perfetto_format.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <iterator>
#include <ostream>
#include <span>
#include <utility>

#include "mcse/relation.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "rtos/dvfs.hpp"
#include "trace/csv.hpp"

namespace rtsc::obs {

namespace {

/// JSON string escaping into any sink with append() and push_back().
template <class Sink>
void escape_into(Sink& out, std::string_view s) {
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t plain = 0; // start of the pending run that needs no escaping
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.substr(plain, i - plain));
        plain = i + 1;
        switch (c) {
            case '"': out.append("\\\""); break;
            case '\\': out.append("\\\\"); break;
            case '\b': out.append("\\b"); break;
            case '\f': out.append("\\f"); break;
            case '\n': out.append("\\n"); break;
            case '\r': out.append("\\r"); break;
            case '\t': out.append("\\t"); break;
            default:
                out.append("\\u00");
                out.push_back(hex[c >> 4]);
                out.push_back(hex[c & 0xf]);
        }
    }
    out.append(s.substr(plain));
}

} // namespace

void append_json_escaped(std::string& out, std::string_view s) {
    escape_into(out, s);
}

namespace pfmt {

namespace k = rtsc::kernel;

namespace {

/// Text JSON-escaped into the event.
struct Esc {
    std::string_view text;
};
/// A time in exact microseconds (trace::write_us).
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

constexpr std::size_t kMaxIntChars = 20; // UINT64_MAX

/// Appends to one event in place: text verbatim, integers through
/// std::to_chars, and the tagged values above.
class Out {
public:
    explicit Out(Buffer& b) noexcept : b_(b) {}

    Out& operator<<(std::string_view v) {
        b_.append(v);
        return *this;
    }
    Out& operator<<(char c) {
        b_.push_back(c);
        return *this;
    }
    template <std::integral I>
    Out& operator<<(I v) {
        char* p = b_.room(kMaxIntChars);
        b_.commit(std::to_chars(p, p + kMaxIntChars, v).ptr);
        return *this;
    }
    Out& operator<<(Esc e) {
        append_escaped(b_, e.text);
        return *this;
    }
    Out& operator<<(Us u) {
        b_.commit(trace::write_us(b_.room(trace::kMaxUsChars), u.t));
        return *this;
    }
    Out& operator<<(Ps p) { return *this << p.t.raw_ps(); }
    Out& operator<<(Real r) {
        b_.commit(write_g17(b_.room(kMaxG17Chars), r.v));
        return *this;
    }

private:
    Buffer& b_;
};

/// A template's bytes, rendered once through Out.
template <class Render>
std::string rendered(Render&& render) {
    Buffer b;
    Out o(b);
    render(o);
    return std::string(b.view());
}

// Raw cursor writes for the fixed-shape events: the renderer reserves an
// upper bound of the event once and writes through the cursor.

char* put(char* p, std::string_view s) noexcept {
    return std::char_traits<char>::copy(p, s.data(), s.size()) + s.size();
}

char* put_u64(char* p, std::uint64_t v) noexcept {
    return std::to_chars(p, p + kMaxIntChars, v).ptr;
}

constexpr std::string_view kDur = ", \"dur\": ";

/// Per-kind heads, indexed by the enum value.
template <std::size_t N, class Render>
std::array<std::string, N> heads(Render&& render) {
    std::array<std::string, N> out;
    for (std::size_t i = 0; i < N; ++i)
        out[i] = rendered([&](Out& o) { render(o, i); });
    return out;
}

/// `{"name": "<state>", "cat": "task_state", "ph": "X", "ts": `
const std::string& state_head(rtos::TaskState state) {
    static const auto table = heads<6>([](Out& o, std::size_t i) {
        o << "{\"name\": \""
          << Esc{rtos::to_string(static_cast<rtos::TaskState>(i))}
          << "\", \"cat\": \"task_state\", \"ph\": \"X\", \"ts\": ";
    });
    return table[static_cast<std::size_t>(state)];
}

/// `{"name": "<kind>", "cat": "rtos", "ph": "X", "ts": `
const std::string& overhead_head(rtos::OverheadKind kind) {
    static const auto table = heads<4>([](Out& o, std::size_t i) {
        o << "{\"name\": \""
          << Esc{rtos::to_string(static_cast<rtos::OverheadKind>(i))}
          << "\", \"cat\": \"rtos\", \"ph\": \"X\", \"ts\": ";
    });
    return table[static_cast<std::size_t>(kind)];
}

/// `{"name": "<kind>[ [blocked]]", "cat": "comm", "ph": "i", "s": "t",
/// "ts": `
const std::string& access_head(mcse::AccessKind kind, bool blocked) {
    static const auto table = heads<12>([](Out& o, std::size_t i) {
        o << "{\"name\": \""
          << Esc{mcse::to_string(static_cast<mcse::AccessKind>(i / 2))}
          << (i % 2 != 0 ? " [blocked]" : "")
          << "\", \"cat\": \"comm\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
    });
    return table[2 * static_cast<std::size_t>(kind) + (blocked ? 1 : 0)];
}

/// The args of an access by a hardware process.
constexpr std::string_view kHardwareArgs = ", \"args\": {\"task\": \"<hw>\"";

// An event opens with `{"name": "` and its escaped name; these append the
// fields that follow the name. Args, if any, come next as `, "args": {...}`
// and `}` closes the event.

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

const std::string& name_of(const std::string& resource) { return resource; }
const std::string& name_of(const rtos::Task* task) { return task->name(); }

/// `{"<culprit>": <ps>, ...}` of one job's per-culprit shares.
template <class Culprit>
void time_map(Out& o, std::span<const std::pair<Culprit, k::Time>> m) {
    o << '{';
    for (std::size_t i = 0; i < m.size(); ++i)
        o << (i != 0 ? ", \"" : "\"") << Esc{name_of(m[i].first)} << "\": "
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
void flow_start(Buffer& out, std::uint64_t id, k::Time at, int pid, int tid) {
    Out(out) << "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"s\", "
                "\"id\": "
             << id << ", \"ts\": " << Us{at} << ", \"pid\": " << pid
             << ", \"tid\": " << tid << '}';
}

void flow_finish(Buffer& out, std::uint64_t id, k::Time at, int pid, int tid) {
    Out(out) << "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"f\", "
                "\"bp\": \"e\", \"id\": "
             << id << ", \"ts\": " << Us{at} << ", \"pid\": " << pid
             << ", \"tid\": " << tid << '}';
}

/// Everything of a job slice up to the `preempted_by` value, with `tail`
/// = `, "pid": P, "tid": JT, "args": {"task": "<name>", "index": `: 400
/// bytes of fixed text, 15 integers, 2 times, 2 energies and 2 doubles.
constexpr std::size_t kJobFixedBytes =
    512 + 15 * kMaxIntChars + 2 * trace::kMaxUsChars +
    2 * rtos::kMaxEnergyChars + 2 * kMaxG17Chars;

void job_slice(Buffer& out, const std::string& tail,
               const Attribution::JobView& v) {
    const Attribution::JobBlame& j = v.blame;
    char* p = out.room(kJobFixedBytes + tail.size());
    p = put(p, "{\"name\": \"job #");
    p = put_u64(p, j.index);
    if (j.aborted) p = put(p, " (aborted)");
    p = put(p, "\", \"cat\": \"job\", \"ph\": \"X\", \"ts\": ");
    p = trace::write_us(p, j.release);
    p = put(p, kDur);
    p = trace::write_us(p, j.response());
    p = put(p, tail);
    p = put_u64(p, j.index);
    const auto ps = [&p](std::string_view key, k::Time t) {
        p = put(p, key);
        p = put_u64(p, t.raw_ps());
    };
    ps(", \"release_ps\": ", j.release);
    ps(", \"end_ps\": ", j.end);
    ps(", \"response_ps\": ", j.response());
    p = put(p, ", \"aborted\": ");
    p = put(p, boolean(j.aborted));
    ps(", \"exec_ps\": ", j.exec);
    ps(", \"preempt_ps\": ", j.preemption);
    ps(", \"block_ps\": ", j.blocking);
    ps(", \"overhead_ps\": ", j.overhead);
    ps(", \"interrupt_ps\": ", j.interrupt);
    ps(", \"ov_sched_ps\": ", j.ov_scheduling);
    ps(", \"ov_load_ps\": ", j.ov_load);
    ps(", \"ov_save_ps\": ", j.ov_save);
    ps(", \"ov_switch_ps\": ", j.ov_switch);
    ps(", \"residual_ps\": ", j.residual);
    // Raw model units as strings (128-bit, exact); joules as doubles for
    // humans.
    p = put(p, ", \"energy_exec_fj\": \"");
    p = rtos::write_energy(p, j.energy_exec);
    p = put(p, "\", \"energy_overhead_fj\": \"");
    p = rtos::write_energy(p, j.energy_overhead);
    p = put(p, "\", \"energy_exec_j\": ");
    p = write_g17(p, rtos::energy_to_joules(j.energy_exec));
    p = put(p, ", \"energy_overhead_j\": ");
    p = write_g17(p, rtos::energy_to_joules(j.energy_overhead));
    p = put(p, ", \"preempted_by\": ");
    out.commit(p);
    Out o(out);
    time_map(o, v.preempted_by);
    o << ", \"blocked_on\": ";
    time_map(o, v.blocked_on);
    o << "}}";
}

} // namespace

// ---- Buffer ----

Buffer::Buffer()
    : data_(std::make_unique_for_overwrite<char[]>(256)), cap_(256) {}

void Buffer::grow(std::size_t n) {
    const std::size_t cap = std::max(cap_ * 2, size_ + n);
    auto data = std::make_unique_for_overwrite<char[]>(cap);
    std::char_traits<char>::copy(data.get(), data_.get(), size_);
    data_ = std::move(data);
    cap_ = cap;
}

void append_escaped(Buffer& out, std::string_view s) { escape_into(out, s); }

// ---- EventArray ----

EventArray::EventArray(std::ostream& os, std::size_t window_bytes)
    : os_(os), limit_(window_bytes) {}

EventArray::~EventArray() { stop_writer(); }

void EventArray::open() {
    os_ << "{\"traceEvents\": [\n";
}

void EventArray::spill() {
    stats_.spooled_bytes += window_.size();
    ++stats_.flushes;
    if (!writer_.joinable()) {
        spooling_.reserve(window_.size());
        writer_ = std::thread([this] { write_windows(); });
    }
    {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return !pending_; });
        if (error_) std::rethrow_exception(error_);
        std::swap(window_, spooling_);
        pending_ = true;
    }
    // Two threads share cv_, so its one possible waiter is the other one.
    cv_.notify_one();
    window_.clear();
    stats_.window_bytes = 0;
}

void EventArray::write_windows() {
    std::unique_lock lock(mu_);
    for (;;) {
        cv_.wait(lock, [this] { return pending_ || stopping_; });
        if (!pending_) return;
        lock.unlock();
        std::exception_ptr error;
        try {
            os_.write(spooling_.view().data(),
                      static_cast<std::streamsize>(spooling_.size()));
        } catch (...) { // a stream with exceptions() set
            error = std::current_exception();
        }
        spooling_.clear();
        lock.lock();
        if (error && !error_) error_ = error;
        pending_ = false;
        cv_.notify_one();
    }
}

void EventArray::stop_writer() noexcept {
    if (!writer_.joinable()) return;
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    cv_.notify_one();
    writer_.join(); // after the pending window, if any, is written
}

void EventArray::close() {
    stop_writer();
    if (error_) std::rethrow_exception(error_);
    if (!window_.empty()) {
        os_.write(window_.view().data(),
                  static_cast<std::streamsize>(window_.size()));
        stats_.spooled_bytes += window_.size();
        ++stats_.flushes;
        window_.clear();
        stats_.window_bytes = 0;
    }
    os_ << "\n]}\n";
}

// ---- templates ----

CounterTrack counter_track(int pid, std::string_view name) {
    return {rendered([&](Out& o) {
                o << "{\"name\": \"" << Esc{name} << "\", \"ph\": \"C\", \"ts\": ";
            }),
            rendered([&](Out& o) {
                o << ", \"pid\": " << pid << ", \"tid\": 0, \"args\": {\"value\": ";
            })};
}

const TaskTrack& Tracks::task(const rtos::Task& t) {
    if (&t == last_task_) return *last_track_;
    const auto [it, fresh] = tasks_.try_emplace(&t);
    if (fresh) {
        const int pid = track_id(cpus_, &t.processor());
        int tid = 0;
        const auto& tasks = t.processor().tasks();
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            if (tasks[ti].get() == &t) tid = static_cast<int>(ti) + 1;
        it->second.state_tail = rendered([&](Out& o) {
            o << ", \"pid\": " << pid << ", \"tid\": " << tid << '}';
        });
        it->second.args = rendered([&](Out& o) {
            o << ", \"args\": {\"task\": \"" << Esc{t.name()} << '"';
        });
    }
    last_task_ = &t;
    last_track_ = &it->second;
    return it->second;
}

const std::string* Tracks::rtos_track(const rtos::Processor& cpu) {
    const int pid = track_id(cpus_, &cpu);
    if (pid == 0) return nullptr;
    while (rtos_tracks_.size() < cpus_.size()) {
        const int p = static_cast<int>(rtos_tracks_.size()) + 1;
        rtos_tracks_.push_back(
            rendered([&](Out& o) { o << ", \"pid\": " << p << ", \"tid\": 0"; }));
    }
    return &rtos_tracks_[static_cast<std::size_t>(pid) - 1];
}

const std::string* Tracks::relation_track(const mcse::Relation& rel) {
    const int tid = track_id(relations_, &rel);
    if (tid == 0) return nullptr;
    const int comm_pid = static_cast<int>(cpus_.size()) + 1;
    while (relation_tracks_.size() < relations_.size()) {
        const int t = static_cast<int>(relation_tracks_.size()) + 1;
        relation_tracks_.push_back(rendered([&](Out& o) {
            o << ", \"pid\": " << comm_pid << ", \"tid\": " << t;
        }));
    }
    return &relation_tracks_[static_cast<std::size_t>(tid) - 1];
}

// ---- event renderers ----

void meta_process(Buffer& out, int pid, std::string_view name) {
    Out o(out);
    meta_head(o, "process", pid, 0);
    o << Esc{name} << "\"}}";
}

void instant(Buffer& out, int pid, int tid, k::Time at, char scope,
             std::string_view cat, std::string_view name) {
    Out o(out);
    o << "{\"name\": \"" << Esc{name};
    instant_fields(o, pid, tid, at, scope, cat);
    o << '}';
}

void counter(Buffer& out, const CounterTrack& track, k::Time at, double value) {
    char* p = out.room(track.head.size() + trace::kMaxUsChars +
                       track.tail.size() + kMaxG17Chars + 2);
    p = put(p, track.head);
    p = trace::write_us(p, at);
    p = put(p, track.tail);
    p = write_g17(p, value);
    out.commit(put(p, "}}"));
}

void state_slice(Buffer& out, const TaskTrack& task, k::Time at, k::Time dur,
                 rtos::TaskState state) {
    const std::string& head = state_head(state);
    char* p = out.room(head.size() + 2 * trace::kMaxUsChars + kDur.size() +
                       task.state_tail.size());
    p = put(p, head);
    p = trace::write_us(p, at);
    p = put(p, kDur);
    p = trace::write_us(p, dur);
    out.commit(put(p, task.state_tail));
}

void overhead(Buffer& out, const std::string& rtos_track, k::Time start,
              k::Time dur, rtos::OverheadKind kind, const TaskTrack* about) {
    const std::string& head = overhead_head(kind);
    const std::string_view args =
        about != nullptr ? std::string_view(about->args) : std::string_view();
    char* p = out.room(head.size() + 2 * trace::kMaxUsChars + kDur.size() +
                       rtos_track.size() + args.size() + 2);
    p = put(p, head);
    p = trace::write_us(p, start);
    p = put(p, kDur);
    p = trace::write_us(p, dur);
    p = put(p, rtos_track);
    p = put(p, args);
    out.commit(put(p, about != nullptr ? "}}" : "}"));
}

void access(Buffer& out, const std::string& relation_track, k::Time at,
            const TaskTrack* task, mcse::AccessKind kind, bool blocked) {
    const std::string& head = access_head(kind, blocked);
    const std::string_view args =
        task != nullptr ? std::string_view(task->args) : kHardwareArgs;
    const std::string_view close =
        blocked ? ", \"blocked\": true}}" : ", \"blocked\": false}}";
    char* p = out.room(head.size() + trace::kMaxUsChars +
                       relation_track.size() + args.size() + close.size());
    p = put(p, head);
    p = trace::write_us(p, at);
    p = put(p, relation_track);
    p = put(p, args);
    out.commit(put(p, close));
}

// ---- layout ----

void emit_layout(EventArray& events, const std::vector<rtos::Processor*>& cpus,
                 const std::vector<mcse::Relation*>& relations, bool jobs,
                 bool markers) {
    // A thread named `<name><suffix>`.
    const auto thread = [&events](int pid, int tid, std::string_view name,
                                  std::string_view suffix) {
        events.emit([&](Buffer& out) {
            Out o(out);
            meta_head(o, "thread", pid, tid);
            o << Esc{name} << Esc{suffix} << "\"}}";
        });
    };
    for (std::size_t pi = 0; pi < cpus.size(); ++pi) {
        const int pid = static_cast<int>(pi) + 1;
        const auto& tasks = cpus[pi]->tasks();
        events.emit(
            [&](Buffer& out) { meta_process(out, pid, cpus[pi]->name()); });
        thread(pid, 0, cpus[pi]->name(), ".rtos");
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            thread(pid, static_cast<int>(ti) + 1, tasks[ti]->name(), {});
        if (jobs)
            for (std::size_t ti = 0; ti < tasks.size(); ++ti)
                thread(pid, static_cast<int>(tasks.size() + 1 + ti),
                       tasks[ti]->name(), ".jobs");
    }
    const int comm_pid = static_cast<int>(cpus.size()) + 1;
    if (!relations.empty()) {
        events.emit([&](Buffer& out) { meta_process(out, comm_pid, "comm"); });
        for (std::size_t ri = 0; ri < relations.size(); ++ri)
            events.emit([&](Buffer& out) {
                Out o(out);
                meta_head(o, "thread", comm_pid, static_cast<int>(ri) + 1);
                o << Esc{relations[ri]->name()} << " ("
                  << Esc{relations[ri]->type_name()} << ")\"}}";
            });
    }
    if (markers)
        events.emit(
            [&](Buffer& out) { meta_process(out, comm_pid + 1, "events"); });
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
    // decomposition as args in exact picoseconds. A track carries the jobs
    // of every task of its name; jobs of one task are recorded in
    // completion order == release order, so each track stays monotonic.
    // Zero-response jobs are dropped (the validator rejects zero-width
    // slices) — their decomposition is all-zero anyway.
    struct JobsTrack {
        std::string tail; ///< `, "pid": P, "tid": JT, "args": {"task": ...`
        std::vector<std::size_t> jobs; ///< job indices, completion order
    };
    std::vector<JobsTrack> order; // the index's name order
    order.reserve(tracks.size());
    for (const auto& [name, tr] : tracks)
        order.push_back({rendered([&, &tr = tr](Out& o) {
                             o << ", \"pid\": " << tr.pid << ", \"tid\": "
                               << tr.jobs_tid << ", \"args\": {\"task\": \""
                               << Esc{name} << "\", \"index\": ";
                         }),
                         {}});
    std::unordered_map<const rtos::Task*, JobsTrack*> track_of;
    for (std::size_t i = 0; i < attribution.job_count(); ++i) {
        const rtos::Task* task = attribution.job_view(i).task;
        const auto [it, fresh] = track_of.try_emplace(task, nullptr);
        if (fresh) {
            const auto found = tracks.find(task->name());
            if (found != tracks.end())
                it->second = &order[static_cast<std::size_t>(
                    std::distance(tracks.begin(), found))];
        }
        if (it->second != nullptr) it->second->jobs.push_back(i);
    }
    for (const JobsTrack& track : order)
        for (const std::size_t i : track.jobs) {
            const Attribution::JobView v = attribution.job_view(i);
            if (v.blame.response().is_zero()) continue;
            events.emit([&](Buffer& out) { job_slice(out, track.tail, v); });
        }

    // Blocking episodes: a chain instant on the victim's jobs track plus
    // a culprit -> victim flow ("s" on the owner's state track, "f" on
    // the victim's).
    std::uint64_t flow_id = 1;
    for (const auto& e : attribution.episodes()) {
        const auto vit = tracks.find(e.victim);
        if (vit == tracks.end()) continue;
        const Track& victim = vit->second;
        events.emit([&](Buffer& out) {
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
        events.emit([&](Buffer& out) {
            flow_start(out, flow_id, e.start, owner.pid, owner.state_tid);
        });
        events.emit([&](Buffer& out) {
            flow_finish(out, flow_id, e.end, victim.pid, victim.state_tid);
        });
        ++flow_id;
    }

    // Deadline misses with their critical path.
    if (misses == nullptr) return;
    for (const auto& m : *misses) {
        const auto vit = tracks.find(m.task);
        if (vit == tracks.end()) continue;
        events.emit([&](Buffer& out) {
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

} // namespace pfmt
} // namespace rtsc::obs
