#include "fuzz/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rtsc::fuzz {

const char* to_string(PolicyKind p) noexcept {
    switch (p) {
        case PolicyKind::fifo: return "fifo";
        case PolicyKind::priority_preemptive: return "priority";
        case PolicyKind::round_robin: return "rr";
        case PolicyKind::edf: return "edf";
        case PolicyKind::static_edf: return "static_edf";
        case PolicyKind::cc_edf: return "cc_edf";
        case PolicyKind::la_edf: return "la_edf";
        case PolicyKind::static_rm: return "static_rm";
        case PolicyKind::cc_rm: return "cc_rm";
    }
    return "?";
}

const char* to_string(OpKind k) noexcept {
    switch (k) {
        case OpKind::compute: return "compute";
        case OpKind::sleep: return "sleep";
        case OpKind::yield: return "yield";
        case OpKind::critical: return "critical";
        case OpKind::sem_acquire: return "sem_acquire";
        case OpKind::sem_acquire_for: return "sem_acquire_for";
        case OpKind::sem_try_acquire: return "sem_try_acquire";
        case OpKind::sem_release: return "sem_release";
        case OpKind::q_write: return "q_write";
        case OpKind::q_try_write: return "q_try_write";
        case OpKind::q_read: return "q_read";
        case OpKind::q_read_for: return "q_read_for";
        case OpKind::q_try_read: return "q_try_read";
        case OpKind::ev_signal: return "ev_signal";
        case OpKind::ev_await: return "ev_await";
        case OpKind::ev_await_for: return "ev_await_for";
        case OpKind::sv_read: return "sv_read";
        case OpKind::sv_write: return "sv_write";
        case OpKind::sv_guard: return "sv_guard";
    }
    return "?";
}

namespace {

// ---- writing ----

void write_ops(std::ostream& os, const std::vector<OpSpec>& ops, unsigned depth) {
    for (const OpSpec& op : ops) {
        os << "op d=" << depth << " kind=" << to_string(op.kind)
           << " target=" << op.target << " dur=" << op.dur_ps
           << " timeout=" << op.timeout_ps << " repeat=" << op.repeat << "\n";
        write_ops(os, op.body, depth + 1);
    }
}

// ---- parsing ----

struct Line {
    std::string kind;
    std::unordered_map<std::string, std::string> kv;
    std::size_t number = 0;
};

[[noreturn]] void fail(const Line& ln, const std::string& what) {
    throw std::runtime_error("fuzz spec line " + std::to_string(ln.number) +
                             ": " + what);
}

std::string get_str(const Line& ln, const std::string& key) {
    auto it = ln.kv.find(key);
    if (it == ln.kv.end()) fail(ln, "missing key '" + key + "'");
    return it->second;
}

/// Integer field of type T: the value must parse whole and fit T, so a
/// narrow field never silently wraps a larger number.
template <typename T>
T get_int(const Line& ln, const std::string& key) {
    const std::string s = get_str(ln, key);
    if (const std::optional<T> v = parse_decimal<T>(s)) return *v;
    fail(ln, "bad number for '" + key + "': " + s);
}

std::uint64_t get_u64(const Line& ln, const std::string& key) {
    return get_int<std::uint64_t>(ln, key);
}

std::uint32_t get_u32(const Line& ln, const std::string& key) {
    return get_int<std::uint32_t>(ln, key);
}

double get_f64(const Line& ln, const std::string& key) {
    auto it = ln.kv.find(key);
    if (it == ln.kv.end()) fail(ln, "missing key '" + key + "'");
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (errno != 0 || end == nullptr || end == it->second.c_str() ||
        *end != '\0')
        fail(ln, "bad float for '" + key + "': " + it->second);
    return v;
}

/// Optional key with a default, for fields added after corpus files were
/// already checked in (pre-DVFS cpu lines must keep parsing).
std::uint64_t get_u64_or(const Line& ln, const std::string& key,
                         std::uint64_t fallback) {
    return ln.kv.find(key) == ln.kv.end() ? fallback : get_u64(ln, key);
}

std::uint32_t parse_u32_span(const Line& ln, const std::string& s,
                             std::size_t begin, std::size_t end) {
    const std::string piece = s.substr(begin, end - begin);
    if (const auto v = parse_decimal<std::uint32_t>(piece)) return *v;
    fail(ln, "bad dvfs number '" + piece + "'");
}

/// `dvfs=` value: "-" for no model, else comma-separated freq:volt pairs
/// ("800000:1100,400000:900").
std::vector<std::pair<std::uint32_t, std::uint32_t>> parse_dvfs(
    const Line& ln, const std::string& s) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> points;
    if (s == "-" || s.empty()) return points;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) comma = s.size();
        const std::size_t colon = s.find(':', pos);
        if (colon == std::string::npos || colon >= comma)
            fail(ln, "bad dvfs point '" + s.substr(pos, comma - pos) + "'");
        points.emplace_back(parse_u32_span(ln, s, pos, colon),
                            parse_u32_span(ln, s, colon + 1, comma));
        pos = comma + 1;
    }
    return points;
}

PolicyKind parse_policy(const Line& ln, const std::string& s) {
    if (s == "fifo") return PolicyKind::fifo;
    if (s == "priority") return PolicyKind::priority_preemptive;
    if (s == "rr") return PolicyKind::round_robin;
    if (s == "edf") return PolicyKind::edf;
    if (s == "static_edf") return PolicyKind::static_edf;
    if (s == "cc_edf") return PolicyKind::cc_edf;
    if (s == "la_edf") return PolicyKind::la_edf;
    if (s == "static_rm") return PolicyKind::static_rm;
    if (s == "cc_rm") return PolicyKind::cc_rm;
    fail(ln, "unknown policy '" + s + "'");
}

OpKind parse_op_kind(const Line& ln, const std::string& s) {
    for (int k = 0; k <= static_cast<int>(OpKind::sv_guard); ++k)
        if (s == to_string(static_cast<OpKind>(k)))
            return static_cast<OpKind>(k);
    fail(ln, "unknown op kind '" + s + "'");
}

Line tokenize(const std::string& raw, std::size_t number) {
    Line ln;
    ln.number = number;
    std::istringstream is(raw);
    is >> ln.kind;
    std::string word;
    while (is >> word) {
        const auto eq = word.find('=');
        if (eq == std::string::npos) fail(ln, "expected key=value, got '" + word + "'");
        ln.kv.emplace(word.substr(0, eq), word.substr(eq + 1));
    }
    return ln;
}

/// Append `op` at nesting depth `d` below the body stack of the task being
/// parsed. `stack[0]` is the task body itself.
void place_op(std::vector<std::vector<OpSpec>*>& stack, const Line& ln,
              unsigned d, OpSpec op) {
    if (d >= stack.size()) fail(ln, "op depth skips a level");
    stack.resize(d + 1);
    stack[d]->push_back(std::move(op));
    stack.push_back(&stack[d]->back().body);
}

} // namespace

std::string to_text(const ModelSpec& spec) {
    std::ostringstream os;
    os << "model seed=" << spec.seed << " horizon=" << spec.horizon_ps << "\n";
    for (const CpuSpec& c : spec.cpus) {
        os << "cpu policy=" << to_string(c.policy) << " quantum=" << c.quantum_ps
           << " preemptive=" << (c.preemptive ? 1 : 0) << " sched=" << c.sched_ps
           << " load=" << c.load_ps << " save=" << c.save_ps
           << " formula=" << (c.formula_overheads ? 1 : 0)
           << " fswitch=" << c.fswitch_ps << " dvfs=";
        if (c.dvfs_points.empty()) {
            os << "-";
        } else {
            for (std::size_t i = 0; i < c.dvfs_points.size(); ++i)
                os << (i != 0 ? "," : "") << c.dvfs_points[i].first << ":"
                   << c.dvfs_points[i].second;
        }
        os << "\n";
    }
    for (const SemSpec& s : spec.sems)
        os << "sem initial=" << s.initial
           << " prio=" << (s.priority_order ? 1 : 0) << "\n";
    for (const QueueSpec& q : spec.queues)
        os << "queue cap=" << q.capacity << "\n";
    for (const EventSpec& e : spec.events)
        os << "event policy=" << unsigned{e.policy} << "\n";
    for (const SvSpec& v : spec.svars)
        os << "sv prot=" << unsigned{v.protection} << " access=" << v.access_ps
           << "\n";
    for (const IrqSpec& i : spec.irqs)
        os << "irq cpu=" << i.cpu << " prio=" << i.isr_priority
           << " period=" << i.period_ps << " jitter=" << i.jitter_ps
           << " until=" << i.until_ps << " cost=" << i.cost_ps
           << " maxpend=" << i.max_pending << "\n";
    for (const TaskSpec& t : spec.tasks) {
        os << "task name=" << t.name << " cpu=" << t.cpu
           << " prio=" << t.priority << " start=" << t.start_ps
           << " period=" << t.period_ps << " act=" << t.activations
           << " deadline=" << t.deadline_ps << " trigger=" << t.trigger_event
           << "\n";
        write_ops(os, t.body, 0);
    }
    const FaultSpec& f = spec.faults;
    for (const auto& e : f.jitter)
        os << "fault_jitter task=" << e.task << " prob=" << e.probability
           << " smin=" << e.scale_min << " smax=" << e.scale_max << "\n";
    for (const auto& e : f.crashes)
        os << "fault_crash task=" << e.task << " at=" << e.at_ps
           << " restart=" << (e.restart ? 1 : 0) << " delay=" << e.delay_ps
           << "\n";
    for (const auto& e : f.drops)
        os << "fault_drop irq=" << e.irq << " prob=" << e.probability << "\n";
    for (const auto& e : f.bursts)
        os << "fault_burst irq=" << e.irq << " prob=" << e.probability
           << " emin=" << e.extra_min << " emax=" << e.extra_max << "\n";
    for (const auto& e : f.spurious)
        os << "fault_spurious irq=" << e.irq << " period=" << e.period_ps
           << " jitter=" << e.jitter_ps << " until=" << e.until_ps << "\n";
    for (const auto& e : f.losses)
        os << "fault_loss queue=" << e.queue << " prob=" << e.probability
           << "\n";
    return os.str();
}

ModelSpec from_text(const std::string& text) {
    ModelSpec spec;
    bool saw_model = false;
    std::vector<std::vector<OpSpec>*> op_stack; ///< body-nesting of the open task
    std::istringstream is(text);
    std::string raw;
    std::size_t number = 0;
    while (std::getline(is, raw)) {
        ++number;
        if (raw.empty() || raw[0] == '#') continue;
        Line ln = tokenize(raw, number);
        if (ln.kind.empty()) continue;
        if (ln.kind != "op" && ln.kind != "task") op_stack.clear();

        if (ln.kind == "model") {
            saw_model = true;
            spec.seed = get_u64(ln, "seed");
            spec.horizon_ps = get_u64(ln, "horizon");
        } else if (ln.kind == "cpu") {
            CpuSpec c;
            c.policy = parse_policy(ln, get_str(ln, "policy"));
            c.quantum_ps = get_u64(ln, "quantum");
            c.preemptive = get_u64(ln, "preemptive") != 0;
            c.sched_ps = get_u64(ln, "sched");
            c.load_ps = get_u64(ln, "load");
            c.save_ps = get_u64(ln, "save");
            c.formula_overheads = get_u64(ln, "formula") != 0;
            // Both keys are absent from pre-DVFS corpus files.
            c.fswitch_ps = get_u64_or(ln, "fswitch", 0);
            if (auto it = ln.kv.find("dvfs"); it != ln.kv.end())
                c.dvfs_points = parse_dvfs(ln, it->second);
            spec.cpus.push_back(std::move(c));
        } else if (ln.kind == "sem") {
            spec.sems.push_back({get_u64(ln, "initial"), get_u64(ln, "prio") != 0});
        } else if (ln.kind == "queue") {
            spec.queues.push_back({get_u32(ln, "cap")});
        } else if (ln.kind == "event") {
            spec.events.push_back({get_int<std::uint8_t>(ln, "policy")});
        } else if (ln.kind == "sv") {
            spec.svars.push_back({get_int<std::uint8_t>(ln, "prot"),
                                  get_u64(ln, "access")});
        } else if (ln.kind == "irq") {
            IrqSpec i;
            i.cpu = get_u32(ln, "cpu");
            i.isr_priority = get_int<int>(ln, "prio");
            i.period_ps = get_u64(ln, "period");
            i.jitter_ps = get_u64(ln, "jitter");
            i.until_ps = get_u64(ln, "until");
            i.cost_ps = get_u64(ln, "cost");
            i.max_pending = get_u32(ln, "maxpend");
            spec.irqs.push_back(i);
        } else if (ln.kind == "task") {
            TaskSpec t;
            t.name = get_str(ln, "name");
            t.cpu = get_u32(ln, "cpu");
            t.priority = get_int<int>(ln, "prio");
            t.start_ps = get_u64(ln, "start");
            t.period_ps = get_u64(ln, "period");
            t.activations = get_u32(ln, "act");
            t.deadline_ps = get_u64(ln, "deadline");
            t.trigger_event = get_u32(ln, "trigger");
            spec.tasks.push_back(std::move(t));
            op_stack.assign(1, &spec.tasks.back().body);
        } else if (ln.kind == "op") {
            if (op_stack.empty()) fail(ln, "op outside a task");
            OpSpec op;
            op.kind = parse_op_kind(ln, get_str(ln, "kind"));
            op.target = get_u32(ln, "target");
            op.dur_ps = get_u64(ln, "dur");
            op.timeout_ps = get_u64(ln, "timeout");
            op.repeat = get_u32(ln, "repeat");
            place_op(op_stack, ln, get_int<unsigned>(ln, "d"), std::move(op));
        } else if (ln.kind == "fault_jitter") {
            spec.faults.jitter.push_back({get_u32(ln, "task"), get_f64(ln, "prob"),
                                          get_f64(ln, "smin"),
                                          get_f64(ln, "smax")});
        } else if (ln.kind == "fault_crash") {
            spec.faults.crashes.push_back({get_u32(ln, "task"), get_u64(ln, "at"),
                                           get_u64(ln, "restart") != 0,
                                           get_u64(ln, "delay")});
        } else if (ln.kind == "fault_drop") {
            spec.faults.drops.push_back({get_u32(ln, "irq"), get_f64(ln, "prob")});
        } else if (ln.kind == "fault_burst") {
            spec.faults.bursts.push_back({get_u32(ln, "irq"), get_f64(ln, "prob"),
                                          get_u32(ln, "emin"),
                                          get_u32(ln, "emax")});
        } else if (ln.kind == "fault_spurious") {
            spec.faults.spurious.push_back(
                {get_u32(ln, "irq"), get_u64(ln, "period"),
                 get_u64(ln, "jitter"), get_u64(ln, "until")});
        } else if (ln.kind == "fault_loss") {
            spec.faults.losses.push_back(
                {get_u32(ln, "queue"), get_f64(ln, "prob")});
        } else {
            fail(ln, "unknown record kind '" + ln.kind + "'");
        }
    }
    if (!saw_model) throw std::runtime_error("fuzz spec: missing 'model' line");
    return spec;
}

ModelSpec read_spec_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error(path.string() + ": cannot open");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) throw std::runtime_error(path.string() + ": read error");
    try {
        return from_text(text.str());
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path.string() + ": " + e.what());
    }
}

std::vector<std::filesystem::path> spec_files(const std::filesystem::path& dir) {
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->path().extension() == ".model") files.push_back(it->path());
    if (ec) throw std::runtime_error(dir.string() + ": " + ec.message());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace rtsc::fuzz
