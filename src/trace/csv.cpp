#include "trace/csv.hpp"

#include <charconv>
#include <ostream>

namespace rtsc::trace {

std::string csv_field(std::string_view s) {
    if (s.find_first_of(",\"\r\n") == std::string_view::npos)
        return std::string(s);
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void append_us(std::string& out, kernel::Time t) {
    const kernel::Time::rep ps = t.raw_ps();
    char buf[32]; // the longest is UINT64_MAX ps: "18446744073709.551615"
    char* end = std::to_chars(buf, buf + sizeof buf, ps / 1'000'000u).ptr;
    if (kernel::Time::rep frac = ps % 1'000'000u; frac != 0) {
        *end++ = '.';
        for (int i = 5; i >= 0; --i, frac /= 10)
            end[i] = static_cast<char>('0' + frac % 10);
        end += 6;
        while (end[-1] == '0') --end;
    }
    out.append(buf, end);
}

std::string format_us(kernel::Time t) {
    std::string out;
    append_us(out, t);
    return out;
}

void write_states_csv(std::ostream& os, const Recorder& rec) {
    os << "time_us,task,processor,from,to\n";
    for (const auto& s : rec.states()) {
        if (s.from == s.to) continue;
        os << format_us(s.at) << ',' << csv_field(s.task->name()) << ','
           << csv_field(s.task->processor().name()) << ','
           << rtos::to_string(s.from) << ',' << rtos::to_string(s.to) << '\n';
    }
}

void write_comms_csv(std::ostream& os, const Recorder& rec) {
    os << "time_us,relation,type,task,kind,blocked\n";
    for (const auto& c : rec.comms()) {
        os << format_us(c.at) << ',' << csv_field(c.relation->name()) << ','
           << c.relation->type_name() << ','
           << (c.task != nullptr ? csv_field(c.task->name()) : "<hw>") << ','
           << mcse::to_string(c.kind) << ',' << (c.blocked ? 1 : 0) << '\n';
    }
}

void write_overheads_csv(std::ostream& os, const Recorder& rec) {
    os << "time_us,duration_us,processor,kind,about_task\n";
    for (const auto& o : rec.overheads()) {
        os << format_us(o.at) << ',' << format_us(o.duration) << ','
           << csv_field(o.cpu->name()) << ',' << rtos::to_string(o.kind) << ','
           << (o.about != nullptr ? csv_field(o.about->name()) : "") << '\n';
    }
}

} // namespace rtsc::trace
