#include "trace/csv.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
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

namespace {

/// "00" "01" ... "99": two digits per table lookup.
constexpr auto kDigitPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[2 * i] = static_cast<char>('0' + i / 10);
        t[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return t;
}();

constexpr std::uint32_t kPow10[] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000};

void write_pair(char* p, std::uint32_t v) noexcept {
    std::memcpy(p, &kDigitPairs[2 * v], 2);
}

/// `v` in decimal at `p`; returns the end. The digit count comes from the
/// bit width, without a loop.
char* write_u32(char* p, std::uint32_t v) noexcept {
    const std::uint32_t t =
        (static_cast<std::uint32_t>(std::bit_width(v | 1)) * 1233) >> 12;
    char* const end = p + t + 1 - ((v | 1) < kPow10[t] ? 1 : 0);
    char* q = end;
    for (; v >= 100; v /= 100) {
        q -= 2;
        write_pair(q, v % 100);
    }
    if (v >= 10)
        write_pair(q - 2, v);
    else
        q[-1] = static_cast<char>('0' + v);
    return end;
}

} // namespace

char* write_us(char* p, kernel::Time t) noexcept {
    const kernel::Time::rep ps = t.raw_ps();
    const kernel::Time::rep whole = ps / 1'000'000u;
    p = whole < kPow10[9] ? write_u32(p, static_cast<std::uint32_t>(whole))
                          : std::to_chars(p, p + kMaxUsChars, whole).ptr;
    const auto frac = static_cast<std::uint32_t>(ps % 1'000'000u);
    if (frac == 0) return p;
    p[0] = '.';
    write_pair(p + 1, frac / 10'000);
    write_pair(p + 3, frac / 100 % 100);
    write_pair(p + 5, frac % 100);
    // Drop the fraction's trailing zeros, counted without branching.
    const int zeros = (frac % 10 == 0) + (frac % 100 == 0) +
                      (frac % 1000 == 0) + (frac % 10000 == 0) +
                      (frac % 100000 == 0);
    return p + 7 - zeros;
}

void append_us(std::string& out, kernel::Time t) {
    char buf[kMaxUsChars];
    out.append(buf, write_us(buf, t));
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
