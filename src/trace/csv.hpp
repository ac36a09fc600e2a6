#pragma once
// CSV export of trace records for external plotting tools.
//
// Field quoting follows RFC 4180: a field containing a comma, a double quote
// or a line break is wrapped in double quotes with embedded quotes doubled,
// so hostile task/relation names cannot corrupt rows. Timestamps are exact:
// the full picosecond value rendered as fractional microseconds (no
// precision loss — sub-µs events stay distinct).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/recorder.hpp"

namespace rtsc::trace {

/// RFC-4180 escape: returns `s` unchanged, or quoted with inner quotes
/// doubled when it contains a comma, quote, CR or LF.
[[nodiscard]] std::string csv_field(std::string_view s);

/// Longest write_us rendering: UINT64_MAX ps is "18446744073709.551615".
inline constexpr std::size_t kMaxUsChars = 21;

/// Write the exact decimal rendering of `t` in microseconds at `p` and
/// return its end ("12.000001" for 12 us + 1 ps; trailing zeros trimmed,
/// "12" when integral). At most kMaxUsChars bytes. The CSV and Perfetto
/// exports render every time through it.
char* write_us(char* p, kernel::Time t) noexcept;

/// write_us appended to `out`.
void append_us(std::string& out, kernel::Time t);

/// append_us into a fresh string.
[[nodiscard]] std::string format_us(kernel::Time t);

/// One row per task state transition:
///   time_us,task,processor,from,to
void write_states_csv(std::ostream& os, const Recorder& rec);

/// One row per communication access:
///   time_us,relation,type,task,kind,blocked
void write_comms_csv(std::ostream& os, const Recorder& rec);

/// One row per RTOS overhead charge:
///   time_us,duration_us,processor,kind,about_task
void write_overheads_csv(std::ostream& os, const Recorder& rec);

} // namespace rtsc::trace
