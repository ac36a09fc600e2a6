#include "campaign/shard/status.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace rtsc::campaign::shard {

namespace {

/// Strict-JSON double: %.17g round-trips exactly; non-finite values (which
/// strict JSON cannot carry) degrade to -1.
[[nodiscard]] std::string num(double v) {
    if (!std::isfinite(v)) return "-1";
    std::string out;
    obs::append_g17(out, v);
    return out;
}

[[nodiscard]] std::string num(std::uint64_t v) { return std::to_string(v); }

/// Metric names are ASCII identifiers by construction, but escape anyway so
/// the file stays strict JSON no matter what a scenario called its metric.
[[nodiscard]] std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace

std::string status_to_json(const StatusSnapshot& s) {
    const std::size_t done_this_run =
        s.completed >= s.resumed ? s.completed - s.resumed : 0;
    const double throughput =
        s.elapsed_ms > 0.0
            ? static_cast<double>(done_this_run) / (s.elapsed_ms / 1000.0)
            : 0.0;
    const std::size_t remaining =
        s.scenarios >= s.completed ? s.scenarios - s.completed : 0;
    const double eta_ms = throughput > 0.0
                              ? static_cast<double>(remaining) / throughput *
                                    1000.0
                              : -1.0;

    std::string out = "{\n";
    const auto field = [&out](const char* key, const std::string& value,
                              bool last = false) {
        out += "  \"";
        out += key;
        out += "\": ";
        out += value;
        out += last ? "\n" : ",\n";
    };
    field("done", s.done ? "true" : "false");
    field("seed", num(s.seed));
    field("scenarios", num(s.scenarios));
    field("completed", num(s.completed));
    field("failed", num(s.failed));
    field("in_flight", num(s.in_flight));
    field("resumed", num(s.resumed));
    field("retries", num(s.retries));
    field("crashes", num(s.crashes));
    field("timeouts", num(s.timeouts));
    field("workers_live", num(s.workers_live));
    field("heartbeats", num(s.heartbeats));
    field("elapsed_ms", num(s.elapsed_ms));
    field("throughput_per_s", num(throughput));
    field("eta_ms", num(eta_ms));

    const obs::Histogram* wall =
        s.live != nullptr ? s.live->find_histogram("shard.scenario_wall_us")
                          : nullptr;
    std::string h = "{";
    if (wall != nullptr && wall->count() > 0) {
        h += "\"count\": " + num(wall->count());
        h += ", \"p50\": " + num(wall->p50());
        h += ", \"p90\": " + num(wall->p90());
        h += ", \"p99\": " + num(wall->p99());
        h += ", \"max\": " + num(static_cast<double>(wall->max()));
    } else {
        h += "\"count\": 0";
    }
    h += "}";
    field("scenario_wall_us", h);

    std::string m = "{";
    if (s.live != nullptr) {
        bool first = true;
        for (const auto& sample : s.live->snapshot()) {
            if (!first) m += ", ";
            first = false;
            m += quote(sample.name) + ": " + num(sample.value);
        }
    }
    m += "}";
    field("metrics", m, /*last=*/true);
    out += "}\n";
    return out;
}

bool write_status_file(const std::string& path, const std::string& content) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) return false;
        os << content;
        os.flush();
        if (!os) return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace rtsc::campaign::shard
