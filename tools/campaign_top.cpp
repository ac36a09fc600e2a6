// campaign_top — render a running sharded campaign's status file as a live
// terminal dashboard (docs/OBSERVABILITY.md, "Live campaign status").
//
// The coordinator (campaign_shard --status-file sweep.status.json) replaces
// the snapshot atomically on its status period; this tool re-reads and
// re-renders it until the final "done": true snapshot appears. Snapshots
// are advisory — wall-clock throughput, ETA and live latency percentiles —
// and never influence the campaign's deterministic report digest.
//
// Usage: campaign_top FILE [--watch MS] [--once]
//   --watch MS   re-render every MS milliseconds until done (default 500)
//   --once       print one snapshot and exit (CI-friendly; exit 3 when the
//                file does not exist or does not parse yet)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "fuzz/spec.hpp" // parse_decimal
#include "obs/json.hpp"

namespace j = rtsc::obs::json;

namespace {

struct Status {
    bool done = false;
    double seed = 0, scenarios = 0, completed = 0, failed = 0, in_flight = 0,
           resumed = 0, retries = 0, crashes = 0, timeouts = 0,
           workers_live = 0, heartbeats = 0, elapsed_ms = 0,
           throughput_per_s = 0, eta_ms = -1;
    double wall_count = 0, wall_p50 = 0, wall_p90 = 0, wall_p99 = 0,
           wall_max = 0;
};

[[nodiscard]] double field(const j::Value& obj, const char* name) {
    const j::Value* v = obj.get(name);
    return v != nullptr && v->is_number() ? v->num : 0.0;
}

[[nodiscard]] bool load(const std::string& path, Status& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    j::ValuePtr root;
    try {
        root = j::parse(ss.str());
    } catch (const j::ParseError&) {
        return false; // torn read cannot happen (atomic rename); bad file
    }
    if (!root->is_object()) return false;
    const j::Value* done = root->get("done");
    out.done = done != nullptr && done->kind == j::Value::Kind::boolean &&
               done->b;
    out.seed = field(*root, "seed");
    out.scenarios = field(*root, "scenarios");
    out.completed = field(*root, "completed");
    out.failed = field(*root, "failed");
    out.in_flight = field(*root, "in_flight");
    out.resumed = field(*root, "resumed");
    out.retries = field(*root, "retries");
    out.crashes = field(*root, "crashes");
    out.timeouts = field(*root, "timeouts");
    out.workers_live = field(*root, "workers_live");
    out.heartbeats = field(*root, "heartbeats");
    out.elapsed_ms = field(*root, "elapsed_ms");
    out.throughput_per_s = field(*root, "throughput_per_s");
    out.eta_ms = field(*root, "eta_ms");
    if (const j::Value* w = root->get("scenario_wall_us");
        w != nullptr && w->is_object()) {
        out.wall_count = field(*w, "count");
        out.wall_p50 = field(*w, "p50");
        out.wall_p90 = field(*w, "p90");
        out.wall_p99 = field(*w, "p99");
        out.wall_max = field(*w, "max");
    }
    return true;
}

[[nodiscard]] std::string fmt_ms(double ms) {
    char buf[32];
    if (ms < 0) return "?";
    if (ms >= 60'000)
        std::snprintf(buf, sizeof buf, "%.1fmin", ms / 60'000.0);
    else if (ms >= 1000)
        std::snprintf(buf, sizeof buf, "%.1fs", ms / 1000.0);
    else
        std::snprintf(buf, sizeof buf, "%.0fms", ms);
    return buf;
}

[[nodiscard]] std::string fmt_us(double us) { return fmt_ms(us / 1000.0); }

void render(const Status& s) {
    const double total = s.scenarios > 0 ? s.scenarios : 1;
    const double frac = s.completed / total;
    constexpr int kBarWidth = 28;
    const int filled =
        static_cast<int>(std::lround(frac * kBarWidth));
    std::string bar(static_cast<std::size_t>(filled), '#');
    bar.resize(kBarWidth, '.');

    std::printf("campaign  seed %.0f   %.0f/%.0f done", s.seed, s.completed,
                s.scenarios);
    if (s.failed > 0) std::printf(" (%.0f FAILED)", s.failed);
    if (s.resumed > 0) std::printf(" (%.0f resumed)", s.resumed);
    std::printf("   %.0f in flight on %.0f workers\n", s.in_flight,
                s.workers_live);
    std::printf("progress  [%s] %5.1f%%   %.1f/s   eta %s%s\n", bar.c_str(),
                frac * 100.0, s.throughput_per_s, fmt_ms(s.eta_ms).c_str(),
                s.done ? "   DONE" : "");
    if (s.wall_count > 0)
        std::printf("latency   p50 %s  p90 %s  p99 %s  max %s  (%.0f samples)\n",
                    fmt_us(s.wall_p50).c_str(), fmt_us(s.wall_p90).c_str(),
                    fmt_us(s.wall_p99).c_str(), fmt_us(s.wall_max).c_str(),
                    s.wall_count);
    else
        std::printf("latency   (no completed scenarios yet)\n");
    std::printf(
        "faults    %.0f crashes  %.0f timeouts  %.0f retries   heartbeats "
        "%.0f   elapsed %s\n",
        s.crashes, s.timeouts, s.retries, s.heartbeats,
        fmt_ms(s.elapsed_ms).c_str());
}

} // namespace

int main(int argc, char** argv) {
    std::string path;
    long watch_ms = 500;
    bool once = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--watch") {
            const char* s = i + 1 < argc ? argv[++i] : "";
            const auto v = rtsc::fuzz::parse_decimal<long>(s);
            if (!v || *v <= 0) {
                std::fprintf(stderr, "campaign_top: --watch: '%s' is not a "
                                     "positive number of milliseconds\n", s);
                return 2;
            }
            watch_ms = *v;
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: campaign_top FILE [--watch MS] [--once]\n");
            return 0;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "campaign_top: unexpected argument: %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: campaign_top FILE [--watch MS] [--once]\n");
        return 2;
    }

    if (once) {
        Status s;
        if (!load(path, s)) {
            std::fprintf(stderr, "campaign_top: cannot read %s\n", path.c_str());
            return 3;
        }
        render(s);
        return 0;
    }

    bool drawn = false;
    for (;;) {
        Status s;
        if (load(path, s)) {
            if (drawn) std::printf("\033[4A"); // redraw over the last frame
            render(s);
            std::fflush(stdout);
            drawn = true;
            if (s.done) return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
    }
}
