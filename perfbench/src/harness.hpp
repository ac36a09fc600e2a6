#pragma once
// Plumbing shared by the benchmark's workloads: wall-clock spans that double
// as the traced run's layer-boundary records, the correctness gate every
// simulated run passes through, and the metric map a run prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzz/generate.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
    return std::chrono::duration<double>(b - a).count();
}

/// One layer boundary crossed during a traced pass.
struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0; ///< since the tracer was created
    std::int64_t end_ns = 0;
    int parent = -1;           ///< index of the enclosing record, -1 = root
    std::vector<std::pair<std::string, double>> counts;
};

/// Collects spans in memory while enabled; write() dumps them at exit so no
/// trace I/O lands inside a measured pass.
class Tracer {
public:
    void enable(bool on) noexcept { on_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return on_; }
    /// One JSON object per line: name, start_ns, end_ns, parent, counts.
    /// Span and count names are plain identifiers and are written unescaped.
    /// Throws std::runtime_error when the file cannot be written.
    void write(const std::string& path) const;

private:
    friend class Span;
    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRecord> records_;
    int open_ = -1; ///< innermost open record
};

/// Times one call into a layer. Every pass uses spans for its timings; only
/// a pass run with the tracer enabled also records them.
class Span {
public:
    Span(Tracer& tracer, std::string_view name);
    ~Span() { (void)close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attach a count to this boundary (traced passes only).
    void count(std::string_view name, double value);
    /// End the span; returns its duration in seconds. Idempotent.
    double close();

private:
    Tracer& tracer_;
    Clock::time_point start_;
    int index_ = -1;
    int outer_ = -1;
    bool open_ = true;
    double seconds_ = 0;
};

/// Counts operations (one simulated run or one checked model each) and
/// those whose outputs were wrong. Problems are reported on stderr.
class Gate {
public:
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

private:
    friend class Op;
    void report(const std::string& op, const std::string& problem);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t reported_ = 0;
    std::map<std::string, std::uint64_t> first_seen_; ///< see expect_stable
};

/// One operation under the gate. Fails when any expectation fails or when
/// it is destroyed by an exception.
class Op {
public:
    Op(Gate& gate, std::string name);
    ~Op();
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

    void expect(bool ok, const std::string& what);
    void expect_eq(const char* what, std::uint64_t got, std::uint64_t want);
    /// A deterministic count that is not pinned to a constant (kernel cost
    /// counts such as activations, which an optimisation may change): it
    /// must repeat exactly in every pass of the process.
    void expect_stable(const std::string& key, std::uint64_t value);

private:
    Gate& gate_;
    std::string name_;
    int uncaught_;
    bool ok_ = true;
};

struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Host seconds of one pass, split by the RTOS engine that ran.
struct PassTime {
    double wall_s = 0;
    double proc_s = 0;   ///< §4.2 procedure-call engine
    double thread_s = 0; ///< §4.1 dedicated RTOS thread
};

/// A benchmark workload: fixed work per pass, every output checked.
class Workload {
public:
    virtual ~Workload() = default;
    /// Run one pass. `order` permutes the pass's independent runs (the
    /// workload seed's only influence); every run goes through `gate`; with
    /// `tracer` enabled the pass also profiles the kernel and records the
    /// per-layer figures layer_metrics() reports.
    virtual PassTime pass(rtsc::fuzz::Rng& order, Gate& gate, Tracer& tracer) = 0;
    /// Per-layer metrics of the most recent pass, which must be traced.
    virtual void layer_metrics(Metrics& out) const = 0;
    /// Print the observed pinned values in pins.hpp syntax (after a pass).
    virtual void print_pins() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_ring();
[[nodiscard]] std::unique_ptr<Workload> make_mpeg2(std::string tmp_dir);
[[nodiscard]] std::unique_ptr<Workload> make_verify(std::uint64_t campaign_seed);

/// Fisher-Yates with the fuzz layer's portable SplitMix64 stream, so a seed
/// gives the same order on every platform.
template <typename T>
void shuffle(std::vector<T>& v, rtsc::fuzz::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

[[nodiscard]] double median(std::vector<double> v);

/// A double as a JSON number with every digit (null when not finite).
[[nodiscard]] std::string json_number(double v);

} // namespace perfbench
