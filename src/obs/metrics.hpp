#pragma once
// Metrics registry — counters, gauges and log-bucketed histograms with
// deterministic percentile estimation (p50/p90/p99/max).
//
// Everything recorded here derives from *simulated* time and simulated
// system state, never host wall-clock, so a registry filled by the same
// scenario is bit-identical across runs, worker counts and RTOS engine
// implementations (tests/obs/test_metrics_equivalence.cpp pins the latter).
//
// Histograms use log-linear buckets (exact below 16, then 8 sub-buckets per
// power of two, ~±6% relative resolution) so recording is O(1) regardless of
// sample count. A histogram stores only the span of buckets its samples
// touched, so its footprint tracks the spread of its values, not the 496
// buckets of the full range; quantiles interpolate inside the hit bucket and
// clamp to the exact observed min/max.
//
// Usage:
//   obs::MetricsRegistry reg;
//   reg.counter("cpu.dispatches").inc();
//   reg.histogram("cpu.sched_latency_ps").record(t.raw_ps());
//   for (const auto& s : reg.snapshot()) ...  // sorted, flattened samples

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/time.hpp"

namespace rtsc::obs {

class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

    /// Combine with a counter recorded elsewhere (another worker process):
    /// the result is exactly the counter a single recorder would hold.
    void merge(const Counter& other) noexcept { value_ += other.value_; }

private:
    std::uint64_t value_ = 0;
};

class Gauge {
public:
    void set(double v) noexcept {
        last_ = v;
        if (samples_ == 0 || v < min_) min_ = v;
        if (samples_ == 0 || v > max_) max_ = v;
        sum_ += v;
        ++samples_;
    }
    [[nodiscard]] double last() const noexcept { return last_; }
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    [[nodiscard]] double mean() const noexcept {
        return samples_ != 0 ? sum_ / static_cast<double>(samples_) : 0.0;
    }
    [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }

    /// Combine with a gauge recorded elsewhere. min/max/sum/samples (and so
    /// mean) merge exactly; `last` has no global order across recorders, so
    /// the other side's last wins when it recorded anything — deterministic
    /// as long as the merge order is (workers are merged by worker index).
    void merge(const Gauge& other) noexcept {
        if (other.samples_ == 0) return;
        if (samples_ == 0 || other.min_ < min_) min_ = other.min_;
        if (samples_ == 0 || other.max_ > max_) max_ = other.max_;
        sum_ += other.sum_;
        samples_ += other.samples_;
        last_ = other.last_;
    }

    /// Rebuild a gauge from transported state (shard wire protocol).
    [[nodiscard]] static Gauge from_parts(double last, double min, double max,
                                          double sum, std::uint64_t samples) noexcept {
        Gauge g;
        g.last_ = last;
        g.min_ = min;
        g.max_ = max;
        g.sum_ = sum;
        g.samples_ = samples;
        return g;
    }

private:
    double last_ = 0, min_ = 0, max_ = 0, sum_ = 0;
    std::uint64_t samples_ = 0;
};

class Histogram {
public:
    /// Values 0..15 get exact buckets; larger ones land in one of 8
    /// sub-buckets per power of two. 496 buckets cover the full uint64 range.
    static constexpr std::size_t kBuckets = 496;

    [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
        if (v < 16) return static_cast<std::size_t>(v);
        const int exp = 63 - countl_zero(v); // MSB position, >= 4
        const auto sub = static_cast<std::size_t>((v >> (exp - 3)) & 0x7u);
        return 16 + static_cast<std::size_t>(exp - 4) * 8 + sub;
    }
    [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t i) noexcept {
        if (i < 16) return i;
        const std::size_t exp = (i - 16) / 8 + 4;
        const std::size_t sub = (i - 16) % 8;
        return (std::uint64_t{1} << exp) | (std::uint64_t{sub} << (exp - 3));
    }
    [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t i) noexcept {
        if (i < 16) return i;
        const std::size_t exp = (i - 16) / 8 + 4;
        return bucket_lo(i) + (std::uint64_t{1} << (exp - 3)) - 1;
    }

    // Inline on purpose: the collector records several histograms per
    // dispatch and per job completion; an out-of-line call here is
    // measurable in the observability-overhead bench. Only a value whose
    // bucket lies outside the stored span takes the out-of-line path. A full
    // bucket saturates at UINT32_MAX, as in merge().
    void record(std::uint64_t v) {
        const std::size_t i = bucket_index(v);
        if (i - base_ < span_.size()) { // unsigned: also false for i < base_
            std::uint32_t& c = span_[i - base_];
            if (c != UINT32_MAX) ++c;
        } else {
            record_outside_span(i);
        }
        if (count_ == 0 || v < min_) min_ = v;
        if (v > max_) max_ = v;
        sum_ += static_cast<double>(v);
        ++count_;
    }
    void record(kernel::Time t) { record(t.raw_ps()); }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t min() const noexcept { return count_ != 0 ? min_ : 0; }
    [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double mean() const noexcept {
        return count_ != 0 ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /// Deterministic quantile estimate, q in [0,1]: linear interpolation
    /// inside the bucket holding the rank, clamped to the observed min/max.
    [[nodiscard]] double quantile(double q) const;
    /// quantile() of every entry of `qs`, which must be ascending, in one
    /// scan of the buckets: out[i] is bit-identical to quantile(qs[i]).
    void quantiles(std::span<const double> qs, std::span<double> out) const;
    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p90() const { return quantile(0.90); }
    [[nodiscard]] double p99() const { return quantile(0.99); }

    /// Combine with a histogram recorded elsewhere (another worker process).
    /// Log-bucketed histograms merge *exactly*: bucket counts add, min/max/
    /// sum/count combine, so the merged histogram is bit-identical — buckets
    /// and every derived quantile — to one that recorded both sample
    /// streams itself. This is what makes per-worker shard metrics safe to
    /// aggregate without any loss. Bucket adds saturate at UINT32_MAX
    /// rather than wrapping.
    void merge(const Histogram& other);

    /// Same samples as far as a histogram can tell: equal count, min, max
    /// and sum, and equal counts in every bucket (however much of the
    /// range each one stores).
    friend bool operator==(const Histogram& a, const Histogram& b) noexcept;

    /// Raw bucket counts, kBuckets long; empty while no bucket holds a
    /// count (before the first record()).
    [[nodiscard]] std::vector<std::uint32_t> bucket_counts() const;

    /// Rebuild a histogram from transported state (shard wire protocol).
    /// `buckets` may be empty (no samples) or kBuckets long; only the span
    /// from its first to its last non-zero bucket is kept.
    [[nodiscard]] static Histogram from_parts(std::vector<std::uint32_t> buckets,
                                              std::uint64_t count,
                                              std::uint64_t min,
                                              std::uint64_t max, double sum);

private:
    // Identical to std::countl_zero; kept as a named helper so bucket_index
    // stays constexpr on toolchains where <bit> is incomplete.
    [[nodiscard]] static constexpr int countl_zero(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
        return v == 0 ? 64 : __builtin_clzll(v);
#else
        int n = 0;
        if (v == 0) return 64;
        while ((v & (std::uint64_t{1} << 63)) == 0) {
            v <<= 1;
            ++n;
        }
        return n;
#endif
    }

    /// Widen the stored span to cover [lo, hi).
    void widen(std::size_t lo, std::size_t hi);
    /// record()'s slow path: widen to bucket `i` and count one sample in it.
    void record_outside_span(std::size_t i);

    /// Counts of buckets [base_, base_ + span_.size()); every bucket outside
    /// that span is zero.
    std::vector<std::uint32_t> span_;
    std::size_t base_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0, max_ = 0;
    double sum_ = 0;
};

/// One flattened snapshot entry ("cpu.sched_latency_ps.p99" -> value).
struct MetricSample {
    std::string name;
    double value = 0;
};

/// A MetricSample before its name is joined: the sample is named `name`
/// followed by `suffix`. `name` views the registry's key, valid until the
/// registry is cleared or destroyed.
struct MetricSampleView {
    std::string_view name;   ///< the metric's registered name
    std::string_view suffix; ///< "" for a counter, else ".last", ".p99", ...
    double value = 0;
};

/// Longest write_g17 rendering: "-d.dddddddddddddddde-ddd".
inline constexpr std::size_t kMaxG17Chars = 24;

/// Write `v` at `p` exactly as printf's "%.17g" renders it and return the
/// end (at most kMaxG17Chars bytes): the one renderer for metric values,
/// Perfetto counter values, fuzz metric rows, shard status numbers and
/// query energies.
char* write_g17(char* p, double v) noexcept;

/// write_g17 appended to `out`.
void append_g17(std::string& out, double v);

class MetricsRegistry {
public:
    /// Name-ordered metrics of one kind. Keys view the registry's arena.
    template <typename T>
    using Map = std::pmr::map<std::string_view, T, std::less<>>;

    MetricsRegistry() = default;
    /// Move-only: a move hands over the arena, so every reference the
    /// registry gave out stays valid and keeps its order.
    MetricsRegistry(MetricsRegistry&&) noexcept = default;
    MetricsRegistry& operator=(MetricsRegistry&&) noexcept = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Find-or-create. References stay valid until clear(), across moves.
    /// A new metric's node and key come from the registry's arena, so
    /// creating one allocates nothing of its own.
    [[nodiscard]] Counter& counter(std::string_view name) {
        return find_or_create(store().counters, name);
    }
    [[nodiscard]] Gauge& gauge(std::string_view name) {
        return find_or_create(store().gauges, name);
    }
    [[nodiscard]] Histogram& histogram(std::string_view name) {
        return find_or_create(store().histograms, name);
    }

    /// Lookup without creation; nullptr when absent.
    [[nodiscard]] const Counter* find_counter(std::string_view name) const;
    [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
    [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

    [[nodiscard]] bool empty() const noexcept {
        return counters().empty() && gauges().empty() && histograms().empty();
    }

    /// Flatten everything into name-sorted samples: counters as-is, gauges
    /// as .last/.min/.max/.mean, histograms as .count/.p50/.p90/.p99/.max.
    /// The output is deterministic: same recorded data => same samples.
    /// Equal names (counter "a.max" beside gauge "a") keep the order
    /// counter, gauge, histogram.
    [[nodiscard]] std::vector<MetricSample> snapshot() const;

    /// snapshot()'s samples in its order, without building a string per
    /// sample; snapshot() is this walk with each name joined.
    [[nodiscard]] std::vector<MetricSampleView> sample_views() const;

    /// Fold another registry into this one, metric by metric, by name:
    /// counters and histograms combine exactly (see Histogram::merge),
    /// gauges combine min/max/sum/samples. Metrics present only in `other`
    /// are copied. The shard coordinator uses this to aggregate per-worker
    /// registries into one campaign-wide registry; workers ship *deltas*
    /// per heartbeat precisely so each sample is merged exactly once —
    /// merging the same cumulative snapshot twice doubles every counter.
    /// Throws std::logic_error on self-merge (&other == this).
    void merge(const MetricsRegistry& other);

    /// Drop every metric and release the arena.
    void clear() noexcept { store_.reset(); }

    [[nodiscard]] const Map<Counter>& counters() const noexcept {
        return store_ ? store_->counters : empty_map<Counter>();
    }
    [[nodiscard]] const Map<Gauge>& gauges() const noexcept {
        return store_ ? store_->gauges : empty_map<Gauge>();
    }
    [[nodiscard]] const Map<Histogram>& histograms() const noexcept {
        return store_ ? store_->histograms : empty_map<Histogram>();
    }

private:
    /// The arena and the maps whose nodes and keys it holds, in one heap
    /// block that moves with the registry. The first kFirstChunk bytes of
    /// nodes and keys (the fuzz harness's whole catalogue) live in the
    /// block itself; a larger catalogue takes geometrically growing chunks.
    struct Store {
        static constexpr std::size_t kFirstChunk = 12288;
        alignas(std::max_align_t) std::byte first_chunk[kFirstChunk];
        std::pmr::monotonic_buffer_resource arena{first_chunk, kFirstChunk};
        Map<Counter> counters{&arena};
        Map<Gauge> gauges{&arena};
        Map<Histogram> histograms{&arena};
    };

    [[nodiscard]] Store& store() {
        if (!store_) store_ = std::make_unique<Store>();
        return *store_;
    }
    /// The maps of a registry that holds no metric yet.
    template <typename T>
    [[nodiscard]] static const Map<T>& empty_map() noexcept {
        static const Map<T> empty;
        return empty;
    }

    template <typename T>
    T& find_or_create(Map<T>& map, std::string_view name) {
        const auto it = map.lower_bound(name);
        if (it != map.end() && it->first == name) return it->second;
        // The key's bytes go into the arena beside the node.
        char* key = static_cast<char*>(store_->arena.allocate(name.size(), 1));
        name.copy(key, name.size());
        return map.try_emplace(it, std::string_view(key, name.size()))->second;
    }

    std::unique_ptr<Store> store_; ///< null until the first metric
};

} // namespace rtsc::obs
