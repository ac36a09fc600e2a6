// Metrics registry unit tests: histogram bucket math, deterministic
// quantiles, counter/gauge behaviour and the flattened snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/shard/protocol.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "workload/mpeg2.hpp"

namespace o = rtsc::obs;

// Every global allocation of this test binary is counted, so the registry
// tests can tell how often creating metrics reaches the heap.
namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::ptrdiff_t> g_live{0}; ///< allocations not yet freed

void* counted(std::size_t n, std::size_t align) {
    ++g_allocations;
    ++g_live;
    n = n == 0 ? 1 : n;
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
void uncounted(void* p) noexcept {
    if (p == nullptr) return;
    --g_live;
    std::free(p);
}
} // namespace

// Every form is replaced, so no allocation is released by another
// allocator's delete.
void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted(n, 0);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
    return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
    try {
        return counted(n, static_cast<std::size_t>(a));
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& t) noexcept {
    return operator new(n, a, t);
}
void operator delete(void* p) noexcept { uncounted(p); }
void operator delete[](void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    uncounted(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    uncounted(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { uncounted(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    uncounted(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    uncounted(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
    uncounted(p);
}
using o::Histogram;

namespace {

/// quantile() as a scan of all kBuckets buckets computes it: the reference
/// the span-scanning implementation must match bit for bit.
double full_scan_quantile(const Histogram& h, double q) {
    if (h.count() == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               q * static_cast<double>(h.count()) + 0.9999999999));
    const std::vector<std::uint32_t> b = h.bucket_counts();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const std::uint64_t c = b[i];
        if (c == 0) continue;
        cum += c;
        if (cum < rank) continue;
        const double lo = static_cast<double>(Histogram::bucket_lo(i));
        const double hi = static_cast<double>(Histogram::bucket_hi(i));
        const double est =
            lo + (hi - lo) * (static_cast<double>(rank - (cum - c)) /
                              static_cast<double>(c));
        return std::clamp(est, static_cast<double>(h.min()),
                          static_cast<double>(h.max()));
    }
    return static_cast<double>(h.max());
}

/// Values spread over every octave of the u64 range.
std::vector<std::uint64_t> spread_values(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng() >> (rng() % 64);
    return v;
}

} // namespace

TEST(HistogramBuckets, ExactBelowSixteen) {
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(Histogram::bucket_index(v), v);
        EXPECT_EQ(Histogram::bucket_lo(v), v);
        EXPECT_EQ(Histogram::bucket_hi(v), v);
    }
}

TEST(HistogramBuckets, LoHiBracketEveryValue) {
    // Sweep the neighbourhood of every power of two across the u64 range.
    for (int exp = 4; exp < 64; ++exp) {
        const std::uint64_t base = std::uint64_t{1} << exp;
        const std::uint64_t top =
            exp < 63 ? base * 2 - 1 : std::numeric_limits<std::uint64_t>::max();
        for (const std::uint64_t v :
             {base - 1, base, base + 1, base + base / 3, base + base / 2, top}) {
            const std::size_t i = Histogram::bucket_index(v);
            ASSERT_LT(i, Histogram::kBuckets) << v;
            EXPECT_LE(Histogram::bucket_lo(i), v) << v;
            EXPECT_GE(Histogram::bucket_hi(i), v) << v;
        }
    }
}

TEST(HistogramBuckets, IndexIsMonotonic) {
    std::size_t prev = 0;
    std::uint64_t v = 0;
    for (;;) {
        const std::size_t i = Histogram::bucket_index(v);
        EXPECT_GE(i, prev) << v;
        prev = i;
        if (v > (std::numeric_limits<std::uint64_t>::max() >> 1)) break;
        v = v * 2 + 1;
    }
}

TEST(HistogramQuantiles, ExactForSmallValues) {
    Histogram h;
    for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
    EXPECT_EQ(h.count(), 16u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 15u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.5);
    // Values below 16 land in exact single-value buckets: nearest-rank
    // quantiles are exact.
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p90(), 14.0);
    EXPECT_DOUBLE_EQ(h.p99(), 15.0);
}

TEST(HistogramQuantiles, LargeValuesWithinBucketResolution) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);
    // ~±6% relative bucket resolution.
    EXPECT_NEAR(h.p50(), 500'000.0, 0.07 * 500'000);
    EXPECT_NEAR(h.p90(), 900'000.0, 0.07 * 900'000);
    EXPECT_NEAR(h.p99(), 990'000.0, 0.07 * 990'000);
    EXPECT_EQ(h.max(), 1'000'000u);
}

TEST(HistogramQuantiles, ClampedToObservedRange) {
    Histogram h;
    h.record(100);
    h.record(100);
    EXPECT_DOUBLE_EQ(h.p50(), 100.0);
    EXPECT_DOUBLE_EQ(h.p99(), 100.0);
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.min(), 0u);
}

TEST(HistogramQuantiles, DeterministicAcrossRecordOrder) {
    Histogram a, b;
    for (std::uint64_t v = 1; v <= 500; ++v) a.record(v * 37);
    for (std::uint64_t v = 500; v >= 1; --v) b.record(v * 37);
    EXPECT_DOUBLE_EQ(a.p50(), b.p50());
    EXPECT_DOUBLE_EQ(a.p90(), b.p90());
    EXPECT_DOUBLE_EQ(a.p99(), b.p99());
    EXPECT_EQ(a.max(), b.max());
}

TEST(HistogramTest, RecordsKernelTimeAsPicoseconds) {
    namespace k = rtsc::kernel;
    Histogram h;
    h.record(k::Time::us(3));
    EXPECT_EQ(h.max(), 3'000'000u);
}

TEST(HistogramTest, RecordSaturatesAFullBucket) {
    std::vector<std::uint32_t> b(Histogram::kBuckets, 0);
    b[3] = UINT32_MAX;
    Histogram h = Histogram::from_parts(b, UINT32_MAX, 3, 3, 3.0 * UINT32_MAX);
    h.record(3);
    // Wrapping would leave 0 in a bucket that holds every sample.
    EXPECT_EQ(h.bucket_counts()[3], UINT32_MAX);
    EXPECT_EQ(h.count(), std::uint64_t{1} << 32);
    // A value in a bucket that is not full still counts normally.
    h.record(4);
    EXPECT_EQ(h.bucket_counts()[4], 1u);
}

TEST(HistogramTest, QuantilesMatchQuantileBitForBit) {
    std::vector<std::vector<std::uint64_t>> sets = {
        {},                                     // empty
        {42},                                   // one sample
        {0, 15, 16, std::uint64_t{1} << 63, UINT64_MAX},
        std::vector<std::uint64_t>(1000, 777),  // heavy duplicates
    };
    sets.back().insert(sets.back().end(), {1, 2, 1u << 20});
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        sets.push_back(spread_values(seed, 1 + seed * seed));
    const std::vector<double> qs = {0.0, 0.25, 0.5, 0.5, 0.9, 0.99, 1.0};
    for (std::size_t n = 0; n < sets.size(); ++n) {
        Histogram h;
        for (const std::uint64_t v : sets[n]) h.record(v);
        std::vector<double> got(qs.size());
        h.quantiles(qs, got);
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(got[i], h.quantile(qs[i])) << "set " << n << " q=" << qs[i];
            EXPECT_EQ(h.quantile(qs[i]), full_scan_quantile(h, qs[i]))
                << "set " << n << " q=" << qs[i];
        }
        const double p3[] = {0.50, 0.90, 0.99};
        double out[3];
        h.quantiles(p3, out);
        EXPECT_EQ(out[0], h.p50()) << "set " << n;
        EXPECT_EQ(out[1], h.p90()) << "set " << n;
        EXPECT_EQ(out[2], h.p99()) << "set " << n;
    }
    // Ranks beyond the bucket total (counts transported without buckets)
    // resolve to max, as quantile() does.
    const Histogram bare = Histogram::from_parts({}, 10, 5, 9, 70.0);
    double out[3];
    const double p3[] = {0.50, 0.90, 0.99};
    bare.quantiles(p3, out);
    for (const double v : out) EXPECT_EQ(v, bare.quantile(0.5));
    EXPECT_EQ(bare.quantile(0.5), 9.0);
}

TEST(HistogramTest, BucketCountsIgnoreRecordOrder) {
    const std::vector<std::uint64_t> shuffled = spread_values(7, 600);
    std::vector<std::uint64_t> ascending = shuffled;
    std::sort(ascending.begin(), ascending.end());
    const std::vector<std::uint64_t> descending(ascending.rbegin(),
                                                ascending.rend());
    Histogram a, d, s;
    for (const std::uint64_t v : ascending) a.record(v);
    for (const std::uint64_t v : descending) d.record(v);
    for (const std::uint64_t v : shuffled) s.record(v);
    ASSERT_EQ(a.bucket_counts().size(), Histogram::kBuckets);
    EXPECT_EQ(a.bucket_counts(), d.bucket_counts());
    EXPECT_EQ(a.bucket_counts(), s.bucket_counts());
    for (const double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(a.quantile(q), d.quantile(q));
        EXPECT_EQ(a.quantile(q), s.quantile(q));
    }
    EXPECT_TRUE(Histogram{}.bucket_counts().empty());
}

TEST(HistogramTest, MergingDisjointSpansEqualsRecordingBoth) {
    Histogram low, high, both;
    for (std::uint64_t v = 0; v < 40; ++v) {
        low.record(v);
        both.record(v);
    }
    for (std::uint64_t v = 1; v <= 30; ++v) {
        high.record(v << 50);
        both.record(v << 50);
    }
    Histogram low_high = low, high_low = high;
    low_high.merge(high);
    high_low.merge(low);
    for (const Histogram* m : {&low_high, &high_low}) {
        EXPECT_EQ(m->bucket_counts(), both.bucket_counts());
        EXPECT_EQ(m->count(), both.count());
        EXPECT_EQ(m->min(), both.min());
        EXPECT_EQ(m->max(), both.max());
        for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0})
            EXPECT_EQ(m->quantile(q), both.quantile(q)) << "q=" << q;
    }
}

TEST(HistogramTest, FromPartsKeepsAHighFirstBucket) {
    std::vector<std::uint32_t> b(Histogram::kBuckets, 0);
    b[400] = 3;
    b[495] = 1;
    const Histogram h = Histogram::from_parts(b, 4, Histogram::bucket_lo(400),
                                              UINT64_MAX, 0.0);
    EXPECT_EQ(h.bucket_counts(), b);
    Histogram r = h;
    r.record(Histogram::bucket_lo(400)); // inside the kept span
    b[400] = 4;
    EXPECT_EQ(r.bucket_counts(), b);
}

TEST(AppendG17, MatchesPrintf) {
    const double values[] = {0.0,
                             1.0,
                             9007199254740992.0, // 2^53
                             9007199254740994.0, // 2^53 + 2
                             99999999999999984.0, // largest double < 1e17
                             1e17,
                             0.5,
                             515549.1333333333,
                             1e-300,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
    for (const double magnitude : values) {
        for (const double v : {magnitude, -magnitude}) {
            char want[40];
            std::snprintf(want, sizeof want, "%.17g", v);
            std::string got = "x=";
            o::append_g17(got, v);
            EXPECT_EQ(got, std::string("x=") + want);
        }
    }
}

TEST(CounterGaugeTest, Basics) {
    o::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    o::Gauge g;
    EXPECT_DOUBLE_EQ(g.mean(), 0.0);
    g.set(4);
    g.set(-2);
    g.set(10);
    EXPECT_DOUBLE_EQ(g.last(), 10.0);
    EXPECT_DOUBLE_EQ(g.min(), -2.0);
    EXPECT_DOUBLE_EQ(g.max(), 10.0);
    EXPECT_DOUBLE_EQ(g.mean(), 4.0);
    EXPECT_EQ(g.samples(), 3u);
}

TEST(RegistryTest, FindOrCreateAndSnapshot) {
    o::MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.find_counter("c"), nullptr);
    EXPECT_EQ(reg.find_gauge("g"), nullptr);
    EXPECT_EQ(reg.find_histogram("h"), nullptr);

    reg.counter("c").inc(3);
    reg.gauge("g").set(1.5);
    reg.histogram("h").record(7);
    EXPECT_FALSE(reg.empty());
    ASSERT_NE(reg.find_counter("c"), nullptr);
    EXPECT_EQ(reg.find_counter("c")->value(), 3u);
    // Find-or-create returns the same object.
    reg.counter("c").inc();
    EXPECT_EQ(reg.find_counter("c")->value(), 4u);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u + 4u + 5u);
    // Sorted by name.
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_LT(snap[i - 1].name, snap[i].name);
    auto value_of = [&snap](const std::string& name) -> double {
        for (const auto& s : snap)
            if (s.name == name) return s.value;
        ADD_FAILURE() << "missing sample " << name;
        return -1;
    };
    EXPECT_DOUBLE_EQ(value_of("c"), 4.0);
    EXPECT_DOUBLE_EQ(value_of("g.last"), 1.5);
    EXPECT_DOUBLE_EQ(value_of("h.count"), 1.0);
    EXPECT_DOUBLE_EQ(value_of("h.p50"), 7.0);
    EXPECT_DOUBLE_EQ(value_of("h.max"), 7.0);

    reg.clear();
    EXPECT_TRUE(reg.empty());
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(RegistryTest, SnapshotOrderMatchesSortByName) {
    // Names that extend another with a character <= '.' put a suffixed run
    // out of name order: "a.b.last" < "a.last", "b-c.count" < "b.count".
    o::MetricsRegistry reg;
    reg.gauge("a").set(1.0);
    reg.gauge("a").set(2.0);
    reg.gauge("a.b").set(-3.0);
    reg.histogram("a-b").record(30);
    reg.histogram("a!").record(40);
    reg.histogram("b").record(50);
    reg.histogram("b").record(5000);
    reg.histogram("b-c").record(60);
    reg.counter("a.c").inc(7);
    reg.counter("a/z").inc(8);

    const auto snap = reg.snapshot();
    std::vector<std::string> names;
    for (const auto& s : snap) names.push_back(s.name);
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(names, sorted);

    std::map<std::string, double> want;
    for (const auto& [n, c] : reg.counters())
        want[std::string(n)] = static_cast<double>(c.value());
    for (const auto& [key, g] : reg.gauges()) {
        const std::string n(key);
        want[n + ".last"] = g.last();
        want[n + ".max"] = g.max();
        want[n + ".mean"] = g.mean();
        want[n + ".min"] = g.min();
    }
    for (const auto& [key, h] : reg.histograms()) {
        const std::string n(key);
        want[n + ".count"] = static_cast<double>(h.count());
        want[n + ".max"] = static_cast<double>(h.max());
        want[n + ".p50"] = h.p50();
        want[n + ".p90"] = h.p90();
        want[n + ".p99"] = h.p99();
    }
    ASSERT_EQ(snap.size(), want.size());
    for (const auto& s : snap) EXPECT_EQ(s.value, want.at(s.name)) << s.name;
}

namespace {

/// The snapshot order derived independently of the registry: every
/// sample's joined name, stably sorted, counters before gauges before
/// histograms on equal names.
std::vector<std::pair<std::string, double>> reference_samples(
    const o::MetricsRegistry& reg) {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [n, c] : reg.counters())
        out.emplace_back(std::string(n), static_cast<double>(c.value()));
    for (const auto& [key, g] : reg.gauges()) {
        const std::string n(key);
        out.emplace_back(n + ".last", g.last());
        out.emplace_back(n + ".max", g.max());
        out.emplace_back(n + ".mean", g.mean());
        out.emplace_back(n + ".min", g.min());
    }
    for (const auto& [key, h] : reg.histograms()) {
        const std::string n(key);
        out.emplace_back(n + ".count", static_cast<double>(h.count()));
        out.emplace_back(n + ".max", static_cast<double>(h.max()));
        out.emplace_back(n + ".p50", h.p50());
        out.emplace_back(n + ".p90", h.p90());
        out.emplace_back(n + ".p99", h.p99());
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
    });
    return out;
}

/// The walk, joined: equal to snapshot() and to the reference order.
void expect_walk_is_snapshot(const o::MetricsRegistry& reg) {
    const std::vector<o::MetricSampleView> views = reg.sample_views();
    const std::vector<o::MetricSample> snap = reg.snapshot();
    std::vector<std::pair<std::string, double>> walked;
    for (const o::MetricSampleView& v : views)
        walked.emplace_back(std::string(v.name) + std::string(v.suffix), v.value);
    ASSERT_EQ(walked.size(), snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(walked[i].first, snap[i].name) << i;
        EXPECT_EQ(walked[i].second, snap[i].value) << snap[i].name;
    }
    EXPECT_EQ(walked, reference_samples(reg));
}

// ------------------------------------------------------- registry storage

TEST(RegistryStorage, AFiftyMetricCatalogueAllocatesOnce) {
    // The collector's catalogue for two processors and four tasks, named as
    // the collector names it, one buffer for every name: the registry's
    // arena holds every node and key, so creating the 50 metrics reaches
    // the heap once, and ten times as many metrics only a few times more.
    std::string name;
    name.reserve(64);
    const auto metric = [&name](std::string_view kind, std::string_view owner,
                                std::string_view field) {
        name.assign(kind).append(owner).append(1, '.').append(field);
        return std::string_view(name);
    };
    const auto catalogue = [&](o::MetricsRegistry& reg, int cpus, int tasks) {
        for (int c = 0; c < cpus; ++c) {
            const std::string cpu = "cpu" + std::to_string(c);
            for (const char* f : {"scheduler_runs", "ctx_switches", "preemptions"})
                (void)reg.counter(metric("cpu.", cpu, f));
            for (const char* f : {"ready_queue_len", "preempt_depth",
                                  "sched_latency_ps", "dispatch_latency_ps"})
                (void)reg.histogram(metric("cpu.", cpu, f));
        }
        for (int t = 0; t < tasks; ++t) {
            const std::string task = "T" + std::to_string(t);
            (void)reg.counter(metric("task.", task, "activations"));
            for (const char* f :
                 {"response_ps", "blame.exec_ps", "blame.preempt_ps",
                  "blame.block_ps", "blame.overhead_ps", "blame.interrupt_ps"})
                (void)reg.histogram(metric("task.", task, f));
            for (const char* f : {"energy_exec_j", "energy_overhead_j"})
                (void)reg.gauge(metric("task.", task, f));
        }
        return reg.counters().size() + reg.gauges().size() +
               reg.histograms().size();
    };

    o::MetricsRegistry reg;
    std::size_t before = g_allocations;
    std::size_t metrics = catalogue(reg, 2, 4);
    // The owners' names ("cpu0", "T3") are short strings: no allocation.
    EXPECT_EQ(metrics, 50u);
    EXPECT_EQ(g_allocations - before, 1u);

    o::MetricsRegistry big;
    before = g_allocations;
    metrics = catalogue(big, 20, 40);
    EXPECT_EQ(metrics, 500u);
    EXPECT_LE(g_allocations - before, 8u);
}

TEST(RegistryStorage, ClearReleasesTheArena) {
    // The shard worker's delta registry: filled, shipped and cleared on
    // every heartbeat. Memory stays bounded over 10,000 cycles.
    o::MetricsRegistry delta;
    const std::ptrdiff_t live_before = g_live;
    std::ptrdiff_t most = 0;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        delta.counter("shard.worker.scenarios_run").inc();
        delta.histogram("shard.worker.scenario_wall_us").record(1000 + i);
        delta.histogram("shard.worker.result_bytes").record(200 + i % 7);
        most = std::max<std::ptrdiff_t>(most, g_live - live_before);
        delta.clear();
        ASSERT_EQ(g_live - live_before, 0) << "cycle " << i;
        ASSERT_TRUE(delta.empty());
    }
    EXPECT_LE(most, 3); // the arena and two histogram spans
}

TEST(RegistryStorage, MovesKeepReferencesAndOrder) {
    o::MetricsRegistry a;
    o::Counter& c = a.counter("b.runs");
    o::Gauge& g = a.gauge("a.level");
    o::Histogram& h = a.histogram("c.latency");
    c.inc(3);
    g.set(1.5);
    h.record(40);
    a.counter("a.first").inc();
    const std::vector<o::MetricSample> snap = a.snapshot();

    o::MetricsRegistry b(std::move(a));
    EXPECT_EQ(b.find_counter("b.runs"), &c);
    EXPECT_EQ(b.find_gauge("a.level"), &g);
    EXPECT_EQ(b.find_histogram("c.latency"), &h);
    std::vector<std::string_view> order;
    for (const auto& [n, counter] : b.counters()) order.push_back(n);
    EXPECT_EQ(order, (std::vector<std::string_view>{"a.first", "b.runs"}));

    o::MetricsRegistry d;
    d.counter("gone").inc();
    d = std::move(b);
    EXPECT_EQ(&d.histogram("c.latency"), &h);
    EXPECT_EQ(d.find_counter("gone"), nullptr);
    const std::vector<o::MetricSample> moved = d.snapshot();
    ASSERT_EQ(moved.size(), snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(moved[i].name, snap[i].name);
        EXPECT_EQ(moved[i].value, snap[i].value) << snap[i].name;
    }

    // A registry moved from holds nothing and takes new metrics.
    EXPECT_TRUE(a.empty());
    a.counter("fresh").inc();
    EXPECT_EQ(a.find_counter("fresh")->value(), 1u);
}

TEST(RegistryStorage, WalkMergeAndWireKeepTheirBytes) {
    // An MPEG-2 collector's registry (SampleViewsWalkAnMpeg2CollectorsRegistry
    // pins its snapshot bytes), moved, merged into an empty registry and
    // sent through the shard protocol: every path gives the same samples.
    namespace k = rtsc::kernel;
    namespace w = rtsc::workload;
    namespace shard = rtsc::campaign::shard;
    k::Simulator sim;
    w::Mpeg2Config cfg;
    cfg.frames = 120;
    w::Mpeg2System soc(cfg);
    o::MetricsRegistry reg;
    {
        o::MetricsCollector collector(reg);
        o::Attribution attribution;
        collector.set_attribution(&attribution);
        for (rtsc::rtos::Processor* cpu : soc.sw_processors())
            collector.attach(*cpu);
        sim.run_until(cfg.frame_period * cfg.frames + k::Time::ms(5));
    }
    const auto rows = [](const o::MetricsRegistry& r) {
        std::vector<std::string> out;
        for (const o::MetricSampleView& v : r.sample_views()) {
            std::string row = std::string(v.name) + std::string(v.suffix) + "=";
            o::append_g17(row, v.value);
            out.push_back(std::move(row));
        }
        return out;
    };
    const std::vector<std::string> want = rows(reg);
    ASSERT_EQ(want.size(), 412u);

    const o::MetricsRegistry moved(std::move(reg));
    EXPECT_EQ(rows(moved), want);
    o::MetricsRegistry merged;
    merged.merge(moved);
    EXPECT_EQ(rows(merged), want);
    const std::vector<std::uint8_t> wire = shard::encode_registry(moved);
    o::MetricsRegistry back;
    ASSERT_TRUE(shard::decode_registry(wire, back));
    EXPECT_EQ(rows(back), want);
    EXPECT_EQ(shard::encode_registry(back), wire);
}

} // namespace

TEST(RegistryTest, SampleViewsWalkInSnapshotOrder) {
    o::MetricsRegistry reg;
    reg.gauge("a").set(1.0);
    reg.gauge("a-b").set(2.0);
    {
        SCOPED_TRACE("gauges a and a-b");
        expect_walk_is_snapshot(reg);
        std::vector<std::string> names;
        for (const o::MetricSampleView& v : reg.sample_views())
            names.push_back(std::string(v.name) + std::string(v.suffix));
        EXPECT_EQ(names, (std::vector<std::string>{
                             "a-b.last", "a-b.max", "a-b.mean", "a-b.min",
                             "a.last", "a.max", "a.mean", "a.min"}));
    }
    reg.counter("a.max").inc(5);
    {
        SCOPED_TRACE("counter a.max beside gauge a");
        expect_walk_is_snapshot(reg);
        const std::vector<o::MetricSampleView> views = reg.sample_views();
        const auto at = std::find_if(views.begin(), views.end(), [](auto& v) {
            return v.name == "a.max";
        });
        ASSERT_NE(at, views.end());
        ASSERT_NE(at + 1, views.end());
        EXPECT_EQ(at->suffix, "");
        EXPECT_EQ(at->value, 5.0);
        EXPECT_EQ((at + 1)->name, "a");
        EXPECT_EQ((at + 1)->suffix, ".max");
    }
    (void)reg.histogram("a");
    {
        SCOPED_TRACE("empty histogram");
        expect_walk_is_snapshot(reg);
        const std::vector<o::MetricSampleView> views = reg.sample_views();
        EXPECT_EQ(views.size(), 1u + 2 * 4 + 5);
        const auto count = std::find_if(views.begin(), views.end(), [](auto& v) {
            return v.name == "a" && v.suffix == ".count";
        });
        ASSERT_NE(count, views.end());
        EXPECT_EQ(count->value, 0.0);
    }
    EXPECT_TRUE(o::MetricsRegistry{}.sample_views().empty());
}

TEST(RegistryTest, SampleViewsWalkAnMpeg2CollectorsRegistry) {
    // 120 frames of the MPEG-2 SoC under a collector with attribution, on
    // each engine: the walk is the snapshot, and the snapshot keeps its
    // bytes (count and FNV-1a of its "name=value;" rows).
    namespace k = rtsc::kernel;
    namespace r = rtsc::rtos;
    namespace w = rtsc::workload;
    for (const r::EngineKind kind :
         {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread}) {
        SCOPED_TRACE(static_cast<int>(kind));
        k::Simulator sim;
        w::Mpeg2Config cfg;
        cfg.frames = 120;
        cfg.engine = kind;
        w::Mpeg2System soc(cfg);
        o::MetricsRegistry reg;
        o::MetricsCollector collector(reg);
        o::Attribution attribution;
        collector.set_attribution(&attribution);
        for (r::Processor* cpu : soc.sw_processors()) collector.attach(*cpu);
        sim.run_until(cfg.frame_period * cfg.frames + k::Time::ms(5));

        expect_walk_is_snapshot(reg);
        std::uint64_t h = 0xcbf29ce484222325ull;
        const std::vector<o::MetricSample> snap = reg.snapshot();
        for (const o::MetricSample& sample : snap) {
            std::string row = sample.name + "=";
            o::append_g17(row, sample.value);
            row += ';';
            for (const char c : row) {
                h ^= static_cast<unsigned char>(c);
                h *= 0x100000001b3ull;
            }
        }
        EXPECT_EQ(snap.size(), 412u);
        EXPECT_EQ(h, 0xb5930262cb6c01d6ull);
    }
}

TEST(MergeTest, HistogramMergeIsExact) {
    // The merge contract: merging two histograms is bit-identical — buckets,
    // stats, every quantile — to one histogram that saw both sample streams.
    // This is what makes per-worker shard registries safe to aggregate.
    o::Histogram a, b, combined;
    std::uint64_t v = 1;
    for (int i = 0; i < 40; ++i) {
        a.record(v);
        combined.record(v);
        v = v * 3 + 1;
    }
    std::uint64_t u = 5;
    for (int i = 0; i < 25; ++i) {
        b.record(u);
        combined.record(u);
        u = u * 7 + 3;
    }
    a.merge(b);
    EXPECT_EQ(a.bucket_counts(), combined.bucket_counts());
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;

    // Merging into / from an empty histogram is the identity.
    o::Histogram empty;
    auto before = combined.bucket_counts();
    combined.merge(empty);
    EXPECT_EQ(combined.bucket_counts(), before);
    empty.merge(combined);
    EXPECT_EQ(empty.bucket_counts(), combined.bucket_counts());
    EXPECT_EQ(empty.min(), combined.min());
}

TEST(MergeTest, CounterAndGaugeMerge) {
    o::Counter a, b;
    a.inc(3);
    b.inc(39);
    a.merge(b);
    EXPECT_EQ(a.value(), 42u);

    o::Gauge g1, g2;
    g1.set(1.0);
    g1.set(5.0);
    g2.set(-2.0);
    g2.set(0.5);
    g1.merge(g2);
    EXPECT_DOUBLE_EQ(g1.min(), -2.0);
    EXPECT_DOUBLE_EQ(g1.max(), 5.0);
    EXPECT_EQ(g1.samples(), 4u);
    EXPECT_DOUBLE_EQ(g1.mean(), (1.0 + 5.0 - 2.0 + 0.5) / 4.0);
    EXPECT_DOUBLE_EQ(g1.last(), 0.5); // other's last wins when it recorded

    o::Gauge quiet; // merging an empty gauge changes nothing, even `last`
    g1.merge(quiet);
    EXPECT_DOUBLE_EQ(g1.last(), 0.5);
    EXPECT_EQ(g1.samples(), 4u);
}

TEST(MergeTest, RegistryMergeFoldsByName) {
    o::MetricsRegistry a, b;
    a.counter("shared").inc(1);
    b.counter("shared").inc(2);
    b.counter("only_b").inc(9);
    a.gauge("g").set(1.0);
    b.gauge("g").set(3.0);
    a.histogram("h").record(10);
    b.histogram("h").record(20);
    b.histogram("h2").record(5);

    a.merge(b);
    EXPECT_EQ(a.find_counter("shared")->value(), 3u);
    EXPECT_EQ(a.find_counter("only_b")->value(), 9u);
    EXPECT_EQ(a.find_gauge("g")->samples(), 2u);
    EXPECT_DOUBLE_EQ(a.find_gauge("g")->max(), 3.0);
    EXPECT_EQ(a.find_histogram("h")->count(), 2u);
    EXPECT_EQ(a.find_histogram("h")->max(), 20u);
    ASSERT_NE(a.find_histogram("h2"), nullptr);
    EXPECT_EQ(a.find_histogram("h2")->count(), 1u);
    // b is untouched by the merge.
    EXPECT_EQ(b.find_counter("shared")->value(), 2u);
}
