#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace rtsc::obs {

void Histogram::widen(std::size_t lo, std::size_t hi) {
    if (span_.empty()) base_ = lo;
    if (lo < base_) {
        span_.insert(span_.begin(), base_ - lo, 0);
        base_ = lo;
    }
    if (hi > base_ + span_.size()) span_.resize(hi - base_, 0);
}

void Histogram::record_outside_span(std::size_t i) {
    widen(i, i + 1);
    span_[i - base_] = 1;
}

void Histogram::merge(const Histogram& other) {
    if (other.count_ == 0) return;
    if (!other.span_.empty()) {
        widen(other.base_, other.base_ + other.span_.size());
        std::uint32_t* dst = span_.data() + (other.base_ - base_);
        for (const std::uint32_t c : other.span_) {
            // Saturating add: a u32 bucket overflowing (4 billion samples in
            // one ±6% band) pins at max instead of wrapping to a tiny count,
            // which would silently shift every quantile estimate downward.
            const std::uint32_t s = *dst + c;
            *dst++ = s < c ? UINT32_MAX : s;
        }
    }
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    sum_ += other.sum_;
    count_ += other.count_;
}

bool operator==(const Histogram& a, const Histogram& b) noexcept {
    if (a.count_ != b.count_ || a.min() != b.min() || a.max_ != b.max_ ||
        a.sum_ != b.sum_)
        return false;
    if (a.base_ == b.base_ && a.span_.size() == b.span_.size())
        return a.span_ == b.span_;
    // Spans stored differently: buckets outside a stored span are zero.
    const auto at = [](const Histogram& h, std::size_t i) -> std::uint32_t {
        return i - h.base_ < h.span_.size() ? h.span_[i - h.base_] : 0;
    };
    const std::size_t lo = std::min(a.base_, b.base_);
    const std::size_t hi =
        std::max(a.base_ + a.span_.size(), b.base_ + b.span_.size());
    for (std::size_t i = lo; i < hi; ++i)
        if (at(a, i) != at(b, i)) return false;
    return true;
}

std::vector<std::uint32_t> Histogram::bucket_counts() const {
    std::vector<std::uint32_t> out;
    if (span_.empty()) return out;
    out.resize(kBuckets, 0);
    std::copy(span_.begin(), span_.end(), out.begin() + base_);
    return out;
}

Histogram Histogram::from_parts(std::vector<std::uint32_t> buckets,
                                std::uint64_t count, std::uint64_t min,
                                std::uint64_t max, double sum) {
    Histogram h;
    if (buckets.size() > kBuckets) buckets.resize(kBuckets);
    const auto nonzero = [](std::uint32_t c) { return c != 0; };
    const auto first = std::find_if(buckets.begin(), buckets.end(), nonzero);
    if (first != buckets.end()) {
        const auto last =
            std::find_if(buckets.rbegin(), buckets.rend(), nonzero).base();
        h.base_ = static_cast<std::size_t>(first - buckets.begin());
        h.span_.assign(first, last);
    }
    h.count_ = count;
    h.min_ = min;
    h.max_ = max;
    h.sum_ = sum;
    return h;
}

double Histogram::quantile(double q) const {
    double est = 0;
    quantiles({&q, 1}, {&est, 1});
    return est;
}

void Histogram::quantiles(std::span<const double> qs,
                          std::span<double> out) const {
    if (count_ == 0) {
        std::fill(out.begin(), out.end(), 0.0);
        return;
    }
    // Rank of the q-quantile sample, 1-based (nearest-rank with ceil).
    const auto rank_of = [this](double q) {
        q = std::clamp(q, 0.0, 1.0);
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   q * static_cast<double>(count_) + 0.9999999999));
    };
    std::size_t k = 0;
    std::uint64_t rank = qs.empty() ? 0 : rank_of(qs[0]);
    std::uint64_t cum = 0;
    for (std::size_t j = 0; j < span_.size() && k < qs.size(); ++j) {
        const std::uint64_t c = span_[j];
        if (c == 0) continue;
        cum += c;
        // Every rank this bucket reaches interpolates inside it: the
        // rank-th sample sits at position (rank - entered) of c samples
        // spanning [lo, hi].
        for (; k < qs.size() && cum >= rank; ++k) {
            const double lo = static_cast<double>(bucket_lo(base_ + j));
            const double hi = static_cast<double>(bucket_hi(base_ + j));
            const double within =
                static_cast<double>(rank - (cum - c)) / static_cast<double>(c);
            const double est = lo + (hi - lo) * within;
            out[k] = std::clamp(est, static_cast<double>(min_),
                                static_cast<double>(max_));
            if (k + 1 < qs.size()) rank = rank_of(qs[k + 1]);
        }
    }
    // Ranks past the bucket total (saturated or transported buckets).
    for (; k < qs.size(); ++k) out[k] = static_cast<double>(max_);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
    const auto it = counters().find(name);
    return it != counters().end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
    const auto it = gauges().find(name);
    return it != gauges().end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
    const auto it = histograms().find(name);
    return it != histograms().end() ? &it->second : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
    if (&other == this)
        throw std::logic_error(
            "MetricsRegistry::merge: merging a registry into itself would "
            "double every metric");
    for (const auto& [name, c] : other.counters()) counter(name).merge(c);
    for (const auto& [name, g] : other.gauges()) gauge(name).merge(g);
    for (const auto& [name, h] : other.histograms()) histogram(name).merge(h);
}

namespace {

/// Lexicographic order of the joined names a + a_suffix and b + b_suffix,
/// without joining them: one memcmp of the bases, and only where one base
/// extends the other does its tail meet the other's suffix.
bool joined_less(const MetricSampleView& a, const MetricSampleView& b) {
    std::string_view x = a.name, x_next = a.suffix;
    std::string_view y = b.name, y_next = b.suffix;
    while (true) {
        if (x.empty()) {
            if (x_next.empty()) return !y.empty() || !y_next.empty();
            x = std::exchange(x_next, {});
        } else if (y.empty()) {
            if (y_next.empty()) return false;
            y = std::exchange(y_next, {});
        } else {
            const std::size_t n = std::min(x.size(), y.size());
            if (const int c = std::memcmp(x.data(), y.data(), n); c != 0)
                return c < 0;
            x.remove_prefix(n);
            y.remove_prefix(n);
        }
    }
}

} // namespace

std::vector<MetricSampleView> MetricsRegistry::sample_views() const {
    std::vector<MetricSampleView> out;
    out.reserve(counters().size() + 4 * gauges().size() +
                5 * histograms().size());
    // Three runs: counters, gauges and histograms, each in map order with
    // one metric's suffixes in name order.
    for (const auto& [name, c] : counters())
        out.push_back({name, {}, static_cast<double>(c.value())});
    const std::size_t gauges_at = out.size();
    for (const auto& [name, g] : gauges()) {
        out.push_back({name, ".last", g.last()});
        out.push_back({name, ".max", g.max()});
        out.push_back({name, ".mean", g.mean()});
        out.push_back({name, ".min", g.min()});
    }
    const std::size_t histograms_at = out.size();
    static constexpr double kPercentiles[] = {0.50, 0.90, 0.99};
    for (const auto& [name, h] : histograms()) {
        double p[3];
        h.quantiles(kPercentiles, p);
        out.push_back({name, ".count", static_cast<double>(h.count())});
        out.push_back({name, ".max", static_cast<double>(h.max())});
        out.push_back({name, ".p50", p[0]});
        out.push_back({name, ".p90", p[1]});
        out.push_back({name, ".p99", p[2]});
    }
    // A suffixed run leaves name order only where one name extends another
    // with a character <= '.' (gauges "a" and "a-b": "a-b.last" < "a.last");
    // such a run is sorted. No run repeats a name, so the sort is
    // deterministic, and the stable merges keep equal names from different
    // runs in counter, gauge, histogram order.
    const auto gauges = out.begin() + static_cast<std::ptrdiff_t>(gauges_at);
    const auto histograms =
        out.begin() + static_cast<std::ptrdiff_t>(histograms_at);
    const auto sort_run = [](auto first, auto last) {
        if (!std::is_sorted(first, last, joined_less))
            std::sort(first, last, joined_less);
    };
    sort_run(gauges, histograms);
    sort_run(histograms, out.end());
    std::inplace_merge(out.begin(), gauges, histograms, joined_less);
    std::inplace_merge(out.begin(), histograms, out.end(), joined_less);
    return out;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
    const std::vector<MetricSampleView> views = sample_views();
    std::vector<MetricSample> out(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
        std::string& name = out[i].name;
        name.reserve(views[i].name.size() + views[i].suffix.size());
        name.append(views[i].name).append(views[i].suffix);
        out[i].value = views[i].value;
    }
    return out;
}

char* write_g17(char* p, double v) noexcept {
    // A finite integral value below 1e17 in magnitude has at most 17
    // digits, so "%.17g" prints exactly its integer digits (-0.0 excepted:
    // it prints "-0").
    if (v > -1e17 && v < 1e17) {
        const auto i = static_cast<std::int64_t>(v);
        if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v)))
            return std::to_chars(p, p + kMaxG17Chars, i).ptr;
    }
    return std::to_chars(p, p + kMaxG17Chars, v, std::chars_format::general,
                         17)
        .ptr;
}

void append_g17(std::string& out, double v) {
    char buf[kMaxG17Chars];
    out.append(buf, write_g17(buf, v));
}

} // namespace rtsc::obs
