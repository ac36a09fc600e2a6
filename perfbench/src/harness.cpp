#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

} // namespace

Span::Span(Tracer& tracer, std::string_view name)
    : tracer_(tracer), start_(Clock::now()) {
    if (!tracer_.on_) return;
    index_ = static_cast<int>(tracer_.records_.size());
    outer_ = tracer_.open_;
    SpanRecord rec;
    rec.name = std::string(name);
    rec.start_ns = ns_since(tracer_.origin_, start_);
    rec.parent = outer_;
    tracer_.records_.push_back(std::move(rec));
    tracer_.open_ = index_;
}

void Span::count(std::string_view name, double value) {
    if (index_ < 0) return;
    tracer_.records_[static_cast<std::size_t>(index_)].counts.emplace_back(
        std::string(name), value);
}

double Span::close() {
    if (!open_) return seconds_;
    open_ = false;
    const Clock::time_point end = Clock::now();
    seconds_ = seconds_between(start_, end);
    if (index_ >= 0) {
        tracer_.records_[static_cast<std::size_t>(index_)].end_ns =
            ns_since(tracer_.origin_, end);
        tracer_.open_ = outer_;
    }
    return seconds_;
}

void Tracer::write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write span file " + path);
    for (const SpanRecord& r : records_) {
        os << "{\"name\":\"" << r.name
           << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
           << ",\"parent\":" << r.parent << ",\"counts\":{";
        for (std::size_t i = 0; i < r.counts.size(); ++i)
            os << (i == 0 ? "" : ",") << '"'
               << r.counts[i].first << "\":" << json_number(r.counts[i].second);
        os << "}}\n";
    }
    if (!os.flush()) throw std::runtime_error("cannot write span file " + path);
}

void Gate::report(const std::string& op, const std::string& problem) {
    constexpr std::uint64_t kMaxReports = 20;
    if (reported_++ < kMaxReports)
        std::cerr << "perfbench: FAILED " << op << ": " << problem << "\n";
}

Op::Op(Gate& gate, std::string name)
    : gate_(gate), name_(std::move(name)),
      uncaught_(std::uncaught_exceptions()) {}

Op::~Op() {
    if (std::uncaught_exceptions() > uncaught_) {
        ok_ = false;
        gate_.report(name_, "threw");
    }
    ++gate_.attempted_;
    if (!ok_) ++gate_.failed_;
}

void Op::expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    gate_.report(name_, what);
}

void Op::expect_eq(const char* what, std::uint64_t got, std::uint64_t want) {
    expect(got == want, std::string(what) + " = " + std::to_string(got) +
                            ", pinned " + std::to_string(want));
}

void Op::expect_stable(const std::string& key, std::uint64_t value) {
    const auto [it, first] = gate_.first_seen_.emplace(key, value);
    expect(first || it->second == value,
           key + " drifted from " + std::to_string(it->second) + " to " +
               std::to_string(value));
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace perfbench
