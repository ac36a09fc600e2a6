#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <typeinfo>

#include <cxxabi.h>

#include "campaign/fnv.hpp"

namespace rtsc::campaign {

namespace {

using clock = std::chrono::steady_clock;

[[nodiscard]] double elapsed_ms(clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

} // namespace

std::string failure_description(const std::exception& e) {
    // Demangle the *dynamic* type so "throw std::runtime_error" reports as
    // std::runtime_error even when caught as std::exception&. Both GCC and
    // Clang use the Itanium ABI, so the spelling is platform-stable — safe
    // to include in the deterministic report digest.
    const char* raw = typeid(e).name();
    int status = 0;
    char* demangled = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
    std::string type = status == 0 && demangled != nullptr ? demangled : raw;
    std::free(demangled);
    return type + ": " + e.what();
}

ScenarioResult run_scenario(const ScenarioSpec& spec, std::size_t index,
                            std::uint64_t campaign_seed) {
    ScenarioResult out;
    out.name = spec.name;
    out.index = index;
    out.seed = derive_seed(campaign_seed, index);

    ScenarioContext ctx(index, out.seed);
    const clock::time_point t0 = clock::now();
    try {
        spec.body(ctx);
        out.ok = true;
    } catch (const std::exception& e) {
        out.ok = false;
        out.error = failure_description(e);
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception type";
    }
    out.wall_ms = elapsed_ms(t0);
    out.metrics = std::move(ctx.metrics_);
    out.notes = std::move(ctx.notes_);
    return out;
}

std::size_t CampaignReport::failures() const noexcept {
    std::size_t n = 0;
    for (const ScenarioResult& r : results)
        if (!r.ok) ++n;
    return n;
}

const ScenarioResult* CampaignReport::find(const std::string& name) const {
    for (const ScenarioResult& r : results)
        if (r.name == name) return &r;
    return nullptr;
}

std::uint64_t CampaignReport::digest() const {
    Fnv1a h;
    h.u64(seed);
    h.u64(results.size());
    for (const ScenarioResult& r : results) {
        h.str(r.name);
        h.u64(r.index);
        h.u64(r.seed);
        h.u64(r.ok ? 1 : 0);
        h.str(r.error);
        h.u64(r.metrics.size());
        for (const auto& [k, v] : r.metrics) {
            h.str(k);
            h.f64(v);
        }
        h.u64(r.notes.size());
        for (const auto& [k, v] : r.notes) {
            h.str(k);
            h.str(v);
        }
    }
    return h.value();
}

std::vector<MetricSummary> CampaignReport::aggregate_metrics() const {
    // std::map gives the sorted-by-name output order for free.
    std::map<std::string, std::vector<double>> samples;
    for (const ScenarioResult& r : results)
        for (const auto& [k, v] : r.metrics) samples[k].push_back(v);

    std::vector<MetricSummary> out;
    out.reserve(samples.size());
    for (auto& [name, vals] : samples) {
        std::sort(vals.begin(), vals.end());
        MetricSummary s;
        s.name = name;
        s.count = vals.size();
        s.min = vals.front();
        s.max = vals.back();
        double sum = 0;
        for (const double v : vals) sum += v;
        s.mean = sum / static_cast<double>(vals.size());
        // Exact nearest-rank percentile: the smallest sample with at least
        // q*count samples <= it. Integer rank arithmetic, no float ceil.
        auto pct = [&vals](unsigned q) {
            const std::size_t n = vals.size();
            std::size_t rank = (n * q + 99) / 100; // ceil(n*q/100)
            if (rank == 0) rank = 1;
            return vals[rank - 1];
        };
        s.p50 = pct(50);
        s.p90 = pct(90);
        s.p99 = pct(99);
        out.push_back(std::move(s));
    }
    return out;
}

std::string CampaignReport::to_string() const {
    std::ostringstream os;
    os << "campaign seed=" << seed << " scenarios=" << results.size()
       << " workers=" << workers << " wall=" << wall_ms << "ms\n";
    for (const ScenarioResult& r : results) {
        os << "  [" << r.index << "] " << r.name << ": "
           << (r.ok ? "ok" : "FAILED") << " (" << r.wall_ms << "ms)";
        if (!r.ok) os << " — " << r.error;
        for (const auto& [k, v] : r.metrics) os << " " << k << "=" << v;
        os << "\n";
    }
    if (const std::size_t f = failures(); f != 0)
        os << "  " << f << " scenario(s) FAILED\n";
    return os.str();
}

std::string CampaignReport::to_csv() const {
    std::ostringstream os;
    os << "scenario,index,seed,ok,metric,value\n";
    for (const ScenarioResult& r : results) {
        if (r.metrics.empty()) {
            os << r.name << "," << r.index << "," << r.seed << ","
               << (r.ok ? 1 : 0) << ",,\n";
            continue;
        }
        for (const auto& [k, v] : r.metrics)
            os << r.name << "," << r.index << "," << r.seed << ","
               << (r.ok ? 1 : 0) << "," << k << "," << v << "\n";
    }
    return os.str();
}

CampaignReport CampaignRunner::run(const std::vector<ScenarioSpec>& scenarios) const {
    const clock::time_point t0 = clock::now();
    CampaignReport report;
    report.seed = opt_.seed;
    report.results.resize(scenarios.size());

    unsigned workers = opt_.workers;
    if (workers == 0) workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
    if (workers > scenarios.size() && !scenarios.empty())
        workers = static_cast<unsigned>(scenarios.size());
    report.workers = workers;

    std::atomic<std::size_t> next{0};
    std::mutex mu; ///< guards `completed` and serializes the progress callback
    std::size_t completed = 0;
    const auto worker_loop = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= scenarios.size()) return;

            report.results[i] = run_scenario(scenarios[i], i, opt_.seed);

            std::lock_guard<std::mutex> lk(mu);
            ++completed;
            if (opt_.on_progress)
                opt_.on_progress(
                    Progress{completed, scenarios.size(), report.results[i]});
        }
    };
    {
        // Even a single worker runs off the calling thread: per-thread caches
        // the scenarios fill, such as the kernel's coroutine stack pool, are
        // released when the worker exits instead of staying with the caller.
        // The threads are joined when the scope ends, on a throw as well.
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        if (!scenarios.empty())
            for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
    }
    report.wall_ms = elapsed_ms(t0);
    return report;
}

} // namespace rtsc::campaign
