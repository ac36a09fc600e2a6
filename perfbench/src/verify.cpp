// Workload `verify`: generated fuzz models checked the way CI checks them,
// as scenarios of a serial campaign::CampaignRunner. Per model: the four
// fuzz::run_model legs (both engines x skip-ahead on/off), fuzz::compare
// between them, then explore::explore_model with default bounds. Thousands
// of short-lived simulations, so per-model elaboration dominates — the
// opposite use of kernel and rtos from the ring's long steady state. The
// explore and campaign layers run only here.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "explore/model_check.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "harness.hpp"
#include "pins.hpp"

namespace perfbench {
namespace {

namespace f = rtsc::fuzz;
namespace r = rtsc::rtos;
namespace c = rtsc::campaign;
namespace x = rtsc::explore;

/// What one scenario observed; filled by the scenario body.
struct ModelOutcome {
    std::uint64_t seed = 0;
    std::string problem; ///< first divergence or leg error, empty when clean
    std::uint64_t digest = 0;
    std::uint64_t rows = 0;
    x::ModelReport explored;
};

/// Host time of one traced pass, per layer.
struct LayerTimes {
    double generate_s = 0;
    double leg_s[2] = {}; ///< [engine]
    double compare_s = 0;
    double explore_s = 0;
    std::uint64_t rows = 0;
    std::uint64_t schedules = 0;
    std::uint64_t pruned = 0;
    double campaign_overhead_s = 0;
};

std::uint64_t row_count(const f::RunResult& res) {
    return res.states.size() + res.overheads.size() + res.comms.size() +
           res.markers.size() + res.metrics.size() + res.attribution.size();
}

ModelOutcome check_model(std::uint64_t seed, Tracer& tracer, LayerTimes& lt) {
    Span span(tracer, "verify.model");
    ModelOutcome out;
    out.seed = seed;
    Span gen(tracer, "fuzz.generate");
    const f::ModelSpec spec = f::generate(seed);
    lt.generate_s += gen.close();

    // Legs in diff_engines' order: each engine with skip-ahead on, then off.
    f::RunResult legs[4];
    const r::EngineKind kinds[2] = {r::EngineKind::procedure_calls,
                                    r::EngineKind::rtos_thread};
    for (int i = 0; i < 4; ++i) {
        Span leg(tracer, "fuzz.run_model");
        legs[i] = f::run_model(spec, kinds[i % 2], i < 2);
        lt.leg_s[i % 2] += leg.close();
        out.rows += row_count(legs[i]);
    }
    Span cmp(tracer, "fuzz.compare");
    const f::Divergence diffs[3] = {f::compare(legs[0], legs[1]),
                                    f::compare(legs[0], legs[2]),
                                    f::compare(legs[1], legs[3])};
    lt.compare_s += cmp.close();
    for (const f::Divergence& d : diffs)
        if (d.diverged && out.problem.empty()) out.problem = d.to_string();
    for (const f::RunResult& leg : legs)
        if (!leg.error.empty() && out.problem.empty())
            out.problem = "leg failed: " + leg.error;
    out.digest = legs[0].digest;
    lt.rows += out.rows;

    Span exp(tracer, "explore.explore_model");
    out.explored = x::explore_model(spec, x::ModelCheckConfig{});
    lt.explore_s += exp.close();
    lt.schedules += out.explored.schedules;
    lt.pruned += out.explored.pruned_branches;
    exp.count("schedules", static_cast<double>(out.explored.schedules));
    return out;
}

class Verify final : public Workload {
public:
    explicit Verify(std::uint64_t campaign_seed) : campaign_seed_(campaign_seed) {}

    PassTime pass(rtsc::fuzz::Rng& order, Gate& gate, Tracer& tracer) override {
        Span span(tracer, "pass.verify");
        std::vector<std::size_t> models;
        for (std::size_t i = 0; i < std::size(pins::kModels); ++i)
            models.push_back(i);
        shuffle(models, order);

        LayerTimes lt;
        std::vector<ModelOutcome> outcomes(models.size());
        std::vector<c::ScenarioSpec> scenarios;
        for (std::size_t slot = 0; slot < models.size(); ++slot) {
            const std::uint64_t seed = pins::kModels[models[slot]].seed;
            // workers = 1: the bodies run one at a time, so they may share
            // the tracer and the accumulators.
            scenarios.push_back({"model_" + std::to_string(seed),
                                 [&, slot, seed](c::ScenarioContext&) {
                                     outcomes[slot] =
                                         check_model(seed, tracer, lt);
                                 }});
        }
        c::CampaignRunner::Options opt;
        opt.workers = 1;
        opt.seed = campaign_seed_;
        Span run(tracer, "campaign.run");
        const c::CampaignReport report = c::CampaignRunner(opt).run(scenarios);
        run.close();

        double scenario_ms = 0;
        for (std::size_t slot = 0; slot < report.results.size(); ++slot) {
            const c::ScenarioResult& res = report.results[slot];
            const ModelOutcome& got = outcomes[slot];
            const pins::ModelPin& pin = pins::kModels[models[slot]];
            scenario_ms += res.wall_ms;
            Op op(gate, "verify." + res.name);
            op.expect(res.ok, "scenario threw: " + res.error);
            if (!res.ok) continue;
            op.expect(got.problem.empty(), got.problem);
            op.expect(!got.explored.violation,
                      "explorer violation: " + got.explored.diagnosis);
            op.expect(got.explored.complete, "exploration incomplete");
            op.expect_eq("leg digest", got.digest, pin.digest);
            op.expect_eq("explored schedules", got.explored.schedules,
                         pin.schedules);
            op.expect_eq("pruned branches", got.explored.pruned_branches,
                         pin.pruned);
        }
        lt.campaign_overhead_s = (report.wall_ms - scenario_ms) / 1e3;

        PassTime t;
        t.proc_s = lt.leg_s[0];
        t.thread_s = lt.leg_s[1];
        t.wall_s = span.close();
        last_ = lt;
        last_outcomes_ = std::move(outcomes);
        last_order_ = std::move(models);
        return t;
    }

    void layer_metrics(Metrics& out) const override {
        const double schedules = static_cast<double>(last_.schedules);
        const double pruned = static_cast<double>(last_.pruned);
        out["fuzz.models"] = {static_cast<double>(std::size(pins::kModels)), "count"};
        out["fuzz.generate_ms"] = {last_.generate_s * 1e3, "ms"};
        out["fuzz.leg_ms.proc"] = {last_.leg_s[0] * 1e3, "ms"};
        out["fuzz.leg_ms.thread"] = {last_.leg_s[1] * 1e3, "ms"};
        out["fuzz.compare_ms"] = {last_.compare_s * 1e3, "ms"};
        out["fuzz.rows"] = {static_cast<double>(last_.rows), "count"};
        out["explore.schedules"] = {schedules, "count"};
        out["explore.pruned_branches"] = {pruned, "count"};
        out["explore.pruned_ratio"] = {pruned / (pruned + schedules), "ratio"};
        out["explore.us_per_schedule"] = {last_.explore_s * 1e6 / schedules, "us"};
        out["campaign.scenarios"] = {static_cast<double>(std::size(pins::kModels)),
                                     "count"};
        out["campaign.overhead_ms"] = {last_.campaign_overhead_s * 1e3, "ms"};
    }

    void print_pins() const override {
        std::vector<const ModelOutcome*> by_index(std::size(pins::kModels));
        for (std::size_t slot = 0; slot < last_order_.size(); ++slot)
            by_index[last_order_[slot]] = &last_outcomes_[slot];
        std::printf("inline constexpr ModelPin kModels[] = {\n");
        for (const ModelOutcome* m : by_index)
            std::printf("    {%llu, 0x%016llxull, %llu, %llu},%s\n",
                        static_cast<unsigned long long>(m->seed),
                        static_cast<unsigned long long>(m->digest),
                        static_cast<unsigned long long>(m->explored.schedules),
                        static_cast<unsigned long long>(
                            m->explored.pruned_branches),
                        m->problem.empty() && !m->explored.violation
                            ? ""
                            : "  // NOT CLEAN");
        std::printf("};\n");
    }

private:
    std::uint64_t campaign_seed_;
    LayerTimes last_;
    std::vector<ModelOutcome> last_outcomes_; ///< by campaign slot
    std::vector<std::size_t> last_order_;     ///< slot -> kModels index
};

} // namespace

std::unique_ptr<Workload> make_verify(std::uint64_t campaign_seed) {
    return std::make_unique<Verify>(campaign_seed);
}

} // namespace perfbench
