#include "explore/model_check.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "fuzz/runner.hpp"

namespace rtsc::explore {

RunOutcome check_model_once(const fuzz::ModelSpec& spec,
                            const DecisionTrace& trace,
                            const std::string* baseline_error) {
    RunOutcome out;
    TraceOracle oracles[4] = {TraceOracle(&trace), TraceOracle(&trace),
                              TraceOracle(&trace), TraceOracle(&trace)};
    const fuzz::LegRuns runs = fuzz::run_legs(
        spec, {&oracles[0], &oracles[1], &oracles[2], &oracles[3]});
    for (std::size_t i = 0; i < 4 && !out.violation; ++i) {
        if (!oracles[i].replay_ok()) {
            out.violation = true;
            out.diagnosis = std::string("replay desync on ") +
                            fuzz::kLegs[i].name + ": " +
                            oracles[i].replay_error();
        }
    }
    out.log = oracles[0].take_log();
    out.error = runs.legs[0].error;

    if (out.violation) return out;

    if (runs.verdict.diverged) {
        out.violation = true;
        out.diagnosis = runs.verdict.to_string();
        return out;
    }
    // Decision-stream invariant: all four runs must have consumed identical
    // per-CPU tie-break sequences — otherwise the equivalence above held by
    // luck and replayed alternatives would flip different decisions. The
    // logs compare field by field; rows are built only for a report.
    for (std::size_t i = 1; i < 4; ++i) {
        if (same_streams(out.log, oracles[i].log())) continue;
        const std::vector<std::string> rows0 = decision_rows(out.log);
        const std::vector<std::string> rows = decision_rows(oracles[i].log());
        if (rows != rows0) {
            std::size_t k = 0;
            while (k < rows.size() && k < rows0.size() && rows[k] == rows0[k])
                ++k;
            out.violation = true;
            out.diagnosis =
                std::string("decision streams diverged: procedural/skip vs ") +
                fuzz::kLegs[i].name + " at decision " + std::to_string(k) +
                ": '" + (k < rows0.size() ? rows0[k] : "<missing>") +
                "' vs '" + (k < rows.size() ? rows[k] : "<missing>") + "'";
            return out;
        }
    }
    // A schedule that fails where the default schedule did not (or vice
    // versa): a tie-break order flipped a deadlock / stall / lost-wakeup
    // diagnostic.
    if (baseline_error != nullptr && out.error != *baseline_error) {
        out.violation = true;
        out.diagnosis = "schedule-dependent failure: default run error '" +
                        *baseline_error + "' vs '" + out.error + "'";
    }
    return out;
}

RunCheck make_model_check(const fuzz::ModelSpec& spec) {
    // The baseline error is captured from the first default-trace run (the
    // fresh DFS always starts there, with the empty trace); a resumed
    // frontier derives it with one extra default run.
    auto baseline = std::make_shared<std::optional<std::string>>();
    return [spec, baseline](const DecisionTrace& trace) {
        if (!baseline->has_value()) {
            if (trace.empty()) {
                RunOutcome out = check_model_once(spec, trace, nullptr);
                *baseline = out.error;
                return out;
            }
            *baseline =
                fuzz::run_model(spec, rtos::EngineKind::procedure_calls).error;
        }
        return check_model_once(spec, trace, &**baseline);
    };
}

namespace {

/// One spec-level dial: applies position k (0 = base) to a variant spec.
struct Dial {
    std::string label;
    std::uint32_t positions;
    std::function<void(fuzz::ModelSpec&, std::uint32_t)> apply;
    std::function<std::string(std::uint32_t)> describe;
};

std::vector<Dial> make_dials(const fuzz::ModelSpec& spec,
                             const ModelCheckConfig& cfg) {
    std::vector<Dial> dials;
    if (cfg.offsets > 1 && cfg.offset_window_ps > 0) {
        for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
            const fuzz::TaskSpec& ts = spec.tasks[t];
            // Sporadic shape: one time-triggered release whose exact
            // arrival instant is an environment choice, not a model one.
            if (ts.period_ps != 0 || ts.trigger_event != 0 ||
                ts.activations > 1)
                continue;
            const std::uint64_t step = cfg.offset_window_ps / cfg.offsets;
            if (step == 0) continue;
            dials.push_back(
                {spec.tasks[t].name, cfg.offsets,
                 [t, step](fuzz::ModelSpec& s, std::uint32_t k) {
                     s.tasks[t].start_ps += step * k;
                 },
                 [name = ts.name, step](std::uint32_t k) {
                     return name + "+" + std::to_string(step * k) + "ps";
                 }});
        }
    }
    if (cfg.crash_offsets > 1 && cfg.crash_window_ps > 0) {
        for (std::size_t c = 0; c < spec.faults.crashes.size(); ++c) {
            const std::uint64_t step = cfg.crash_window_ps / cfg.crash_offsets;
            if (step == 0) continue;
            dials.push_back(
                {"crash" + std::to_string(c), cfg.crash_offsets,
                 [c, step](fuzz::ModelSpec& s, std::uint32_t k) {
                     s.faults.crashes[c].at_ps += step * k;
                 },
                 [c, step](std::uint32_t k) {
                     return "crash" + std::to_string(c) + "+" +
                            std::to_string(step * k) + "ps";
                 }});
        }
    }
    return dials;
}

} // namespace

ModelReport explore_model(const fuzz::ModelSpec& spec,
                          const ModelCheckConfig& cfg) {
    ModelReport report;
    report.complete = true;

    const std::vector<Dial> dials = make_dials(spec, cfg);
    std::vector<std::uint32_t> counter(dials.size(), 0);
    std::size_t variants_run = 0;
    bool more = true;
    while (more) {
        if (variants_run >= cfg.max_variants) {
            report.complete = false; // variant space clipped
            break;
        }
        fuzz::ModelSpec variant = spec;
        std::string name;
        for (std::size_t i = 0; i < dials.size(); ++i) {
            dials[i].apply(variant, counter[i]);
            if (counter[i] != 0)
                name += (name.empty() ? "" : ",") +
                        dials[i].describe(counter[i]);
        }
        if (name.empty()) name = "base";
        ++variants_run;

        Explorer explorer(make_model_check(variant), cfg.bounds);
        ExploreResult result = explorer.run();
        report.schedules += result.schedules;
        report.clipped_branches += result.clipped_branches;
        if (!result.complete) report.complete = false;
        if (result.violation && !report.violation) {
            report.violation = true;
            report.diagnosis = result.diagnosis;
            report.violating_variant = name;
            report.violating_spec = variant;
            report.counterexample = result.counterexample;
        }
        report.variants.push_back({std::move(name), std::move(result)});
        if (report.violation && cfg.bounds.stop_at_violation) break;

        // Mixed-radix increment over the dial positions.
        more = false;
        for (std::size_t i = 0; i < counter.size(); ++i) {
            if (++counter[i] < dials[i].positions) {
                more = true;
                break;
            }
            counter[i] = 0;
        }
    }
    return report;
}

bool explore_finds_violation(const fuzz::ModelSpec& spec) {
    ModelCheckConfig cfg;
    cfg.bounds.max_schedules = 48; // small budget: predicate runs thousands
    cfg.bounds.max_decisions = 256;
    cfg.bounds.stop_at_violation = true;
    return explore_model(spec, cfg).violation;
}

} // namespace rtsc::explore
