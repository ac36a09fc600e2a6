// Energy-vs-deadline-miss Pareto sweep over the RT-DVS policy family
// (rtos/dvfs.hpp): the same periodic task set runs under every DVFS policy
// on a four-point operating table, and each lane records total energy,
// deadline misses and frequency-switch count. Jobs consume only half of
// their declared WCET, so the cycle-conserving and look-ahead variants have
// real slack to reclaim — the frontier full_speed -> static -> cc -> la is
// the classic Pillai & Shin result, reproduced here on both engine
// implementations with bit-identical ledgers.
//
// Results land in BENCH_energy.json (RTSC_BENCH_ENERGY_JSON overrides the
// path): one entry per lane with energy in joules and exact femtojoule
// strings, plus the engine-equivalence verdict. A lane where the two
// engines disagree on any ledger field or miss count fails the bench.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "rtos/dvfs.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

constexpr Time kHorizon = 300_ms; // 10 hyperperiods of the set below

/// Operating points: a 1 GHz / 1.2 V part with three slower rails.
r::DvfsModel make_model() {
    return r::DvfsModel({{1'000'000, 1200},
                         {750'000, 1050},
                         {500'000, 900},
                         {250'000, 750}});
}

/// The periodic set. `wcet` here is what the jobs actually consume; the
/// declared WCET handed to the policies is twice that, so declared
/// utilization is 0.70 (static lanes settle on the 750 MHz point) while
/// actual utilization is 0.35 (plenty of slack for cc/la to reclaim).
std::vector<w::PeriodicSpec> make_specs(bool edf) {
    return {
        {.name = "audio", .period = 10_ms, .wcet = 1500_us,
         .priority = 3, .edf_deadlines = edf},
        {.name = "video", .period = 15_ms, .wcet = 1500_us,
         .priority = 2, .edf_deadlines = edf},
        {.name = "logger", .period = 30_ms, .wcet = 3000_us,
         .priority = 1, .edf_deadlines = edf},
    };
}

enum class PolicyKind { full_speed, static_edf, cc_edf, la_edf, static_rm, cc_rm };

struct Lane {
    PolicyKind kind;
    const char* name;
    bool edf;
};

constexpr Lane kLanes[] = {
    {PolicyKind::full_speed, "full_speed_edf", true},
    {PolicyKind::static_edf, "static_edf", true},
    {PolicyKind::cc_edf, "cc_edf", true},
    {PolicyKind::la_edf, "la_edf", true},
    {PolicyKind::static_rm, "static_rm", false},
    {PolicyKind::cc_rm, "cc_rm", false},
};

std::unique_ptr<r::SchedulingPolicy> make_policy(PolicyKind kind) {
    switch (kind) {
    case PolicyKind::full_speed:
    case PolicyKind::static_edf: return std::make_unique<r::StaticEdfPolicy>();
    case PolicyKind::cc_edf: return std::make_unique<r::CcEdfPolicy>();
    case PolicyKind::la_edf: return std::make_unique<r::LaEdfPolicy>();
    case PolicyKind::static_rm: return std::make_unique<r::StaticRmPolicy>();
    case PolicyKind::cc_rm: return std::make_unique<r::CcRmPolicy>();
    }
    return nullptr;
}

struct FswitchCounter : r::Observer {
    std::uint64_t switches = 0;
    void on_overhead(const r::Processor&, r::OverheadKind kind, Time, Time,
                     const r::Task*) override {
        if (kind == r::OverheadKind::frequency_switch) ++switches;
    }
};

struct RunResult {
    r::Processor::EnergyLedger energy;
    std::uint64_t misses = 0;
    std::uint64_t jobs = 0;
    std::uint64_t switches = 0;

    bool operator==(const RunResult& o) const {
        return energy.busy == o.energy.busy &&
               energy.overhead == o.energy.overhead &&
               energy.unattributed == o.energy.unattributed &&
               misses == o.misses && jobs == o.jobs && switches == o.switches;
    }
};

RunResult run_lane(const Lane& lane, r::EngineKind engine) {
    k::Simulator sim;
    r::Processor cpu("cpu", make_policy(lane.kind), engine);
    cpu.set_dvfs(lane.kind == PolicyKind::full_speed
                     ? r::DvfsModel::single(1'000'000, 1200)
                     : make_model());
    r::RtosOverheads ov = r::RtosOverheads::uniform(5_us);
    ov.frequency_switch = Time{20_us};
    cpu.set_overheads(ov);
    FswitchCounter fsw;
    cpu.add_observer(fsw);

    const auto specs = make_specs(lane.edf);
    w::PeriodicTaskSet ts(cpu, specs);
    // Declare double the consumed WCET so the static lanes size for a fully
    // loaded processor and the reclaiming lanes see 50% slack per job.
    auto& budgets = dynamic_cast<r::DvfsTaskSet&>(cpu.policy());
    for (const auto& spec : specs)
        for (const auto& t : cpu.tasks())
            if (t->name() == spec.name)
                budgets.declare_task(*t, spec.wcet * 2, spec.period);

    sim.run_until(kHorizon);

    RunResult out;
    out.energy = cpu.energy();
    out.misses = ts.total_misses();
    out.switches = fsw.switches;
    for (const auto& res : ts.results()) out.jobs += res.jobs.size();
    return out;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

int main() {
    const char* env = std::getenv("RTSC_BENCH_ENERGY_JSON");
    const std::string json_path = env != nullptr ? env : "BENCH_energy.json";

    struct Row {
        const Lane* lane;
        RunResult res;
        bool engines_match;
    };
    std::vector<Row> rows;
    bool all_match = true;
    double baseline_j = 0;

    for (const Lane& lane : kLanes) {
        const RunResult proc = run_lane(lane, r::EngineKind::procedure_calls);
        const RunResult thr = run_lane(lane, r::EngineKind::rtos_thread);
        const bool match = proc == thr;
        all_match = all_match && match;
        if (lane.kind == PolicyKind::full_speed)
            baseline_j = r::energy_to_joules(proc.energy.total());
        rows.push_back({&lane, proc, match});

        const double joules = r::energy_to_joules(proc.energy.total());
        std::cout << "[energy_pareto] " << lane.name << ": " << joules
                  << " J (" << (baseline_j > 0 ? joules / baseline_j * 100 : 100)
                  << "% of full speed), " << proc.misses << " misses / "
                  << proc.jobs << " jobs, " << proc.switches
                  << " frequency switches, engines "
                  << (match ? "MATCH" : "DIVERGE") << "\n";
    }

    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n  \"bench\": \"energy_pareto\",\n"
        << "  \"sim_time_ms\": " << kHorizon.to_sec() * 1e3 << ",\n"
        << "  \"declared_utilization\": 0.70,\n"
        << "  \"actual_utilization\": 0.35,\n"
        << "  \"lanes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        const double joules = r::energy_to_joules(row.res.energy.total());
        out << "    {\"policy\": \"" << json_escape(row.lane->name)
            << "\", \"energy_j\": " << joules
            << ", \"energy_vs_full_speed\": "
            << (baseline_j > 0 ? joules / baseline_j : 1.0)
            << ", \"energy_busy_fj\": \""
            << r::energy_to_string(row.res.energy.busy)
            << "\", \"energy_overhead_fj\": \""
            << r::energy_to_string(row.res.energy.overhead)
            << "\", \"misses\": " << row.res.misses
            << ", \"jobs\": " << row.res.jobs
            << ", \"frequency_switches\": " << row.res.switches
            << ", \"engines_match\": "
            << (row.engines_match ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "[energy_pareto] wrote " << json_path << "\n";

    if (!all_match) {
        std::cerr << "energy_pareto bench: ENGINE DIVERGENCE\n";
        return 1;
    }
    return 0;
}
