// Exhaustive schedule-space verification of the fuzz corpus: every .model
// under tests/fuzz/corpus/ has its ENTIRE bounded decision space enumerated
// (same-instant tie-breaks, both engines x skip-ahead on/off per schedule)
// and must come back clean AND complete. The per-model schedule counts are
// pinned exactly: a count drift means the model's same-instant structure
// changed — either a new decision point appeared (extend the table after
// auditing it) or an engine change silently altered tie-break exposure.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "explore/model_check.hpp"
#include "fuzz/spec.hpp"

#ifndef RTSC_FUZZ_CORPUS_DIR
#error "RTSC_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace ex = rtsc::explore;
namespace fuzz = rtsc::fuzz;

namespace {

/// Exact enumerated schedule count per corpus model ("N schedules" in the
/// explore_schedules CLI output). Every corpus file must appear here.
const std::map<std::string, std::uint64_t> kPinnedSchedules = {
    {"gen_seed1.model", 1},
    {"gen_seed101.model", 6},
    {"gen_seed137.model", 2},
    {"gen_seed19.model", 1},
    {"gen_seed256.model", 1},
    {"gen_seed333.model", 1},
    {"gen_seed42.model", 6},
    {"gen_seed7.model", 6},
    {"seed167_same_instant_leave_sample.model", 2},
    {"seed401_cross_cpu_sem_instant.model", 2},
    {"seed415_fswitch_sync_leaver_resume.model", 1},
    {"seed75_formula_load_timeout_tie.model", 2},
    {"seed881_horizon_cut_dvfs_overhead.model", 1},
    {"sv_chain_depth2.model", 1},
};

} // namespace

TEST(ExploreCorpus, EveryModelIsPinned) {
    for (const auto& path : fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR))
        EXPECT_TRUE(kPinnedSchedules.count(path.filename().string()) != 0)
            << path.filename().string()
            << " is not in the pinned schedule-count table; explore it and "
               "add its count";
}

TEST(ExploreCorpus, EveryScheduleOfEveryModelIsClean) {
    for (const auto& path : fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR)) {
        SCOPED_TRACE(path.filename().string());
        const fuzz::ModelSpec spec = fuzz::read_spec_file(path);
        const ex::ModelReport r =
            ex::explore_model(spec, ex::ModelCheckConfig{});
        EXPECT_FALSE(r.violation)
            << r.diagnosis << "\nvariant: " << r.violating_variant
            << "\ntrace: " << ex::to_text(r.counterexample);
        EXPECT_TRUE(r.complete)
            << "corpus models must fit the default bounds entirely";
        const auto it = kPinnedSchedules.find(path.filename().string());
        if (it != kPinnedSchedules.end()) {
            EXPECT_EQ(r.schedules, it->second)
                << "enumerated schedule count drifted";
        }
    }
}
