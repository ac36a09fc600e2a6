// Corpus replay: every .model file under tests/fuzz/corpus/ is run on both
// engines and must produce identical behavior. The corpus holds (a) shrunk
// reproducers of every divergence the fuzzer ever found — permanent
// regression tests — and (b) generator snapshots chosen for feature
// coverage (round-robin, EDF, interrupts, fault plans, bounded queues), so
// sanitizer CI replays representative models without paying for a full
// sweep. Add to it with:
//   tools/fuzz_engines --print SEED > tests/fuzz/corpus/gen_seedSEED.model
// or by copying the fuzz_divergence_<seed>.model a failed sweep wrote.
// The same models, with generated ones, also check that each leg
// fuzz::run_legs records renders as run_model's run of that leg, and that
// the verdict from the records is check_legs' verdict over those runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expect_divergence.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/spec.hpp"

#ifndef RTSC_FUZZ_CORPUS_DIR
#error "RTSC_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace fuzz = rtsc::fuzz;

namespace {

TEST(FuzzCorpus, DirectoryIsNotEmpty) {
    ASSERT_FALSE(fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR).empty())
        << "no .model files in " << RTSC_FUZZ_CORPUS_DIR;
}

TEST(FuzzCorpus, EveryModelParsesAndRoundTrips) {
    for (const auto& path : fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR)) {
        SCOPED_TRACE(path.filename().string());
        const fuzz::ModelSpec spec = fuzz::read_spec_file(path);
        EXPECT_EQ(fuzz::to_text(fuzz::from_text(fuzz::to_text(spec))),
                  fuzz::to_text(spec));
    }
}

TEST(FuzzCorpus, EnginesAgreeOnEveryModel) {
    for (const auto& path : fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR)) {
        SCOPED_TRACE(path.filename().string());
        const fuzz::Divergence d =
            fuzz::diff_engines(fuzz::read_spec_file(path));
        EXPECT_FALSE(d.diverged) << d.to_string();
    }
}

TEST(FuzzLegs, EveryLegDigestIsRunModels) {
    // Each run_legs leg, rendered, must equal the run run_model makes of
    // that leg alone. compare() covers every stream, the end time and the error:
    // everything run_model's digest covers. The verdict run_legs takes from
    // the records must be check_legs' verdict over those runs, field for
    // field. Seed 2867 diverges under its default schedule.
    std::vector<std::pair<std::string, fuzz::ModelSpec>> specs;
    for (const auto& path : fuzz::spec_files(RTSC_FUZZ_CORPUS_DIR))
        specs.emplace_back(path.filename().string(), fuzz::read_spec_file(path));
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        specs.emplace_back("seed " + std::to_string(seed), fuzz::generate(seed));
    specs.emplace_back("seed 2867", fuzz::generate(2867));
    for (const auto& [name, spec] : specs) {
        SCOPED_TRACE(name);
        const fuzz::LegRuns runs = fuzz::run_legs(spec);
        fuzz::RunResult alone[4];
        for (std::size_t i = 0; i < 4; ++i) {
            const fuzz::Leg& leg = fuzz::kLegs[i];
            alone[i] = fuzz::run_model(spec, leg.kind, leg.skip_ahead);
            const fuzz::Divergence d =
                fuzz::compare(fuzz::render(runs.legs[i]), alone[i]);
            EXPECT_FALSE(d.diverged) << leg.name << " differs in " << d.stream
                                     << " at record " << d.index;
        }
        rtsc::test::expect_same_divergence(runs.verdict,
                                           fuzz::check_legs(alone));
    }
    const fuzz::LegRuns split = fuzz::run_legs(fuzz::generate(2867));
    ASSERT_TRUE(split.verdict.diverged);
    EXPECT_TRUE(fuzz::compare(fuzz::render(split.legs[0]),
                              fuzz::render(split.legs[1]))
                    .diverged);
}

} // namespace
