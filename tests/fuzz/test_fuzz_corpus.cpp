// Corpus replay: every .model file under tests/fuzz/corpus/ is run on both
// engines and must produce identical behavior. The corpus holds (a) shrunk
// reproducers of every divergence the fuzzer ever found — permanent
// regression tests — and (b) generator snapshots chosen for feature
// coverage (round-robin, EDF, interrupts, fault plans, bounded queues), so
// sanitizer CI replays representative models without paying for a full
// sweep. Add to it with:
//   tools/fuzz_engines --print SEED > tests/fuzz/corpus/gen_seedSEED.model
// or by copying the fuzz_divergence_<seed>.model a failed sweep wrote.
#include <gtest/gtest.h>

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

} // namespace
