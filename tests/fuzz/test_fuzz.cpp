// Unit tests for the differential-fuzzing toolkit itself (src/fuzz/):
// generator determinism, spec serialization round-trips, the runner's
// divergence detector, its record path (verdicts from records equal the
// text's) and the delta-debugging shrinker. The actual
// engine-equivalence sweep lives in tools/fuzz_engines; corpus replay is
// tests/fuzz/test_fuzz_corpus.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "expect_divergence.hpp"
#include "explore/decision.hpp"
#include "explore/explorer.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"

namespace fuzz = rtsc::fuzz;
namespace explore = rtsc::explore;

namespace {

/// `rows` with row `at` replaced by `text`.
fuzz::RowTable with_row(const fuzz::RowTable& rows, std::size_t at,
                        std::string_view text) {
    fuzz::RowTable out;
    for (std::size_t i = 0; i < rows.size(); ++i)
        out.push_back(i == at ? text : rows[i]);
    return out;
}

/// Row `at` of `rows` with " tampered" appended.
std::string tampered(const fuzz::RowTable& rows, std::size_t at) {
    return std::string(rows[at]) + " tampered";
}

// ------------------------------------------------------------- generator

TEST(FuzzGenerate, DeterministicForSeed) {
    // Same seed, same spec text — platform-independent reproducibility is
    // what makes a seed number a bug report.
    const std::string a = fuzz::to_text(fuzz::generate(12345));
    const std::string b = fuzz::to_text(fuzz::generate(12345));
    EXPECT_EQ(a, b);
}

TEST(FuzzGenerate, DistinctSeedsDiffer) {
    EXPECT_NE(fuzz::to_text(fuzz::generate(1)), fuzz::to_text(fuzz::generate(2)));
}

TEST(FuzzGenerate, RespectsKnobs) {
    fuzz::GenKnobs knobs;
    knobs.max_cpus = 1;
    knobs.max_tasks = 3;
    knobs.allow_faults = false;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const fuzz::ModelSpec spec = fuzz::generate(seed, knobs);
        EXPECT_EQ(spec.cpus.size(), 1u);
        EXPECT_LE(spec.tasks.size(), 3u);
        EXPECT_GE(spec.tasks.size(), 2u);
        EXPECT_TRUE(spec.faults.empty());
    }
}

TEST(FuzzGenerate, EveryFeatureClassAppearsAcrossSeeds) {
    bool rr = false, edf = false, irq = false, faults = false, sems = false,
         queues = false, events = false, svars = false, horizon = false;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const fuzz::ModelSpec s = fuzz::generate(seed);
        for (const fuzz::CpuSpec& c : s.cpus) {
            rr = rr || c.policy == fuzz::PolicyKind::round_robin;
            edf = edf || c.policy == fuzz::PolicyKind::edf;
        }
        irq = irq || !s.irqs.empty();
        faults = faults || !s.faults.empty();
        sems = sems || !s.sems.empty();
        queues = queues || !s.queues.empty();
        events = events || !s.events.empty();
        svars = svars || !s.svars.empty();
        horizon = horizon || s.horizon_ps != 0;
    }
    EXPECT_TRUE(rr && edf && irq && faults && sems && queues && events &&
                svars && horizon);
}

// ------------------------------------------------------------ spec text

TEST(FuzzSpec, RoundTripsThroughText) {
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const fuzz::ModelSpec spec = fuzz::generate(seed);
        const std::string text = fuzz::to_text(spec);
        const fuzz::ModelSpec back = fuzz::from_text(text);
        EXPECT_EQ(text, fuzz::to_text(back)) << "seed " << seed;
    }
}

TEST(FuzzSpec, IgnoresBlankLinesAndComments) {
    const fuzz::ModelSpec spec = fuzz::from_text(
        "# a comment\n\nmodel seed=9 horizon=0\n"
        "cpu policy=fifo quantum=0 preemptive=1 sched=0 load=0 save=0 formula=0\n"
        "task name=A cpu=0 prio=1 start=0 period=0 act=1 deadline=0 trigger=0\n"
        "op d=0 kind=compute target=0 dur=1000000 timeout=0 repeat=1\n");
    EXPECT_EQ(spec.seed, 9u);
    ASSERT_EQ(spec.tasks.size(), 1u);
    EXPECT_EQ(spec.tasks[0].name, "A");
    ASSERT_EQ(spec.tasks[0].body.size(), 1u);
}

TEST(FuzzSpec, RejectsMalformedInput) {
    EXPECT_THROW((void)fuzz::from_text("model seed=oops"), std::runtime_error);
    EXPECT_THROW((void)fuzz::from_text("cpu policy=bogus quantum=0 preemptive=1 "
                                       "sched=0 load=0 save=0 formula=0"),
                 std::runtime_error);
    // op before any task: nothing to attach the body to.
    EXPECT_THROW((void)fuzz::from_text(
                     "model seed=1 horizon=0\n"
                     "op d=0 kind=compute target=0 dur=0 timeout=0 repeat=1\n"),
                 std::runtime_error);
}

TEST(FuzzSpec, RejectsOutOfRangeNumbers) {
    // strtoull wraps "-1" to 2^64-1 without setting errno: a negative must
    // fail loudly, not silently become a huge unsigned.
    EXPECT_THROW((void)fuzz::from_text("model seed=-1 horizon=0"),
                 std::runtime_error);
    EXPECT_THROW((void)fuzz::from_text("model seed=+3 horizon=0"),
                 std::runtime_error);
    // Larger than 2^64: ERANGE path.
    EXPECT_THROW(
        (void)fuzz::from_text("model seed=99999999999999999999999 horizon=0"),
        std::runtime_error);
    // Trailing garbage after a valid prefix.
    EXPECT_THROW((void)fuzz::from_text("model seed=12abc horizon=0"),
                 std::runtime_error);
    // Empty value.
    EXPECT_THROW((void)fuzz::from_text("model seed= horizon=0"),
                 std::runtime_error);
    // Narrow fields are range-checked against their own type: an empty
    // priority is not 0, and 2^32+1 activations is not 1.
    const auto task = [](const std::string& prio, const std::string& act) {
        return "model seed=1 horizon=0\ntask name=A cpu=0 prio=" + prio +
               " start=0 period=0 act=" + act + " deadline=0 trigger=0\n";
    };
    EXPECT_THROW((void)fuzz::from_text(task("", "1")), std::runtime_error);
    EXPECT_THROW((void)fuzz::from_text(task("1", "4294967297")),
                 std::runtime_error);
    EXPECT_THROW((void)fuzz::from_text(task("1", "4294967298")),
                 std::runtime_error);
    EXPECT_EQ(fuzz::from_text(task("-3", "4294967295")).tasks.at(0).activations,
              4294967295u);
    EXPECT_THROW((void)fuzz::from_text("model seed=1 horizon=0\nevent policy=256"),
                 std::runtime_error);
    // The strict parser itself, as the tools' flags use it.
    EXPECT_EQ(fuzz::parse_decimal<unsigned>("4294967295"), 4294967295u);
    EXPECT_FALSE(fuzz::parse_decimal<unsigned>("4294967298"));
    EXPECT_FALSE(fuzz::parse_decimal<unsigned>(""));
    EXPECT_FALSE(fuzz::parse_decimal<unsigned>(" 1"));
    EXPECT_FALSE(fuzz::parse_decimal<std::uint64_t>("-1"));
    EXPECT_EQ(fuzz::parse_decimal<int>("-7"), -7);
}

TEST(FuzzSpec, FileErrorsNameThePath) {
    const std::string missing = testing::TempDir() + "no_such_spec.model";
    try {
        (void)fuzz::read_spec_file(missing);
        ADD_FAILURE() << "missing file parsed";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind(missing + ": ", 0), 0u) << e.what();
    }
    const std::string bad = testing::TempDir() + "bad_spec.model";
    std::ofstream(bad) << "model seed=oops horizon=0\n";
    try {
        (void)fuzz::read_spec_file(bad);
        ADD_FAILURE() << "malformed file parsed";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind(bad + ": fuzz spec line 1", 0), 0u)
            << e.what();
    }
    std::remove(bad.c_str());
    EXPECT_THROW((void)fuzz::spec_files(missing), std::runtime_error);
}

// --------------------------------------------------------------- runner

TEST(FuzzRunner, EnginesAgreeOnSmokeSeeds) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const fuzz::Divergence d = fuzz::diff_engines(fuzz::generate(seed));
        EXPECT_FALSE(d.diverged) << "seed " << seed << "\n" << d.to_string();
    }
}

TEST(FuzzRunner, RunsAreReproducible) {
    const fuzz::ModelSpec spec = fuzz::generate(77);
    const fuzz::RunResult a = fuzz::run_model(spec, rtsc::rtos::EngineKind::procedure_calls);
    const fuzz::RunResult b = fuzz::run_model(spec, rtsc::rtos::EngineKind::procedure_calls);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.end_ps, b.end_ps);
}

TEST(FuzzRunner, CompareFlagsInjectedStateDifference) {
    const fuzz::ModelSpec spec = fuzz::generate(3);
    fuzz::RunResult a = fuzz::run_model(spec, rtsc::rtos::EngineKind::procedure_calls);
    fuzz::RunResult b = a;
    ASSERT_FALSE(b.states.empty());
    const std::size_t mid = b.states.size() / 2;
    const std::string row = tampered(a.states, mid);
    b.states = with_row(a.states, mid, row);
    const fuzz::Divergence d = fuzz::compare(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "states");
    EXPECT_EQ(d.index, mid);
    EXPECT_EQ(d.lhs, a.states[mid]);
    EXPECT_EQ(d.rhs, row);
}

TEST(FuzzRunner, CompareFlagsEndTimeDifference) {
    const fuzz::ModelSpec spec = fuzz::generate(3);
    fuzz::RunResult a = fuzz::run_model(spec, rtsc::rtos::EngineKind::procedure_calls);
    fuzz::RunResult b = a;
    b.end_ps += 1;
    const fuzz::Divergence d = fuzz::compare(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "end_time");
}

TEST(FuzzRunner, ConservationBreakFlagsBrokenRows) {
    // A break every leg shares survives the leg diffs; the scan flags it.
    fuzz::RunResult r;
    r.metrics = {"energy.cpu0.busy=12", "energy.cpu0.tasks=12"};
    r.attribution = {"0 T #0 rel=0 end=5 exec=5"};
    const auto check = [](const fuzz::RunResult& leg) {
        const fuzz::RunResult legs[4] = {leg, leg, leg, leg};
        return fuzz::check_legs(legs);
    };
    EXPECT_FALSE(check(r).diverged);

    r.attribution.push_back("5 T #1 rel=5 end=9 exec=3 BROKEN-INVARIANT sum=3");
    fuzz::Divergence d = check(r);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "attribution");
    EXPECT_EQ(d.index, 1u);
    EXPECT_EQ(d.lhs, r.attribution[1]);
    EXPECT_EQ(d.rhs, d.lhs);
    EXPECT_EQ(d.lhs_leg, d.rhs_leg);

    // Ledger rows come first.
    r.metrics.push_back("energy.cpu0.BROKEN-ENERGY total=12 split=11");
    d = check(r);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "metrics");
    EXPECT_EQ(d.index, 2u);
    EXPECT_EQ(d.lhs_leg, d.rhs_leg);
}

TEST(FuzzRunner, CheckLegsNamesTheDivergingPair) {
    // Engines on legs 0/1, skip-ahead neutrality on 0/2 and 1/3: a row
    // tampered in leg 1, 2 or 3 must be blamed on exactly that pair.
    const fuzz::RunResult r =
        fuzz::run_model(fuzz::generate(3), rtsc::rtos::EngineKind::procedure_calls);
    ASSERT_FALSE(r.states.empty());
    ASSERT_FALSE(r.metrics.empty());
    ASSERT_FALSE(r.attribution.empty());
    struct Case {
        std::size_t leg;
        fuzz::RowTable fuzz::RunResult::*stream;
        const char* name;
        std::size_t lhs_leg, rhs_leg;
    };
    const Case cases[] = {
        {1, &fuzz::RunResult::states, "states", 0, 1},
        {2, &fuzz::RunResult::metrics, "metrics", 0, 2},
        {3, &fuzz::RunResult::attribution, "attribution", 1, 3},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        fuzz::RunResult legs[4] = {r, r, r, r};
        fuzz::RowTable& rows = legs[c.leg].*c.stream;
        const std::size_t at = rows.size() / 2;
        const std::string row = tampered(rows, at);
        rows = with_row(rows, at, row);
        const fuzz::Divergence d = fuzz::check_legs(legs);
        ASSERT_TRUE(d.diverged);
        EXPECT_EQ(d.stream, c.name);
        EXPECT_EQ(d.index, at);
        EXPECT_EQ(d.lhs_leg, c.lhs_leg);
        EXPECT_EQ(d.rhs_leg, c.rhs_leg);
        EXPECT_EQ(d.rhs, row);
        const std::string text = d.to_string();
        EXPECT_NE(text.find(fuzz::kLegs[c.lhs_leg].name), std::string::npos)
            << text;
        EXPECT_NE(text.find(fuzz::kLegs[c.rhs_leg].name), std::string::npos)
            << text;
    }
}

TEST(FuzzRunner, DivergenceReportsNameTheFirstDifferingRow) {
    // Streams compare as whole buffers; a mismatch is then located row by
    // row. These are the reports the row-by-row comparison gives, field for
    // field and in their text.
    fuzz::RunResult a;
    a.states = {"0 A created->ready", "5 A ready->running",
                "9 A running->terminated"};
    struct Case {
        const char* name;
        fuzz::RunResult lhs, rhs;
        const char* stream;
        std::size_t index;
        const char *lhs_row, *rhs_row;
        const char* text;
    };
    const auto with = [&a](fuzz::RowTable fuzz::RunResult::*stream,
                           fuzz::RowTable rows) {
        fuzz::RunResult r = a;
        r.*stream = std::move(rows);
        return r;
    };
    const fuzz::RunResult comms =
        with(&fuzz::RunResult::comms, {"5 q0 A write"});
    const Case cases[] = {
        {"changed middle row",
         a,
         with(&fuzz::RunResult::states,
              with_row(a.states, 1, "5 A ready->waiting")),
         "states",
         1,
         "5 A ready->running",
         "5 A ready->waiting",
         "diverged in states at record 1\n"
         "  procedural/skip:  5 A ready->running\n"
         "  threaded/skip:    5 A ready->waiting"},
        {"missing last row",
         a,
         with(&fuzz::RunResult::states,
              {"0 A created->ready", "5 A ready->running"}),
         "states",
         2,
         "9 A running->terminated",
         "<missing>",
         "diverged in states at record 2\n"
         "  procedural/skip:  9 A running->terminated\n"
         "  threaded/skip:    <missing>"},
        {"extra row",
         a,
         with(&fuzz::RunResult::states,
              {"0 A created->ready", "5 A ready->running",
               "9 A running->terminated", "12 B created->ready"}),
         "states",
         3,
         "<missing>",
         "12 B created->ready",
         "diverged in states at record 3\n"
         "  procedural/skip:  <missing>\n"
         "  threaded/skip:    12 B created->ready"},
        {"empty stream against a non-empty one",
         a,
         comms,
         "comms",
         0,
         "<missing>",
         "5 q0 A write",
         "diverged in comms at record 0\n"
         "  procedural/skip:  <missing>\n"
         "  threaded/skip:    5 q0 A write"},
        {"non-empty stream against an empty one",
         comms,
         a,
         "comms",
         0,
         "5 q0 A write",
         "<missing>",
         "diverged in comms at record 0\n"
         "  procedural/skip:  5 q0 A write\n"
         "  threaded/skip:    <missing>"},
        {"same bytes, other row boundaries",
         a,
         with(&fuzz::RunResult::states,
              {"0 A created->ready5 A", " ready->running",
               "9 A running->terminated"}),
         "states",
         0,
         "0 A created->ready",
         "0 A created->ready5 A",
         "diverged in states at record 0\n"
         "  procedural/skip:  0 A created->ready\n"
         "  threaded/skip:    0 A created->ready5 A"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const fuzz::RunResult legs[4] = {c.lhs, c.rhs, c.lhs, c.rhs};
        const fuzz::Divergence d = fuzz::check_legs(legs);
        ASSERT_TRUE(d.diverged);
        EXPECT_EQ(d.stream, c.stream);
        EXPECT_EQ(d.index, c.index);
        EXPECT_EQ(d.lhs, c.lhs_row);
        EXPECT_EQ(d.rhs, c.rhs_row);
        EXPECT_EQ(d.lhs_leg, 0u);
        EXPECT_EQ(d.rhs_leg, 1u);
        EXPECT_EQ(d.to_string(), c.text);
        EXPECT_EQ(fuzz::compare(c.lhs, c.rhs).to_string(), c.text);
    }
}

TEST(FuzzRunner, ConservationBreakPastTheFirstRowIsReported) {
    fuzz::RunResult r;
    r.metrics = {"a=1", "b=2", "energy.cpu0.BROKEN-ENERGY total=3 split=2",
                 "z=4"};
    const auto check = [](const fuzz::RunResult& leg) {
        const fuzz::RunResult legs[4] = {leg, leg, leg, leg};
        return fuzz::check_legs(legs);
    };
    fuzz::Divergence d = check(r);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "metrics");
    EXPECT_EQ(d.index, 2u);
    EXPECT_EQ(d.lhs, "energy.cpu0.BROKEN-ENERGY total=3 split=2");
    EXPECT_EQ(d.rhs, d.lhs);
    EXPECT_EQ(d.lhs_leg, 0u);
    EXPECT_EQ(d.rhs_leg, 0u);
    EXPECT_EQ(d.to_string(),
              "conservation invariant broke in metrics at record 2 on "
              "procedural/skip\n  energy.cpu0.BROKEN-ENERGY total=3 split=2");

    r.metrics = {"a=1"};
    r.attribution = {"0 A #0 rel=0 end=9 exec=4",
                     "10 A #1 rel=10 end=20 exec=5 BROKEN-INVARIANT sum=5"};
    d = check(r);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.stream, "attribution");
    EXPECT_EQ(d.index, 1u);
    EXPECT_EQ(d.lhs, "10 A #1 rel=10 end=20 exec=5 BROKEN-INVARIANT sum=5");
    EXPECT_EQ(d.rhs, d.lhs);
    EXPECT_EQ(d.lhs_leg, 0u);
    EXPECT_EQ(d.rhs_leg, 0u);
    EXPECT_EQ(d.to_string(),
              "conservation invariant broke in attribution at record 1 on "
              "procedural/skip\n  10 A #1 rel=10 end=20 exec=5 "
              "BROKEN-INVARIANT sum=5");

    // A match that only forms across a row boundary is no break.
    r.attribution = {};
    r.metrics = {"x=BRO", "KEN=1"};
    EXPECT_FALSE(check(r).diverged);
}

TEST(FuzzRunner, DumpStreamsShowsEveryComparedStream) {
    const fuzz::RunResult a =
        fuzz::run_model(fuzz::generate(3), rtsc::rtos::EngineKind::procedure_calls);
    fuzz::RunResult b = a;
    ASSERT_FALSE(b.attribution.empty());
    const std::size_t last = a.attribution.size() - 1;
    b.attribution = with_row(a.attribution, last, tampered(a.attribution, last));
    const std::string dump = fuzz::dump_streams(a, b);
    for (const char* name :
         {"states", "overheads", "comms", "markers", "metrics", "attribution"})
        EXPECT_NE(dump.find(std::string("---- ") + name + " "), std::string::npos)
            << name;
    std::size_t headers = 0;
    for (std::size_t at = dump.find("---- "); at != std::string::npos;
         at = dump.find("\n---- ", at + 1))
        ++headers;
    EXPECT_EQ(headers, 6u);
    EXPECT_NE(dump.find("\n! " + std::string(a.attribution[last])),
              std::string::npos);
    EXPECT_EQ(dump.find("\n! " + std::string(a.states[0])), std::string::npos);
}

TEST(FuzzRunner, KernelActivationCountsAreEngineSpecific) {
    // The §4 comparison metric: the procedural engine exists to activate the
    // kernel less often. The counts must NOT be part of the equivalence
    // digest — assert the runner records them separately.
    const fuzz::LegRuns runs = fuzz::run_legs(fuzz::generate(5));
    EXPECT_FALSE(runs.verdict.diverged) << runs.verdict.to_string();
    EXPECT_LT(runs.legs[0].kernel_activations, runs.legs[1].kernel_activations);
}

TEST(FuzzRunner, CanonicalRowsKeepTheirDigests) {
    // The digest covers every byte and the order of every compared row, so
    // these pin the canonical row format on all four legs. perfbench's
    // `verify` workload pins the same values (perfbench/src/pins.hpp).
    constexpr std::pair<std::uint64_t, std::uint64_t> kPinned[] = {
        {1, 0xfda5c5cb7dd1cc5full},  {2, 0xebb2a4924c3529bbull},
        {3, 0x5e9991a8a6ad0587ull},  {4, 0x1d00ee440ed60012ull},
        {5, 0x719116e6d57d1afaull},  {6, 0x94e07a5f7f921244ull},
        {7, 0x28a5873823caa7abull},  {8, 0xd5c8629485e601baull},
        {9, 0x1b5f9fe8b9aaef89ull},  {10, 0xb50b18b56b9c2aefull},
        {11, 0x9901b47b29a880ceull}, {12, 0xb09a772f6d0767a4ull},
    };
    for (const auto& [seed, digest] : kPinned) {
        const fuzz::ModelSpec spec = fuzz::generate(seed);
        for (const fuzz::Leg& leg : fuzz::kLegs)
            EXPECT_EQ(fuzz::run_model(spec, leg.kind, leg.skip_ahead).digest,
                      digest)
                << "seed " << seed << ", " << leg.name;
    }
}

TEST(FuzzRunner, MetricRowsRenderAsPrintfG17) {
    // Registry values are doubles rendered as printf's %.17g. The energy
    // ledger rows are exact integers wider than a double, so they are not
    // re-parsed here (CanonicalRowsKeepTheirDigests pins them).
    std::size_t checked = 0, fractional = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const fuzz::RunResult r = fuzz::run_model(
            fuzz::generate(seed), rtsc::rtos::EngineKind::procedure_calls);
        for (std::size_t i = 0; i < r.metrics.size(); ++i) {
            const std::string row(r.metrics[i]);
            if (row.rfind("energy.", 0) == 0) continue;
            const std::string value = row.substr(row.rfind('=') + 1);
            char printed[40];
            std::snprintf(printed, sizeof printed, "%.17g",
                          std::strtod(value.c_str(), nullptr));
            EXPECT_EQ(value, printed) << "seed " << seed << ": " << row;
            ++checked;
            if (value.find_first_of(".e") != std::string::npos) ++fractional;
        }
    }
    EXPECT_GT(checked, 100u);
    EXPECT_GT(fractional, 10u);
}

// ------------------------------------------------------------ record path

/// The rendered legs of a four-leg run.
struct Rendered {
    fuzz::RunResult legs[4];
    explicit Rendered(const fuzz::LegRecord (&records)[4]) {
        for (std::size_t i = 0; i < 4; ++i) legs[i] = fuzz::render(records[i]);
    }
};

using rtsc::test::expect_same_divergence;

/// The record verdict of `runs` against check_legs over its rendered legs.
void expect_verdict_is_the_texts(const fuzz::LegRuns& runs) {
    const Rendered text(runs.legs);
    expect_same_divergence(runs.verdict, fuzz::check_legs(text.legs));
}

/// run_legs with one replaying TraceOracle per leg.
fuzz::LegRuns run_traced(const fuzz::ModelSpec& spec,
                         const explore::DecisionTrace& trace,
                         explore::DecisionLog* log = nullptr) {
    explore::TraceOracle oracles[4] = {
        explore::TraceOracle(&trace), explore::TraceOracle(&trace),
        explore::TraceOracle(&trace), explore::TraceOracle(&trace)};
    fuzz::LegRuns runs = fuzz::run_legs(
        spec, {&oracles[0], &oracles[1], &oracles[2], &oracles[3]});
    if (log != nullptr) *log = oracles[0].take_log();
    return runs;
}

TEST(FuzzRecords, EveryScheduleVerdictEqualsTheText) {
    // Every schedule the explorer enumerates for seeds 30 and 39.
    std::uint64_t schedules = 0;
    for (const std::uint64_t seed : {30u, 39u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const fuzz::ModelSpec spec = fuzz::generate(seed);
        explore::Explorer explorer(
            [&](const explore::DecisionTrace& trace) {
                explore::RunOutcome out;
                const fuzz::LegRuns runs = run_traced(spec, trace, &out.log);
                expect_verdict_is_the_texts(runs);
                out.error = runs.legs[0].error;
                return out;
            },
            explore::Bounds{});
        const explore::ExploreResult r = explorer.run();
        EXPECT_TRUE(r.complete);
        schedules += r.schedules;
    }
    EXPECT_EQ(schedules, 246u);
}

/// Tamper with one record of one leg of seed 10018, a DVFS model with
/// fault markers, blocked and preempted jobs and energy gauges; the record
/// verdict must be the text verdict, field for field.
TEST(FuzzRecords, TamperedRecordsReportAsTheirText) {
    const fuzz::ModelSpec spec = fuzz::generate(10018);
    using Tamper = void (*)(fuzz::LegRecord&);
    struct Case {
        const char* name;
        std::size_t leg;
        Tamper tamper;
        const char* stream;
    };
    const Case cases[] = {
        {"a state's to", 1,
         [](fuzz::LegRecord& r) {
             auto& st = r.states[r.states.size() / 2];
             st.to = st.to == rtsc::rtos::TaskState::ready
                         ? rtsc::rtos::TaskState::running
                         : rtsc::rtos::TaskState::ready;
         },
         "states"},
        {"an overhead's duration", 2,
         [](fuzz::LegRecord& r) {
             r.overheads[r.overheads.size() / 2].duration += 1;
         },
         "overheads"},
        {"a comm's blocked", 3,
         [](fuzz::LegRecord& r) {
             auto& c = r.comms[r.comms.size() / 2];
             c.blocked = !c.blocked;
         },
         "comms"},
        {"a marker name", 1,
         [](fuzz::LegRecord& r) {
             const std::uint32_t row = r.markers.back().name;
             fuzz::RowTable text;
             for (std::size_t i = 0; i < r.marker_text.size(); ++i)
                 text.push_back(i == row ? "crash:tampered" : r.marker_text[i]);
             r.marker_text = std::move(text);
         },
         "markers"},
        {"a counter", 2,
         [](fuzz::LegRecord& r) {
             r.metrics.counter(r.metrics.counters().begin()->first).inc();
         },
         "metrics"},
        {"a histogram bucket", 1,
         [](fuzz::LegRecord& r) {
             r.metrics.histogram(r.metrics.histograms().rbegin()->first)
                 .record(7);
         },
         "metrics"},
        {"a gauge", 3,
         [](fuzz::LegRecord& r) {
             r.metrics.gauge(r.metrics.gauges().begin()->first).set(-0.0);
         },
         "metrics"},
        {"an energy word", 2,
         [](fuzz::LegRecord& r) { r.energy.front().unattributed += 1; },
         "metrics"},
        {"an attribution share", 1,
         [](fuzz::LegRecord& r) { r.blocked_on.back().ps += 1; },
         "attribution"},
        {"a preemptor", 3,
         [](fuzz::LegRecord& r) {
             auto& who = r.preempted_by.back().who;
             who = who == r.jobs.front().task ? r.jobs.back().task
                                              : r.jobs.front().task;
         },
         "attribution"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        fuzz::LegRuns runs = fuzz::run_legs(spec);
        ASSERT_FALSE(runs.verdict.diverged) << runs.verdict.to_string();
        fuzz::LegRecord& leg = runs.legs[c.leg];
        ASSERT_FALSE(leg.states.empty());
        ASSERT_FALSE(leg.overheads.empty());
        ASSERT_FALSE(leg.comms.empty());
        ASSERT_FALSE(leg.markers.empty());
        ASSERT_FALSE(leg.metrics.gauges().empty());
        ASSERT_FALSE(leg.energy.empty());
        ASSERT_FALSE(leg.blocked_on.empty());
        ASSERT_FALSE(leg.preempted_by.empty());
        c.tamper(leg);
        const Rendered text(runs.legs);
        const fuzz::Divergence want = fuzz::check_legs(text.legs);
        ASSERT_TRUE(want.diverged);
        EXPECT_EQ(want.stream, c.stream);
        expect_same_divergence(fuzz::check_records(runs.legs), want);
    }
}

TEST(FuzzRecords, DifferentRecordsWithEqualRowsAreEquivalent) {
    // Two tasks named "T": one leg sees the first run, the other the
    // second. Their records differ; their rows do not.
    const auto same_named = [](fuzz::LegRecord::Id runner) {
        fuzz::LegRecord r;
        r.names = {"cpu0", "T", "T", "?"};
        r.states = {{5, runner, rtsc::rtos::TaskState::ready,
                     rtsc::rtos::TaskState::running}};
        return r;
    };
    fuzz::LegRecord tasks[4] = {same_named(1), same_named(2), same_named(1),
                                same_named(2)};
    EXPECT_FALSE(fuzz::same_observations(tasks[0], tasks[1]));
    EXPECT_FALSE(fuzz::check_records(tasks).diverged);

    // Histograms with equal count, max and quantiles, other buckets (and
    // another sum, which no row shows).
    const auto histogram = [](std::uint64_t third) {
        fuzz::LegRecord r;
        rtsc::obs::Histogram& h = r.metrics.histogram("h");
        for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0}, third,
                                      std::uint64_t{1000}})
            h.record(v);
        return r;
    };
    fuzz::LegRecord buckets[4] = {histogram(0), histogram(1), histogram(0),
                                  histogram(1)};
    EXPECT_FALSE(fuzz::same_observations(buckets[0], buckets[1]));
    EXPECT_EQ(fuzz::render(buckets[0]).metrics, fuzz::render(buckets[1]).metrics);
    EXPECT_FALSE(fuzz::check_records(buckets).diverged);
}

TEST(FuzzRecords, SharedConservationBreakReportsAsTheText) {
    // The seed-6352 regression under its tie-break trace, a DVFS model
    // whose crash cuts a context load: with its ledger (or one job's
    // components) broken identically on every leg, the records agree and
    // the report is the text's conservation report.
    const fuzz::ModelSpec spec = fuzz::from_text(R"spec(
model seed=6352 horizon=0
cpu policy=rr quantum=7000000 preemptive=0 sched=1000000 load=500000 save=250000 formula=0 fswitch=0 dvfs=2000000:1000,1000000:800
irq cpu=0 prio=11 period=173000000 jitter=7000000 until=619000000 cost=5000000 maxpend=0
task name=T0 cpu=0 prio=5 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=1 dur=90000000 timeout=42000000 repeat=1
op d=0 kind=compute target=3 dur=28500000 timeout=36000000 repeat=3
task name=T1 cpu=0 prio=6 start=56000000 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=7 dur=94500000 timeout=3000000 repeat=1
fault_crash task=1 at=255000000 restart=0 delay=0
fault_drop irq=0 prob=0.52
)spec");
    const explore::DecisionTrace trace = explore::trace_from_text("cpu0:0");
    {
        fuzz::LegRuns runs = run_traced(spec, trace);
        ASSERT_FALSE(runs.verdict.diverged) << runs.verdict.to_string();
        for (fuzz::LegRecord& leg : runs.legs) leg.energy.front().overhead += 7;
        const fuzz::Divergence d = fuzz::check_records(runs.legs);
        expect_same_divergence(d, fuzz::check_legs(Rendered(runs.legs).legs));
        EXPECT_EQ(d.stream, "metrics");
        EXPECT_EQ(d.lhs_leg, d.rhs_leg);
        EXPECT_NE(d.lhs.find("BROKEN-ENERGY"), std::string::npos) << d.lhs;
    }
    {
        fuzz::LegRuns runs = run_traced(spec, trace);
        for (fuzz::LegRecord& leg : runs.legs) {
            ASSERT_FALSE(leg.jobs.empty());
            leg.jobs.front().blame.exec += rtsc::kernel::Time::ps(1);
        }
        const fuzz::Divergence d = fuzz::check_records(runs.legs);
        expect_same_divergence(d, fuzz::check_legs(Rendered(runs.legs).legs));
        EXPECT_EQ(d.stream, "attribution");
        EXPECT_EQ(d.lhs_leg, d.rhs_leg);
        EXPECT_NE(d.lhs.find("BROKEN-INVARIANT"), std::string::npos) << d.lhs;
    }
}

TEST(FuzzRecords, KnownDivergencesReportAsTheText) {
    // The open engine findings: each diverges, so its legs' records differ
    // and the report is rendered from the text.
    for (const std::uint64_t seed : {2867u, 3161u, 4014u, 4883u}) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        const fuzz::LegRuns runs = fuzz::run_legs(fuzz::generate(seed));
        EXPECT_TRUE(runs.verdict.diverged);
        EXPECT_FALSE(fuzz::same_observations(runs.legs[runs.verdict.lhs_leg],
                                             runs.legs[runs.verdict.rhs_leg]));
        expect_verdict_is_the_texts(runs);
    }
    const std::pair<std::uint64_t, const char*> explored[] = {
        {5969, "cpu0:0"}, {8284, "cpu1:1,1"}};
    for (const auto& [seed, trace] : explored) {
        SCOPED_TRACE("explorer seed " + std::to_string(seed) + " " + trace);
        const fuzz::LegRuns runs = run_traced(fuzz::generate(seed),
                                              explore::trace_from_text(trace));
        EXPECT_TRUE(runs.verdict.diverged);
        EXPECT_FALSE(fuzz::same_observations(runs.legs[runs.verdict.lhs_leg],
                                             runs.legs[runs.verdict.rhs_leg]));
        expect_verdict_is_the_texts(runs);
    }
}

// -------------------------------------------------------------- shrinker

TEST(FuzzShrink, MinimizesAgainstSyntheticPredicate) {
    // Predicate: "some task contains a sem_acquire op". The 1-minimal spec
    // under the shrinker's edit set is a single task with that single op and
    // everything else stripped.
    // Needs a seed whose model has a *top-level* sem_acquire: the edit set
    // drops ops (taking nested bodies with them) but never hoists children,
    // so only a depth-0 acquire can survive as the 1-minimal form. Scan for
    // one instead of pinning a magic seed — the generator's draw sequence
    // may change between versions.
    // The greedy pass could otherwise strand a *nested* acquire as a local
    // minimum (drop the top-level one first, keep its critical's copy), so
    // require every acquire in the seed model to sit at depth 0.
    const auto only_top_acquires = [](const fuzz::ModelSpec& s) {
        bool top = false;
        for (const fuzz::TaskSpec& t : s.tasks) {
            std::vector<std::pair<const fuzz::OpSpec*, bool>> stack;
            for (const fuzz::OpSpec& op : t.body) stack.push_back({&op, false});
            while (!stack.empty()) {
                const auto [op, nested] = stack.back();
                stack.pop_back();
                if (op->kind == fuzz::OpKind::sem_acquire) {
                    if (nested) return false;
                    top = true;
                }
                for (const fuzz::OpSpec& c : op->body)
                    stack.push_back({&c, true});
            }
        }
        return top;
    };
    fuzz::ModelSpec big;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 2000 && !found; ++seed) {
        big = fuzz::generate(seed);
        found = only_top_acquires(big);
    }
    ASSERT_TRUE(found) << "no seed in 1..2000 with only top-level sem_acquires";
    const fuzz::Predicate has_acquire = [](const fuzz::ModelSpec& s) {
        for (const fuzz::TaskSpec& t : s.tasks) {
            std::vector<const fuzz::OpSpec*> stack;
            for (const fuzz::OpSpec& op : t.body) stack.push_back(&op);
            while (!stack.empty()) {
                const fuzz::OpSpec* op = stack.back();
                stack.pop_back();
                if (op->kind == fuzz::OpKind::sem_acquire) return true;
                for (const fuzz::OpSpec& c : op->body) stack.push_back(&c);
            }
        }
        return false;
    };
    ASSERT_TRUE(has_acquire(big));
    fuzz::ShrinkStats stats;
    const fuzz::ModelSpec small = fuzz::shrink(big, has_acquire, &stats);
    EXPECT_TRUE(has_acquire(small));
    EXPECT_GT(stats.accepted, 0u);
    ASSERT_EQ(small.tasks.size(), 1u);
    ASSERT_EQ(small.tasks[0].body.size(), 1u);
    EXPECT_EQ(small.tasks[0].body[0].kind, fuzz::OpKind::sem_acquire);
    EXPECT_EQ(small.horizon_ps, 0u);
    EXPECT_TRUE(small.irqs.empty());
    EXPECT_TRUE(small.faults.empty());
}

TEST(FuzzShrink, AlwaysTruePredicateShrinksToNothing) {
    // With an unconditionally true predicate every drop is accepted — the
    // fixpoint is the empty model. This pins the edit set as complete: no
    // structural element survives shrinking on its own.
    const fuzz::ModelSpec big = fuzz::generate(75);
    const fuzz::Predicate always = [](const fuzz::ModelSpec&) { return true; };
    const fuzz::ModelSpec small = fuzz::shrink(big, always);
    EXPECT_TRUE(small.tasks.empty());
    EXPECT_TRUE(small.sems.empty());
    EXPECT_TRUE(small.irqs.empty());
    EXPECT_TRUE(small.faults.empty());
    EXPECT_EQ(small.horizon_ps, 0u);
}

TEST(FuzzShrink, EmittedTestEmbedsSpecAndParsesBack) {
    const fuzz::ModelSpec spec = fuzz::generate(11);
    const std::string src = fuzz::emit_cpp_test(spec, "Seed11");
    EXPECT_NE(src.find("TEST(FuzzRegression, Seed11)"), std::string::npos);
    EXPECT_NE(src.find("diff_engines"), std::string::npos);
    // Extract the raw-string payload and check it parses to the same spec.
    const std::string open = "R\"spec(";
    const auto b = src.find(open);
    const auto e = src.find(")spec\"");
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(e, std::string::npos);
    const std::string payload = src.substr(b + open.size(), e - b - open.size());
    EXPECT_EQ(fuzz::to_text(fuzz::from_text(payload)), fuzz::to_text(spec));
}

} // namespace
