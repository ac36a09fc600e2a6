// Unit tests for the analytical schedulability module, including textbook
// examples from Buttazzo (the paper's reference [10]).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/response_time.hpp"

namespace a = rtsc::analysis;
using rtsc::kernel::Time;
using namespace rtsc::kernel::time_literals;

namespace {
std::vector<a::PeriodicTask> classic_set() {
    // Classic RTA example: C=(1,2,3), T=(4,6,10), RM priorities.
    return {
        {"t1", 4_ms, 1_ms, Time::zero(), 3, Time::zero()},
        {"t2", 6_ms, 2_ms, Time::zero(), 2, Time::zero()},
        {"t3", 10_ms, 3_ms, Time::zero(), 1, Time::zero()},
    };
}
} // namespace

TEST(AnalysisTest, Utilization) {
    const auto ts = classic_set();
    // 1/4 + 2/6 + 3/10 = 0.8833...
    EXPECT_NEAR(a::utilization(ts), 0.25 + 1.0 / 3.0 + 0.3, 1e-12);
}

TEST(AnalysisTest, RmBoundValues) {
    EXPECT_NEAR(a::rm_utilization_bound(1), 1.0, 1e-12);
    EXPECT_NEAR(a::rm_utilization_bound(2), 2 * (std::sqrt(2.0) - 1), 1e-12);
    EXPECT_NEAR(a::rm_utilization_bound(3), 3 * (std::pow(2.0, 1.0 / 3) - 1),
                1e-12);
    EXPECT_EQ(a::rm_utilization_bound(0), 0.0);
    // Limit is ln 2.
    EXPECT_NEAR(a::rm_utilization_bound(100000), std::log(2.0), 1e-4);
}

TEST(AnalysisTest, EdfSchedulableIffUtilizationAtMostOne) {
    auto ts = classic_set();
    EXPECT_TRUE(a::edf_schedulable(ts));
    ts[2].wcet = 5_ms; // U = 0.25 + 0.333 + 0.5 > 1
    EXPECT_FALSE(a::edf_schedulable(ts));
}

TEST(AnalysisTest, ExactResponseTimes) {
    // Hand-computed fixed points:
    //   R1 = 1
    //   R2 = 2 + ceil(R2/4)*1 -> 3
    //   R3 = 3 + ceil(R3/4)*1 + ceil(R3/6)*2 -> 3+1+2=6 -> 3+2+2=7 ->
    //        3+2+4=9 -> 3+3+4=10 -> 10 (fixed)
    const auto res = a::response_time_analysis(classic_set());
    ASSERT_EQ(res.size(), 3u);
    ASSERT_TRUE(res[0].response.has_value());
    EXPECT_EQ(*res[0].response, 1_ms);
    EXPECT_TRUE(res[0].schedulable);
    ASSERT_TRUE(res[1].response.has_value());
    EXPECT_EQ(*res[1].response, 3_ms);
    ASSERT_TRUE(res[2].response.has_value());
    EXPECT_EQ(*res[2].response, 10_ms);
    EXPECT_TRUE(res[2].schedulable); // deadline == period == 10
}

TEST(AnalysisTest, UnschedulableTaskReported) {
    auto ts = classic_set();
    ts[2].wcet = 4_ms; // R3 grows past its 10ms deadline
    const auto res = a::response_time_analysis(ts);
    EXPECT_FALSE(res[2].schedulable);
}

TEST(AnalysisTest, BlockingTermExtendsResponse) {
    auto ts = classic_set();
    ts[0].blocking = 2_ms; // priority ceiling blocking for the top task
    const auto res = a::response_time_analysis(ts);
    EXPECT_EQ(*res[0].response, 3_ms);
}

TEST(AnalysisTest, ContextSwitchTermExtendsResponse) {
    const a::RtaOptions opts{.context_switch = Time::us(100),
                             .max_iterations = 1000};
    const auto res = a::response_time_analysis(classic_set(), opts);
    // R1 = 1ms + 0.1ms dispatch = 1.1ms.
    EXPECT_EQ(*res[0].response, Time::us(1100));
    // R2 = 2.1 + ceil(R2/4)*(1+0.2) -> 3.3ms.
    EXPECT_EQ(*res[1].response, Time::us(3300));
    // Responses dominate the overhead-free ones.
    const auto base = a::response_time_analysis(classic_set());
    for (std::size_t i = 0; i < res.size(); ++i)
        EXPECT_GE(*res[i].response, *base[i].response);
}

TEST(AnalysisTest, Hyperperiod) {
    EXPECT_EQ(a::hyperperiod(classic_set()), 60_ms); // lcm(4,6,10)
    EXPECT_EQ(a::hyperperiod({{"x", 7_us, 1_us, Time::zero(), 1, Time::zero()}}),
              7_us);
}

TEST(AnalysisTest, HyperperiodSaturatesInsteadOfWrapping) {
    // lcm(2^63, 3) ps = 3 * 2^63 ps does not fit in 64 bits.
    EXPECT_EQ(a::hyperperiod({{"a", Time::ps(1ull << 63), 1_ps, Time::zero(), 2,
                               Time::zero()},
                              {"b", Time::ps(3), 1_ps, Time::zero(), 1, Time::zero()}}),
              Time::max());
    EXPECT_EQ(a::hyperperiod(classic_set()), 60_ms);
}

TEST(AnalysisTest, EffectiveDeadlineDefaultsToPeriod) {
    a::PeriodicTask t{"t", 10_ms, 1_ms, Time::zero(), 1, Time::zero()};
    EXPECT_EQ(t.effective_deadline(), 10_ms);
    t.deadline = 4_ms;
    EXPECT_EQ(t.effective_deadline(), 4_ms);
}
