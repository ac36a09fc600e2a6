#pragma once
// Shared test helper: two fuzz::Divergence values agree field for field.

#include <gtest/gtest.h>

#include "fuzz/runner.hpp"

namespace rtsc::test {

/// Every field of two divergences, and their text.
inline void expect_same_divergence(const fuzz::Divergence& got,
                                   const fuzz::Divergence& want) {
    EXPECT_EQ(got.diverged, want.diverged);
    EXPECT_EQ(got.stream, want.stream);
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.lhs, want.lhs);
    EXPECT_EQ(got.rhs, want.rhs);
    EXPECT_EQ(got.lhs_leg, want.lhs_leg);
    EXPECT_EQ(got.rhs_leg, want.rhs_leg);
    EXPECT_EQ(got.to_string(), want.to_string());
}

} // namespace rtsc::test
