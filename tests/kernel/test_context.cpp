// Unit tests for the coroutine layer: the hand-written x86-64 register switch
// (ucontext on other architectures), stacks and guard pages.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cfenv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

using rtsc::kernel::Coroutine;
using rtsc::kernel::SimulationError;

namespace {

/// The address as an integer the optimizer cannot reason about, so an
/// alignment check on an alignas(16) local is really made at run time.
std::uintptr_t opaque_address(const void* p) {
    auto v = reinterpret_cast<std::uintptr_t>(p);
    asm volatile("" : "+r"(v));
    return v;
}

/// Rounds with the SSE unit, which follows MXCSR: 2.5 becomes 2 to nearest
/// and 3 upward. fegetround() reads the x87 control word.
double sse_round(double x) {
    volatile double v = x;
    return std::nearbyint(v);
}

volatile int g_never = -1; // recursion depth that is never reached

int recurse(int depth) {
    volatile char frame[512];
    frame[depth % 512] = 1;
    if (depth == g_never) return 0;
    const int below = recurse(depth + 1);
    return below + frame[(depth + 1) % 512]; // keeps the frame live
}

constexpr std::size_t kPoolTestStack = 16 * 1024;

/// Coroutine stacks of kPoolTestStack bytes mapped in this process, counted
/// in /proc/self/maps as a one-page PROT_NONE line directly followed by a
/// read-write line of that size. Other mappings (thread stacks, allocator
/// and sanitizer regions, which appear on first use) do not have that shape.
std::size_t mapped_stacks() {
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    std::uintptr_t guard_end = 0; // end of a guard-shaped previous line
    for (std::string line; std::getline(maps, line);) {
        std::uintptr_t lo = 0, hi = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &lo, &hi,
                        perms) != 3)
            return 0;
        const std::string_view p(perms);
        if (lo == guard_end && p == "rw-p" && hi - lo == kPoolTestStack) ++n;
        guard_end = p == "---p" && hi - lo == page ? hi : 0;
    }
    return n;
}

} // namespace

TEST(CoroutineTest, RunsToCompletion) {
    bool ran = false;
    Coroutine co([&] { ran = true; });
    EXPECT_FALSE(co.started());
    co.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(co.finished());
}

TEST(CoroutineTest, YieldSuspendsAndResumeContinues) {
    std::vector<int> order;
    Coroutine* self = nullptr;
    Coroutine co([&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
        self->yield();
        order.push_back(5);
    });
    self = &co;
    co.resume();
    order.push_back(2);
    co.resume();
    order.push_back(4);
    co.resume();
    EXPECT_TRUE(co.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(CoroutineTest, CurrentTracksExecution) {
    EXPECT_EQ(Coroutine::current(), nullptr);
    Coroutine* seen = nullptr;
    Coroutine co([&] { seen = Coroutine::current(); });
    co.resume();
    EXPECT_EQ(seen, &co);
    EXPECT_EQ(Coroutine::current(), nullptr);
}

TEST(CoroutineTest, NestedCoroutines) {
    std::vector<int> order;
    Coroutine inner([&] { order.push_back(2); });
    Coroutine outer([&] {
        order.push_back(1);
        inner.resume();
        order.push_back(3);
    });
    outer.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(inner.finished());
    EXPECT_TRUE(outer.finished());
}

TEST(CoroutineTest, YieldFromInsideNestedResume) {
    std::vector<int> order;
    Coroutine* inner_ptr = nullptr;
    Coroutine* outer_ptr = nullptr;
    Coroutine inner([&] {
        order.push_back(2);
        Coroutine::current()->yield(); // back to outer, its resumer
        EXPECT_EQ(Coroutine::current(), inner_ptr);
        order.push_back(5);
        Coroutine::current()->yield(); // back to the test body this time
        order.push_back(7);
    });
    Coroutine outer([&] {
        order.push_back(1);
        inner.resume();
        EXPECT_EQ(Coroutine::current(), outer_ptr);
        order.push_back(3);
        Coroutine::current()->yield(); // inner stays parked mid-body
        order.push_back(6);
        inner.resume();
        order.push_back(8);
    });
    inner_ptr = &inner;
    outer_ptr = &outer;
    outer.resume();
    EXPECT_EQ(Coroutine::current(), nullptr);
    order.push_back(4);
    inner.resume(); // a different resumer than last time
    EXPECT_EQ(Coroutine::current(), nullptr);
    outer.resume();
    EXPECT_TRUE(inner.finished());
    EXPECT_TRUE(outer.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(CoroutineTest, ExceptionPropagatesToResumer) {
    Coroutine co([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(co.resume(), std::runtime_error);
    EXPECT_TRUE(co.finished());
}

TEST(CoroutineTest, ExceptionCaughtInsideBodyAcrossYield) {
    std::vector<std::string> caught;
    const auto yield_then_throw = [](const char* what) {
        Coroutine::current()->yield();
        throw std::runtime_error(what);
    };
    Coroutine co([&] {
        for (const char* what : {"first", "second"}) {
            try {
                yield_then_throw(what);
            } catch (const std::runtime_error& e) {
                caught.emplace_back(e.what());
            }
        }
    });
    co.resume();
    EXPECT_TRUE(caught.empty());
    co.resume();
    EXPECT_EQ(caught, (std::vector<std::string>{"first"}));
    co.resume();
    EXPECT_TRUE(co.finished());
    EXPECT_EQ(caught, (std::vector<std::string>{"first", "second"}));
}

TEST(CoroutineTest, ResumeAfterFinishThrows) {
    Coroutine co([] {});
    co.resume();
    EXPECT_THROW(co.resume(), SimulationError);
}

TEST(CoroutineTest, DestroySuspendedCoroutineIsSafe) {
    auto* co = new Coroutine([] {
        Coroutine::current()->yield();
        FAIL() << "should never run past the yield";
    });
    co->resume();
    delete co; // releases stack without unwinding
    SUCCEED();
}

TEST(CoroutineTest, ManyCoroutinesInterleave) {
    constexpr int n = 50;
    std::vector<std::unique_ptr<Coroutine>> cos;
    int sum = 0;
    for (int i = 0; i < n; ++i) {
        cos.push_back(std::make_unique<Coroutine>([&sum, i] {
            sum += i;
            Coroutine::current()->yield();
            sum += 1000;
        }));
    }
    for (auto& c : cos) c->resume();
    EXPECT_EQ(sum, n * (n - 1) / 2);
    for (auto& c : cos) c->resume();
    EXPECT_EQ(sum, n * (n - 1) / 2 + 1000 * n);
    for (auto& c : cos) EXPECT_TRUE(c->finished());
}

TEST(CoroutineTest, LocalsSurviveManyInterleavedSwitches) {
    // 3 coroutines x 2000 rounds x 2 switches per round = 12k switches. Each
    // body keeps integer and floating-point state live across every yield.
    constexpr int kRounds = 2000;
    const auto step = [](std::uint64_t acc, int c, int i) {
        return acc * 6364136223846793005ull + static_cast<std::uint64_t>(c * 7919 + i);
    };
    std::array<std::uint64_t, 3> acc_out{};
    std::array<double, 3> sum_out{};
    std::array<int, 3> wrong_current{};
    std::vector<std::unique_ptr<Coroutine>> cos;
    for (int c = 0; c < 3; ++c) {
        cos.push_back(std::make_unique<Coroutine>([&, c] {
            Coroutine* self = Coroutine::current();
            std::uint64_t acc = static_cast<std::uint64_t>(c) + 1;
            double sum = 0.25 * c;
            for (int i = 0; i < kRounds; ++i) {
                acc = step(acc, c, i);
                sum += 0.5;
                self->yield();
                if (Coroutine::current() != self) ++wrong_current[c];
            }
            acc_out[c] = acc;
            sum_out[c] = sum;
        }));
    }
    for (int i = 0; i <= kRounds; ++i)
        for (auto& co : cos) co->resume();
    for (int c = 0; c < 3; ++c) {
        std::uint64_t acc = static_cast<std::uint64_t>(c) + 1;
        for (int i = 0; i < kRounds; ++i) acc = step(acc, c, i);
        EXPECT_TRUE(cos[c]->finished());
        EXPECT_EQ(acc_out[c], acc) << "coroutine " << c;
        EXPECT_EQ(sum_out[c], 0.25 * c + 0.5 * kRounds) << "coroutine " << c;
        EXPECT_EQ(wrong_current[c], 0) << "coroutine " << c;
    }
}

TEST(CoroutineTest, StackAlignedAtEntryAndAfterYield) {
    bool aligned_at_entry = false;
    bool aligned_after_yield = false;
    std::string printed_at_entry, printed_after_yield;
    const auto print = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%f", v); // SSE spills need alignment
        return std::string(buf);
    };
    Coroutine co([&] {
        alignas(16) unsigned char a[16] = {};
        aligned_at_entry = opaque_address(a) % 16 == 0;
        printed_at_entry = print(1.5);
        Coroutine::current()->yield();
        alignas(16) unsigned char b[16] = {};
        aligned_after_yield = opaque_address(b) % 16 == 0;
        printed_after_yield = print(-2.25);
    });
    co.resume();
    co.resume();
    EXPECT_TRUE(co.finished());
    EXPECT_TRUE(aligned_at_entry);
    EXPECT_TRUE(aligned_after_yield);
    EXPECT_EQ(printed_at_entry, "1.500000");
    EXPECT_EQ(printed_after_yield, "-2.250000");
}

TEST(CoroutineTest, RoundingModeIsPerCoroutine) {
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    int mode_at_entry = -1, mode_after_yield = -1;
    double round_after_yield = 0;
    Coroutine co([&] {
        mode_at_entry = std::fegetround();
        std::fesetround(FE_UPWARD);
        Coroutine::current()->yield();
        mode_after_yield = std::fegetround();
        round_after_yield = sse_round(2.5);
    });
    co.resume();
    // The coroutine's FE_UPWARD did not leak into its resumer...
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(sse_round(2.5), 2.0);
    // ...and the resumer's own mode does not leak into the coroutine.
    std::fesetround(FE_DOWNWARD);
    co.resume();
    EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
    std::fesetround(FE_TONEAREST);
    EXPECT_TRUE(co.finished());
    EXPECT_EQ(mode_at_entry, FE_TONEAREST);
    EXPECT_EQ(mode_after_yield, FE_UPWARD);
    EXPECT_EQ(round_after_yield, 3.0);
}

TEST(CoroutineTest, DeepStackUsageWithinLimit) {
    // Recursion that uses a good chunk of the default 128 KiB stack.
    std::function<int(int)> rec = [&](int d) -> int {
        char pad[512];
        pad[0] = static_cast<char>(d);
        if (d == 0) return pad[0];
        return rec(d - 1) + (pad[0] ? 0 : 1);
    };
    int result = -1;
    Coroutine co([&] { result = rec(100); });
    co.resume();
    EXPECT_EQ(result, 0);
}

TEST(CoroutineTest, OverflowingStackSizeIsRejected) {
    // Rounding these up to a page and adding the guard page wraps; the
    // coroutine must refuse them like any other stack it cannot map, both
    // directly and through Simulator::spawn.
    constexpr std::size_t max = std::numeric_limits<std::size_t>::max();
    for (const std::size_t bytes : {max, max - 100, max - 4096}) {
        EXPECT_THROW(Coroutine([] {}, bytes), std::bad_alloc) << bytes;
        rtsc::kernel::Simulator sim;
        EXPECT_THROW(sim.spawn("p", [] {}, bytes), std::bad_alloc) << bytes;
    }
}

TEST(CoroutineTest, StackPoolIsBoundedAndPerThread) {
    // Returns how many stacks were mapped while all `alive` coroutines were.
    const auto churn = [](std::size_t alive) {
        std::vector<std::unique_ptr<Coroutine>> cos;
        for (std::size_t i = 0; i < alive; ++i) {
            cos.push_back(std::make_unique<Coroutine>([] {}, kPoolTestStack));
            cos.back()->resume();
        }
        return mapped_stacks();
    };
    constexpr std::size_t cap = Coroutine::stack_pool_capacity;

    // Far more stacks alive at once than the pool keeps: releasing them all
    // leaves at most the cap's worth mapped.
    const std::size_t before = mapped_stacks();
    EXPECT_GE(churn(4 * cap), 4 * cap);
    EXPECT_LE(mapped_stacks(), before + cap);

    // A thread's pool goes with the thread: one that churned stacks and
    // exited leaves none behind.
    const std::size_t settled = mapped_stacks();
    std::thread([&] { EXPECT_GE(churn(cap / 2), cap / 2); }).join();
    EXPECT_EQ(mapped_stacks(), settled);
}

TEST(CoroutineDeathTest, StackOverflowHitsGuardPage) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Unbounded recursion must fault on the guard page, never return or run
    // into a neighbouring mapping.
    EXPECT_DEATH(
        {
            Coroutine co([] { recurse(0); }, 16 * 1024);
            co.resume();
        },
        "");
}

TEST(CoroutineDeathTest, OverflowOnReusedStackHitsGuardPage) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A pooled stack keeps its guard page. The second coroutine checks it
    // really got the first one's stack: a fresh one exits cleanly instead,
    // which fails the death assertion.
    EXPECT_DEATH(
        {
            std::uintptr_t first = 0;
            {
                Coroutine co([&] {
                    char local = 0;
                    first = opaque_address(&local);
                }, kPoolTestStack);
                co.resume();
            }
            Coroutine co([&] {
                char local = 0;
                const std::uintptr_t here = opaque_address(&local);
                if ((here > first ? here - first : first - here) >= kPoolTestStack)
                    std::_Exit(0);
                recurse(0);
            }, kPoolTestStack);
            co.resume();
        },
        "");
}
