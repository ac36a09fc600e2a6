#pragma once
// Pinned simulated behaviour of every workload. These are outputs of the
// model, identical on both engines and with or without observers, so a run
// that does not reproduce them computed something else and counts as failed.
// Kernel cost counts (activations, delta cycles) are deliberately not pinned
// here: removing switches is what an engine optimisation does. They are
// reported per layer and must only repeat exactly within one process.
//
// Regenerate with `perfbench --workload <name> --print-pins` only when a
// change alters simulated behaviour on purpose.

#include <cstdint>

namespace perfbench::pins {

/// Ring at one size; both engines must match it.
struct RingPin {
    int tasks;
    std::uint64_t dispatches;
    std::uint64_t scheduler_runs;
};
inline constexpr RingPin kRing[] = {
    {2, 22128, 43934},
    {32, 54063, 102936},
};

/// MPEG-2 SoC, summed over the three SW processors.
struct Mpeg2Pin {
    std::uint64_t displayed;
    std::uint64_t misses;
    std::uint64_t dispatches;
    std::uint64_t scheduler_runs;
    std::uint64_t latency_digest; ///< FNV-1a over every displayed frame stamp
    std::uint64_t metrics_digest; ///< FNV-1a over the collector's snapshot
    std::uint64_t events;         ///< events the stream writer exported
};
inline constexpr Mpeg2Pin kMpeg2 = {1500, 0, 13045, 25953, 0xa2ca1de91c884735ull,
                                    0xd6f04542ac75336cull, 176793};

/// One generated fuzz model of the verify workload: its seed, the digest
/// all four legs share, and the explorer's counts under default bounds.
struct ModelPin {
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t schedules;
    std::uint64_t pruned;
};
inline constexpr ModelPin kModels[] = {
    {1, 0xfda5c5cb7dd1cc5full, 2, 0},
    {2, 0xebb2a4924c3529bbull, 1, 0},
    {3, 0x5e9991a8a6ad0587ull, 4, 0},
    {4, 0x1d00ee440ed60012ull, 2, 0},
    {5, 0x719116e6d57d1afaull, 24, 0},
    {6, 0x94e07a5f7f921244ull, 2, 0},
    {7, 0x28a5873823caa7abull, 6, 0},
    {8, 0xd5c8629485e601baull, 1, 0},
    {9, 0x1b5f9fe8b9aaef89ull, 1, 0},
    {10, 0xb50b18b56b9c2aefull, 1, 0},
    {11, 0x9901b47b29a880ceull, 2, 0},
    {12, 0xb09a772f6d0767a4ull, 1, 0},
    {13, 0xc1d62b43499e3775ull, 1, 0},
    {14, 0x8122eacc8a203c64ull, 1, 0},
    {15, 0x55403e78ff7e04dcull, 2, 0},
    {16, 0x6b288cb2c4099c6bull, 1, 0},
    {17, 0xa1174807647ba756ull, 1, 0},
    {18, 0xdd026635e9f72365ull, 1, 0},
    {19, 0x9f3caf3e22d549dcull, 1, 0},
    {20, 0xb9d2af868813c13dull, 6, 0},
    {21, 0xfb6d87c90007eb19ull, 1, 0},
    {22, 0xe35900a36dbffc1full, 1, 0},
    {23, 0x2f1020a25309de92ull, 2, 0},
    {24, 0xed205bc5ff8a235eull, 1, 0},
    {25, 0xad67bbe802173f64ull, 6, 0},
    {26, 0xf6e12fd1ec3edcc3ull, 24, 0},
    {27, 0xcec599c67b70a32dull, 6, 0},
    {28, 0x3b0861c03ee6df75ull, 2, 0},
    {29, 0xc3f8597895037043ull, 2, 0},
    {30, 0xf382439af7c06933ull, 120, 0},
    {31, 0xe767aabbcd4b9956ull, 1, 0},
    {32, 0xd80a9c87cd540615ull, 1, 0},
    {33, 0x2a6933ed5c9075b1ull, 2, 0},
    {34, 0xe10504deef06f8e3ull, 1, 0},
    {35, 0xf75f752fc0f7ef2aull, 1, 0},
    {36, 0xe0a9ddd0bcb579dfull, 2, 0},
    {37, 0x0988790102a4b885ull, 3, 0},
    {38, 0xe9bf5c77f5970ca2ull, 24, 0},
    {39, 0x328e6a6e8e8bacc0ull, 126, 0},
    {40, 0x40c453deb450eab9ull, 1, 0},
    {41, 0xdb02f884cc63a871ull, 1, 0},
    {42, 0x561f89fb55eb4de7ull, 2, 0},
    {43, 0x3d63904a2e22423aull, 1, 0},
    {44, 0x177901f3ebbe94a5ull, 1, 0},
    {45, 0xe494bab5b04dc7e9ull, 24, 0},
    {46, 0x0e135d7ac7c44486ull, 1, 0},
    {47, 0x67ee430eb3191ec4ull, 6, 0},
    {48, 0xc86bd1c46dd9319eull, 2, 0},
    {49, 0x6c28bfe1c00d2c32ull, 6, 0},
    {50, 0x1adb2c49479687bbull, 1, 0},
    {51, 0xa31686e273a9f4f0ull, 6, 0},
    {52, 0x78302030d8d13f84ull, 2, 0},
    {53, 0x4a8304148de1746aull, 6, 0},
    {54, 0xe9386b2a701f35c6ull, 1, 0},
    {55, 0xe46dbf66944f07c3ull, 6, 0},
    {56, 0x31f86cdb9fc6aa60ull, 1, 0},
    {57, 0x33f10f46299e3036ull, 6, 0},
    {58, 0x7d9f3aa3ba997c12ull, 6, 0},
    {59, 0x2fc0aeefa3ee5916ull, 1, 0},
    {60, 0xcfca6152b03af82eull, 6, 0},
};

} // namespace perfbench::pins
