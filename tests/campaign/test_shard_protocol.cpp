// Shard wire protocol: codec round-trips, bounds-checked decoding, frame
// I/O over a real socketpair, incremental parsing, SIGPIPE-free sends.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "campaign/shard/protocol.hpp"
#include "obs/metrics.hpp"

namespace c = rtsc::campaign;
namespace shard = rtsc::campaign::shard;
namespace obs = rtsc::obs;

namespace {

[[nodiscard]] c::ScenarioResult sample_result() {
    c::ScenarioResult r;
    r.name = "hostile \"name\"\nwith\tcontrol\x01 bytes";
    r.index = 42;
    r.seed = 0xdeadbeefcafebabeull;
    r.ok = false;
    r.error = "std::runtime_error: boom \xc3\xa9\xe2\x82\xac"; // é€
    r.wall_ms = 12.75;
    r.metrics = {{"misses", 3.0}, {"", -0.0}, {"inf-ish", 1e308}};
    r.notes = {{"verdict", "late"}, {"empty", ""}, {"nul", std::string("a\0b", 3)}};
    return r;
}

void expect_equal(const c::ScenarioResult& a, const c::ScenarioResult& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_DOUBLE_EQ(a.wall_ms, b.wall_ms);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.notes, b.notes);
}

} // namespace

TEST(ShardCodec, ResultRoundTripsExactly) {
    const c::ScenarioResult in = sample_result();
    const auto payload = shard::encode_result(in);
    c::ScenarioResult out;
    ASSERT_TRUE(shard::decode_result(payload, out));
    expect_equal(in, out);

    c::ScenarioResult empty; // all defaults
    c::ScenarioResult out2;
    ASSERT_TRUE(shard::decode_result(shard::encode_result(empty), out2));
    expect_equal(empty, out2);
}

TEST(ShardCodec, DecodeRejectsTruncationAndTrailingBytes) {
    const auto payload = shard::encode_result(sample_result());
    c::ScenarioResult out;
    // Every strict prefix must fail — no over-read, no partial acceptance.
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                  payload.size() / 2, payload.size() - 1}) {
        std::vector<std::uint8_t> torn(payload.begin(),
                                       payload.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(shard::decode_result(torn, out)) << "cut=" << cut;
    }
    std::vector<std::uint8_t> extra = payload;
    extra.push_back(0);
    EXPECT_FALSE(shard::decode_result(extra, out));
}

TEST(ShardCodec, DecodeRejectsLyingStringLength) {
    shard::Encoder e;
    e.u64(1u << 30); // claims a 1 GiB string with no bytes behind it
    c::ScenarioResult out;
    EXPECT_FALSE(shard::decode_result(e.take(), out));
}

TEST(ShardCodec, RegistryRoundTripsBitExactly) {
    obs::MetricsRegistry reg;
    reg.counter("shard.worker.scenarios_run").inc(17);
    reg.gauge("load").set(0.25);
    reg.gauge("load").set(0.75);
    obs::Histogram& h = reg.histogram("wall_us");
    for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 1000ull, 123456789ull,
                            ~0ull})
        h.record(v);

    obs::MetricsRegistry back;
    ASSERT_TRUE(shard::decode_registry(shard::encode_registry(reg), back));

    // The flattened snapshots must agree sample for sample — and the
    // histogram's full bucket state too (quantiles are derived from it).
    const auto a = reg.snapshot();
    const auto b = back.snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_DOUBLE_EQ(a[i].value, b[i].value) << a[i].name;
    }
    const obs::Histogram* hb = back.find_histogram("wall_us");
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(h.bucket_counts(), hb->bucket_counts());
    EXPECT_EQ(h.min(), hb->min());
    EXPECT_EQ(h.max(), hb->max());
    EXPECT_DOUBLE_EQ(h.sum(), hb->sum());
    EXPECT_DOUBLE_EQ(h.p99(), hb->p99());
}

TEST(ShardCodec, HistogramWithOnlyHighBucketsRoundTrips) {
    // Span storage starts at the first touched bucket; the wire format
    // still carries absolute bucket indices.
    std::vector<std::uint32_t> b(obs::Histogram::kBuckets, 0);
    b[300] = 2;
    b[302] = 5;
    obs::MetricsRegistry reg;
    reg.histogram("high") = obs::Histogram::from_parts(
        b, 7, obs::Histogram::bucket_lo(300), obs::Histogram::bucket_hi(302),
        0.0);
    EXPECT_EQ(reg.find_histogram("high")->bucket_counts(), b);

    obs::MetricsRegistry back;
    ASSERT_TRUE(shard::decode_registry(shard::encode_registry(reg), back));
    const obs::Histogram* h = back.find_histogram("high");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bucket_counts(), b);
    EXPECT_EQ(h->p50(), reg.find_histogram("high")->p50());
    EXPECT_EQ(h->p99(), reg.find_histogram("high")->p99());
}

TEST(ShardCodec, RegistryDecodeRejectsBadBucketIndex) {
    shard::Encoder e;
    e.u64(0); // counters
    e.u64(0); // gauges
    e.u64(1); // one histogram
    e.str("h");
    e.u64(1); // count
    e.u64(5); // min
    e.u64(5); // max
    e.f64(5.0);
    e.u64(1);                          // one nonzero bucket
    e.u32(obs::Histogram::kBuckets);   // out of range
    e.u32(1);
    obs::MetricsRegistry out;
    EXPECT_FALSE(shard::decode_registry(e.take(), out));
}

TEST(ShardFrames, RoundTripOverSocketpair) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const auto payload = shard::encode_result(sample_result());
    ASSERT_TRUE(shard::send_frame(sv[0], shard::MsgType::result, payload));
    ASSERT_TRUE(shard::send_frame(sv[0], shard::MsgType::shutdown, {}));

    shard::Frame f;
    ASSERT_TRUE(shard::recv_frame(sv[1], f));
    EXPECT_EQ(f.type, shard::MsgType::result);
    EXPECT_EQ(f.payload, payload);
    ASSERT_TRUE(shard::recv_frame(sv[1], f));
    EXPECT_EQ(f.type, shard::MsgType::shutdown);
    EXPECT_TRUE(f.payload.empty());

    ::close(sv[0]);
    EXPECT_FALSE(shard::recv_frame(sv[1], f)); // EOF is a clean false
    ::close(sv[1]);
}

TEST(ShardFrames, SendToDeadPeerFailsWithoutKillingTheProcess) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::close(sv[1]);
    // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the test.
    EXPECT_FALSE(shard::send_frame(sv[0], shard::MsgType::shutdown, {}));
    ::close(sv[0]);
}

TEST(ShardFrames, ReaderReassemblesArbitraryFragmentation) {
    const auto p1 = shard::encode_result(sample_result());
    std::vector<std::uint8_t> stream;
    auto append_frame = [&stream](shard::MsgType t,
                                  const std::vector<std::uint8_t>& payload) {
        const auto len = static_cast<std::uint32_t>(payload.size());
        for (int i = 0; i < 4; ++i)
            stream.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
        stream.push_back(static_cast<std::uint8_t>(t));
        stream.insert(stream.end(), payload.begin(), payload.end());
    };
    append_frame(shard::MsgType::result, p1);
    append_frame(shard::MsgType::shutdown, {});
    append_frame(shard::MsgType::assign, {1, 0, 0, 0, 0, 0, 0, 0});

    // Byte-by-byte feeding must yield exactly the three frames, in order.
    shard::FrameReader reader;
    std::vector<shard::Frame> got;
    shard::Frame f;
    for (const std::uint8_t b : stream) {
        reader.feed(&b, 1);
        while (reader.next(f)) got.push_back(f);
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].type, shard::MsgType::result);
    EXPECT_EQ(got[0].payload, p1);
    EXPECT_EQ(got[1].type, shard::MsgType::shutdown);
    EXPECT_EQ(got[2].type, shard::MsgType::assign);
    EXPECT_FALSE(reader.corrupt());
}

TEST(ShardFrames, ReaderFlagsCorruptHeader) {
    shard::FrameReader reader;
    // Length far above kMaxFrameBytes.
    const std::uint8_t bad[5] = {0xff, 0xff, 0xff, 0xff, 1};
    reader.feed(bad, sizeof bad);
    shard::Frame f;
    EXPECT_FALSE(reader.next(f));
    EXPECT_TRUE(reader.corrupt());

    shard::FrameReader reader2;
    const std::uint8_t bad_type[5] = {0, 0, 0, 0, 99}; // unknown MsgType
    reader2.feed(bad_type, sizeof bad_type);
    EXPECT_FALSE(reader2.next(f));
    EXPECT_TRUE(reader2.corrupt());
}
