#pragma once
// Wire protocol between the shard coordinator and its worker processes.
//
// Frames are length-prefixed over a SOCK_STREAM socketpair:
//
//     u32le payload_len | u8 type | payload_len bytes
//
// Payloads are fixed-width little-endian fields (no text parsing, no
// locale): strings are u64 length + raw bytes, doubles travel as their
// IEEE-754 bit pattern. The same codec serializes checkpoint-journal
// records, so a resumed campaign rebuilds byte-identical ScenarioResults —
// that is what makes the resumed report digest equal the uninterrupted one.
//
// Message flow:
//   worker -> coordinator   hello    {version, pid}        once, on start
//   coordinator -> worker   assign   {scenario index}
//   worker -> coordinator   result   {ScenarioResult}      one per assign
//   worker -> coordinator   status   {MetricsRegistry}     heartbeat after
//                                    each result: the *delta* since the
//                                    worker's previous status frame, so the
//                                    coordinator merges every frame exactly
//                                    once into its live registry
//   coordinator -> worker   shutdown {}                    end of campaign
//   worker -> coordinator   metrics  {MetricsRegistry}     cumulative total,
//                                    reply to shutdown, then exit
//
// Robustness rules: writes use MSG_NOSIGNAL (a dead peer yields EPIPE, not
// SIGPIPE), reads tolerate partial delivery, and every decode is
// bounds-checked — a torn or corrupt frame fails cleanly instead of
// over-reading. Frames above kMaxFrameBytes are rejected outright.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/metrics.hpp"

namespace rtsc::campaign::shard {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on one frame's payload — far above any real result, small
/// enough that a corrupt length prefix cannot trigger a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint8_t {
    hello = 1,
    assign = 2,
    result = 3,
    metrics = 4,
    shutdown = 5,
    status = 6,
};

// ---------------------------------------------------------------------------
// Payload codec

class Encoder {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f64(double v);
    void str(std::string_view s) {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader: every getter returns false (and poisons the
/// decoder) instead of reading past the payload.
class Decoder {
public:
    Decoder(const std::uint8_t* data, std::size_t size)
        : p_(data), end_(data + size) {}
    explicit Decoder(const std::vector<std::uint8_t>& buf)
        : Decoder(buf.data(), buf.size()) {}

    [[nodiscard]] bool u8(std::uint8_t& v);
    [[nodiscard]] bool u32(std::uint32_t& v);
    [[nodiscard]] bool u64(std::uint64_t& v);
    [[nodiscard]] bool f64(double& v);
    [[nodiscard]] bool str(std::string& v);
    /// True when the whole payload was consumed and nothing under-ran.
    [[nodiscard]] bool finished() const noexcept { return ok_ && p_ == end_; }
    [[nodiscard]] bool ok() const noexcept { return ok_; }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    bool ok_ = true;
};

[[nodiscard]] std::vector<std::uint8_t> encode_result(const ScenarioResult& r);
[[nodiscard]] bool decode_result(const std::vector<std::uint8_t>& payload,
                                 ScenarioResult& out);

[[nodiscard]] std::vector<std::uint8_t> encode_registry(const obs::MetricsRegistry& reg);
[[nodiscard]] bool decode_registry(const std::vector<std::uint8_t>& payload,
                                   obs::MetricsRegistry& out);

// ---------------------------------------------------------------------------
// Frame I/O

struct Frame {
    MsgType type{};
    std::vector<std::uint8_t> payload;
};

/// Blocking send of one whole frame (loops over partial writes, EINTR-safe,
/// MSG_NOSIGNAL). False on any error — the peer is gone.
[[nodiscard]] bool send_frame(int fd, MsgType type,
                              const std::vector<std::uint8_t>& payload);

/// Blocking receive of one whole frame. False on EOF, error, or an invalid
/// header (oversized length, unknown type).
[[nodiscard]] bool recv_frame(int fd, Frame& out);

/// Incremental frame parser for the coordinator's poll loop: feed it
/// whatever recv() returned, pop complete frames. Never blocks.
class FrameReader {
public:
    /// Append raw bytes from the socket.
    void feed(const std::uint8_t* data, std::size_t n) {
        buf_.insert(buf_.end(), data, data + n);
    }
    /// Extract the next complete frame. Returns false when more bytes are
    /// needed. Sets `corrupt()` (and stops yielding) on an invalid header.
    [[nodiscard]] bool next(Frame& out);
    [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0; ///< consumed prefix, compacted lazily
    bool corrupt_ = false;
};

} // namespace rtsc::campaign::shard
