/**
 * @file
 * Deterministic seeded fuzzer for the readers: the JSON parser
 * (src/sweep/json.h), the framed-log codec (src/common/framed_log.h),
 * and the trace payload reader above it (src/workload/trace.h).
 *
 * Structure-aware mutations of valid documents, logs and traces
 * assert the crash-interruptible-format contract: the parsers never
 * crash on arbitrary bytes, every prefix of a valid log is truncation,
 * never corruption, and every input is either rejected with a
 * diagnostic or accepted into a value whose re-serialization is a parse
 * fixpoint (serialize(parse(x)) parses back byte-identically).
 *
 * Everything is seeded through spur::Rng, so a failure reproduces from
 * its iteration number alone.  Each fuzzer runs kIterations inputs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/framed_log.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/stats/run_record.h"
#include "src/sweep/json.h"
#include "src/vm/region.h"
#include "src/workload/trace.h"

namespace spur::sweep {
namespace {

/** Inputs per fuzz test. */
constexpr uint64_t kIterations = 10'000;

/** A representative document: cell counts, metrics, escapes. */
std::string
CorpusDocument()
{
    stats::RunRecord record;
    record.bench = "fuzz \"bench\"\n";
    record.workload = "SLC";
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = 8;
    record.rep = 2;
    record.seed = 18446744073709551615ULL;
    record.refs_issued = 120000;
    record.page_ins = 7;
    record.page_outs = 0;
    record.elapsed_seconds = 1.5;
    record.AddMetric("n_ds", 3.0);
    record.AddMetric("frac", 0.333333333333333315);
    stats::RunRecord second = record;
    second.rep = 3;
    second.elapsed_seconds = 0.0;
    stats::DocumentMeta meta;
    meta.bench = "fuzz \"bench\"\n";
    meta.total_cells = 12;
    return stats::JsonWriter::ToJson(meta, {record, second});
}

/**
 * Compact re-serialization of a parsed value: member order, raw number
 * tokens and decoded strings exactly as the parser kept them.
 */
std::string
Serialize(const JsonValue& value)
{
    switch (value.kind()) {
      case JsonValue::Kind::kNull:
        return "null";
      case JsonValue::Kind::kBool:
        return value.AsBool() ? "true" : "false";
      case JsonValue::Kind::kNumber:
        return value.raw_number();
      case JsonValue::Kind::kString:
        return "\"" + stats::JsonWriter::Escape(value.AsString()) + "\"";
      case JsonValue::Kind::kArray: {
        std::string out = "[";
        for (const JsonValue& item : value.items()) {
            out += (out.size() == 1 ? "" : ",") + Serialize(item);
        }
        return out + "]";
      }
      case JsonValue::Kind::kObject: {
        std::string out = "{";
        for (const auto& [key, member] : value.members()) {
            out += (out.size() == 1 ? "\"" : ",\"") +
                   stats::JsonWriter::Escape(key) + "\":" + Serialize(member);
        }
        return out + "}";
      }
    }
    return "";
}

/** Applies one random byte-level or structural mutation. */
std::string
Mutate(std::string input, Rng& rng)
{
    if (input.empty()) {
        return input;
    }
    switch (rng.NextBelow(11)) {
      case 0: {  // Flip one byte to an arbitrary value.
        input[rng.NextBelow(input.size())] =
            static_cast<char>(rng.NextBelow(256));
        return input;
      }
      case 1:  // Truncate.
        return input.substr(0, rng.NextBelow(input.size()));
      case 2: {  // Insert a random byte.
        input.insert(input.begin() + static_cast<long>(
                                         rng.NextBelow(input.size() + 1)),
                     static_cast<char>(rng.NextBelow(256)));
        return input;
      }
      case 3: {  // Delete a short range.
        const size_t at = rng.NextBelow(input.size());
        input.erase(at, rng.NextBelow(8) + 1);
        return input;
      }
      case 4: {  // Duplicate a short range (repeats frames/members).
        const size_t at = rng.NextBelow(input.size());
        const size_t len =
            std::min<size_t>(rng.NextBelow(32) + 1, input.size() - at);
        input.insert(at, input.substr(at, len));
        return input;
      }
      case 5: {  // Tweak a digit: numbers/lengths drift by one.
        for (size_t probe = 0; probe < 32; ++probe) {
            const size_t at = rng.NextBelow(input.size());
            if (input[at] >= '0' && input[at] <= '9') {
                input[at] = static_cast<char>('0' + rng.NextBelow(10));
                return input;
            }
        }
        return input;
      }
      case 6: {  // Swap two structural characters.
        const size_t a = rng.NextBelow(input.size());
        const size_t b = rng.NextBelow(input.size());
        std::swap(input[a], input[b]);
        return input;
      }
      case 7: {  // Zero-pad a frame length: "R 12\n" -> "R 012\n".
        std::vector<size_t> lengths;
        for (size_t at = 2; at < input.size(); ++at) {
            if (input[at - 1] == ' ' && input[at - 2] >= 'A' &&
                input[at - 2] <= 'Z' && input[at] >= '0' &&
                input[at] <= '9' && (at == 2 || input[at - 3] == '\n')) {
                lengths.push_back(at);
            }
        }
        if (!lengths.empty()) {
            input.insert(lengths[rng.NextBelow(lengths.size())], 1, '0');
        }
        return input;
      }
      // The next two rewrite bytes in place, so frame lengths still
      // hold and a mutated trace op payload reaches the op decoder.
      case 8: {  // Trailing-0x00 varint: "05 07" -> "85 00".
        const size_t at = rng.NextBelow(input.size());
        input[at] = static_cast<char>(input[at] | 0x80);
        if (at + 1 < input.size()) {
            input[at + 1] = '\0';
        }
        return input;
      }
      case 9: {  // Long varint: set the continuation bit of 1-8 bytes.
        const size_t at = rng.NextBelow(input.size());
        const size_t end = std::min<size_t>(at + 1 + rng.NextBelow(8),
                                            input.size());
        for (size_t i = at; i < end; ++i) {
            input[i] = static_cast<char>(input[i] | 0x80);
        }
        return input;
      }
      default: {  // Splice: overwrite a range with bytes from elsewhere.
        const size_t from = rng.NextBelow(input.size());
        const size_t to = rng.NextBelow(input.size());
        const size_t len = std::min<size_t>(rng.NextBelow(16) + 1,
                                            input.size() -
                                                std::max(from, to));
        const std::string chunk = input.substr(from, len);
        input.replace(to, len, chunk);
        return input;
      }
    }
}

TEST(JsonFuzzTest, ParserNeverCrashesAndAcceptedInputsAreFixpoints)
{
    const std::string corpus = CorpusDocument();
    Rng rng(0x5eed0001);
    const uint64_t iterations = kIterations;
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
        std::string input = corpus;
        const uint64_t rounds = 1 + rng.NextBelow(4);
        for (uint64_t round = 0; round < rounds; ++round) {
            input = Mutate(std::move(input), rng);
        }
        std::string error;
        const std::optional<JsonValue> value = ParseJson(input, &error);
        if (!value) {
            EXPECT_FALSE(error.empty()) << "iteration " << i;
            continue;
        }
        ++accepted;
        // Accepted inputs re-serialize to a parse fixpoint: raw number
        // tokens and member order survive the round trip.
        const std::string serialized = Serialize(*value);
        const std::optional<JsonValue> again = ParseJson(serialized, &error);
        ASSERT_TRUE(again.has_value()) << "iteration " << i << ": " << error;
        EXPECT_EQ(Serialize(*again), serialized) << "iteration " << i;
    }
    // The mutator must not be so destructive that nothing parses.
    EXPECT_GT(accepted, 0u);
}

// ---- The framed-log codec (src/common/framed_log.h) -------------------

constexpr char kFuzzTags[] = "HRT";
constexpr uint64_t kFuzzMaxPayload = 4096;

/**
 * A tag-and-length log with payloads of every awkward shape: empty,
 * one-digit and multi-digit lengths, embedded newlines and frame-like
 * text, and raw bytes.
 */
std::string
CorpusLog()
{
    std::string binary;
    for (int byte = 0; byte < 256; byte += 7) {
        binary.push_back(static_cast<char>(byte));
    }
    std::string log = framed_log::EncodeFrame('H', "{\"v\": 1}");
    log += framed_log::EncodeFrame('R', "");
    log += framed_log::EncodeFrame('R', "x");
    log += framed_log::EncodeFrame('R', "R 3\nabc\n\n0\n");
    log += framed_log::EncodeFrame('R', binary);
    log += framed_log::EncodeFrame('T', "{\"records\": 4}");
    return log;
}

/**
 * Parses @p bytes frame by frame until it stops; returns the status
 * that stopped it (kTruncated at a clean end) and checks that every
 * accepted frame re-encodes to exactly the bytes it came from.
 */
framed_log::ParseStatus
WalkLog(const std::string& bytes, uint64_t* frames, uint64_t iteration)
{
    size_t pos = 0;
    for (;;) {
        framed_log::Frame frame;
        std::string why;
        const framed_log::ParseStatus status = framed_log::ParseFrame(
            bytes, pos, kFuzzTags, kFuzzMaxPayload, &frame, &why);
        if (status != framed_log::ParseStatus::kOk) {
            if (status == framed_log::ParseStatus::kCorrupt) {
                EXPECT_FALSE(why.empty()) << "iteration " << iteration;
            }
            return status;
        }
        EXPECT_EQ(framed_log::EncodeFrame(frame.tag, frame.payload),
                  bytes.substr(pos, frame.end - pos))
            << "iteration " << iteration << ", frame at byte " << pos;
        ++*frames;
        pos = frame.end;
    }
}

TEST(FramedLogFuzzTest, ParserNeverCrashesAndAcceptedFramesReencode)
{
    const std::string corpus = CorpusLog();
    uint64_t frames = 0;
    ASSERT_EQ(WalkLog(corpus, &frames, 0),
              framed_log::ParseStatus::kTruncated);
    ASSERT_EQ(frames, 6u);
    Rng rng(0x5eed0004);
    const uint64_t iterations = kIterations;
    uint64_t corrupt = 0;
    frames = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
        std::string input = corpus;
        const uint64_t rounds = 1 + rng.NextBelow(4);
        for (uint64_t round = 0; round < rounds; ++round) {
            input = Mutate(std::move(input), rng);
        }
        if (WalkLog(input, &frames, i) ==
            framed_log::ParseStatus::kCorrupt) {
            ++corrupt;
        }
    }
    // The mutator must reach both sides of the parser.
    EXPECT_GT(frames, 0u);
    EXPECT_GT(corrupt, 0u);
}

TEST(FramedLogFuzzTest, EveryPrefixOfCorpusLogIsTruncation)
{
    const std::string corpus = CorpusLog();
    for (size_t cut = 0; cut < corpus.size(); ++cut) {
        uint64_t frames = 0;
        EXPECT_EQ(WalkLog(corpus.substr(0, cut), &frames, cut),
                  framed_log::ParseStatus::kTruncated)
            << "cut at byte " << cut;
    }
}

// ---- SPUR-TRACE/1 (src/workload/trace.h) ------------------------------

/**
 * A two-stream trace library, hand-scripted through the encoder (no
 * driver in the hot fuzz path): shares, destroys, pid renames, and
 * address deltas in both directions, so the mutator has every frame
 * kind and opcode to chew on.
 */
std::string
CorpusTrace()
{
    workload::TraceStreamMeta meta;
    meta.workload = "fuzz-a";
    meta.seed = 7;
    meta.refs = 5;
    meta.page_bytes = 4096;
    meta.block_bytes = 32;
    workload::TraceEncoder first(meta);
    first.OnCreateProcess(12);
    first.OnMapRegion(12, 0x80000000, 0x4000, vm::PageKind::kHeap);
    first.OnAccess(MemRef{12, 0x80000100, AccessType::kWrite});
    first.OnAccess(MemRef{12, 0x80000080, AccessType::kRead});
    first.OnContextSwitch();
    first.OnCreateProcess(3);
    first.OnShareSegment(3, 0, 12, 0);
    first.OnAccess(MemRef{3, 0x00000040, AccessType::kIFetch});
    first.OnDestroyProcess(3);
    first.OnAccess(MemRef{12, 0x80000084, AccessType::kRead});
    // A run of accesses past 72 bytes, jumping between the code and heap
    // segments (1- and 5-byte deltas), feeds DecodeOps' access-run path.
    for (ProcessAddr i = 0; i < 24; ++i) {
        first.OnAccess(MemRef{12, 0x00000100 + 4 * i, AccessType::kIFetch});
        first.OnAccess(MemRef{12, 0x80000100 + 8 * i, AccessType::kWrite});
    }

    workload::TraceStreamMeta second_meta = meta;
    second_meta.workload = "fuzz-b";
    second_meta.seed = 18446744073709551615ULL;
    second_meta.intensity = 1.85;
    workload::TraceEncoder second(second_meta);
    second.OnCreateProcess(1);
    second.OnMapRegion(1, 0xC0000000, 0x1000, vm::PageKind::kStack);
    second.OnAccess(MemRef{1, 0xC0000FF8, AccessType::kWrite});
    second.OnContextSwitch();
    second.OnAccess(MemRef{1, 0xC0000FF0, AccessType::kWrite});

    return workload::EncodeTraceFile(
        {first.Finish(5), second.Finish(3)});
}

TEST(TraceFuzzTest, RecoverNeverCrashesAndAcceptedInputsAreFixpoints)
{
    const std::string corpus = CorpusTrace();
    {
        // The unmutated corpus is complete and re-encodes to itself.
        std::string error;
        const auto recovered =
            workload::RecoverTraceBytes(corpus, &error);
        ASSERT_TRUE(recovered.has_value()) << error;
        EXPECT_TRUE(recovered->complete);
        ASSERT_EQ(recovered->streams.size(), 2u);
        EXPECT_EQ(workload::EncodeTraceFile(
                      {recovered->streams[0].framed,
                       recovered->streams[1].framed}),
                  corpus);
    }
    Rng rng(0x5eed0003);
    const uint64_t iterations = kIterations;
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
        std::string input = corpus;
        const uint64_t rounds = 1 + rng.NextBelow(4);
        for (uint64_t round = 0; round < rounds; ++round) {
            input = Mutate(std::move(input), rng);
        }
        std::string error;
        const auto recovered =
            workload::RecoverTraceBytes(input, &error);
        if (!recovered) {
            EXPECT_FALSE(error.empty()) << "iteration " << i;
            continue;
        }
        ++accepted;
        // Whatever recovers must re-encode into a complete file that
        // recovers again with the same streams — and a mutant accepted
        // as *complete* must be byte-identical under re-encoding (the
        // strict-parse fixpoint).
        std::vector<std::string_view> frames;
        for (const workload::TraceStream& stream : recovered->streams) {
            frames.push_back(stream.framed);
        }
        const std::string reencoded = workload::EncodeTraceFile(frames);
        if (recovered->complete) {
            EXPECT_EQ(reencoded, input) << "iteration " << i;
        }
        std::string again_error;
        const auto again =
            workload::RecoverTraceBytes(reencoded, &again_error);
        ASSERT_TRUE(again.has_value())
            << "iteration " << i << ": " << again_error;
        EXPECT_TRUE(again->complete) << "iteration " << i;
        EXPECT_EQ(again->streams.size(), recovered->streams.size())
            << "iteration " << i;
    }
    // The mutator must not be so destructive that nothing parses.
    EXPECT_GT(accepted, 0u);
}

TEST(TraceFuzzTest, EveryPrefixOfCorpusTraceRecovers)
{
    // Truncation at any byte offset — a killed recorder — must recover
    // the complete-stream prefix, never hard-error.
    const std::string corpus = CorpusTrace();
    for (size_t cut = 0; cut < corpus.size(); ++cut) {
        std::string error;
        const auto recovered = workload::RecoverTraceBytes(
            corpus.substr(0, cut), &error);
        ASSERT_TRUE(recovered.has_value())
            << "cut at byte " << cut << ": " << error;
        EXPECT_FALSE(recovered->complete) << "cut at byte " << cut;
        EXPECT_LE(recovered->streams.size(), 2u) << "cut at byte " << cut;
    }
}

}  // namespace
}  // namespace spur::sweep
