/**
 * @file
 * Tests for the framed-log codec (src/common/framed_log.h, DESIGN.md
 * §20) and for the properties SPUR-TRACE/1 inherits from it: the
 * canonical-length rule and the durable appender behind its file
 * writer.  The seeded frame-level fuzzer lives with the other fuzzers
 * in tests/json_fuzz_test.cc.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "src/common/framed_log.h"
#include "src/workload/trace.h"

namespace spur {
namespace {

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

TEST(FramedLogTest, ZeroPaddedLengthIsCorruptInEveryConsumer)
{
    std::string trace = workload::EncodeTraceFile({});
    trace.replace(trace.find("H 20\n"), 4, "H 020");
    std::string error;
    EXPECT_FALSE(workload::RecoverTraceBytes(trace, &error).has_value());
    EXPECT_NE(error.find("leading zero"), std::string::npos) << error;
}

// ---- The codec --------------------------------------------------------

framed_log::ParseStatus
Parse(const std::string& bytes, framed_log::Frame* frame = nullptr)
{
    framed_log::Frame scratch;
    std::string why;
    return framed_log::ParseFrame(bytes, 0, "AB", 100,
                                  frame != nullptr ? frame : &scratch,
                                  &why);
}

TEST(FramedLogTest, ParsesWhatItEncodes)
{
    const std::string bytes = framed_log::EncodeFrame('A', "xyz") +
                              framed_log::EncodeFrame('B', "");
    EXPECT_EQ(bytes, "A 3\nxyz\nB 0\n\n");
    framed_log::Frame frame;
    ASSERT_EQ(Parse(bytes, &frame), framed_log::ParseStatus::kOk);
    EXPECT_EQ(frame.tag, 'A');
    EXPECT_EQ(frame.payload, "xyz");
    EXPECT_EQ(frame.end, 8u);
    std::string why;
    ASSERT_EQ(framed_log::ParseFrame(bytes, frame.end, "AB", 100, &frame,
                                     &why),
              framed_log::ParseStatus::kOk);
    EXPECT_EQ(frame.tag, 'B');
    EXPECT_TRUE(frame.payload.empty());
    EXPECT_EQ(frame.end, bytes.size());
}

TEST(FramedLogTest, ClassifiesTruncationAndCorruption)
{
    using framed_log::ParseStatus;
    const struct {
        const char* bytes;
        ParseStatus status;
    } cases[] = {
        {"", ParseStatus::kTruncated},
        {"A", ParseStatus::kTruncated},
        {"A 0", ParseStatus::kTruncated},  // A cut right after a lone 0.
        {"A 12", ParseStatus::kTruncated},
        {"A 3\nxy", ParseStatus::kTruncated},
        {"A 3\nxyz", ParseStatus::kTruncated},
        {"A 0\n\n", ParseStatus::kOk},
        {"C 0\n\n", ParseStatus::kCorrupt},    // Tag outside the alphabet.
        {"A0\n\n", ParseStatus::kCorrupt},     // No space after the tag.
        {"A \n\n", ParseStatus::kCorrupt},     // No digits.
        {"A 00\n\n", ParseStatus::kCorrupt},   // Leading zero.
        {"A 03\nxyz\n", ParseStatus::kCorrupt},
        {"A 101\n", ParseStatus::kCorrupt},    // Over the payload bound.
        {"A 3x\nxyz\n", ParseStatus::kCorrupt},
        {"A 3\nxyzw", ParseStatus::kCorrupt},  // Payload not terminated.
    };
    for (const auto& c : cases) {
        EXPECT_EQ(Parse(c.bytes), c.status) << '"' << c.bytes << '"';
    }
}

TEST(FramedLogTest, ShortMagicPrefixIsTruncation)
{
    using framed_log::ParseStatus;
    EXPECT_EQ(framed_log::CheckMagic("", "MAGIC\n"), ParseStatus::kTruncated);
    EXPECT_EQ(framed_log::CheckMagic("MAG", "MAGIC\n"),
              ParseStatus::kTruncated);
    EXPECT_EQ(framed_log::CheckMagic("MAX", "MAGIC\n"),
              ParseStatus::kCorrupt);
    EXPECT_EQ(framed_log::CheckMagic("MAGIC\nA 0", "MAGIC\n"),
              ParseStatus::kOk);
    EXPECT_EQ(framed_log::CheckMagic("MAGIK\nA 0", "MAGIC\n"),
              ParseStatus::kCorrupt);
}

TEST(FramedLogTest, DigestSeparatesPayloadBoundaries)
{
    // An empty payload still mixes its separator: FNV-1a 64 of "\n".
    EXPECT_EQ(framed_log::DigestHex(
                  framed_log::DigestMix(framed_log::kDigestInit, "")),
              "af63c74c8601c8dd");
    const uint64_t ab = framed_log::DigestMix(framed_log::kDigestInit, "ab");
    const uint64_t a_b = framed_log::DigestMix(
        framed_log::DigestMix(framed_log::kDigestInit, "a"), "b");
    EXPECT_NE(ab, a_b);
}

TEST(FramedLogTest, RawDigestUpdatesComposeToDigestMix)
{
    const std::string buffer = "B 11\nhello world\n\x01\x80\xff";
    const uint64_t whole =
        framed_log::DigestMix(framed_log::kDigestInit, buffer);
    for (size_t i = 0; i <= buffer.size(); ++i) {
        for (size_t j = i; j <= buffer.size(); ++j) {
            const std::string_view view(buffer);
            uint64_t digest = framed_log::kDigestInit;
            digest = framed_log::DigestBytes(digest, view.substr(0, i));
            digest = framed_log::DigestBytes(digest, view.substr(i, j - i));
            digest = framed_log::DigestBytes(digest, view.substr(j));
            EXPECT_EQ(framed_log::DigestBytes(digest, "\n"), whole)
                << "split at " << i << "," << j;
        }
    }
}

TEST(FramedLogTest, PairedDigestEqualsTwoDigestMixes)
{
    const uint64_t other_init =
        framed_log::DigestMix(framed_log::kDigestInit, "prefix");
    for (const std::string& payload :
         {std::string(), std::string("a"), std::string("\n\n"),
          std::string(1000, '\x9c')}) {
        uint64_t first = framed_log::kDigestInit;
        uint64_t second = other_init;
        framed_log::DigestMixPair(&first, &second, payload);
        EXPECT_EQ(first,
                  framed_log::DigestMix(framed_log::kDigestInit, payload));
        EXPECT_EQ(second, framed_log::DigestMix(other_init, payload));
    }
}

TEST(FramedLogTest, ReadFileReportsMissingFiles)
{
    std::string bytes;
    std::string error;
    EXPECT_FALSE(framed_log::ReadFile("/nonexistent-dir/x", &bytes, &error));
    EXPECT_EQ(errno, ENOENT);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---- The durable appender, through the trace file writer ------------

TEST(DurableWriterTest, AppendAndFinishRequireOpen)
{
    workload::TraceFileWriter writer;
    std::string error;
    EXPECT_FALSE(writer.is_open());
    EXPECT_FALSE(writer.AppendStream("", &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(writer.Finish(&error));
    EXPECT_FALSE(error.empty());
}

TEST(DurableWriterTest, OpenFailsOnUnwritablePath)
{
    workload::TraceFileWriter writer;
    std::string error;
    EXPECT_FALSE(writer.Open("/nonexistent-dir/x.log", &error));
    EXPECT_FALSE(writer.is_open());
    // The reason travels with the path.
    EXPECT_NE(error.find("/nonexistent-dir/x.log"), std::string::npos)
        << error;
    EXPECT_NE(error.find(std::strerror(ENOENT)), std::string::npos)
        << error;
}

TEST(DurableWriterTest, FinishClosesAndLeavesACompleteLog)
{
    const std::string path = testing::TempDir() + "framed_log_writer";
    workload::TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    EXPECT_TRUE(writer.is_open());
    EXPECT_FALSE(writer.Open(path, &error));  // Already open.
    ASSERT_TRUE(writer.Finish(&error)) << error;
    EXPECT_FALSE(writer.is_open());
    const std::string bytes = ReadFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(bytes.back(), '\n');
}

}  // namespace
}  // namespace spur
