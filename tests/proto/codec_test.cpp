#include "proto/codec.hpp"

#include <gtest/gtest.h>

namespace ph::proto {
namespace {

TEST(CodecTest, U8RoundTrip) {
  Writer w;
  w.u8(0xab);
  Reader r(w.data());
  auto v = r.u8();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xab);
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, U16RoundTrip) {
  Writer w;
  w.u16(0xbeef);
  Reader r(w.data());
  EXPECT_EQ(r.u16().value(), 0xbeef);
}

TEST(CodecTest, U32RoundTrip) {
  Writer w;
  w.u32(0xdeadbeef);
  Reader r(w.data());
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
}

TEST(CodecTest, U64RoundTrip) {
  Writer w;
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
}

TEST(CodecTest, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.data().size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(CodecTest, StringRoundTrip) {
  Writer w;
  w.str("PeerHood");
  Reader r(w.data());
  EXPECT_EQ(r.str().value(), "PeerHood");
}

TEST(CodecTest, EmptyStringRoundTrip) {
  Writer w;
  w.str("");
  Reader r(w.data());
  EXPECT_EQ(r.str().value(), "");
}

TEST(CodecTest, StringWithEmbeddedNull) {
  Writer w;
  w.str(std::string("a\0b", 3));
  Reader r(w.data());
  EXPECT_EQ(r.str().value(), std::string("a\0b", 3));
}

TEST(CodecTest, BytesRoundTrip) {
  Writer w;
  w.bytes(Bytes{1, 2, 3, 255});
  Reader r(w.data());
  EXPECT_EQ(r.bytes().value(), (Bytes{1, 2, 3, 255}));
}

TEST(CodecTest, StrListRoundTrip) {
  Writer w;
  w.str_list({"a", "bb", "", "dddd"});
  Reader r(w.data());
  EXPECT_EQ(r.str_list().value(),
            (std::vector<std::string>{"a", "bb", "", "dddd"}));
}

TEST(CodecTest, EmptyStrList) {
  Writer w;
  w.str_list({});
  Reader r(w.data());
  EXPECT_TRUE(r.str_list().value().empty());
}

TEST(CodecTest, MixedSequenceRoundTrip) {
  Writer w;
  w.u8(7);
  w.str("x");
  w.u64(99);
  w.str_list({"p", "q"});
  Reader r(w.data());
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.str().value(), "x");
  EXPECT_EQ(r.u64().value(), 99u);
  EXPECT_EQ(r.str_list().value(), (std::vector<std::string>{"p", "q"}));
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, TruncatedIntFails) {
  Bytes data{0x01, 0x02};
  Reader r(data);
  auto v = r.u32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, Errc::protocol_error);
}

TEST(CodecTest, TruncatedStringFails) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow, none do
  Reader r(w.data());
  EXPECT_FALSE(r.str().ok());
}

TEST(CodecTest, EmptyInputFailsAllReads) {
  Reader r(BytesView{});
  EXPECT_FALSE(r.u8().ok());
  Reader r2(BytesView{});
  EXPECT_FALSE(r2.str().ok());
}

TEST(CodecTest, HostileListCountRejected) {
  Writer w;
  w.u32(0xffffffff);  // list claims 4 billion entries
  Reader r(w.data());
  auto v = r.str_list();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, Errc::protocol_error);
}

TEST(CodecTest, RemainingCountsDown) {
  Writer w;
  w.u32(5);
  w.u8(1);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 5u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 1u);
  (void)r.u8();
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, TakeMovesBuffer) {
  Writer w;
  w.str("data");
  Bytes taken = std::move(w).take();
  EXPECT_EQ(taken.size(), 8u);  // 4-byte length + 4 chars
}

TEST(CodecTest, FixedWidthIntegersGoldenBytes) {
  // Pins the exact little-endian wire image of every fixed-width writer.
  Writer w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504);
  w.u64(0x0f0e0d0c0b0a0908ULL);
  w.u64(0xffffffffffffffffULL);
  const Bytes expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                          0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0xff,
                          0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(w.data(), expected);
}

TEST(CodecTest, FillerMatchesBytesOfTheSameRun) {
  Writer filled;
  filled.filler(5, 'x');
  Writer copied;
  copied.bytes(Bytes(5, 'x'));
  EXPECT_EQ(filled.data(), copied.data());
  Writer empty;
  empty.filler(0, 'x');
  EXPECT_EQ(empty.data(), (Bytes{0, 0, 0, 0}));
}

TEST(CodecTest, SkipBytesStepsOverWithoutCopying) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.u8(0x42);
  Reader r(w.data());
  EXPECT_EQ(r.skip_bytes().value(), 3u);
  EXPECT_EQ(r.u8().value(), 0x42);
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecTest, SkipBytesRejectsLengthPastTheEnd) {
  Writer w;
  w.u32(4);  // claims four bytes, carries three
  w.u8(1);
  w.u8(2);
  w.u8(3);
  Reader r(w.data());
  auto skipped = r.skip_bytes();
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.error().code, Errc::protocol_error);
}

TEST(CodecTest, ClearKeepsCapacityForReuse) {
  Writer w;
  w.filler(100, 'x');
  const std::size_t capacity = w.data().capacity();
  w.clear();
  EXPECT_TRUE(w.data().empty());
  EXPECT_EQ(w.data().capacity(), capacity);
  w.u8(7);
  EXPECT_EQ(w.data(), (Bytes{7}));
}

}  // namespace
}  // namespace ph::proto
