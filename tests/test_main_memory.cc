/** @file Unit tests for the functional backing store. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

namespace {

using ztx::Addr;
using ztx::mem::MainMemory;

TEST(MainMemory, ReadsZeroWhenUntouched)
{
    MainMemory m;
    EXPECT_EQ(m.read(0x1000, 8), 0u);
    EXPECT_EQ(m.readByte(0xdeadbeef), 0u);
}

TEST(MainMemory, ByteRoundTrip)
{
    MainMemory m;
    m.writeByte(0x42, 0xab);
    EXPECT_EQ(m.readByte(0x42), 0xab);
    EXPECT_EQ(m.readByte(0x41), 0u);
    EXPECT_EQ(m.readByte(0x43), 0u);
}

TEST(MainMemory, BigEndianWordLayout)
{
    MainMemory m;
    m.write(0x100, 0x0102030405060708ULL, 8);
    EXPECT_EQ(m.readByte(0x100), 0x01);
    EXPECT_EQ(m.readByte(0x107), 0x08);
    EXPECT_EQ(m.read(0x100, 8), 0x0102030405060708ULL);
    EXPECT_EQ(m.read(0x100, 4), 0x01020304ULL);
    EXPECT_EQ(m.read(0x104, 4), 0x05060708ULL);
}

TEST(MainMemory, CrossLineAccess)
{
    MainMemory m;
    // 8-byte write straddling a 256-byte line boundary.
    m.write(0xFC, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read(0xFC, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.readByte(0xFF), 0x44);
    EXPECT_EQ(m.readByte(0x100), 0x55);
}

TEST(MainMemory, BlockRoundTrip)
{
    MainMemory m;
    std::uint8_t in[300];
    for (int i = 0; i < 300; ++i)
        in[i] = std::uint8_t(i * 7);
    m.writeBlock(0x1F0, in, sizeof(in));
    std::uint8_t out[300] = {};
    m.readBlock(0x1F0, out, sizeof(out));
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(out[i], in[i]) << "offset " << i;
}

TEST(MainMemory, SmallSizes)
{
    MainMemory m;
    m.write(0x10, 0xbeef, 2);
    EXPECT_EQ(m.read(0x10, 2), 0xbeefu);
    m.write(0x20, 0x7f, 1);
    EXPECT_EQ(m.read(0x20, 1), 0x7fu);
}

TEST(MainMemory, LinesAllocatedCountsDistinctLines)
{
    MainMemory m;
    m.writeByte(0, 1);
    m.writeByte(255, 1);   // same line
    m.writeByte(256, 1);   // next line
    EXPECT_EQ(m.linesAllocated(), 2u);
}

TEST(MainMemory, LineStorageStaysPutWhenTheTableGrows)
{
    MainMemory m;
    EXPECT_EQ(m.lineData(0x4000), nullptr); // never written
    m.write(0x4008, 0x1122334455667788ULL, 8);
    const std::uint8_t *data = m.lineData(0x4000);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data[8], 0x11);
    // Thousands of lines: the table grows several times over.
    for (Addr line = 0x10'0000; line < 0x10'0000 + 4096 * 256;
         line += 256)
        m.writeByte(line, 1);
    ASSERT_GE(m.linesAllocated(), 4097u);
    EXPECT_EQ(m.lineData(0x4000), data);
    m.writeByte(0x4010, 0x99);
    EXPECT_EQ(data[0x10], 0x99); // the pointer sees later writes
    EXPECT_EQ(data[8], 0x11);
}

} // namespace
