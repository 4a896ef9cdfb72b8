/**
 * @file
 * Unit tests for memory-reference types, line geometry and sinks.
 */

#include <gtest/gtest.h>

#include "mem/line.hpp"
#include "mem/ref.hpp"
#include "mem/trace.hpp"

namespace xmig {
namespace {

TEST(MemRef, FactoriesSetType)
{
    EXPECT_TRUE(MemRef::ifetch(0x100).isIfetch());
    EXPECT_TRUE(MemRef::load(0x100).isData());
    EXPECT_FALSE(MemRef::load(0x100).isStore());
    EXPECT_TRUE(MemRef::store(0x100).isStore());
    EXPECT_TRUE(MemRef::store(0x100).isData());
    EXPECT_FALSE(MemRef::ifetch(0x100).isData());
}

TEST(MemRef, Equality)
{
    EXPECT_EQ(MemRef::load(0x40), MemRef::load(0x40));
    EXPECT_FALSE(MemRef::load(0x40) == MemRef::store(0x40));
    EXPECT_FALSE(MemRef::load(0x40) == MemRef::load(0x80));
}

TEST(LineGeometry, SixtyFourByteLines)
{
    LineGeometry g(64);
    EXPECT_EQ(g.lineBytes(), 64u);
    EXPECT_EQ(g.lineShift(), 6u);
    EXPECT_EQ(g.lineOf(0), 0u);
    EXPECT_EQ(g.lineOf(63), 0u);
    EXPECT_EQ(g.lineOf(64), 1u);
    EXPECT_EQ(g.lineOf(0x1000), 0x40u);
    EXPECT_EQ(g.byteOf(g.lineOf(0x12345)), 0x12340u);
    EXPECT_EQ(g.linesIn(16 * 1024), 256u);
}

TEST(LineGeometry, OtherLineSizes)
{
    for (uint64_t bytes : {32u, 128u, 256u}) {
        LineGeometry g(bytes);
        EXPECT_EQ(g.lineOf(bytes), 1u);
        EXPECT_EQ(g.lineOf(bytes - 1), 0u);
        EXPECT_EQ(g.byteOf(5), 5 * bytes);
    }
}

TEST(RefRecorder, RecordsAndReplays)
{
    RefRecorder rec;
    rec.access(MemRef::load(0x40));
    rec.access(MemRef::store(0x80));
    ASSERT_EQ(rec.refs().size(), 2u);
    EXPECT_EQ(rec.refs()[0], MemRef::load(0x40));

    RefRecorder replayed;
    rec.replay(replayed);
    EXPECT_EQ(replayed.refs(), rec.refs());

    rec.clear();
    EXPECT_TRUE(rec.refs().empty());
}

TEST(NullSink, AcceptsEverything)
{
    NullSink sink;
    sink.access(MemRef::load(0x40)); // must not crash
}

} // namespace
} // namespace xmig
