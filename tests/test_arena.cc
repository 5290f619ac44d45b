#include "mp/arena.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dsmem::mp {
namespace {

TEST(ArenaTest, RejectsZeroSize)
{
    EXPECT_THROW(Arena(0), std::invalid_argument);
}

TEST(ArenaTest, BumpAllocationIsDeterministic)
{
    Arena a(1024);
    Arena b(1024);
    EXPECT_EQ(a.alloc(10), b.alloc(10));
    EXPECT_EQ(a.alloc(3), b.alloc(3));
    EXPECT_EQ(a.usedSlots(), 13u);
}

TEST(ArenaTest, AddressesAreSlotSpaced)
{
    Arena a(1024);
    Addr first = a.alloc(4);
    Addr second = a.alloc(4);
    EXPECT_EQ(first, Arena::kBaseAddr);
    EXPECT_EQ(second, first + 4 * Arena::kSlotBytes);
}

TEST(ArenaTest, AlignmentRespected)
{
    Arena a(1024);
    a.alloc(1);
    Addr aligned = a.alloc(2, 64);
    EXPECT_EQ(aligned % 64, 0u);
}

TEST(ArenaTest, RejectsBadAlignment)
{
    Arena a(64);
    EXPECT_THROW(a.alloc(1, 4), std::invalid_argument);
    EXPECT_THROW(a.alloc(1, 24), std::invalid_argument);
}

TEST(ArenaTest, ExhaustionThrows)
{
    Arena a(8);
    a.alloc(8);
    EXPECT_THROW(a.alloc(1), std::length_error);
}

TEST(ArenaTest, PaddedAllocationSeparatesLines)
{
    Arena a(1024);
    Addr first = a.allocPadded(1, 16); // 1 slot, 16 B line.
    Addr second = a.alloc(1);
    // The next allocation starts on a fresh line.
    EXPECT_GE(second - first, 16u);
}

TEST(ArenaTest, TypedLoadStoreRoundTrip)
{
    Arena a(16);
    Addr addr = a.alloc(2);
    a.storeInt(addr, -123456789);
    EXPECT_EQ(a.loadInt(addr), -123456789);
    a.storeFloat(addr + 8, 2.718281828);
    EXPECT_DOUBLE_EQ(a.loadFloat(addr + 8), 2.718281828);
    // Int and float views of the same slot share the raw bits.
    a.storeFloat(addr, 1.0);
    EXPECT_EQ(static_cast<uint64_t>(a.loadInt(addr)),
              0x3ff0000000000000ull);
}

TEST(ArenaTest, OutOfRangeAccessThrows)
{
    Arena a(16);
    Addr addr = a.alloc(2);
    EXPECT_THROW(a.loadInt(addr - 8), std::out_of_range);
    EXPECT_THROW(a.loadInt(addr + 2 * 8), std::out_of_range);
    EXPECT_THROW(a.loadInt(0), std::out_of_range);
}

TEST(ArenaTest, BacksOnlyTheAllocatedSlots)
{
    // The engine's default cap: 8 Mi slots (64 MB) of simulated memory.
    Arena a(8u << 20);
    EXPECT_EQ(a.maxSlots(), size_t{8} << 20);
    EXPECT_EQ(a.reservedSlots(), 0u);
    a.alloc(10);
    a.allocPadded(3);
    a.alloc(100, 64);
    EXPECT_GE(a.reservedSlots(), a.usedSlots());
    EXPECT_LE(a.reservedSlots(), 2 * a.usedSlots());
    // Fresh slots read as zero, as they did when the cap was zero-filled.
    EXPECT_EQ(a.loadInt(Arena::kBaseAddr + 8 * (a.usedSlots() - 1)), 0);
}

TEST(ArenaTest, ReservationNeverExceedsTheCap)
{
    Arena a(1000);
    for (int i = 0; i < 9; ++i)
        a.alloc(100);
    EXPECT_LE(a.reservedSlots(), 1000u);
    a.alloc(100);
    EXPECT_EQ(a.usedSlots(), 1000u);
    EXPECT_LE(a.reservedSlots(), 1000u);
}

TEST(ArenaTest, ExhaustionThrowsExactlyAtTheCap)
{
    Arena a(100);
    a.alloc(60);
    EXPECT_THROW(a.alloc(41), std::length_error);
    EXPECT_EQ(a.usedSlots(), 60u); // A failed alloc changes nothing.
    a.alloc(40);
    EXPECT_EQ(a.usedSlots(), 100u);
    EXPECT_THROW(a.alloc(1), std::length_error);
    // Alignment padding counts against the cap too.
    Arena b(100);
    b.alloc(97);
    EXPECT_THROW(b.alloc(1, 64), std::length_error);
}

TEST(ArenaTest, PaddedAllocationNearTheCapClamps)
{
    Arena a(10);
    a.alloc(8);
    Addr last = a.allocPadded(1, 32); // Would round the bump past 10.
    EXPECT_EQ(last, Arena::kBaseAddr + 8 * 8);
    EXPECT_EQ(a.usedSlots(), 10u);
    EXPECT_LE(a.reservedSlots(), 10u);
    EXPECT_THROW(a.alloc(1), std::length_error);
    // The clamped padding slot is allocated, hence addressable.
    a.storeInt(Arena::kBaseAddr + 9 * 8, 5);
    EXPECT_EQ(a.loadInt(Arena::kBaseAddr + 9 * 8), 5);
}

TEST(ArenaTest, AccessPastTheAllocationThrows)
{
    Arena a(8u << 20);
    a.alloc(3);
    const Addr past = Arena::kBaseAddr + 3 * Arena::kSlotBytes;
    EXPECT_THROW(a.loadInt(past), std::out_of_range);
    EXPECT_THROW(a.raw(past), std::out_of_range);
    EXPECT_THROW(a.storeFloat(past + 4096, 1.0), std::out_of_range);
    const Arena &ca = a;
    EXPECT_THROW(ca.raw(past), std::out_of_range);
}

TEST(ArenaTest, AllocationSequenceAddressesArePinned)
{
    // Simulated addresses feed cache indexing, so they must never move:
    // these are the addresses the bump allocator has always produced.
    Arena a(8u << 20);
    EXPECT_EQ(a.alloc(5), 0x1000u);
    EXPECT_EQ(a.allocPadded(3), 0x1030u);
    EXPECT_EQ(a.alloc(1, 64), 0x1080u);
    EXPECT_EQ(a.allocPadded(7, 64), 0x10c0u);
    EXPECT_EQ(a.alloc(1000), 0x1100u);
    EXPECT_EQ(a.alloc(2, 4096), 0x4000u);
    EXPECT_EQ(a.usedSlots(), (0x4010u - 0x1000u) / 8);
    // Data written before a storage regrowth survives it.
    a.storeInt(0x1000, 42);
    a.storeFloat(0x4008, -0.5);
    a.alloc(100000);
    EXPECT_EQ(a.loadInt(0x1000), 42);
    EXPECT_DOUBLE_EQ(a.loadFloat(0x4008), -0.5);
}

TEST(ArenaArrayTest, AddressAndData)
{
    Arena a(64);
    ArenaArray<double> arr(&a, 8);
    ASSERT_TRUE(arr.valid());
    EXPECT_EQ(arr.size(), 8u);
    arr.set(3, 42.5);
    EXPECT_DOUBLE_EQ(arr.get(3), 42.5);
    EXPECT_EQ(arr.addr(1), arr.baseAddr() + 8);
}

TEST(ArenaArrayTest, IntArray)
{
    Arena a(64);
    ArenaArray<int64_t> arr(&a, 4);
    arr.set(0, -7);
    EXPECT_EQ(arr.get(0), -7);
}

TEST(ArenaArrayTest, BoundsChecked)
{
    Arena a(64);
    ArenaArray<double> arr(&a, 4);
    EXPECT_THROW(arr.addr(4), std::out_of_range);
    EXPECT_THROW(arr.get(100), std::out_of_range);
    ArenaArray<double> invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(invalid.addr(0), std::out_of_range);
}

} // namespace
} // namespace dsmem::mp
