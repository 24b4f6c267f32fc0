/** @file Unit tests for the Chase-Lev work-stealing deque and for
 * the zero-page memory its ring lives on. */

#include <new>

#include <gtest/gtest.h>

#include "runtime/deque.hpp"

using hermes::runtime::Task;
using hermes::runtime::WsDeque;

namespace {

Task
tagged(int id, std::vector<int> &sink)
{
    return Task([id, &sink] { sink.push_back(id); }, nullptr);
}

int
runTag(Task &t, std::vector<int> &sink)
{
    sink.clear();
    t.body();
    return sink.back();
}

class WsDequeTest : public testing::Test
{
  protected:
    static WsDeque
    make(size_t capacity = 1 << 13)
    {
        return WsDeque(capacity);
    }
};

} // namespace

TEST_F(WsDequeTest, StartsEmpty)
{
    WsDeque d = make();
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0u);
    Task out;
    size_t sz = 0;
    EXPECT_FALSE(d.pop(out, sz));
    EXPECT_FALSE(d.steal(out, sz));
}

TEST_F(WsDequeTest, PopIsLifo)
{
    // The owner pops the most recently pushed (most immediate) task.
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));
    EXPECT_EQ(d.size(), 4u);

    Task out;
    for (int expect = 3; expect >= 0; --expect) {
        ASSERT_TRUE(d.pop(out, sz));
        EXPECT_EQ(runTag(out, sink), expect);
    }
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, StealIsFifo)
{
    // Thieves take the head: the earliest-pushed, least immediate
    // task (the work-first ordering HERMES relies on).
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));

    Task out;
    for (int expect = 0; expect < 4; ++expect) {
        ASSERT_TRUE(d.steal(out, sz));
        EXPECT_EQ(runTag(out, sink), expect);
    }
    EXPECT_FALSE(d.steal(out, sz));
}

TEST_F(WsDequeTest, MixedPopAndSteal)
{
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));

    Task out;
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 0);
    ASSERT_TRUE(d.pop(out, sz));
    EXPECT_EQ(runTag(out, sink), 4);
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 1);
    ASSERT_TRUE(d.pop(out, sz));
    EXPECT_EQ(runTag(out, sink), 3);
    ASSERT_TRUE(d.pop(out, sz));
    EXPECT_EQ(runTag(out, sink), 2);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, ReportsSizeAfterEachOperation)
{
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 99;
    d.push(tagged(0, sink), sz);
    EXPECT_EQ(sz, 1u);
    d.push(tagged(1, sink), sz);
    EXPECT_EQ(sz, 2u);
    Task out;
    d.pop(out, sz);
    EXPECT_EQ(sz, 1u);
    d.steal(out, sz);
    EXPECT_EQ(sz, 0u);
}

TEST_F(WsDequeTest, FullRingRejectsPush)
{
    WsDeque d = make(4); // ring of 4: usable capacity is 3 (push())
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));
    EXPECT_FALSE(d.push(tagged(99, sink), sz));
    // Draining one slot re-enables pushing.
    Task out;
    ASSERT_TRUE(d.pop(out, sz));
    EXPECT_TRUE(d.push(tagged(5, sink), sz));
}

TEST_F(WsDequeTest, WrapsAroundTheRing)
{
    WsDeque d = make(4);
    std::vector<int> sink;
    size_t sz = 0;
    Task out;
    // Cycle many times through a small ring.
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(d.push(tagged(round, sink), sz));
        ASSERT_TRUE(d.push(tagged(round + 1000, sink), sz));
        ASSERT_TRUE(d.steal(out, sz));
        EXPECT_EQ(runTag(out, sink), round);
        ASSERT_TRUE(d.pop(out, sz));
        EXPECT_EQ(runTag(out, sink), round + 1000);
    }
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, CapacityRoundsToPowerOfTwo)
{
    WsDeque d = make(5);
    EXPECT_EQ(d.capacity(), 8u);
    WsDeque d2 = make(1);
    EXPECT_EQ(d2.capacity(), 2u);
}

TEST_F(WsDequeTest, StealHalfTakesCeilHalfFromTheHead)
{
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));

    // ceil(5/2) = 3 tasks, head order (least immediate first).
    std::vector<Task> out;
    EXPECT_EQ(d.stealHalf(out, sz), 3u);
    EXPECT_EQ(sz, 2u);
    ASSERT_EQ(out.size(), 3u);
    for (int expect = 0; expect < 3; ++expect)
        EXPECT_EQ(runTag(out[static_cast<size_t>(expect)], sink),
                  expect);

    // The owner keeps the more immediate half.
    Task rest;
    ASSERT_TRUE(d.pop(rest, sz));
    EXPECT_EQ(runTag(rest, sink), 4);
    ASSERT_TRUE(d.pop(rest, sz));
    EXPECT_EQ(runTag(rest, sink), 3);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, StealHalfOnEmptyAndSingleton)
{
    WsDeque d = make();
    std::vector<int> sink;
    std::vector<Task> out;
    size_t sz = 99;
    EXPECT_EQ(d.stealHalf(out, sz), 0u);
    EXPECT_EQ(sz, 0u);
    EXPECT_TRUE(out.empty());

    // ceil(1/2) = 1: a singleton behaves exactly like steal() —
    // under Chase-Lev the grab degrades to the proven single-steal
    // CAS (the last-task race never takes the bulk path).
    ASSERT_TRUE(d.push(tagged(7, sink), sz));
    EXPECT_EQ(d.stealHalf(out, sz), 1u);
    EXPECT_EQ(sz, 0u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(runTag(out[0], sink), 7);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, StealHalfAppendsWithoutClearing)
{
    WsDeque d = make();
    std::vector<int> sink;
    std::vector<Task> out;
    size_t sz = 0;
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));
    EXPECT_EQ(d.stealHalf(out, sz), 1u); // ceil(2/2) = 1
    ASSERT_TRUE(d.push(tagged(2, sink), sz));
    EXPECT_EQ(d.stealHalf(out, sz), 1u); // ceil(2/2) = 1 again
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(runTag(out[0], sink), 0);
    EXPECT_EQ(runTag(out[1], sink), 1);
}

TEST_F(WsDequeTest, StealHalfInterleavesWithSingleSteal)
{
    // Both steal flavors drain the same head without gaps.
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));

    Task one;
    ASSERT_TRUE(d.steal(one, sz));
    EXPECT_EQ(runTag(one, sink), 0);

    std::vector<Task> bulk;
    EXPECT_EQ(d.stealHalf(bulk, sz), 4u); // ceil(7/2)
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(runTag(bulk[static_cast<size_t>(k)], sink), k + 1);

    ASSERT_TRUE(d.steal(one, sz));
    EXPECT_EQ(runTag(one, sink), 5);
    EXPECT_EQ(d.size(), 2u);
}

TEST_F(WsDequeTest, QuiescentOpsRecordNoCasRetries)
{
    // Without contention no claim is lost, so the retry counters —
    // the contention signal — stay at zero.
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    Task out;
    std::vector<Task> bulk;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink), sz));
    ASSERT_TRUE(d.steal(out, sz));
    ASSERT_TRUE(d.pop(out, sz));
    ASSERT_GT(d.stealHalf(bulk, sz), 0u);
    EXPECT_EQ(d.stealCasRetries(), 0u);
    EXPECT_EQ(d.popCasLosses(), 0u);
}

TEST_F(WsDequeTest, DestructorReleasesQueuedClosures)
{
    // Tasks still queued at destruction own their closures; an
    // oversized (boxed) capture must be freed by the deque teardown.
    auto heavy = std::make_shared<int>(7);
    std::weak_ptr<int> watch = heavy;
    {
        WsDeque d = make();
        size_t sz = 0;
        ASSERT_TRUE(d.push(
            Task([heavy] { (void)*heavy; }, nullptr), sz));
        heavy.reset();
        EXPECT_FALSE(watch.expired()); // the queued task holds it
    }
    EXPECT_TRUE(watch.expired());
}

TEST(ZeroedWords, ReadsZeroUntilWrittenAndThrowsWhenUnmappable)
{
    // The rings' memory: every word reads as zero before anything
    // writes it (what the thief's whole-slot copy relies on), and a
    // size no address space can hold throws like an allocation.
    hermes::runtime::ZeroedWords words(1 << 16);
    for (size_t w = 0; w < (1 << 16); w += 511)
        ASSERT_EQ(words.data()[w], 0u) << "word " << w;
    words.data()[7] = 42;
    EXPECT_EQ(words.data()[7], 42u);
    EXPECT_THROW(hermes::runtime::ZeroedWords(size_t(1) << 60),
                 std::bad_alloc);
}
