/** @file Unit tests for the split work-stealing deque — its private
 * part, its Chase-Lev shared part and the share rule between them —
 * and for the zero-page memory its ring lives on. */

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
    EXPECT_FALSE(d.stealable());
    Task out;
    size_t sz = 0;
    EXPECT_FALSE(d.pop(out));
    EXPECT_FALSE(d.steal(out, sz));
}

TEST_F(WsDequeTest, PopIsLifo)
{
    // The owner pops the most recently pushed (most immediate) task:
    // three from the private part, the last one reclaimed from the
    // shared part.
    WsDeque d = make();
    std::vector<int> sink;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    EXPECT_EQ(d.size(), 4u);

    Task out;
    for (int expect = 3; expect >= 0; --expect) {
        ASSERT_TRUE(d.pop(out));
        EXPECT_EQ(runTag(out, sink), expect);
    }
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, PushIntoAnEmptySharedPartShares)
{
    // A push that finds the shared part empty publishes the older
    // ceil(n/2) of the n private tasks and reports the transition.
    WsDeque d = make();
    std::vector<int> sink;
    EXPECT_TRUE(d.push(tagged(0, sink)).published); // n = 1: shared
    for (int i = 1; i < 4; ++i)
        EXPECT_FALSE(d.push(tagged(i, sink)).published);

    Task out;
    size_t sz = 99;
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 0);
    EXPECT_EQ(sz, 0u);
    EXPECT_FALSE(d.stealable()) << "1..3 are private";

    // Private 1, 2, 3, 4: the push shares 1 and 2, the older half.
    const auto pushed = d.push(tagged(4, sink));
    EXPECT_TRUE(pushed.published);
    EXPECT_EQ(pushed.size, 4u);
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 1);
    EXPECT_EQ(sz, 1u);
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 2);
    EXPECT_FALSE(d.steal(out, sz));
    EXPECT_EQ(d.size(), 2u);
}

TEST_F(WsDequeTest, PushBehindAStockedSharedPartStaysPrivate)
{
    WsDeque d = make();
    std::vector<int> sink;
    ASSERT_TRUE(d.push(tagged(0, sink)).published);
    const auto pushed = d.push(tagged(1, sink));
    ASSERT_TRUE(pushed);
    EXPECT_FALSE(pushed.published);
    EXPECT_EQ(pushed.size, 2u);

    // A thief sees only the shared task; the private one stays with
    // the owner until its next push or pop.
    Task out;
    size_t sz = 0;
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 0);
    EXPECT_FALSE(d.steal(out, sz));
    EXPECT_FALSE(d.stealable());
    EXPECT_EQ(d.size(), 1u);
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(runTag(out, sink), 1);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, PopThatEmptiesThePrivatePartReclaims)
{
    // Shared 0, 1, 2 (shareAll) then private 3: the first pop is
    // private, the next ones take the newest shared task back — with
    // no CAS while a thief-visible task stays below it, and with the
    // last-task CAS for the final one.
    WsDeque d = make();
    std::vector<int> sink;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    EXPECT_FALSE(d.shareAll()) << "the shared part already held 0";
    EXPECT_FALSE(d.push(tagged(3, sink)).published);

    Task out;
    size_t sz = 0;
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(runTag(out, sink), 3);
    const auto reclaimed = d.pop(out);
    ASSERT_TRUE(reclaimed);
    EXPECT_FALSE(reclaimed.published);
    EXPECT_EQ(reclaimed.size, 2u);
    EXPECT_EQ(runTag(out, sink), 2);
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 0);
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(runTag(out, sink), 1);
    EXPECT_TRUE(d.empty());
    EXPECT_FALSE(d.pop(out));
    EXPECT_EQ(d.popCasLosses(), 0u);
}

TEST_F(WsDequeTest, ShareAllPublishesEveryPrivateTask)
{
    WsDeque d = make();
    std::vector<int> sink;
    EXPECT_FALSE(d.shareAll()) << "nothing to share";
    ASSERT_TRUE(d.push(tagged(0, sink)).published);
    Task out;
    size_t sz = 0;
    for (int i = 1; i < 4; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    ASSERT_TRUE(d.steal(out, sz));
    // The shared part is empty again: sharing 1..3 is a transition.
    EXPECT_TRUE(d.shareAll());
    for (int expect = 1; expect < 4; ++expect) {
        ASSERT_TRUE(d.steal(out, sz));
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
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    d.shareAll();

    Task out;
    size_t sz = 0;
    for (int expect = 0; expect < 4; ++expect) {
        ASSERT_TRUE(d.steal(out, sz));
        EXPECT_EQ(runTag(out, sink), expect);
        EXPECT_EQ(sz, static_cast<size_t>(3 - expect));
    }
    EXPECT_FALSE(d.steal(out, sz));
}

TEST_F(WsDequeTest, MixedPopAndSteal)
{
    // Shared 0, private 1..4. Once the thief has taken 0, the owner's
    // pop of 4 shares 1 and 2; the final pop reclaims 2.
    WsDeque d = make();
    std::vector<int> sink;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));

    Task out;
    size_t sz = 0;
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 0);
    const auto popped = d.pop(out);
    ASSERT_TRUE(popped);
    EXPECT_TRUE(popped.published);
    EXPECT_EQ(runTag(out, sink), 4);
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(runTag(out, sink), 1);
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(runTag(out, sink), 3);
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(runTag(out, sink), 2);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, ReportsSizeAfterEachOperation)
{
    // Owner operations report the whole size, private + shared; a
    // steal reports what stays shared.
    WsDeque d = make();
    std::vector<int> sink;
    EXPECT_EQ(d.push(tagged(0, sink)).size, 1u);
    EXPECT_EQ(d.push(tagged(1, sink)).size, 2u);
    EXPECT_EQ(d.push(tagged(2, sink)).size, 3u);
    Task out;
    EXPECT_EQ(d.pop(out).size, 2u);
    size_t sz = 99;
    ASSERT_TRUE(d.steal(out, sz));
    EXPECT_EQ(sz, 0u);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.pop(out).size, 0u);
}

TEST_F(WsDequeTest, FullRingRejectsPush)
{
    WsDeque d = make(4); // ring of 4: usable capacity is 3 (push())
    std::vector<int> sink;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    const auto rejected = d.push(tagged(99, sink));
    EXPECT_FALSE(rejected);
    EXPECT_FALSE(rejected.published);
    // Draining one slot re-enables pushing.
    Task out;
    ASSERT_TRUE(d.pop(out));
    EXPECT_TRUE(d.push(tagged(5, sink)));
}

TEST_F(WsDequeTest, WrapsAroundTheRing)
{
    // Each round: the first push shares, the second stays private,
    // the thief takes the shared one and the owner pops the private
    // one — a hundred laps of a 4-slot ring.
    WsDeque d = make(4);
    std::vector<int> sink;
    size_t sz = 0;
    Task out;
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(d.push(tagged(round, sink)).published);
        ASSERT_FALSE(d.push(tagged(round + 1000, sink)).published);
        ASSERT_TRUE(d.steal(out, sz));
        EXPECT_EQ(runTag(out, sink), round);
        ASSERT_TRUE(d.pop(out));
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
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    d.shareAll();

    // ceil(5/2) = 3 tasks, head order (least immediate first).
    std::vector<Task> out;
    size_t sz = 0;
    EXPECT_EQ(d.stealHalf(out, sz), 3u);
    EXPECT_EQ(sz, 2u);
    ASSERT_EQ(out.size(), 3u);
    for (int expect = 0; expect < 3; ++expect)
        EXPECT_EQ(runTag(out[static_cast<size_t>(expect)], sink),
                  expect);

    // The owner keeps the more immediate half.
    Task rest;
    ASSERT_TRUE(d.pop(rest));
    EXPECT_EQ(runTag(rest, sink), 4);
    ASSERT_TRUE(d.pop(rest));
    EXPECT_EQ(runTag(rest, sink), 3);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, StealHalfSeesOnlyTheSharedPart)
{
    // Shared 0, private 1..4: a grab takes ceil(1/2) = 1.
    WsDeque d = make();
    std::vector<int> sink;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    std::vector<Task> out;
    size_t sz = 99;
    EXPECT_EQ(d.stealHalf(out, sz), 1u);
    EXPECT_EQ(sz, 0u);
    EXPECT_EQ(runTag(out[0], sink), 0);
    EXPECT_EQ(d.size(), 4u);
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

    // ceil(1/2) = 1: a singleton behaves exactly like steal() — the
    // grab degrades to the proven single-steal CAS (the last-task
    // race never takes the bulk path).
    ASSERT_TRUE(d.push(tagged(7, sink)));
    EXPECT_EQ(d.stealHalf(out, sz), 1u);
    EXPECT_EQ(sz, 0u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(runTag(out[0], sink), 7);
    EXPECT_TRUE(d.empty());
}

TEST_F(WsDequeTest, StealHalfAppendsWithoutClearing)
{
    // Shared 0, private 1: the grab takes 0. The next push finds the
    // shared part empty and shares 1 (ceil(2/2)), which the next grab
    // takes.
    WsDeque d = make();
    std::vector<int> sink;
    std::vector<Task> out;
    size_t sz = 0;
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    EXPECT_EQ(d.stealHalf(out, sz), 1u);
    ASSERT_TRUE(d.push(tagged(2, sink)).published);
    EXPECT_EQ(d.stealHalf(out, sz), 1u);
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
        ASSERT_TRUE(d.push(tagged(i, sink)));
    d.shareAll();

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
    // the contention signal — stay at zero: a steal, a pop that
    // shares 1..3, a grab of two of them, and a drain that ends with
    // a reclaim's last-task CAS.
    WsDeque d = make();
    std::vector<int> sink;
    size_t sz = 0;
    Task out;
    std::vector<Task> bulk;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(d.push(tagged(i, sink)));
    ASSERT_TRUE(d.steal(out, sz));
    ASSERT_TRUE(d.pop(out).published);
    EXPECT_EQ(d.stealHalf(bulk, sz), 2u);
    while (d.pop(out)) {
    }
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.stealCasRetries(), 0u);
    EXPECT_EQ(d.popCasLosses(), 0u);
}

TEST_F(WsDequeTest, DestructorReleasesQueuedClosures)
{
    // Tasks still queued at destruction own their closures, shared
    // or private; an oversized (boxed) capture must be freed by the
    // deque teardown.
    auto heavy = std::make_shared<int>(7);
    std::weak_ptr<int> watch = heavy;
    {
        WsDeque d = make();
        for (int i = 0; i < 2; ++i)
            ASSERT_TRUE(d.push(Task([heavy] { (void)*heavy; }, nullptr)));
        heavy.reset();
        EXPECT_FALSE(watch.expired()); // the queued tasks hold it
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
