/**
 * @file
 * TaskFn: the allocation-free closure of the spawn/steal hot path —
 * inline-vs-boxed selection, move semantics, destructor correctness
 * for boxed payloads, and the release()/adopt() relocation contract
 * the lock-free deque ring depends on (task_fn.hpp).
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>

#include <gtest/gtest.h>

#include "runtime/task.hpp"
#include "runtime/task_fn.hpp"

using hermes::runtime::Task;
using hermes::runtime::TaskFn;

namespace {

struct BigBlob
{
    // Larger than the inline budget on any platform.
    unsigned char bytes[TaskFn::kInlineBytes + 8] = {};
};

} // namespace

TEST(TaskFn, SmallTriviallyCopyableLambdasStayInline)
{
    int sink = 0;
    long a = 1, b = 2, c = 3;
    auto small = [&sink, a, b, c] {
        sink = static_cast<int>(a + b + c);
    };
    static_assert(TaskFn::fitsInline<decltype(small)>,
                  "a 4-word capture must fit the inline budget");
    TaskFn fn(small);
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.storedInline());
    fn();
    EXPECT_EQ(sink, 6);
}

TEST(TaskFn, SevenWordCapturesFitTheRuntimesSpawnSites)
{
    // parallelReduce's spawn lambda captures 7 words by reference;
    // the inline budget exists for exactly this shape (the
    // static_asserts in parallel.hpp pin it at compile time).
    void *p0 = nullptr, *p1 = nullptr, *p2 = nullptr, *p3 = nullptr,
         *p4 = nullptr, *p5 = nullptr, *p6 = nullptr;
    auto seven = [p0, p1, p2, p3, p4, p5, p6] {
        (void)p0; (void)p1; (void)p2; (void)p3;
        (void)p4; (void)p5; (void)p6;
    };
    static_assert(sizeof(seven) == 7 * sizeof(void *));
    static_assert(TaskFn::fitsInline<decltype(seven)>);
    EXPECT_TRUE(TaskFn(seven).storedInline());
}

TEST(TaskFn, OversizedCapturesAreBoxedAndStillRun)
{
    BigBlob blob;
    blob.bytes[0] = 41;
    int out = 0;
    auto big = [blob, &out] { out = blob.bytes[0] + 1; };
    static_assert(!TaskFn::fitsInline<decltype(big)>);
    TaskFn fn(big);
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_FALSE(fn.storedInline());
    fn();
    EXPECT_EQ(out, 42);
}

TEST(TaskFn, NonTriviallyCopyableCapturesAreBoxed)
{
    // A shared_ptr capture is small but not trivially copyable: the
    // relocation-as-bytes contract forbids it inline.
    auto token = std::make_shared<int>(5);
    auto fn_body = [token] { return *token; };
    static_assert(!TaskFn::fitsInline<decltype(fn_body)>);
    EXPECT_FALSE(TaskFn(fn_body).storedInline());
}

TEST(TaskFn, BoxedPayloadIsDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        TaskFn fn([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired()); // the box keeps it alive
        TaskFn moved = std::move(fn);
        EXPECT_FALSE(static_cast<bool>(fn)); // source emptied
        EXPECT_FALSE(watch.expired());
        moved(); // invoking does not consume
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired()); // destroyed with the last holder
}

TEST(TaskFn, MoveAssignmentDestroysTheOverwrittenPayload)
{
    auto a = std::make_shared<int>(1);
    auto b = std::make_shared<int>(2);
    std::weak_ptr<int> watch_a = a, watch_b = b;
    TaskFn fn([a] { (void)*a; });
    a.reset();
    fn = TaskFn([b] { (void)*b; });
    b.reset();
    EXPECT_TRUE(watch_a.expired());  // overwritten payload freed
    EXPECT_FALSE(watch_b.expired()); // new payload held
    fn = TaskFn();
    EXPECT_TRUE(watch_b.expired());
}

TEST(TaskFn, ReleaseAdoptRelocatesWithoutRunningDtors)
{
    // The deque-ring contract: release() hands the closure over as
    // trivially-copyable bytes, adopt() resurrects it, and exactly
    // one destruction happens at the end — for inline and boxed
    // payloads alike.
    auto token = std::make_shared<int>(9);
    std::weak_ptr<int> watch = token;
    int calls = 0;

    TaskFn boxed([token, &calls] { ++calls; });
    token.reset();
    TaskFn::Repr repr = boxed.release();
    EXPECT_FALSE(static_cast<bool>(boxed));
    EXPECT_FALSE(watch.expired());
    {
        TaskFn revived = TaskFn::adopt(repr);
        ASSERT_TRUE(static_cast<bool>(revived));
        revived();
        EXPECT_EQ(calls, 1);
    }
    EXPECT_TRUE(watch.expired());

    int sink = 0;
    TaskFn inline_fn([&sink] { sink = 7; });
    TaskFn revived = TaskFn::adopt(inline_fn.release());
    revived();
    EXPECT_EQ(sink, 7);
}

TEST(TaskFn, RelocateToWritesOnlyTheLiveWords)
{
    // A ring push and an owning pop: a closure moves to plain ring
    // words and back, and words past its payload are never written.
    // A boxed payload is one pointer word and still freed exactly
    // once.
    constexpr uint64_t kUntouched = 0xdeadbeefcafef00dULL;
    uint64_t payload[TaskFn::kInlineBytes / 8];
    uint64_t ops = 0;
    std::fill(std::begin(payload), std::end(payload), kUntouched);

    long sink = 0;
    long a = 1, b = 2;
    TaskFn three_words([&sink, a, b] { sink = a + b; });
    three_words.relocateTo(payload, &ops);
    EXPECT_FALSE(static_cast<bool>(three_words));
    EXPECT_NE(ops, 0u);
    for (size_t w = 3; w < std::size(payload); ++w)
        EXPECT_EQ(payload[w], kUntouched) << "word " << w;
    TaskFn back;
    back.relocateFrom(payload, &ops);
    ASSERT_TRUE(back.storedInline());
    back();
    EXPECT_EQ(sink, 3);

    auto token = std::make_shared<int>(4);
    std::weak_ptr<int> watch = token;
    std::fill(std::begin(payload), std::end(payload), kUntouched);
    TaskFn boxed([token, &sink] { sink = *token; });
    token.reset();
    boxed.relocateTo(payload, &ops);
    EXPECT_EQ(payload[1], kUntouched);
    {
        TaskFn revived;
        revived.relocateFrom(payload, &ops);
        revived();
        EXPECT_EQ(sink, 4);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(Task, SlotCodecRoundTripsThroughZeroedWords)
{
    // Task::writeSlot/readSlot are how both rings store a task. On a
    // slot of zeroed words the codec writes the live payload words
    // plus the ops, group and owner-counted words, and leaves the
    // rest zero — the words a thief's whole-slot copy reads.
    uint64_t slot[Task::kSlotWords] = {};
    long sink = 0;
    long a = 5, b = 6;
    TaskFn fn([&sink, a, b] { sink = a * b; });
    auto *fake_group =
        reinterpret_cast<hermes::runtime::TaskGroup *>(0x5678);
    Task::writeSlot(slot, fn, fake_group, true);
    EXPECT_FALSE(static_cast<bool>(fn));
    size_t written = 0;
    for (uint64_t w : slot)
        written += w != 0;
    // Three payload words, ops, group, owner-counted.
    EXPECT_EQ(written, 6u);

    Task out;
    Task::readSlot(slot, out);
    EXPECT_EQ(out.group, fake_group);
    EXPECT_TRUE(out.ownerCounted);
    ASSERT_TRUE(out.body.storedInline());
    out.body();
    EXPECT_EQ(sink, 30);
    out.group = nullptr; // never dereferenced; tag only
}

TEST(TaskFn, EmptyIsFalseAndMoveLeavesEmpty)
{
    TaskFn empty;
    EXPECT_FALSE(static_cast<bool>(empty));
    EXPECT_FALSE(empty.storedInline());
    TaskFn full([] {});
    TaskFn taken = std::move(full);
    EXPECT_FALSE(static_cast<bool>(full));
    EXPECT_TRUE(static_cast<bool>(taken));
}

TEST(Task, ReleaseAdoptCarriesTheGroupPointer)
{
    // Task::Repr is what the deque ring actually stores: closure
    // bytes plus the completion-group pointer and how the group
    // counted the task, relocated together.
    int sink = 0;
    auto *fake_group =
        reinterpret_cast<hermes::runtime::TaskGroup *>(0x1234);
    Task t([&sink] { sink = 3; }, fake_group, true);
    Task::Repr repr = t.release();
    EXPECT_FALSE(static_cast<bool>(t));
    EXPECT_EQ(t.group, nullptr);
    EXPECT_FALSE(t.ownerCounted);
    Task back = Task::adopt(repr);
    EXPECT_EQ(back.group, fake_group);
    EXPECT_TRUE(back.ownerCounted);
    back.body();
    EXPECT_EQ(sink, 3);
    back.group = nullptr; // never dereferenced; tag only
}

TEST(Task, StdFunctionStillConvertsViaBoxing)
{
    // Pre-PR-5 call sites passed std::function; it converts (boxed,
    // since std::function is not trivially copyable) so external
    // APIs keep working.
    int sink = 0;
    std::function<void()> legacy = [&sink] { sink = 11; };
    Task t(std::move(legacy), nullptr);
    EXPECT_FALSE(t.body.storedInline());
    t.body();
    EXPECT_EQ(sink, 11);
}
