/**
 * @file
 * TaskFn — the allocation-free closure type of the spawn/steal hot
 * path.
 *
 * Every spawn used to heap-allocate: `Task::body` was a
 * `std::function`, whose small-buffer rules are implementation-
 * defined and which is never trivially relocatable, so each spawn
 * paid an allocator round-trip and each deque transfer a virtual
 * move. TaskFn replaces it with a fixed 64-byte inline buffer plus a
 * two-entry trampoline table (invoke/destroy):
 *
 *  - Callables that are **small (≤ 64 bytes, ≤ 16-aligned) and
 *    trivially copyable** — every spawn lambda the runtime itself
 *    creates captures a handful of references and scalars, so this
 *    is the common case (`static_assert`ed in parallel.hpp) — are
 *    constructed directly in the inline buffer. No allocation, and
 *    the destroy trampoline is null (trivially copyable implies
 *    trivially destructible).
 *  - Anything else is **boxed**: the buffer holds one owning pointer
 *    to a heap copy, and the trampolines forward through it.
 *
 * Either way the *representation* (`TaskFn::Repr`) is trivially
 * copyable — raw bytes of a trivially-copyable callable, or a
 * pointer — which makes a TaskFn **trivially relocatable by
 * construction**: moving it is a byte copy plus emptying the source,
 * and `release()`/`adopt()` expose exactly that transfer for
 * containers that store tasks as raw words (the deque and inject
 * rings access their slots with relaxed per-word `std::atomic_ref`
 * accesses, see deque.hpp). This relocatability contract is what
 * lets a thief copy a slot *before* its claiming CAS and discard the
 * bytes on failure without ever running a constructor or destructor
 * on them. `relocateTo()`/`relocateFrom()` are the same transfer
 * straight between a TaskFn and ring words, copying only the payload
 * words the closure uses (`Ops::words`): every ring push and every
 * pop that owns its slot (Task::writeSlot/readSlot).
 */

#ifndef HERMES_RUNTIME_TASK_FN_HPP
#define HERMES_RUNTIME_TASK_FN_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hermes::runtime {

/** Move-only, trivially-relocatable `void()` closure with 64 bytes
 * of inline storage and a boxed-heap fallback. */
class TaskFn
{
  private:
    /** Type-erased operations; destroy is null when the payload is
     * trivially destructible (the inline case). `words` is how many
     * leading 64-bit words of the inline buffer the payload uses, so
     * a relocation can copy those and no more. */
    struct Ops
    {
        void (*invoke)(void *);
        void (*destroy)(void *);
        size_t words;
    };

  public:
    /** Inline payload budget. Sized so the runtime's own spawn
     * lambdas (up to ~7 captured words, see parallel.hpp) stay
     * allocation-free while a Task::Repr remains a small flat slot
     * for the deque ring. */
    static constexpr size_t kInlineBytes = 64;
    static constexpr size_t kInlineAlign = 16;

    /**
     * The trivially-copyable transfer representation: the payload
     * bytes plus the trampoline table. Copying a Repr *relocates*
     * the closure — exactly one of the copies may be adopted, and
     * the source TaskFn must be treated as empty afterwards
     * (`release()` enforces that).
     */
    struct Repr
    {
        alignas(kInlineAlign) unsigned char storage[kInlineBytes];
        const Ops *ops;
    };

    /** Whether callable `F` is stored inline (no allocation on
     * spawn). Requires trivial copyability: the deque relocates
     * payloads as raw bytes. */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign
        && std::is_trivially_copyable_v<F>;

    TaskFn() noexcept { repr_.ops = nullptr; }

    /** Wrap any `void()`-invocable callable; boxed on the heap only
     * when it is oversized, over-aligned, or not trivially
     * copyable. */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, TaskFn>
                  && std::is_invocable_v<D &>>>
    TaskFn(F &&f) // NOLINT: implicit by design (spawn sites)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(repr_.storage))
                D(std::forward<F>(f));
            repr_.ops = &inlineOps<D>;
        } else {
            ::new (static_cast<void *>(repr_.storage))
                D *(new D(std::forward<F>(f)));
            repr_.ops = &boxedOps<D>;
        }
    }

    TaskFn(TaskFn &&other) noexcept : repr_(other.repr_)
    {
        other.repr_.ops = nullptr;
    }

    TaskFn &
    operator=(TaskFn &&other) noexcept
    {
        if (this != &other) {
            destroyPayload();
            repr_ = other.repr_;
            other.repr_.ops = nullptr;
        }
        return *this;
    }

    TaskFn(const TaskFn &) = delete;
    TaskFn &operator=(const TaskFn &) = delete;

    ~TaskFn() { destroyPayload(); }

    /** Invoke the closure (must hold one: `operator bool`). */
    void operator()() { repr_.ops->invoke(repr_.storage); }

    /** Whether this holds a callable. */
    explicit operator bool() const noexcept
    {
        return repr_.ops != nullptr;
    }

    /** Whether the held callable lives in the inline buffer (false
     * for empty or boxed). Introspection for tests and asserts. */
    bool
    storedInline() const noexcept
    {
        return repr_.ops != nullptr && repr_.ops->destroy == nullptr;
    }

    /**
     * Relocate out: return the representation and leave this empty.
     * The returned bytes own the closure — pass them to adopt()
     * exactly once (or leak a boxed payload).
     */
    Repr
    release() noexcept
    {
        Repr r = repr_;
        repr_.ops = nullptr;
        return r;
    }

    /** Relocate in: take ownership of a released representation. */
    static TaskFn
    adopt(const Repr &r) noexcept
    {
        TaskFn fn;
        fn.repr_ = r;
        return fn;
    }

    /**
     * Relocate out into 64-bit ring words, as a ring push does:
     * store the payload words the closure uses into `payload` and
     * its ops pointer into `*ops` (relaxed `std::atomic_ref` stores),
     * then leave this empty. Payload words past the closure are not
     * written.
     */
    void
    relocateTo(uint64_t *payload, uint64_t *ops) noexcept
    {
        const size_t n = repr_.ops != nullptr ? repr_.ops->words : 0;
        for (size_t w = 0; w < n; ++w) {
            uint64_t word;
            std::memcpy(&word, repr_.storage + w * sizeof(word),
                        sizeof(word));
            std::atomic_ref<uint64_t>(payload[w])
                .store(word, std::memory_order_relaxed);
        }
        std::atomic_ref<uint64_t>(*ops).store(
            reinterpret_cast<uintptr_t>(repr_.ops),
            std::memory_order_relaxed);
        repr_.ops = nullptr;
    }

    /**
     * Relocate in from words relocateTo() wrote: read the ops word
     * first, then only the payload words it names (relaxed
     * `std::atomic_ref` loads; nothing is written). The caller must
     * own the words outright (the owner's pop, an inject ring
     * consumer's claimed cell); a thief instead copies the whole
     * slot and adopt()s it once its claim wins, never reading an ops
     * pointer it does not own. Any payload this held is destroyed
     * first.
     */
    void
    relocateFrom(uint64_t *payload, uint64_t *ops) noexcept
    {
        destroyPayload();
        repr_.ops = reinterpret_cast<const Ops *>(static_cast<uintptr_t>(
            std::atomic_ref<uint64_t>(*ops).load(
                std::memory_order_relaxed)));
        const size_t n = repr_.ops != nullptr ? repr_.ops->words : 0;
        for (size_t w = 0; w < n; ++w) {
            const uint64_t word = std::atomic_ref<uint64_t>(payload[w])
                                      .load(std::memory_order_relaxed);
            std::memcpy(repr_.storage + w * sizeof(word), &word,
                        sizeof(word));
        }
    }

  private:
    static constexpr size_t
    wordsOf(size_t bytes)
    {
        return (bytes + sizeof(uint64_t) - 1) / sizeof(uint64_t);
    }

    template <typename D>
    static constexpr Ops inlineOps{
        [](void *p) {
            (*std::launder(reinterpret_cast<D *>(p)))();
        },
        nullptr, wordsOf(sizeof(D))};

    template <typename D>
    static constexpr Ops boxedOps{
        [](void *p) {
            (**std::launder(reinterpret_cast<D **>(p)))();
        },
        [](void *p) {
            delete *std::launder(reinterpret_cast<D **>(p));
        },
        wordsOf(sizeof(D *))};

    void
    destroyPayload() noexcept
    {
        if (repr_.ops != nullptr && repr_.ops->destroy != nullptr)
            repr_.ops->destroy(repr_.storage);
    }

    Repr repr_;
};

static_assert(std::is_trivially_copyable_v<TaskFn::Repr>,
              "Repr is the relocation currency of the deque ring");
static_assert(TaskFn::kInlineBytes % sizeof(uint64_t) == 0
                  && sizeof(uintptr_t) <= sizeof(uint64_t),
              "payload and ops must tile the ring's 64-bit words");

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_FN_HPP
