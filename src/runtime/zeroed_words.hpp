/**
 * @file
 * ZeroedWords — the zero-filled 64-bit words the task rings live on.
 *
 * A deque ring or inject ring is sized for its worst case (thousands
 * of 96-byte slots), but a run typically touches a few pages of it.
 * Value-initializing a ring would write, and so fault in, every page
 * at construction. ZeroedWords instead maps anonymous private memory
 * (`mmap` on Linux, `calloc` elsewhere): the kernel hands out its
 * zero page on first read and a fresh zeroed page on first write, so
 * building one writes nothing and a ring's resident memory follows
 * the slots actually used.
 *
 * The words are plain `uint64_t`, which is an implicit-lifetime type,
 * so they exist as soon as the memory does; a `std::atomic<uint64_t>`
 * is not, and constructing one per word would write every page. The
 * rings therefore access every word through `std::atomic_ref`.
 */

#ifndef HERMES_RUNTIME_ZEROED_WORDS_HPP
#define HERMES_RUNTIME_ZEROED_WORDS_HPP

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#else
#include <cstdlib>
#endif

namespace hermes::runtime {

/** An owned array of zero-filled 64-bit words whose pages are
 * committed on first touch. */
class ZeroedWords
{
  public:
    /** Map `count` zeroed words; writes nothing.
     * @throws std::bad_alloc when the memory cannot be mapped */
    explicit ZeroedWords(size_t count)
        : bytes_(count * sizeof(uint64_t)), words_(allocate(bytes_))
    {}

    ~ZeroedWords() { release(words_, bytes_); }

    ZeroedWords(const ZeroedWords &) = delete;
    ZeroedWords &operator=(const ZeroedWords &) = delete;

    /** The first word (8-byte aligned, so `std::atomic_ref`-able). */
    uint64_t *data() const noexcept { return words_; }

  private:
#if defined(__linux__)
    static uint64_t *
    allocate(size_t bytes)
    {
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<uint64_t *>(p);
    }

    static void
    release(uint64_t *words, size_t bytes) noexcept
    {
        munmap(words, bytes);
    }
#else
    static uint64_t *
    allocate(size_t bytes)
    {
        void *p = std::calloc(bytes, 1);
        if (p == nullptr)
            throw std::bad_alloc();
        return static_cast<uint64_t *>(p);
    }

    static void
    release(uint64_t *words, size_t) noexcept
    {
        std::free(words);
    }
#endif

    size_t bytes_;
    uint64_t *words_;
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_ZEROED_WORDS_HPP
