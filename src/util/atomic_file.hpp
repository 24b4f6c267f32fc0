/**
 * @file
 * Atomic whole-file writes for evidence artifacts.
 *
 * Run bundles are consumed by tools that re-read them later —
 * `hermes-scenario compare`, `sweep --reduce-only`, CI `cmp` gates —
 * and a run interrupted mid-write must never leave a torn
 * config.json/run.json/summary.md/curves.json for those readers to
 * trip over. The classic fix: write the full content to a sibling
 * temp file, flush and close it, then rename() over the target —
 * rename within one directory is atomic on POSIX, so readers observe
 * either the old file or the complete new one, never a prefix.
 * (Append-oriented artifacts like soak.jsonl tolerate torn trailing
 * lines by design and keep appending in place.)
 */

#ifndef HERMES_UTIL_ATOMIC_FILE_HPP
#define HERMES_UTIL_ATOMIC_FILE_HPP

#include <string>

namespace hermes::util {

/**
 * Write `content` to `path` atomically: the bytes land in
 * `path.tmp` first and are rename()d over `path` only after a
 * successful flush + close. util::fatal() on any I/O failure (the
 * temp file is removed on the failure paths it can be).
 */
void writeFileAtomic(const std::string &path,
                     const std::string &content);

/**
 * As writeFileAtomic(), but reports failure through `error` instead
 * of aborting — for callers (the sweep runner) that collect errors
 * across many artifacts and keep going. Returns true on success.
 */
bool tryWriteFileAtomic(const std::string &path,
                        const std::string &content,
                        std::string &error);

} // namespace hermes::util

#endif // HERMES_UTIL_ATOMIC_FILE_HPP
