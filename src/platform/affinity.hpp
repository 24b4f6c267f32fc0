/**
 * @file
 * Thread-to-core affinity (Section 3.4, "Worker-Core Mapping").
 *
 * Static scheduling pins each worker to one core for the whole run,
 * by setting the calling thread's affinity mask. On platforms without
 * affinity support the call degrades to a no-op that reports failure,
 * which the runtime records but tolerates.
 */

#ifndef HERMES_PLATFORM_AFFINITY_HPP
#define HERMES_PLATFORM_AFFINITY_HPP

#include "platform/topology.hpp"

namespace hermes::platform {

/** Whether this build/host can pin threads at all. */
bool affinitySupported();

/** Pin the calling thread to `core`. @return success. */
bool pinSelfToCore(CoreId core);

} // namespace hermes::platform

#endif // HERMES_PLATFORM_AFFINITY_HPP
