#include "platform/affinity.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#define HERMES_HAVE_AFFINITY 1
#else
#define HERMES_HAVE_AFFINITY 0
#endif

namespace hermes::platform {

bool
affinitySupported()
{
#if HERMES_HAVE_AFFINITY
    return true;
#else
    return false;
#endif
}

bool
pinSelfToCore(CoreId core)
{
#if HERMES_HAVE_AFFINITY
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set)
        == 0;
#else
    (void)core;
    return false;
#endif
}

} // namespace hermes::platform
