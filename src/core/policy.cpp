#include "core/policy.hpp"

#include "util/assert.hpp"

namespace hermes::core {

std::string
toString(TempoPolicy policy)
{
    switch (policy) {
      case TempoPolicy::WorkpathOnly:
        return "workpath";
      case TempoPolicy::WorkloadOnly:
        return "workload";
      case TempoPolicy::Unified:
        return "unified";
    }
    HERMES_PANIC("unhandled TempoPolicy value");
}

TempoPolicy
policyFromString(const std::string &name)
{
    if (name == "workpath")
        return TempoPolicy::WorkpathOnly;
    if (name == "workload")
        return TempoPolicy::WorkloadOnly;
    if (name == "unified")
        return TempoPolicy::Unified;
    util::fatal("unknown tempo policy '" + name
                + "' (workpath|workload|unified)");
}

} // namespace hermes::core
