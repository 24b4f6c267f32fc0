/**
 * @file
 * Umbrella header: the whole HERMES library.
 *
 * Individual modules can be included piecemeal; this pulls in the
 * public API surface used by the examples and downstream projects.
 */

#ifndef HERMES_HERMES_HPP
#define HERMES_HERMES_HPP

#include "core/immediacy_list.hpp"
#include "core/policy.hpp"
#include "core/tempo_controller.hpp"
#include "core/threshold_profiler.hpp"
#include "dvfs/backend.hpp"
#include "dvfs/simulated.hpp"
#include "energy/ledger.hpp"
#include "energy/power_model.hpp"
#include "harness/run_sampler.hpp"
#include "platform/affinity.hpp"
#include "platform/frequency.hpp"
#include "platform/system_profile.hpp"
#include "platform/topology.hpp"
#include "runtime/inject_queue.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"
#include "sim/dag.hpp"
#include "sim/dag_generators.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

#endif // HERMES_HERMES_HPP
