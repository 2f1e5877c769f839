// Feeds a telemetry trial (export.hpp's to_trial output, possibly
// round-tripped through PKB) back into the rule engine — the closed
// loop: perfknow diagnoses perfknow.
//
// Two fact types are asserted, consumed by rules/self_diagnosis.rules:
//
//   TelemetryMetricFact(name, value)
//     one per counter/histogram metric on the root "perfknow" event,
//     plus derived rates:
//       perfdmf.repository.cache.lookups   = hits + misses
//       perfdmf.repository.cache.hit_rate  = hits / lookups
//
//   TelemetrySpanFact(name, totalUsec, exclusiveUsec, calls, share,
//                     imbalanceCv)
//     one per span event: totals summed over threads, share =
//     exclusiveUsec / total instrumented time, imbalanceCv = the
//     stddev/mean of per-thread exclusive time over the threads that
//     executed the span (the paper's load-imbalance measure applied to
//     our own worker threads).
#pragma once

#include <cstddef>

#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::telemetry {

/// Asserts TelemetryMetricFact / TelemetrySpanFact facts derived from
/// `trial` into `harness`; returns the number of facts asserted.
/// Throws InvalidArgumentError when `trial` has no "perfknow" root
/// event (i.e. was not produced by to_trial).
std::size_t assert_self_facts(rules::RuleHarness& harness,
                              const profile::Trial& trial);

}  // namespace perfknow::telemetry
