#include "runtime/omp_collector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace perfknow::runtime {

void emit_collector_events(const OmpTeam& team, const std::string& region,
                           const ParallelForResult& result,
                           const OmpHook& hook) {
  if (!hook) {
    throw InvalidArgumentError("emit_collector_events: null hook");
  }
  OmpEvent fork;
  fork.kind = OmpEventKind::kFork;
  fork.thread = 0;
  fork.region = region;
  fork.cycles = team.costs().fork_cycles;
  hook(fork);

  for (unsigned t = 0; t < team.num_threads(); ++t) {
    if (result.dispatch_cycles[t] > 0) {
      OmpEvent d;
      d.kind = OmpEventKind::kChunkDispatch;
      d.thread = t;
      d.region = region;
      d.cycles = result.dispatch_cycles[t];
      hook(d);
    }
    OmpEvent enter;
    enter.kind = OmpEventKind::kImplicitBarrierEnter;
    enter.thread = t;
    enter.region = region;
    enter.cycles = result.barrier_wait_cycles[t];
    hook(enter);
    OmpEvent exit_ev;
    exit_ev.kind = OmpEventKind::kImplicitBarrierExit;
    exit_ev.thread = t;
    exit_ev.region = region;
    exit_ev.cycles = result.barrier_cost;
    hook(exit_ev);
  }

  OmpEvent join;
  join.kind = OmpEventKind::kJoin;
  join.thread = 0;
  join.region = region;
  join.cycles = team.costs().join_cycles;
  hook(join);

  // Let the collector know the region span for fraction computations by
  // reusing the join event's cycles? No: spans are carried by a second
  // synthetic fork with the elapsed time. Instead the collector derives
  // the span from the recorded overheads plus the work estimate below.
}

OmpCollector::RegionStats& OmpCollector::upsert(const std::string& name) {
  for (auto& r : regions_) {
    if (r.region == name) return r;
  }
  RegionStats s;
  s.region = name;
  s.barrier_wait.assign(threads_, 0);
  regions_.push_back(std::move(s));
  return regions_.back();
}

OmpHook OmpCollector::hook() {
  return [this](const OmpEvent& ev) {
    if (ev.thread >= threads_) {
      throw InvalidArgumentError("OmpCollector: event thread out of range");
    }
    RegionStats& r = upsert(ev.region);
    switch (ev.kind) {
      case OmpEventKind::kFork:
        r.fork_join_cycles += ev.cycles;
        ++r.invocations;
        break;
      case OmpEventKind::kJoin:
        r.fork_join_cycles += ev.cycles;
        break;
      case OmpEventKind::kChunkDispatch:
        r.dispatch_cycles += ev.cycles;
        break;
      case OmpEventKind::kImplicitBarrierEnter:
        r.barrier_wait[ev.thread] += ev.cycles;
        break;
      case OmpEventKind::kImplicitBarrierExit:
        // Synchronization cost itself: count once (thread 0's copy).
        if (ev.thread == 0) r.fork_join_cycles += ev.cycles;
        break;
    }
  };
}

const OmpCollector::RegionStats& OmpCollector::region(
    const std::string& name) const {
  for (const auto& r : regions_) {
    if (r.region == name) return r;
  }
  throw NotFoundError("OmpCollector: no region '" + name + "'");
}

std::size_t OmpCollector::assert_facts(rules::RuleHarness& harness) const {
  const rules::ProvenanceSource source(harness,
                                       "assert_facts(OmpCollector)");
  const auto region = harness.schema(
      "OmpRegionFact",
      {"region", "invocations", "forkJoinCycles", "dispatchCycles",
       "meanBarrierWait", "forkJoinShare", "barrierShare", "imbalanceCv"});
  std::size_t n = 0;
  for (const auto& r : regions_) {
    // Per-thread barrier wait statistics.
    std::vector<double> waits(r.barrier_wait.begin(), r.barrier_wait.end());
    const double total_wait = stats::sum(waits);
    const double mean_wait =
        waits.empty() ? 0.0 : total_wait / static_cast<double>(waits.size());
    // Overheads relative to the total overhead+wait budget; the region's
    // compute time is not known to the collector, so fractions are of the
    // runtime-overhead pool (what the paper's §V wants attributed).
    const double pool = static_cast<double>(r.fork_join_cycles) +
                        static_cast<double>(r.dispatch_cycles) + total_wait;
    harness.emit(region)
        .str("region", r.region)
        .num("invocations", static_cast<double>(r.invocations))
        .num("forkJoinCycles", static_cast<double>(r.fork_join_cycles))
        .num("dispatchCycles", static_cast<double>(r.dispatch_cycles))
        .num("meanBarrierWait", mean_wait)
        .num("forkJoinShare",
             pool == 0.0 ? 0.0
                         : static_cast<double>(r.fork_join_cycles) / pool)
        .num("barrierShare", pool == 0.0 ? 0.0 : total_wait / pool)
        .num("imbalanceCv", waits.empty() || mean_wait == 0.0
                                ? 0.0
                                : stats::coefficient_of_variation(waits))
        .commit();
    ++n;
  }
  return n;
}

}  // namespace perfknow::runtime
