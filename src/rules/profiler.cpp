#include "rules/profiler.hpp"

#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::rules {

namespace profdetail {
std::atomic<bool> g_profiling{[] {
  if (!kCompiledIn) return false;
  const char* env = std::getenv("PERFKNOW_RULE_PROFILING");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "1" || v == "on" || v == "true" || v == "yes";
}()};
}  // namespace profdetail

void set_profiling_enabled(bool on) noexcept {
  if constexpr (profdetail::kCompiledIn) {
    profdetail::g_profiling.store(on, std::memory_order_relaxed);
  } else {
    (void)on;
  }
}

namespace {

constexpr const char* kProfileGroup = "RULEPROF";
constexpr const char* kRootEvent = "rules";
constexpr std::string_view kLevelSep = " => level ";

[[nodiscard]] std::string level_event_name(const std::string& rule_name,
                                           std::size_t level) {
  return rule_name + std::string(kLevelSep) + std::to_string(level);
}

}  // namespace

profile::Trial profile_to_trial(const RuleProfile& profile,
                                const std::string& trial_name) {
  profile::Trial trial(trial_name);
  trial.set_thread_count(1);

  const auto time_m = trial.add_metric("TIME", "usec");
  const auto firings_m = trial.add_metric("rules.firings");
  const auto activations_m = trial.add_metric("rules.activations");
  const auto bindings_m = trial.add_metric("rules.bindings");
  const auto admissions_m = trial.add_metric("rules.admissions");
  const auto probes_m = trial.add_metric("rules.probes");
  const auto hits_m = trial.add_metric("rules.hits");
  const auto live_m = trial.add_metric("rules.live_tokens");
  const auto dead_m = trial.add_metric("rules.dead_tokens");
  const auto bytes_m = trial.add_metric("rules.token_bytes");

  const auto root = trial.add_event(kRootEvent, profile::kNoEvent,
                                    kProfileGroup);
  trial.set_calls(0, root, 1.0, 0.0);
  trial.set_inclusive(0, root, time_m, 0.0);
  trial.set_exclusive(0, root, time_m, 0.0);

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  for (const auto& r : profile.rules) {
    const auto e = trial.add_event(r.name, root, kProfileGroup);
    const double usec = static_cast<double>(r.match_ns) / 1000.0;
    trial.set_inclusive(0, e, time_m, usec);
    trial.set_exclusive(0, e, time_m, usec);
    trial.accumulate_inclusive(0, root, time_m, usec);
    trial.set_calls(0, e, d(r.firings), 0.0);
    trial.set_inclusive(0, e, firings_m, d(r.firings));
    trial.set_exclusive(0, e, firings_m, d(r.firings));
    trial.set_inclusive(0, e, activations_m, d(r.activations));
    trial.set_exclusive(0, e, activations_m, d(r.activations));
    trial.set_inclusive(0, e, bindings_m, d(r.bindings));
    trial.set_exclusive(0, e, bindings_m, d(r.bindings));
    std::uint64_t admitted = 0;
    for (const auto& lvl : r.levels) admitted += lvl.admissions;
    trial.set_inclusive(0, e, admissions_m, d(admitted));
    trial.set_exclusive(0, e, admissions_m, d(admitted));

    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      const auto& lvl = r.levels[l];
      const auto le = trial.add_event(level_event_name(r.name, l), e,
                                      kProfileGroup);
      trial.set_calls(0, le, d(lvl.admissions), 0.0);
      trial.set_inclusive(0, le, admissions_m, d(lvl.admissions));
      trial.set_exclusive(0, le, admissions_m, d(lvl.admissions));
      trial.set_inclusive(0, le, probes_m, d(lvl.probes));
      trial.set_exclusive(0, le, probes_m, d(lvl.probes));
      trial.set_inclusive(0, le, hits_m, d(lvl.hits));
      trial.set_exclusive(0, le, hits_m, d(lvl.hits));
      trial.set_inclusive(0, le, live_m, d(lvl.live_tokens));
      trial.set_exclusive(0, le, live_m, d(lvl.live_tokens));
      trial.set_inclusive(0, le, dead_m, d(lvl.dead_tokens));
      trial.set_exclusive(0, le, dead_m, d(lvl.dead_tokens));
      trial.set_inclusive(0, le, bytes_m, d(lvl.token_bytes));
      trial.set_exclusive(0, le, bytes_m, d(lvl.token_bytes));
    }
  }

  trial.set_metadata("perfknow.rules_profile", "1");
  trial.set_metadata("rules.strategy", profile.strategy);
  trial.set_metadata("rules.cycles", std::to_string(profile.cycles));
  trial.set_metadata("rules.wm_size", std::to_string(profile.wm_size));
  return trial;
}

std::size_t assert_profile_facts(RuleHarness& harness,
                                 const profile::Trial& trial) {
  if (trial.metadata("perfknow.rules_profile").value_or("") != "1") {
    throw InvalidArgumentError(
        "assert_profile_facts: trial '" + trial.name() +
        "' is not a rules-profile export (missing perfknow.rules_profile "
        "metadata; produce one with profile_to_trial or pkx rules-profile)");
  }

  const std::string strategy =
      trial.metadata("rules.strategy").value_or("unknown");
  const double cycles =
      std::strtod(trial.metadata("rules.cycles").value_or("0").c_str(),
                  nullptr);
  const double wm_size =
      std::strtod(trial.metadata("rules.wm_size").value_or("0").c_str(),
                  nullptr);

  const ProvenanceSource source(
      harness, "assert_profile_facts(trial='" + trial.name() + "')");

  const auto metric = [&trial](const char* name, profile::EventId e) {
    const auto m = trial.find_metric(name);
    return m ? trial.inclusive(0, e, *m) : 0.0;
  };

  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const std::string& name = trial.event(e).name;
    if (name == kRootEvent) continue;
    const auto sep = name.find(kLevelSep);
    if (sep == std::string::npos) {
      Fact f("RuleProfileFact");
      f.set("ruleName", name);
      f.set("strategy", strategy);
      f.set("matchUsec", metric("TIME", e));
      f.set("firings", metric("rules.firings", e));
      f.set("activations", metric("rules.activations", e));
      f.set("bindings", metric("rules.bindings", e));
      f.set("admissions", metric("rules.admissions", e));
      f.set("cycles", cycles);
      f.set("wmSize", wm_size);
      harness.assert_fact(std::move(f));
    } else {
      Fact f("JoinLevelFact");
      f.set("ruleName", name.substr(0, sep));
      f.set("level",
            std::strtod(name.c_str() + sep + kLevelSep.size(), nullptr));
      f.set("admissions", metric("rules.admissions", e));
      f.set("probes", metric("rules.probes", e));
      f.set("hits", metric("rules.hits", e));
      f.set("liveTokens", metric("rules.live_tokens", e));
      f.set("deadTokens", metric("rules.dead_tokens", e));
      f.set("tokenBytes", metric("rules.token_bytes", e));
      f.set("wmSize", wm_size);
      harness.assert_fact(std::move(f));
    }
    ++n;
  }
  return n;
}

}  // namespace perfknow::rules
