#include "script/bindings.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/clustering.hpp"
#include "analysis/diff.hpp"
#include "analysis/facts.hpp"
#include "analysis/operations.hpp"
#include "analysis/pca.hpp"
#include "analysis/pipeline.hpp"
#include "common/error.hpp"
#include "hwcounters/counters.hpp"
#include "io/format.hpp"
#include "perfdmf/limits.hpp"
#include "power/power_model.hpp"
#include "provenance/explanation.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"
#include "telemetry/export.hpp"
#include "telemetry/self_analysis.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::script {

namespace {

// ---- host-object payloads ----------------------------------------------

struct TrialHandle {
  perfdmf::TrialPtr trial;
};

struct ResultHandle {
  perfdmf::TrialPtr trial;
  bool mean = true;
  std::string metric;  ///< the result's current metric
};

struct DeriveHandle {
  std::shared_ptr<ResultHandle> input;
  std::string metric_a;
  std::string metric_b;
  analysis::DeriveOp op = analysis::DeriveOp::kDivide;
};

struct HarnessHandle {
  std::shared_ptr<rules::RuleHarness> harness;
};

std::shared_ptr<TrialHandle> trial_of(const Value& v) {
  if (v.is_host_object() && v.as_host_object()->type == "TrialResult") {
    auto r = host_cast<ResultHandle>(v, "TrialResult");
    return std::make_shared<TrialHandle>(TrialHandle{r->trial});
  }
  return host_cast<TrialHandle>(v, "Trial");
}

std::shared_ptr<ResultHandle> result_of(const Value& v) {
  if (v.is_host_object() && v.as_host_object()->type == "Trial") {
    auto t = host_cast<TrialHandle>(v, "Trial");
    auto r = std::make_shared<ResultHandle>();
    r->trial = t->trial;
    r->metric = t->trial->find_metric("TIME")
                    ? "TIME"
                    : t->trial->metric(0).name;
    return r;
  }
  return host_cast<ResultHandle>(v, "TrialResult");
}

std::string default_metric(const profile::Trial& t) {
  return t.find_metric("TIME") ? "TIME" : t.metric(0).name;
}

Value make_result(perfdmf::TrialPtr trial, bool mean, std::string metric) {
  auto r = std::make_shared<ResultHandle>();
  r->trial = std::move(trial);
  r->mean = mean;
  r->metric = std::move(metric);
  return make_host_object("TrialResult", std::move(r));
}

const std::string& arg_string(const std::vector<Value>& args,
                              std::size_t i, const char* fn) {
  if (i >= args.size()) {
    throw EvalError(std::string(fn) + ": missing argument " +
                    std::to_string(i + 1));
  }
  return args[i].as_string();
}

/// saveTrial historically always wrote a PKPROF snapshot, whatever the
/// file was called. Route through the io registry when the extension
/// names a writable format, and keep PKPROF as the fallback.
void save_by_extension(const profile::Trial& trial,
                       const std::filesystem::path& file) {
  const std::string ext = file.extension().string();
  for (const auto& f : io::formats()) {
    if (f.write == nullptr) continue;
    for (const auto& e : f.extensions) {
      if (e == ext) {
        io::save_trial(trial, file);
        return;
      }
    }
  }
  io::save_trial(trial, file, "pkprof");
}

/// Builds the mean per-CPU counter vector of a trial from its counter
/// metrics (summing events' exclusive values per thread, then averaging).
hwcounters::CounterVector mean_counters(const profile::Trial& t) {
  hwcounters::CounterVector mean;
  for (profile::MetricId m = 0; m < t.metric_count(); ++m) {
    const std::string& name = t.metric(m).name;
    if (!hwcounters::is_counter_name(name)) continue;
    const auto c = hwcounters::counter_from_name(name);
    double total = 0.0;
    for (std::size_t th = 0; th < t.thread_count(); ++th) {
      for (profile::EventId e = 0; e < t.event_count(); ++e) {
        total += t.exclusive(th, e, m);
      }
    }
    mean.set(c, total / static_cast<double>(t.thread_count()));
  }
  return mean;
}

}  // namespace

void SessionOptions::validate() const {
  if (repository == nullptr) {
    throw InvalidArgumentError(
        "SessionOptions.repository: must not be null");
  }
  if (threads > perfdmf::kMaxThreads) {
    throw InvalidArgumentError(
        "SessionOptions.threads: " + std::to_string(threads) +
        " exceeds the sanity cap of " +
        std::to_string(perfdmf::kMaxThreads) +
        " (was a negative count converted to std::size_t?)");
  }
  if (!rules_path.empty() && !std::filesystem::is_directory(rules_path)) {
    throw InvalidArgumentError("SessionOptions.rules_path: '" +
                               rules_path.string() +
                               "' is not a directory");
  }
  if (!telemetry_trace.empty()) {
    const std::filesystem::path parent = telemetry_trace.parent_path();
    if (!parent.empty() && !std::filesystem::is_directory(parent)) {
      throw InvalidArgumentError(
          "SessionOptions.telemetry_trace: parent directory '" +
          parent.string() + "' does not exist");
    }
  }
}

AnalysisSession::AnalysisSession(SessionOptions options)
    : options_(std::move(options)),
      repository_(options_.repository),
      harness_(std::make_shared<rules::RuleHarness>()) {
  options_.validate();
  if (options_.threads != 0) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  harness_->set_match_strategy(options_.match_strategy);
  harness_->set_provenance(options_.provenance);
  if (options_.enable_telemetry) telemetry::set_enabled(true);
  register_api();
}

AnalysisSession::~AnalysisSession() {
  if (options_.telemetry_trace.empty()) return;
  // Best effort: a failed trace dump must not throw out of a destructor.
  try {
    std::ofstream os(options_.telemetry_trace);
    if (os) telemetry::write_chrome_trace(telemetry::snapshot(), os);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

ThreadPool& AnalysisSession::pool() noexcept {
  return pool_ ? *pool_ : ThreadPool::shared();
}

void AnalysisSession::run(const std::string& source) {
  const ThreadPool::CurrentScope scope(pool());
  interp_.run(source);
}

void AnalysisSession::run_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw IoError("cannot open script: " + path.string());
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  try {
    run(ss.str());
  } catch (const ParseError& e) {
    // Lexer/parser throw with line/column only; file-based scripts
    // should diagnose as "file:line: message".
    throw e.with_file(path.string());
  }
}

void AnalysisSession::register_api() {
  auto* repo = repository_;
  auto harness = harness_;
  const std::filesystem::path rules_path = options_.rules_path;

  // ---- Utilities ---------------------------------------------------------
  interp_.set_global(
      "Utilities",
      make_dict({
          {"getTrial",
           make_host_fn([repo](Interpreter&, const std::vector<Value>& a) {
             return make_host_object(
                 "Trial", std::make_shared<TrialHandle>(TrialHandle{
                              repo->get(arg_string(a, 0, "getTrial"),
                                        arg_string(a, 1, "getTrial"),
                                        arg_string(a, 2, "getTrial"))}));
           })},
          {"getTrialList",
           make_host_fn([repo](Interpreter&, const std::vector<Value>& a) {
             std::vector<Value> out;
             for (auto& t : repo->experiment_trials(
                      arg_string(a, 0, "getTrialList"),
                      arg_string(a, 1, "getTrialList"))) {
               out.push_back(make_host_object(
                   "Trial",
                   std::make_shared<TrialHandle>(TrialHandle{t})));
             }
             return make_list(std::move(out));
           })},
          {"saveTrial",
           make_host_fn([](Interpreter&, const std::vector<Value>& a) {
             save_by_extension(*trial_of(a.at(0))->trial,
                               arg_string(a, 1, "saveTrial"));
             return Value();
           })},
          {"loadTrial",
           make_host_fn([](Interpreter&, const std::vector<Value>& a) {
             // Auto-detects the format (pkprof, pkb, json, csv, tau).
             return make_host_object(
                 "Trial",
                 std::make_shared<TrialHandle>(
                     TrialHandle{std::make_shared<profile::Trial>(
                         io::open_trial(arg_string(a, 0, "loadTrial")))}));
           })},
      }));

  // ---- Trial methods -------------------------------------------------------
  interp_.register_method(
      "Trial", "getName",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        return Value(
            std::static_pointer_cast<TrialHandle>(o->data)->trial->name());
      });
  interp_.register_method(
      "Trial", "getThreadCount",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        return Value(std::static_pointer_cast<TrialHandle>(o->data)
                         ->trial->thread_count());
      });
  interp_.register_method(
      "Trial", "getMetadata",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>& a) {
        const auto md = std::static_pointer_cast<TrialHandle>(o->data)
                            ->trial->metadata(a.at(0).as_string());
        return md ? Value(*md) : Value();
      });

  // ---- result constructors -------------------------------------------------
  auto result_ctor = [](bool mean) {
    return make_host_fn(
        [mean](Interpreter&, const std::vector<Value>& a) {
          auto t = trial_of(a.at(0));
          return make_result(t->trial, mean, default_metric(*t->trial));
        });
  };
  interp_.set_global("TrialResult", result_ctor(false));
  interp_.set_global("TrialMeanResult", result_ctor(true));

  // ---- TrialResult methods ---------------------------------------------------
  auto result_handle = [](const HostObjPtr& o) {
    return std::static_pointer_cast<ResultHandle>(o->data);
  };
  interp_.register_method(
      "TrialResult", "getEvents",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>&) {
        const auto r = result_handle(o);
        std::vector<Value> out;
        for (const auto& e : r->trial->events()) out.emplace_back(e.name);
        return make_list(std::move(out));
      });
  interp_.register_method(
      "TrialResult", "getMetrics",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>&) {
        const auto r = result_handle(o);
        std::vector<Value> out;
        for (const auto& m : r->trial->metrics()) out.emplace_back(m.name);
        return make_list(std::move(out));
      });
  interp_.register_method(
      "TrialResult", "getMetric",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>&) {
        return Value(result_handle(o)->metric);
      });
  interp_.register_method(
      "TrialResult", "setMetric",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>& a) {
        const auto r = result_handle(o);
        (void)r->trial->metric_id(a.at(0).as_string());  // validate
        r->metric = a.at(0).as_string();
        return Value();
      });
  interp_.register_method(
      "TrialResult", "getMainEvent",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>&) {
        const auto r = result_handle(o);
        return Value(r->trial->event(r->trial->main_event()).name);
      });
  interp_.register_method(
      "TrialResult", "getThreadCount",
      [result_handle](Interpreter&, const HostObjPtr& o,
                      const std::vector<Value>&) {
        return Value(result_handle(o)->trial->thread_count());
      });
  auto value_getter = [result_handle](bool inclusive) {
    return [result_handle, inclusive](Interpreter&, const HostObjPtr& o,
                                      const std::vector<Value>& a) {
      const auto r = result_handle(o);
      const auto m = r->trial->metric_id(r->metric);
      if (r->mean) {
        const auto e = r->trial->event_id(a.at(0).as_string());
        return Value(inclusive ? r->trial->mean_inclusive(e, m)
                               : r->trial->mean_exclusive(e, m));
      }
      const auto th = static_cast<std::size_t>(a.at(0).as_number());
      const auto e = r->trial->event_id(a.at(1).as_string());
      return Value(inclusive ? r->trial->inclusive(th, e, m)
                             : r->trial->exclusive(th, e, m));
    };
  };
  interp_.register_method("TrialResult", "getInclusive",
                          value_getter(true));
  interp_.register_method("TrialResult", "getExclusive",
                          value_getter(false));

  // ---- DeriveMetricOperation ---------------------------------------------
  auto derive_ctor =
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        auto h = std::make_shared<DeriveHandle>();
        h->input = result_of(a.at(0));
        h->metric_a = arg_string(a, 1, "DeriveMetricOperation");
        h->metric_b = arg_string(a, 2, "DeriveMetricOperation");
        const std::string& op = arg_string(a, 3, "DeriveMetricOperation");
        if (op == "ADD") h->op = analysis::DeriveOp::kAdd;
        else if (op == "SUBTRACT") h->op = analysis::DeriveOp::kSubtract;
        else if (op == "MULTIPLY") h->op = analysis::DeriveOp::kMultiply;
        else if (op == "DIVIDE") h->op = analysis::DeriveOp::kDivide;
        else throw EvalError("unknown derive op '" + op + "'");
        return make_host_object("DeriveMetricOperation", std::move(h));
      });
  interp_.set_global("DeriveMetricOperation",
                     make_dict({{"__call__", derive_ctor},
                                {"ADD", Value("ADD")},
                                {"SUBTRACT", Value("SUBTRACT")},
                                {"MULTIPLY", Value("MULTIPLY")},
                                {"DIVIDE", Value("DIVIDE")}}));
  interp_.register_method(
      "DeriveMetricOperation", "processData",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        const auto h = std::static_pointer_cast<DeriveHandle>(o->data);
        const auto id = analysis::derive_metric(
            *h->input->trial, h->metric_a, h->metric_b, h->op);
        const std::string name = h->input->trial->metric(id).name;
        return make_list({make_result(h->input->trial, h->input->mean,
                                      name)});
      });

  // ---- MeanEventFact --------------------------------------------------------
  interp_.set_global(
      "MeanEventFact",
      make_dict({{"compareEventToMain",
                  make_host_fn([harness](Interpreter&,
                                         const std::vector<Value>& a) {
                    // Accepts (result, event) or the 4-argument Jython
                    // form (input, mainEvent, output, event).
                    const Value& rv = a.size() >= 4 ? a[2] : a.at(0);
                    const Value& ev = a.size() >= 4 ? a[3] : a.at(1);
                    const auto r = result_of(rv);
                    const auto e = r->trial->event_id(ev.as_string());
                    harness->assert_fact(analysis::compare_event_to_main(
                        *r->trial, r->metric, e));
                    return Value();
                  })}}));

  // ---- RuleHarness ------------------------------------------------------------
  auto harness_obj = make_host_object(
      "RuleHarness", std::make_shared<HarnessHandle>(HarnessHandle{harness}));
  interp_.set_global(
      "RuleHarness",
      make_dict(
          {{"useGlobalRules",
            make_host_fn([harness, harness_obj, rules_path](
                             Interpreter&, const std::vector<Value>& a) {
              rules::add_rules(
                  *harness,
                  rules::resolve_rulebase(
                      arg_string(a, 0, "useGlobalRules"), rules_path));
              return harness_obj;
            })},
           {"getInstance",
            make_host_fn([harness_obj](Interpreter&,
                                       const std::vector<Value>&) {
              return harness_obj;
            })}}));
  interp_.register_method(
      "RuleHarness", "processRules",
      [](Interpreter& interp, const HostObjPtr& o,
         const std::vector<Value>&) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        const auto fired = h->harness->process_rules();
        for (const auto& line : h->harness->output()) interp.emit(line);
        return Value(fired);
      });
  interp_.register_method(
      "RuleHarness", "assertFact",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>& a) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        rules::Fact fact(a.at(0).as_string());
        for (const auto& [k, v] : *a.at(1).as_dict()) {
          if (v.is_number()) fact.set(k, v.as_number());
          else if (v.is_bool()) fact.set(k, v.as_bool());
          else fact.set(k, v.str());
        }
        const rules::ProvenanceSource source(
            *h->harness, "assert_fact(script, '" + fact.type() + "')");
        return Value(static_cast<double>(
            h->harness->assert_fact(std::move(fact))));
      });
  interp_.register_method(
      "RuleHarness", "setMatchStrategy",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>& a) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        const std::string name = arg_string(a, 0, "setMatchStrategy");
        if (name == "naive") {
          h->harness->set_match_strategy(rules::MatchStrategy::kNaive);
        } else if (name == "beta") {
          h->harness->set_match_strategy(rules::MatchStrategy::kBeta);
        } else {
          throw InvalidArgumentError(
              "setMatchStrategy: expected 'naive' or 'beta', "
              "got '" + name + "'");
        }
        return Value();
      });
  interp_.register_method(
      "RuleHarness", "getMatchStrategy",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        return Value(std::string(
            h->harness->match_strategy() == rules::MatchStrategy::kNaive
                ? "naive"
                : "beta"));
      });
  interp_.register_method(
      "RuleHarness", "getOutput",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        std::vector<Value> out;
        for (const auto& line : h->harness->output()) {
          out.emplace_back(line);
        }
        return make_list(std::move(out));
      });
  interp_.register_method(
      "RuleHarness", "getDiagnoses",
      [](Interpreter&, const HostObjPtr& o, const std::vector<Value>&) {
        auto h = std::static_pointer_cast<HarnessHandle>(o->data);
        std::vector<Value> out;
        for (const auto& d : h->harness->diagnoses()) {
          // Capture the (shared, immutable) explanation so the script
          // value stays valid past clear_results().
          auto prov = d.provenance;
          out.push_back(make_dict(
              {{"rule", Value(d.rule)},
               {"problem", Value(d.problem)},
               {"event", Value(d.event)},
               {"metric", Value(d.metric)},
               {"severity", Value(d.severity)},
               {"message", Value(d.message)},
               {"recommendation", Value(d.recommendation)},
               {"text", Value(d.to_string())},
               {"explain",
                make_host_fn([prov](Interpreter&,
                                    const std::vector<Value>&) {
                  return Value(prov ? provenance::to_text(*prov)
                                    : std::string());
                })}}));
        }
        return make_list(std::move(out));
      });

  // ---- Session (the session itself, as a script object) ---------------------
  interp_.set_global(
      "Session",
      make_dict(
          {{"explainAll",
            make_host_fn([harness](Interpreter&, const std::vector<Value>&) {
              std::string out;
              for (const auto& d : harness->diagnoses()) {
                if (!d.provenance) continue;
                out += provenance::to_text(*d.provenance);
              }
              return Value(out);
            })},
           {"provenanceMode",
            make_host_fn([harness](Interpreter&, const std::vector<Value>&) {
              return Value(std::string(
                  provenance::to_string(harness->provenance_mode())));
            })},
           {"setProvenance",
            make_host_fn([harness](Interpreter&,
                                   const std::vector<Value>& a) {
              const std::string mode = arg_string(a, 0, "setProvenance");
              if (mode == "off") {
                harness->set_provenance(provenance::ProvenanceMode::kOff);
              } else if (mode == "rules") {
                harness->set_provenance(provenance::ProvenanceMode::kRules);
              } else if (mode == "full") {
                harness->set_provenance(provenance::ProvenanceMode::kFull);
              } else {
                throw InvalidArgumentError(
                    "setProvenance: expected 'off', 'rules', or 'full', got "
                    "'" + mode + "'");
              }
              return Value();
            })},
           // Session.diff(app, exp, base, current[, band]) asserts the
           // differential facts between two versions into the session
           // harness (pair with useGlobalRules("regression") +
           // processRules) and returns the comparison summary.
           {"diff",
            make_host_fn([harness, repo](Interpreter&,
                                         const std::vector<Value>& a) {
              analysis::DiffParams params{
                  arg_string(a, 0, "diff"), arg_string(a, 1, "diff"),
                  arg_string(a, 2, "diff"), arg_string(a, 3, "diff"), {}};
              if (a.size() > 4) params.options.noise_band = a[4].as_number();
              // Read-only, as pkx diff reads them: the summary views.
              const auto trials = analysis::resolve_diff(*repo, params);
              const auto s = analysis::assert_diff_facts(
                  *harness, *trials.base, *trials.current, params.options);
              return make_dict(
                  {{"comparedCells", Value(s.compared_cells)},
                   {"regressedCells", Value(s.regressed_cells)},
                   {"improvedCells", Value(s.improved_cells)},
                   {"skippedCells", Value(s.skipped_cells)},
                   {"missingEvents", Value(s.missing_events)},
                   {"addedEvents", Value(s.added_events)},
                   {"facts", Value(s.facts)}});
            })},
           // Session.setProfiling(true|false) flips the process-wide
           // rule-engine cost-attribution gate (rules/profiler.hpp).
           {"setProfiling",
            make_host_fn([](Interpreter&, const std::vector<Value>& a) {
              if (a.empty()) {
                throw EvalError("setProfiling: missing argument 1");
              }
              rules::set_profiling_enabled(a[0].is_bool()
                                               ? a[0].as_bool()
                                               : a[0].as_number() != 0.0);
              return Value(rules::profiling_enabled());
            })},
           // Session.ruleProfile() snapshots the harness's per-rule /
           // per-level cost attribution as nested dicts.
           {"ruleProfile",
            make_host_fn([harness](Interpreter&,
                                   const std::vector<Value>&) {
              const auto profile = harness->rule_profile();
              std::vector<Value> rules_out;
              for (const auto& r : profile.rules) {
                std::vector<Value> levels;
                for (std::size_t l = 0; l < r.levels.size(); ++l) {
                  const auto& lv = r.levels[l];
                  levels.push_back(make_dict(
                      {{"level", Value(l)},
                       {"admissions", Value(lv.admissions)},
                       {"probes", Value(lv.probes)},
                       {"hits", Value(lv.hits)},
                       {"liveTokens", Value(lv.live_tokens)},
                       {"deadTokens", Value(lv.dead_tokens)},
                       {"tokenBytes", Value(lv.token_bytes)}}));
                }
                rules_out.push_back(make_dict(
                    {{"rule", Value(r.name)},
                     {"matchUsec",
                      Value(static_cast<double>(r.match_ns) / 1000.0)},
                     {"firings", Value(r.firings)},
                     {"activations", Value(r.activations)},
                     {"bindings", Value(r.bindings)},
                     {"levels", make_list(std::move(levels))}}));
              }
              return make_dict(
                  {{"strategy", Value(profile.strategy)},
                   {"cycles", Value(profile.cycles)},
                   {"wmSize", Value(profile.wm_size)},
                   {"rules", make_list(std::move(rules_out))}});
            })}}));

  // ---- History (trial lineage) ----------------------------------------------
  interp_.set_global(
      "History",
      make_dict(
          {{"versions",
            make_host_fn([repo](Interpreter&, const std::vector<Value>& a) {
              std::vector<Value> out;
              for (const auto& v :
                   repo->history(arg_string(a, 0, "versions"),
                                 arg_string(a, 1, "versions"))) {
                out.emplace_back(v);
              }
              return make_list(std::move(out));
            })},
           {"predecessor",
            make_host_fn([repo](Interpreter&, const std::vector<Value>& a) {
              return Value(repo->predecessor_of(
                  arg_string(a, 0, "predecessor"),
                  arg_string(a, 1, "predecessor"),
                  arg_string(a, 2, "predecessor")));
            })}}));

  // ---- analysis helpers -----------------------------------------------------
  interp_.set_global(
      "correlateEvents",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        return Value(analysis::correlate_events(
            *r->trial, r->trial->event_id(a.at(1).as_string()),
            r->trial->event_id(a.at(2).as_string()), r->metric));
      }));
  interp_.set_global(
      "loadBalance",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        std::vector<Value> out;
        for (const auto& s :
             analysis::basic_statistics(*r->trial, r->metric)) {
          out.push_back(make_dict(
              {{"event", Value(s.name)},
               {"cv", Value(s.cv)},
               {"mean", Value(s.mean)},
               {"fraction", Value(analysis::runtime_fraction(
                                *r->trial, s.event, r->metric))}}));
        }
        return make_list(std::move(out));
      }));
  interp_.set_global(
      "topEvents",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        const auto n = static_cast<std::size_t>(a.at(1).as_number());
        std::vector<Value> out;
        for (const auto& s : analysis::top_events(*r->trial, r->metric, n)) {
          out.emplace_back(s.name);
        }
        return make_list(std::move(out));
      }));
  interp_.set_global(
      "assertLoadBalanceFacts",
      make_host_fn([harness](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        return Value(analysis::assert_load_balance_facts(*harness, *r->trial,
                                                         r->metric));
      }));
  interp_.set_global(
      "assertStallFacts",
      make_host_fn([harness](Interpreter&, const std::vector<Value>& a) {
        return Value(analysis::assert_stall_facts(
            *harness, *result_of(a.at(0))->trial));
      }));
  interp_.set_global(
      "assertMemoryLocalityFacts",
      make_host_fn([harness](Interpreter&, const std::vector<Value>& a) {
        return Value(analysis::assert_memory_locality_facts(
            *harness, *result_of(a.at(0))->trial));
      }));
  interp_.set_global(
      "assertScalingFacts",
      make_host_fn([harness](Interpreter&, const std::vector<Value>& a) {
        std::vector<perfdmf::TrialPtr> trials;
        for (const auto& v : *a.at(0).as_list()) {
          trials.push_back(trial_of(v)->trial);
        }
        analysis::ScalabilityAnalysis scaling(std::move(trials));
        return Value(analysis::assert_scaling_facts(*harness, scaling));
      }));
  interp_.set_global(
      "clusterThreads",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        const auto k = static_cast<std::size_t>(a.at(1).as_number());
        const auto c =
            analysis::cluster_threads(*r->trial, r->metric, k);
        std::vector<Value> assignment;
        for (const auto cl : c.assignment) {
          assignment.emplace_back(static_cast<double>(cl));
        }
        return make_dict({{"assignment", make_list(std::move(assignment))},
                          {"k", Value(c.k())},
                          {"inertia", Value(c.inertia)}});
      }));
  interp_.set_global(
      "pcaThreads",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        const auto k = static_cast<std::size_t>(a.at(1).as_number());
        const auto rows =
            analysis::thread_event_matrix(*r->trial, r->metric, false);
        const auto p = analysis::pca(rows, k);
        std::vector<Value> ratios;
        for (const double x : p.explained_ratio) ratios.emplace_back(x);
        std::vector<Value> projected;
        for (const auto& row : p.projected) {
          std::vector<Value> vals;
          for (const double x : row) vals.emplace_back(x);
          projected.push_back(make_list(std::move(vals)));
        }
        return make_dict(
            {{"explainedRatio", make_list(std::move(ratios))},
             {"projected", make_list(std::move(projected))}});
      }));
  interp_.set_global(
      "aggregateThreads",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        const bool mean = a.size() > 1 && a[1].truthy();
        auto trial = std::make_shared<profile::Trial>(
            analysis::aggregate_threads(*r->trial, mean));
        return make_result(trial, true, r->metric);
      }));
  interp_.set_global(
      "mergeTrials",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto x = result_of(a.at(0));
        const auto y = result_of(a.at(1));
        auto trial = std::make_shared<profile::Trial>(
            analysis::merge_trials(*x->trial, *y->trial));
        return make_result(trial, true, default_metric(*trial));
      }));
  interp_.set_global(
      "saveJson",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        io::save_trial(*trial_of(a.at(0))->trial,
                       arg_string(a, 1, "saveJson"), "json");
        return Value();
      }));
  interp_.set_global(
      "saveCsv",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        io::save_trial(*trial_of(a.at(0))->trial,
                       arg_string(a, 1, "saveCsv"), "csv");
        return Value();
      }));
  interp_.set_global(
      "estimatePower",
      make_host_fn([](Interpreter&, const std::vector<Value>& a) {
        const auto r = result_of(a.at(0));
        const auto& t = *r->trial;
        const auto model = power::PowerModel::itanium2();
        const auto per_cpu = mean_counters(t);
        const double watts =
            model.estimate(per_cpu).total_watts *
            static_cast<double>(t.thread_count());
        const double seconds =
            t.mean_inclusive(t.main_event(), t.metric_id("TIME")) / 1e6;
        const double joules = power::energy_joules(watts, seconds);
        const double flops =
            per_cpu.get(hwcounters::Counter::kFpOps) *
            static_cast<double>(t.thread_count());
        return make_dict(
            {{"watts", Value(watts)},
             {"joules", Value(joules)},
             {"seconds", Value(seconds)},
             {"flopPerJoule",
              Value(power::flops_per_joule(flops, joules))}});
      }));

  // ---- Telemetry (self-observation) ----------------------------------------
  // Telemetry.snapshot() closes the loop from inside a script: the
  // process's own spans/counters become a Trial host object that the rest
  // of this API (TrialMeanResult, saveTrial, assertSelfFacts +
  // useGlobalRules("self_diagnosis") + processRules) treats like any
  // ingested profile.
  interp_.set_global(
      "Telemetry",
      make_dict({
          {"snapshot",
           make_host_fn([](Interpreter&, const std::vector<Value>& a) {
             const std::string name =
                 a.empty() ? "perfknow.self" : a[0].as_string();
             return make_host_object(
                 "Trial", std::make_shared<TrialHandle>(TrialHandle{
                              std::make_shared<profile::Trial>(
                                  telemetry::to_trial(telemetry::snapshot(),
                                                      name))}));
           })},
          {"enabled",
           make_host_fn([](Interpreter&, const std::vector<Value>&) {
             return Value(telemetry::enabled());
           })},
          {"setEnabled",
           make_host_fn([](Interpreter&, const std::vector<Value>& a) {
             telemetry::set_enabled(a.at(0).truthy());
             return Value();
           })},
          {"reset",
           make_host_fn([](Interpreter&, const std::vector<Value>&) {
             telemetry::reset();
             return Value();
           })},
          {"assertSelfFacts",
           make_host_fn([harness](Interpreter&, const std::vector<Value>& a) {
             return Value(static_cast<double>(telemetry::assert_self_facts(
                 *harness, *trial_of(a.at(0))->trial)));
           })},
      }));
}

}  // namespace perfknow::script
