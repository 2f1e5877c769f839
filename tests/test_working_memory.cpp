// Tests for the columnar WorkingMemory: the symbol interner, arena
// lifecycle across clear(), FactRef handle semantics, lazy id-list
// compaction under interleaved retracts, for_each_live, and the
// differential guarantee that the SoA read side (FactRef) renders
// byte-identically to the AoS write side (the Fact builder) — both as
// str() and through kFull provenance JSON across both matchers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "provenance/explanation.hpp"
#include "rules/engine.hpp"
#include "rules/fact.hpp"
#include "rules/parser.hpp"
#include "rules/symbol.hpp"

namespace pk = perfknow;
using pk::rules::Fact;
using pk::rules::FactId;
using pk::rules::FactRef;
using pk::rules::FactValue;
using pk::rules::kNoSymbol;
using pk::rules::MatchStrategy;
using pk::rules::RuleHarness;
using pk::rules::Symbol;
using pk::rules::SymbolTable;
using pk::rules::WorkingMemory;

// ---------------------------------------------------------------------------
// Symbol interner
// ---------------------------------------------------------------------------

TEST(SymbolTable, InternsDenseIdsAndRoundTrips) {
  SymbolTable t;
  const std::size_t builtins = t.size();
  ASSERT_GT(builtins, 0u);

  const Symbol a = t.intern("userField");
  const Symbol b = t.intern("anotherField");
  EXPECT_EQ(a, builtins);      // dense: first new name gets the next id
  EXPECT_EQ(b, builtins + 1);
  EXPECT_EQ(t.intern("userField"), a);  // idempotent
  EXPECT_EQ(t.name(a), "userField");
  EXPECT_EQ(t.lookup("userField"), a);
  EXPECT_EQ(t.lookup("neverInterned"), kNoSymbol);
  EXPECT_EQ(t.size(), builtins + 2);
}

TEST(SymbolTable, ShippedVocabularyIsPreInterned) {
  SymbolTable t;
  const std::size_t builtins = t.size();
  // Names the shipped rulebases match on must not grow the table.
  for (const char* name :
       {"MeanEventFact", "LoadBalanceFact", "CorrelationFact", "metric",
        "severity", "eventName", "factType"}) {
    EXPECT_LT(t.lookup(name), builtins) << name;
  }
  EXPECT_EQ(t.size(), builtins);
  // Every builtin round-trips and ids are dense [0, size).
  std::set<Symbol> seen;
  for (const std::string_view n : SymbolTable::builtin_names()) {
    const Symbol s = t.lookup(n);
    ASSERT_NE(s, kNoSymbol) << n;
    EXPECT_EQ(t.name(s), n);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), builtins);
}

TEST(SymbolTable, UserNamesCollidingWithBuiltinsReuseTheBuiltinId) {
  SymbolTable t;
  const Symbol shipped = t.lookup("MeanEventFact");
  ASSERT_NE(shipped, kNoSymbol);
  EXPECT_EQ(t.intern("MeanEventFact"), shipped);
}

// ---------------------------------------------------------------------------
// Arena lifecycle and clear()
// ---------------------------------------------------------------------------

TEST(WorkingMemoryColumnar, ClearResetsArenaGenerationAndRecyclesChunks) {
  WorkingMemory wm;
  const auto gen0 = wm.arena_generation();
  for (int i = 0; i < 1000; ++i) {
    wm.assert_fact(Fact("MeanEventFact")
                       .set("metric", "TIME")
                       .set("severity", static_cast<double>(i)));
  }
  const auto reserved = wm.arena_bytes();
  ASSERT_GT(reserved, 0u);
  const FactId last = wm.last_id();

  wm.clear();
  EXPECT_EQ(wm.arena_generation(), gen0 + 1);
  EXPECT_EQ(wm.size(), 0u);
  EXPECT_FALSE(wm.find(last));  // handles must not straddle a reset
  EXPECT_TRUE(wm.ids_of_type("MeanEventFact").empty());

  // Chunks are recycled, not freed: refilling to the same volume must
  // not grow the reservation.
  for (int i = 0; i < 1000; ++i) {
    wm.assert_fact(Fact("MeanEventFact")
                       .set("metric", "TIME")
                       .set("severity", static_cast<double>(i)));
  }
  EXPECT_EQ(wm.arena_bytes(), reserved);
  // Ids stay monotonic across clear(): recency comparisons never lie.
  EXPECT_GT(wm.ids_of_type("MeanEventFact").front(), last);
}

TEST(WorkingMemoryColumnar, InternedSymbolsSurviveClear) {
  WorkingMemory wm;
  wm.assert_fact(Fact("CustomFact").set("customField", 1.0));
  const Symbol type = wm.symbols().lookup("CustomFact");
  const Symbol field = wm.symbols().lookup("customField");
  ASSERT_NE(type, kNoSymbol);
  wm.clear();
  EXPECT_EQ(wm.symbols().lookup("CustomFact"), type);
  EXPECT_EQ(wm.symbols().lookup("customField"), field);
}

// ---------------------------------------------------------------------------
// FactRef handles
// ---------------------------------------------------------------------------

TEST(WorkingMemoryColumnar, FactRefLifetimeAcrossAssertRetractModify) {
  WorkingMemory wm;
  const FactId a =
      wm.assert_fact(Fact("ScalingFact").set("event", "main").set("eff", 0.9));
  const FactRef ref = wm.find(a);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.id(), a);
  EXPECT_EQ(ref.type(), "ScalingFact");
  EXPECT_EQ(ref.field_count(), 2u);
  EXPECT_DOUBLE_EQ(ref.number("eff"), 0.9);
  EXPECT_EQ(ref.text("event"), "main");
  EXPECT_EQ(ref.find_field("absent"), nullptr);
  EXPECT_THROW((void)ref.get("absent"), pk::NotFoundError);
  EXPECT_THROW((void)ref.number("event"), pk::EvalError);

  // Handles stay valid across unrelated asserts (columns are chunked,
  // addresses stable).
  for (int i = 0; i < 100; ++i) {
    wm.assert_fact(Fact("ScalingFact").set("event", "fill"));
  }
  EXPECT_EQ(ref.text("event"), "main");

  // Retract invalidates lookup; modify re-asserts under a fresh id.
  EXPECT_TRUE(wm.retract(a));
  EXPECT_FALSE(wm.find(a));
  EXPECT_FALSE(wm.retract(a));  // double retract is a no-op

  const FactId b = wm.assert_fact(ref.to_fact().set("eff", 0.5));
  EXPECT_GT(b, wm.last_id() - 1);
  const FactRef mod = wm.find(b);
  EXPECT_EQ(mod.text("event"), "main");  // carried over by to_fact()
  EXPECT_DOUBLE_EQ(mod.number("eff"), 0.5);
}

TEST(WorkingMemoryColumnar, ForEachLiveVisitsAscendingAndSkipsRetracted) {
  WorkingMemory wm;
  std::vector<FactId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(wm.assert_fact(
        Fact(i % 2 ? "A" : "B").set("i", static_cast<double>(i))));
  }
  wm.retract(ids[3]);
  wm.retract(ids[7]);

  std::vector<FactId> seen;
  wm.for_each_live([&](const FactRef& f) { seen.push_back(f.id()); });
  std::vector<FactId> expected;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 3 && i != 7) expected.push_back(ids[i]);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(wm.size(), expected.size());
}

// ---------------------------------------------------------------------------
// Lazy id-list compaction under interleaved retracts
// ---------------------------------------------------------------------------

TEST(WorkingMemoryColumnar, IdsOfTypeCompactAfterInterleavedRetracts) {
  WorkingMemory wm;
  std::vector<FactId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(wm.assert_fact(
        Fact("MeanEventFact")
            .set("metric", i % 2 ? "TIME" : "CACHE")
            .set("severity", static_cast<double>(i % 5))));
  }
  EXPECT_EQ(wm.ids_of_type("MeanEventFact"), ids);

  // Retract a prefix, assert more, retract from the middle — the next
  // probe must compact tombstones AND keep the late row.
  wm.retract(ids[0]);
  wm.retract(ids[1]);
  const FactId late = wm.assert_fact(
      Fact("MeanEventFact").set("metric", "TIME").set("severity", 9.0));
  wm.retract(ids[10]);

  std::vector<FactId> expected(ids.begin() + 2, ids.end());
  expected.erase(expected.begin() + 8);  // ids[10]
  expected.push_back(late);
  const auto& all = wm.ids_of_type("MeanEventFact");
  EXPECT_EQ(all, expected);
  for (const FactId id : all) EXPECT_TRUE(wm.find(id)) << id;

  // The Symbol-keyed overload answers identically to the string one.
  EXPECT_EQ(wm.ids_of_type(wm.symbols().lookup("MeanEventFact")), all);
}

// ---------------------------------------------------------------------------
// AoS/SoA differential: builder vs FactRef rendering
// ---------------------------------------------------------------------------

TEST(WorkingMemoryColumnar, FactRefRendersByteIdenticalToBuilder) {
  const auto make = [] {
    return Fact("OverheadFact")
        .set("zeta", "last")
        .set("alpha", 1.25)
        .set("flag", true)
        .set("note", std::string("mixed"))
        .set("count", 42.0);
  };
  const Fact builder = make();
  WorkingMemory wm;
  const FactId id = wm.assert_fact(make());
  const FactRef ref = wm.find(id);
  ASSERT_TRUE(ref);

  EXPECT_EQ(ref.str(), builder.str());

  // Field iteration order and values match the builder exactly.
  std::vector<std::pair<std::string, FactValue>> cols;
  ref.for_each_field([&](const std::string& k, const FactValue& v) {
    cols.emplace_back(k, v);
  });
  ASSERT_EQ(cols.size(), builder.fields().size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(cols[i].first, builder.fields()[i].first);
    EXPECT_TRUE(pk::rules::values_equal(cols[i].second,
                                        builder.fields()[i].second));
  }
  // And to_fact() round-trips to the same rendering.
  EXPECT_EQ(ref.to_fact().str(), builder.str());
}

namespace {

// Runs the same two-pattern join under one strategy with kFull
// provenance and returns every diagnosis's explanation JSON.
std::string provenance_json_for(MatchStrategy strategy) {
  static const std::string kSrc = R"RULES(
    rule "High Stall"
      salience 10
      when
        m : MeanEventFact( e : eventName, severity > 0.2,
                           metric == "STALL", factType == "Compared to Main" )
        l : LoadBalanceFact( eventName == e, d : deviation )
      then
        assert(SummaryFact(eventName = e, deviation = d))
        diagnose(problem = "stall-imbalance", event = e,
                 severity = m.severity,
                 recommendation = "stalls and imbalance on " + e)
    end
  )RULES";
  RuleHarness h;
  h.set_provenance(pk::provenance::ProvenanceMode::kFull);
  h.set_match_strategy(strategy);
  pk::rules::add_rules(h, kSrc, "wm_diff.rules");
  for (const char* ev : {"jacobi", "exchange", "reduce"}) {
    h.assert_fact(Fact("MeanEventFact")
                      .set("eventName", ev)
                      .set("severity", ev[0] == 'r' ? 0.1 : 0.4)
                      .set("metric", "STALL")
                      .set("factType", "Compared to Main"));
    h.assert_fact(Fact("LoadBalanceFact")
                      .set("eventName", ev)
                      .set("deviation", 0.33));
  }
  h.process_rules();
  std::string json;
  for (const auto& d : h.diagnoses()) {
    if (d.provenance) json += pk::provenance::to_json(*d.provenance) + "\n";
  }
  EXPECT_FALSE(json.empty());
  return json;
}

}  // namespace

TEST(WorkingMemoryColumnar, ProvenanceJsonByteIdenticalAcrossStrategies) {
  const std::string naive = provenance_json_for(MatchStrategy::kNaive);
  EXPECT_EQ(provenance_json_for(MatchStrategy::kBeta), naive);
  // kFull snapshots must carry the matched fields through FactRef.
  EXPECT_NE(naive.find("\"factType\""), std::string::npos);
  EXPECT_NE(naive.find("jacobi"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FactSchema and the row writer
// ---------------------------------------------------------------------------

namespace {

// Runs `fn`, which must throw InvalidArgumentError, and returns what().
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const pk::InvalidArgumentError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgumentError";
  return {};
}

}  // namespace

TEST(FactSchema, EmittedRowReadsBackLikeTheBuilder) {
  // Declared out of name order: rows still store fields name-ascending.
  WorkingMemory wm;
  const pk::rules::FactSchema schema(wm, "OverheadFact",
                                     {"zeta", "alpha", "flag", "count"});
  const FactId id = wm.emit(schema)
                        .str("zeta", "last")
                        .num("alpha", 1.25)
                        .flag("flag", true)
                        .num("count", 42.0)
                        .commit();
  const Fact builder = Fact("OverheadFact")
                           .set("zeta", "last")
                           .set("alpha", 1.25)
                           .set("flag", true)
                           .set("count", 42.0);
  const FactRef ref = wm.find(id);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.str(), builder.str());
  EXPECT_EQ(ref.field_count(), 4u);
  EXPECT_EQ(ref.type_symbol(), wm.symbols().lookup("OverheadFact"));
  // A builder with the same fields lands in the same columns.
  const FactId next = wm.assert_fact(builder);
  EXPECT_EQ(next, id + 1);
  EXPECT_EQ(wm.find(next).str(), ref.str());
  EXPECT_EQ(wm.ids_of_type("OverheadFact"), (std::vector<FactId>{id, next}));
}

TEST(FactSchema, DuplicateFieldIsRejectedNamingTypeAndField) {
  WorkingMemory wm;
  const std::string what = invalid_argument_message([&] {
    const pk::rules::FactSchema schema(wm, "DupFact",
                                       {"value", "name", "value"});
  });
  EXPECT_NE(what.find("DupFact"), std::string::npos) << what;
  EXPECT_NE(what.find("'value'"), std::string::npos) << what;
}

TEST(FactSchema, UnsetFieldAtCommitIsRejectedAndTheRowDiscarded) {
  RuleHarness h;
  h.set_provenance(pk::provenance::ProvenanceMode::kFull);
  const auto schema = h.schema("PairFact", {"left", "right"});
  const std::string what = invalid_argument_message(
      [&] { h.emit(schema).num("left", 1.0).commit(); });
  EXPECT_NE(what.find("PairFact"), std::string::npos) << what;
  EXPECT_NE(what.find("'right'"), std::string::npos) << what;
  // Nothing was asserted, and the columns hold no trace of the row:
  // the next fact of the type reads back whole.
  EXPECT_EQ(h.memory().size(), 0u);
  const FactId id =
      h.emit(schema).num("left", 2.0).num("right", 3.0).commit();
  EXPECT_EQ(h.memory().find(id).str(), "PairFact{left=2, right=3}");
  EXPECT_EQ(h.memory().ids_of_type("PairFact"), std::vector<FactId>{id});
}

TEST(FactSchema, UnknownFieldIsRejectedNamingTypeAndField) {
  WorkingMemory wm;
  const pk::rules::FactSchema schema(wm, "PairFact", {"left", "right"});
  const std::string what = invalid_argument_message([&] {
    wm.emit(schema).num("left", 1.0).num("middle", 2.0).num("right", 3.0)
        .commit();
  });
  EXPECT_NE(what.find("PairFact"), std::string::npos) << what;
  EXPECT_NE(what.find("'middle'"), std::string::npos) << what;
  EXPECT_EQ(wm.size(), 0u);
}

TEST(FactSchema, RowsAreWrittenOneAtATimeIntoTheirOwnMemory) {
  WorkingMemory wm;
  WorkingMemory other;
  const pk::rules::FactSchema schema(wm, "PairFact", {"left", "right"});
  EXPECT_NE(invalid_argument_message([&] { (void)other.emit(schema); })
                .find("PairFact"),
            std::string::npos);
  auto open = wm.emit(schema);
  EXPECT_NE(invalid_argument_message([&] { (void)wm.emit(schema); })
                .find("still open"),
            std::string::npos);
  open.num("left", 1.0).num("right", 2.0).commit();
  EXPECT_EQ(wm.size(), 1u);
}
