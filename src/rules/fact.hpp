// Facts and working memory for the inference engine.
//
// A Fact mirrors a JBoss-Rules fact object: a type name plus named
// fields. The analysis layer asserts facts (e.g. MeanEventFact instances
// comparing each event to main); rules match on type and field
// constraints and may assert further facts, chaining inference forward.
//
// Fact is the WRITE-side builder only: callers compose a type name and
// name-sorted fields, and assert_fact decomposes it into columns. The
// READ side is FactRef, a handle (WorkingMemory + FactId) over the
// columnar store — no `const Fact*` crosses a module boundary, because
// after assertion no Fact object exists to point at.
//
// WorkingMemory is a columnar store in the spirit of the on-disk PKB:
//   * a per-memory SymbolTable interns fact types and field names into
//     dense uint32 Symbols (shipped vocabulary pre-interned), so type
//     dispatch is an integer compare and field lookup a small-int scan;
//   * facts live as structure-of-arrays rows in per-type stores — an
//     arena-backed column of field Symbols plus a parallel deque of
//     FactValues (values need destructors and stable addresses, so they
//     stay out of the arena) — and a global arena-backed slot column
//     maps FactId to its row, so clear() is an arena reset;
//   * retract is O(1): the slot is tombstoned and a per-type retract
//     epoch bumped; the per-type id list compacts dead ids on the first
//     probe after a retract, amortizing k retracts into one linear
//     sweep instead of k vector erases.
//
// There is no per-(field, value) index here: the beta network keeps its
// own alpha memories and hash-join buckets, and the naive oracle scans.
// Ids are monotonically increasing and double as the recency ordering
// the beta network's per-type watermarks slice on; retract/clear bump a
// mutation epoch that the beta network uses to invalidate memoized join
// state.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/arena.hpp"
#include "rules/symbol.hpp"

namespace perfknow::rules {

using FactValue = std::variant<double, std::string, bool>;

/// Renders a value the way rule actions print it (numbers without
/// trailing zeros, booleans as true/false).
[[nodiscard]] std::string to_display(const FactValue& v);

/// Field-equality comparison used by constraint evaluation: numbers
/// compare numerically, strings lexically; a number never equals a
/// string; booleans compare as booleans and also match the strings
/// "true"/"false" (convenient in the DSL).
[[nodiscard]] bool values_equal(const FactValue& a, const FactValue& b);

/// Ordering for </<=/>/>=: numeric when both are numbers, lexicographic
/// when both are strings; mixed comparisons are always false.
[[nodiscard]] bool values_less(const FactValue& a, const FactValue& b);

/// Canonical hash of a value whose equality classes are exactly those
/// of values_equal: numbers hash on their (sign-normalized) bit
/// pattern, strings on their text, booleans as "true"/"false" text.
/// Allocation-free; the beta network's join buckets key on this.
[[nodiscard]] std::uint64_t value_hash(const FactValue& v);

/// The write-side fact builder. Compose type + fields, hand it to
/// WorkingMemory::assert_fact (which decomposes it into columns), read
/// it back through FactRef.
class Fact {
 public:
  /// Name-sorted (ascending) field storage; iteration order matches the
  /// former std::map representation.
  using Fields = std::vector<std::pair<std::string, FactValue>>;

  explicit Fact(std::string type) : type_(std::move(type)) {}

  [[nodiscard]] const std::string& type() const noexcept { return type_; }

  Fact& set(const std::string& field, FactValue v);
  Fact& set(const std::string& field, double v) {
    return set(field, FactValue(v));
  }
  Fact& set(const std::string& field, const char* v) {
    return set(field, FactValue(std::string(v)));
  }
  Fact& set(const std::string& field, std::string v) {
    return set(field, FactValue(std::move(v)));
  }
  Fact& set(const std::string& field, bool v) {
    return set(field, FactValue(v));
  }

  [[nodiscard]] bool has(const std::string& field) const {
    return find_field(field) != nullptr;
  }
  /// Throws NotFoundError when absent.
  [[nodiscard]] const FactValue& get(const std::string& field) const;
  /// Non-copying lookup; nullptr when absent. THE field accessor — the
  /// old copying try_get is gone.
  [[nodiscard]] const FactValue* find_field(const std::string& field) const;
  /// Typed accessors; throw EvalError on type mismatch.
  [[nodiscard]] double number(const std::string& field) const;
  [[nodiscard]] const std::string& text(const std::string& field) const;
  [[nodiscard]] bool boolean(const std::string& field) const;

  [[nodiscard]] const Fields& fields() const noexcept { return fields_; }

  /// "Type{field=value, ...}" for logs and test failures.
  [[nodiscard]] std::string str() const;

 private:
  friend class WorkingMemory;  // assert_fact moves field values out
  std::string type_;
  Fields fields_;
};

using FactId = std::uint64_t;

class FactRef;

/// The set of asserted facts. Ids are stable, ascending in assertion
/// order, and never reused — so "asserted after fact X" is simply
/// "id > X", which the beta network's watermarks exploit.
///
/// Not copyable or movable: FactRef handles and the arena-backed
/// columns hold interior pointers.
class WorkingMemory {
 public:
  WorkingMemory() : slots_(arena_) {}
  WorkingMemory(const WorkingMemory&) = delete;
  WorkingMemory& operator=(const WorkingMemory&) = delete;

  FactId assert_fact(Fact fact);
  /// Returns false when the id is unknown (already retracted). O(1):
  /// tombstones the slot; id lists compact lazily on their next probe.
  bool retract(FactId id);

  /// Handle to a live fact; a null (falsy) FactRef when the id is
  /// unknown or retracted. The handle stays valid until the fact is
  /// retracted or the memory cleared/destroyed.
  [[nodiscard]] FactRef find(FactId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Visits every live fact in ascending id (assertion) order. The
  /// no-copy replacement for the old ids() snapshot; `fn` must not
  /// mutate this memory.
  template <typename Fn>
  void for_each_live(Fn&& fn) const;

  /// Ids of live facts of one type, ascending. The reference stays valid
  /// until the next assert/retract/clear.
  [[nodiscard]] const std::vector<FactId>& ids_of_type(
      const std::string& type) const;
  [[nodiscard]] const std::vector<FactId>& ids_of_type(Symbol type) const;

  /// Highest id ever asserted (0 before the first assert). Facts
  /// asserted later compare greater — the matcher's recency watermark.
  [[nodiscard]] FactId last_id() const noexcept { return next_ - 1; }

  /// Bumped by every retract() that removes a fact and by clear().
  /// Memoizing matchers compare this against the epoch they last swept
  /// at: unchanged epoch means every previously seen fact is still live.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    return epoch_;
  }

  /// The per-memory interner. Matchers compile rule-referenced names to
  /// Symbols through this at add_rule time.
  [[nodiscard]] SymbolTable& symbols() noexcept { return symbols_; }
  [[nodiscard]] const SymbolTable& symbols() const noexcept {
    return symbols_;
  }

  /// Arena bytes backing the slot and field-symbol columns (telemetry).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.bytes_reserved();
  }
  /// Bumped by clear(); tests assert handles don't straddle resets.
  [[nodiscard]] std::uint64_t arena_generation() const noexcept {
    return arena_.generation();
  }

  /// Drops all facts and resets the arena (chunks are recycled, not
  /// freed). Interned symbols survive — spellings are session-stable.
  void clear();

 private:
  friend class FactRef;

  /// FactId -> row: which per-type store, where the row begins, how
  /// many fields, and whether the fact is still live.
  struct Slot {
    std::uint32_t store = 0;
    std::uint32_t nfields = 0;
    std::size_t begin = 0;
    bool live = false;
  };

  struct TypeStore {
    TypeStore(Arena& arena, Symbol type) : type_sym(type), field_syms(arena) {}

    Symbol type_sym;
    /// Live ids ascending, possibly with tombstones; compacted on probe
    /// when ids_clean_epoch trails retract_epoch.
    mutable std::vector<FactId> ids;
    mutable std::uint64_t ids_clean_epoch = 0;
    /// epoch_ value of the last retract that hit this type.
    std::uint64_t retract_epoch = 0;
    /// Row-major field symbols for every fact of this type ever
    /// asserted; row order is the builder's name-ascending order.
    Column<Symbol> field_syms;
    /// Parallel values; deque for stable addresses (find_field returns
    /// interior pointers).
    std::deque<FactValue> values;
  };

  [[nodiscard]] bool is_live(FactId id) const noexcept {
    return id >= base_ && id < next_ && slots_[id - base_].live;
  }
  [[nodiscard]] const TypeStore* store_of(Symbol type) const noexcept;
  void compact_ids(const TypeStore& store) const;

  Arena arena_;
  SymbolTable symbols_;
  // Dense id -> row map: slot i holds id base_ + i. clear() keeps ids
  // monotonic by advancing base_ instead of resetting next_.
  Column<Slot> slots_;
  std::deque<TypeStore> stores_;                // stable TypeStore addresses
  std::vector<std::uint32_t> store_of_sym_;     // Symbol -> store index + 1
  FactId base_ = 1;
  FactId next_ = 1;
  std::size_t live_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Handle-based read view of one live fact: the unit that crosses
/// module boundaries (matchers, provenance snapshots, script bindings,
/// tests) instead of `const Fact*`. Trivially copyable; valid until the
/// fact is retracted or the owning WorkingMemory cleared/destroyed.
class FactRef {
 public:
  /// Null handle; operator bool distinguishes it from a live fact.
  FactRef() = default;

  [[nodiscard]] explicit operator bool() const noexcept {
    return wm_ != nullptr;
  }
  [[nodiscard]] FactId id() const noexcept { return id_; }

  [[nodiscard]] const std::string& type() const noexcept {
    return wm_->symbols_.name(store_->type_sym);
  }
  [[nodiscard]] Symbol type_symbol() const noexcept {
    return store_->type_sym;
  }
  [[nodiscard]] std::size_t field_count() const noexcept { return nfields_; }

  /// Non-copying lookup; nullptr when absent. The Symbol overload is
  /// the matchers' hot path: an integer scan over the row's symbol
  /// column, no hashing.
  [[nodiscard]] const FactValue* find_field(Symbol field) const noexcept {
    for (std::uint32_t j = 0; j < nfields_; ++j) {
      if (store_->field_syms[begin_ + j] == field) {
        return &store_->values[begin_ + j];
      }
    }
    return nullptr;
  }
  [[nodiscard]] const FactValue* find_field(const std::string& field) const {
    const Symbol s = wm_->symbols_.lookup(field);
    return s == kNoSymbol ? nullptr : find_field(s);
  }

  [[nodiscard]] bool has(const std::string& field) const {
    return find_field(field) != nullptr;
  }
  /// Throws NotFoundError when absent.
  [[nodiscard]] const FactValue& get(const std::string& field) const;
  /// Typed accessors; throw EvalError on type mismatch.
  [[nodiscard]] double number(const std::string& field) const;
  [[nodiscard]] const std::string& text(const std::string& field) const;
  [[nodiscard]] bool boolean(const std::string& field) const;

  /// Visits fields as (const std::string& name, const FactValue& value)
  /// in the builder's name-ascending order — byte-compatible with
  /// iterating Fact::fields().
  template <typename Fn>
  void for_each_field(Fn&& fn) const {
    for (std::uint32_t j = 0; j < nfields_; ++j) {
      fn(wm_->symbols_.name(store_->field_syms[begin_ + j]),
         store_->values[begin_ + j]);
    }
  }

  /// "Type{field=value, ...}", byte-identical to Fact::str().
  [[nodiscard]] std::string str() const;

  /// Materializes a builder copy (e.g. to modify-and-reassert).
  [[nodiscard]] Fact to_fact() const;

  friend bool operator==(const FactRef& a, const FactRef& b) noexcept {
    return a.wm_ == b.wm_ && a.id_ == b.id_;
  }
  friend bool operator!=(const FactRef& a, const FactRef& b) noexcept {
    return !(a == b);
  }

 private:
  friend class WorkingMemory;
  FactRef(const WorkingMemory* wm, const WorkingMemory::TypeStore* store,
          FactId id, std::size_t begin, std::uint32_t nfields) noexcept
      : wm_(wm), store_(store), id_(id), begin_(begin), nfields_(nfields) {}

  const WorkingMemory* wm_ = nullptr;
  const WorkingMemory::TypeStore* store_ = nullptr;
  FactId id_ = 0;
  std::size_t begin_ = 0;
  std::uint32_t nfields_ = 0;
};

inline FactRef WorkingMemory::find(FactId id) const {
  if (id < base_ || id >= next_) return {};
  const Slot& slot = slots_[id - base_];
  if (!slot.live) return {};
  return FactRef(this, &stores_[slot.store], id, slot.begin, slot.nfields);
}

template <typename Fn>
void WorkingMemory::for_each_live(Fn&& fn) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.live) continue;
    fn(FactRef(this, &stores_[slot.store], base_ + i, slot.begin,
               slot.nfields));
  }
}

}  // namespace perfknow::rules
