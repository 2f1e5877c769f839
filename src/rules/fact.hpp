// Facts and working memory for the inference engine.
//
// A fact mirrors a JBoss-Rules fact object: a type name plus named
// fields. The analysis layer asserts facts (e.g. MeanEventFact instances
// comparing each event to main); rules match on type and field
// constraints and may assert further facts, chaining inference forward.
//
// There is one write path into working memory, a row writer:
//   * FactSchema declares a fact type and its field names once, resolved
//     to Symbols in one memory's SymbolTable and kept name-ascending
//     (the row order every reader relies on);
//   * WorkingMemory::emit / RuleHarness::emit open a FactRow that writes
//     each value straight into the type's columns — no field-name
//     string, no sorted insert, no re-intern — and commit() appends the
//     slot. Committing with a field unset, or setting a field the schema
//     lacks, is an InvalidArgumentError naming the type and field.
//   * Fact is the builder for field sets only known at run time (rule
//     actions, PerfScript's assertFact, modify, tests): assert_fact
//     resolves a schema from its already-sorted fields and writes
//     through the same row writer.
// The READ side is FactRef, a handle (WorkingMemory + FactId) over the
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
#include <initializer_list>
#include <string>
#include <string_view>
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

/// The builder for facts whose field set is only known at run time.
/// Compose type + fields, hand it to WorkingMemory::assert_fact (which
/// writes it through the row writer), read it back through FactRef.
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
class FactRow;
class RuleHarness;
class WorkingMemory;

/// A fact type and its field names, declared once and resolved to
/// Symbols in one WorkingMemory's table. Rows written through a schema
/// keep its name-ascending field order, whatever order the fields were
/// declared in, so they read back exactly like a Fact with those fields.
/// Valid for the life of that memory (symbols survive clear()).
class FactSchema {
 public:
  /// Interns `type` and `fields` in `memory`'s table. Throws
  /// InvalidArgumentError naming the type and field on a duplicate.
  FactSchema(WorkingMemory& memory, std::string_view type,
             std::initializer_list<std::string_view> fields);

  [[nodiscard]] Symbol type() const noexcept { return type_; }
  [[nodiscard]] const std::string& type_name() const;
  [[nodiscard]] std::size_t field_count() const noexcept {
    return syms_.size();
  }

 private:
  friend class FactRow;
  friend class WorkingMemory;
  FactSchema(SymbolTable& symbols, const Fact& builder);
  void index_fields();
  /// Row position of `field`, or field_count() when the schema lacks
  /// it. `hint` is the declaration index to try first: writers that set
  /// fields in declaration order hit it with one compare.
  [[nodiscard]] std::size_t position(std::string_view field,
                                     std::size_t& hint) const noexcept;
  [[nodiscard]] const std::string& field_name(std::size_t pos) const;

  struct Declared {
    std::string_view name;  ///< view into the table's stable storage
    Symbol sym = kNoSymbol;
    std::uint32_t pos = 0;  ///< row position (name-ascending rank)
  };
  const SymbolTable* symbols_;
  Symbol type_;
  std::vector<Symbol> syms_;        ///< row order (name-ascending)
  std::vector<Declared> declared_;  ///< declaration order
};

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

  /// Declares a fact type and its fields in this memory; see FactSchema.
  [[nodiscard]] FactSchema schema(
      std::string_view type, std::initializer_list<std::string_view> fields) {
    return FactSchema(*this, type, fields);
  }
  /// Opens a row of `schema`'s type; the fact exists once the row is
  /// committed. One row may be open per memory at a time.
  [[nodiscard]] FactRow emit(const FactSchema& schema);
  /// Writes a run-time-shaped builder through the same row writer.
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
  friend class FactRow;
  friend class RuleHarness;

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

  /// The one function that appends a row: reserves `schema`'s field
  /// symbols and default values at the end of its type's columns.
  /// `harness`, when set, is notified of the committed fact.
  FactRow open_row(const FactSchema& schema, RuleHarness* harness);
  /// Gives an open row its id and slot (FactRow::commit).
  FactId commit_row(const FactRow& row);
  /// Drops an uncommitted row from its columns (~FactRow).
  void discard_row(const FactRow& row) noexcept;

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
  /// The open row's set flags, one per field (reused across rows).
  std::vector<std::uint8_t> row_set_;
  bool row_open_ = false;
};

/// One fact being written into working memory: each setter stores its
/// value in the row's column slot, commit() makes the fact live.
/// Destroying an uncommitted row discards it. The memory must not be
/// cleared while a row is open.
class FactRow {
 public:
  FactRow(const FactRow&) = delete;
  FactRow& operator=(const FactRow&) = delete;
  ~FactRow();

  FactRow& num(std::string_view field, double v) {
    slot(field).emplace<double>(v);
    return *this;
  }
  FactRow& str(std::string_view field, std::string v) {
    slot(field).emplace<std::string>(std::move(v));
    return *this;
  }
  FactRow& flag(std::string_view field, bool v) {
    slot(field).emplace<bool>(v);
    return *this;
  }

  /// Appends the fact and returns its id. Throws InvalidArgumentError
  /// naming the type and field when a field was never set.
  FactId commit();

 private:
  friend class WorkingMemory;
  FactRow(WorkingMemory& wm, const FactSchema& schema,
          WorkingMemory::TypeStore& store, std::uint32_t store_index,
          std::size_t begin, RuleHarness* harness) noexcept
      : wm_(&wm),
        schema_(&schema),
        store_(&store),
        store_index_(store_index),
        begin_(begin),
        harness_(harness) {}

  /// The value slot of `field`; throws InvalidArgumentError naming the
  /// type and field when the schema lacks it.
  FactValue& slot(std::string_view field);
  FactValue& slot_at(std::size_t pos) noexcept {
    wm_->row_set_[pos] = 1;
    return store_->values[begin_ + pos];
  }

  WorkingMemory* wm_;
  const FactSchema* schema_;
  WorkingMemory::TypeStore* store_;
  std::uint32_t store_index_;
  std::size_t begin_;
  RuleHarness* harness_;
  std::size_t hint_ = 0;
  bool open_ = true;
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
