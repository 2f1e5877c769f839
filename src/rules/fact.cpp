#include "rules/fact.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "rules/engine.hpp"

namespace perfknow::rules {

std::string to_display(const FactValue& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    // Integral values print without a decimal point, like Jython would.
    if (std::floor(*d) == *d && std::abs(*d) < 1e15) {
      return std::to_string(static_cast<long long>(*d));
    }
    return strings::format_double(*d, 4);
  }
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  return std::get<bool>(v) ? "true" : "false";
}

bool values_equal(const FactValue& a, const FactValue& b) {
  if (a.index() == b.index()) return a == b;
  // boolean <-> "true"/"false" convenience for the DSL.
  if (const auto* ab = std::get_if<bool>(&a)) {
    if (const auto* bs = std::get_if<std::string>(&b)) {
      return (*ab && *bs == "true") || (!*ab && *bs == "false");
    }
  }
  if (const auto* bb = std::get_if<bool>(&b)) {
    if (const auto* as = std::get_if<std::string>(&a)) {
      return (*bb && *as == "true") || (!*bb && *as == "false");
    }
  }
  return false;
}

bool values_less(const FactValue& a, const FactValue& b) {
  if (const auto* ad = std::get_if<double>(&a)) {
    if (const auto* bd = std::get_if<double>(&b)) return *ad < *bd;
    return false;
  }
  if (const auto* as = std::get_if<std::string>(&a)) {
    if (const auto* bs = std::get_if<std::string>(&b)) return *as < *bs;
    return false;
  }
  return false;
}

namespace {

// FNV-1a over bytes; tagged so numbers and strings can't collide by
// construction (a number's bit pattern vs. 8 string characters).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t hash_text(const char* s, std::size_t n) {
  std::uint64_t h = fnv1a(kFnvOffset, "s", 1);
  return fnv1a(h, s, n);
}

}  // namespace

std::uint64_t value_hash(const FactValue& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    double x = (*d == 0.0) ? 0.0 : *d;  // collapse -0.0 into +0.0
    std::uint64_t h = fnv1a(kFnvOffset, "n", 1);
    return fnv1a(h, &x, sizeof(x));
  }
  if (const auto* s = std::get_if<std::string>(&v)) {
    return hash_text(s->data(), s->size());
  }
  // Booleans hash as their string spellings so the DSL's bool <->
  // "true"/"false" equivalence lands in the same bucket.
  return std::get<bool>(v) ? hash_text("true", 4) : hash_text("false", 5);
}

// ---------------------------------------------------------------------------
// Fact (builder for run-time field sets)

Fact& Fact::set(const std::string& field, FactValue v) {
  const auto it = std::lower_bound(
      fields_.begin(), fields_.end(), field,
      [](const auto& entry, const std::string& name) {
        return entry.first < name;
      });
  if (it != fields_.end() && it->first == field) {
    it->second = std::move(v);
  } else {
    fields_.emplace(it, field, std::move(v));
  }
  return *this;
}

const FactValue* Fact::find_field(const std::string& field) const {
  // Facts hold a handful of fields; a sorted scan with early exit beats
  // binary search at this size and has no branch-misprediction cliff.
  for (const auto& [name, value] : fields_) {
    if (name == field) return &value;
    if (name > field) return nullptr;
  }
  return nullptr;
}

const FactValue& Fact::get(const std::string& field) const {
  if (const FactValue* v = find_field(field)) return *v;
  throw NotFoundError("fact " + type_ + " has no field '" + field + "'");
}

double Fact::number(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw EvalError("fact " + type_ + " field '" + field +
                  "' is not a number");
}

const std::string& Fact::text(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw EvalError("fact " + type_ + " field '" + field +
                  "' is not a string");
}

bool Fact::boolean(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  throw EvalError("fact " + type_ + " field '" + field +
                  "' is not a boolean");
}

std::string Fact::str() const {
  std::string out = type_ + "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out += ", ";
    first = false;
    out += k + "=" + to_display(v);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// FactRef (read-side handle)

const FactValue& FactRef::get(const std::string& field) const {
  if (const FactValue* v = find_field(field)) return *v;
  throw NotFoundError("fact " + type() + " has no field '" + field + "'");
}

double FactRef::number(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw EvalError("fact " + type() + " field '" + field +
                  "' is not a number");
}

const std::string& FactRef::text(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw EvalError("fact " + type() + " field '" + field +
                  "' is not a string");
}

bool FactRef::boolean(const std::string& field) const {
  const auto& v = get(field);
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  throw EvalError("fact " + type() + " field '" + field +
                  "' is not a boolean");
}

std::string FactRef::str() const {
  std::string out = type() + "{";
  bool first = true;
  for_each_field([&](const std::string& k, const FactValue& v) {
    if (!first) out += ", ";
    first = false;
    out += k + "=" + to_display(v);
  });
  return out + "}";
}

Fact FactRef::to_fact() const {
  Fact f(type());
  for_each_field([&](const std::string& k, const FactValue& v) {
    f.set(k, v);
  });
  return f;
}

// ---------------------------------------------------------------------------
// FactSchema

FactSchema::FactSchema(WorkingMemory& memory, std::string_view type,
                       std::initializer_list<std::string_view> fields)
    : symbols_(&memory.symbols()), type_(memory.symbols().intern(type)) {
  SymbolTable& symbols = memory.symbols();
  declared_.reserve(fields.size());
  for (const std::string_view f : fields) {
    const Symbol sym = symbols.intern(f);
    declared_.push_back(Declared{symbols.name(sym), sym, 0});
  }
  index_fields();
}

FactSchema::FactSchema(SymbolTable& symbols, const Fact& builder)
    : symbols_(&symbols), type_(symbols.intern(builder.type())) {
  declared_.reserve(builder.fields().size());
  for (const auto& field : builder.fields()) {
    const Symbol sym = symbols.intern(field.first);
    declared_.push_back(Declared{symbols.name(sym), sym, 0});
  }
  index_fields();
}

void FactSchema::index_fields() {
  // Rank the declared names: a row stores its fields name-ascending,
  // the order Fact::fields() and every reader of FactRef rely on.
  std::vector<std::uint32_t> order(declared_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](auto a, auto b) {
    return declared_[a].name < declared_[b].name;
  });
  syms_.reserve(order.size());
  for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
    const Declared& d = declared_[order[pos]];
    if (pos > 0 && declared_[order[pos - 1]].name == d.name) {
      throw InvalidArgumentError("fact schema " + type_name() +
                                 ": duplicate field '" +
                                 std::string(d.name) + "'");
    }
    declared_[order[pos]].pos = pos;
    syms_.push_back(d.sym);
  }
}

const std::string& FactSchema::type_name() const {
  return symbols_->name(type_);
}

const std::string& FactSchema::field_name(std::size_t pos) const {
  return symbols_->name(syms_[pos]);
}

std::size_t FactSchema::position(std::string_view field,
                                 std::size_t& hint) const noexcept {
  if (hint < declared_.size() && declared_[hint].name == field) {
    return declared_[hint++].pos;
  }
  for (std::size_t i = 0; i < declared_.size(); ++i) {
    if (declared_[i].name == field) {
      hint = i + 1;
      return declared_[i].pos;
    }
  }
  return declared_.size();
}

// ---------------------------------------------------------------------------
// FactRow (the row writer)

FactRow::~FactRow() {
  if (open_) wm_->discard_row(*this);
}

FactValue& FactRow::slot(std::string_view field) {
  const std::size_t pos = schema_->position(field, hint_);
  if (pos == schema_->field_count()) {
    throw InvalidArgumentError("fact " + schema_->type_name() +
                               " has no field '" + std::string(field) +
                               "' in its schema");
  }
  return slot_at(pos);
}

FactId FactRow::commit() {
  for (std::size_t pos = 0; pos < schema_->field_count(); ++pos) {
    if (wm_->row_set_[pos] == 0) {
      throw InvalidArgumentError("fact " + schema_->type_name() +
                                 ": field '" + schema_->field_name(pos) +
                                 "' was never set");
    }
  }
  const FactId id = wm_->commit_row(*this);
  open_ = false;
  if (harness_ != nullptr) harness_->on_asserted(id);
  return id;
}

// ---------------------------------------------------------------------------
// WorkingMemory (columnar store)

namespace {

const std::vector<FactId>& empty_ids() {
  static const std::vector<FactId> kEmpty;
  return kEmpty;
}

}  // namespace

FactRow WorkingMemory::emit(const FactSchema& schema) {
  return open_row(schema, nullptr);
}

FactRow WorkingMemory::open_row(const FactSchema& schema,
                                RuleHarness* harness) {
  if (schema.symbols_ != &symbols_) {
    throw InvalidArgumentError("fact schema " + schema.type_name() +
                               " was declared for another working memory");
  }
  if (row_open_) {
    throw InvalidArgumentError("fact " + schema.type_name() +
                               ": another fact row is still open");
  }
  const Symbol type = schema.type();
  if (type >= store_of_sym_.size()) store_of_sym_.resize(type + 1, 0);
  std::uint32_t sidx = store_of_sym_[type];
  if (sidx == 0) {
    stores_.emplace_back(arena_, type);
    sidx = static_cast<std::uint32_t>(stores_.size());
    store_of_sym_[type] = sidx;
  }
  TypeStore& store = stores_[sidx - 1];
  const std::size_t begin = store.field_syms.size();
  for (const Symbol field : schema.syms_) {
    store.field_syms.push_back(field);
    store.values.emplace_back();
  }
  row_set_.assign(schema.syms_.size(), 0);
  row_open_ = true;
  return FactRow(*this, schema, store, sidx - 1, begin, harness);
}

FactId WorkingMemory::commit_row(const FactRow& row) {
  const FactId id = next_++;
  Slot slot;
  slot.store = row.store_index_;
  slot.nfields = static_cast<std::uint32_t>(row.schema_->field_count());
  slot.begin = row.begin_;
  slot.live = true;
  row.store_->ids.push_back(id);  // ids are ascending, so append keeps order
  slots_.push_back(slot);
  ++live_;
  row_open_ = false;
  return id;
}

void WorkingMemory::discard_row(const FactRow& row) noexcept {
  row.store_->field_syms.truncate(row.begin_);
  row.store_->values.resize(row.begin_);
  row_open_ = false;
}

FactId WorkingMemory::assert_fact(Fact fact) {
  // The builder's fields are already name-sorted and unique, so they map
  // onto the schema's row positions one to one.
  const FactSchema schema(symbols_, fact);
  FactRow row = open_row(schema, nullptr);
  for (std::size_t pos = 0; pos < fact.fields_.size(); ++pos) {
    row.slot_at(pos) = std::move(fact.fields_[pos].second);
  }
  return row.commit();
}

bool WorkingMemory::retract(FactId id) {
  if (id < base_ || id >= next_) return false;
  Slot& slot = slots_[id - base_];
  if (!slot.live) return false;
  // O(1) tombstone: the per-type id list compacts itself on its next
  // probe (compact_ids), amortizing a retract wave into one sweep.
  slot.live = false;
  --live_;
  ++epoch_;
  stores_[slot.store].retract_epoch = epoch_;
  return true;
}

const WorkingMemory::TypeStore* WorkingMemory::store_of(
    Symbol type) const noexcept {
  if (type == kNoSymbol || type >= store_of_sym_.size()) return nullptr;
  const std::uint32_t sidx = store_of_sym_[type];
  return sidx == 0 ? nullptr : &stores_[sidx - 1];
}

void WorkingMemory::compact_ids(const TypeStore& store) const {
  if (store.ids_clean_epoch >= store.retract_epoch) return;
  auto& ids = store.ids;
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](FactId id) { return !is_live(id); }),
            ids.end());
  store.ids_clean_epoch = store.retract_epoch;
}

const std::vector<FactId>& WorkingMemory::ids_of_type(Symbol type) const {
  const TypeStore* store = store_of(type);
  if (store == nullptr) return empty_ids();
  compact_ids(*store);
  return store->ids;
}

const std::vector<FactId>& WorkingMemory::ids_of_type(
    const std::string& type) const {
  return ids_of_type(symbols_.lookup(type));
}

void WorkingMemory::clear() {
  slots_.clear();
  stores_.clear();
  store_of_sym_.clear();
  arena_.reset();  // recycles chunks; bumps the arena generation
  live_ = 0;
  base_ = next_;  // ids stay monotonic across clear()
  ++epoch_;
}

}  // namespace perfknow::rules
