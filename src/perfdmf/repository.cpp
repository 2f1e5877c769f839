#include "perfdmf/repository.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::perfdmf {

namespace {

constexpr std::size_t kShardCount = 16;

// FNV-1a over the trial coordinates; 0x1f separators keep ("a","bc")
// and ("ab","c") apart.
std::uint64_t coordinate_hash(const std::string& app, const std::string& exp,
                              const std::string& trial) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0x1f;
    h *= 0x100000001b3ull;
  };
  mix(app);
  mix(exp);
  mix(trial);
  return h;
}

std::string shard_dirname(std::size_t shard) {
  return "shard-" + std::string(shard < 10 ? "0" : "") +
         std::to_string(shard);
}

// Index lines are tab-separated: app, experiment, trial name, relative
// snapshot path. New snapshots are named "shard-NN/<name>_<hash>.pkb",
// where <hash> is the 64-bit coordinate hash in hex, so the name of a
// trial never depends on what else is stored. Older repositories carry
// ordinal names ("shard-NN/name_K.pkb", or "name_K.pkprof" in the legacy
// flat layout); those are read through the index and kept as they are.
std::string stable_filename(const std::string& app, const std::string& exp,
                            const std::string& trial) {
  const std::uint64_t h = coordinate_hash(app, exp, trial);
  std::string out =
      shard_dirname(static_cast<std::size_t>(h % kShardCount)) + "/";
  for (const char c : trial) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  char hash[20];
  std::snprintf(hash, sizeof hash, "_%016llx",
                static_cast<unsigned long long>(h));
  return out + hash;
}

// Tabs and line breaks would split an index or lineage row.
void check_name(const char* where, const char* field,
                const std::string& value) {
  if (value.find_first_of("\t\n\r") != std::string::npos) {
    throw InvalidArgumentError(std::string(where) + ": " + field +
                               " name must not contain a tab, newline or "
                               "carriage return");
  }
}

// Writes `text` to a sibling temp file of `file` and returns its path.
std::filesystem::path write_temp(const std::filesystem::path& file,
                                 const std::string& text) {
  const std::filesystem::path tmp = file.string() + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw IoError("cannot open for writing: " + tmp.string());
  }
  os << text;
  os.close();
  if (!os) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw IoError("write failed: " + tmp.string());
  }
  return tmp;
}

void rename_into_place(const std::filesystem::path& tmp,
                       const std::filesystem::path& dest) {
  std::error_code ec;
  std::filesystem::rename(tmp, dest, ec);
  if (ec) {
    throw IoError("cannot rename " + tmp.string() + " -> " + dest.string() +
                  ": " + ec.message());
  }
}

// Approximate in-memory footprint of a trial: the value columns dominate
// (two per metric plus the call counters).
std::size_t trial_charge(const profile::Trial& t) {
  return t.thread_count() * t.event_count() *
             (t.metric_count() * 2 + 2) * sizeof(double) +
         std::size_t{4096};
}

profile::Trial load_text_snapshot(const std::filesystem::path& file) {
  std::ifstream is(file);
  if (!is) {
    throw IoError("cannot open for reading: " + file.string());
  }
  try {
    return read_snapshot(is);
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(file.string());
    throw;
  }
}

void save_pkb_file(const profile::Trial& trial,
                   const std::filesystem::path& file) {
  std::ofstream os(file, std::ios::binary);
  if (!os) {
    throw IoError("cannot open for writing: " + file.string());
  }
  write_pkb(trial, os);
  if (!os) {
    throw IoError("write failed: " + file.string());
  }
}

}  // namespace

// One trial slot. `trial` is the resident trial; a non-resident entry
// holds only the backing file path and is reloaded on demand.
// `file`/`rel`/`pkb`/`pinned` are fixed once the entry is inserted; every
// other field is guarded by the repository cache mutex. Residency
// transitions (demand-loading `trial` from disk, get()'s private copy)
// are additionally serialized by the per-entry `load_mutex` so the
// expensive open/parse runs with the cache mutex released; `load_mutex`
// is always acquired before — never while holding — the cache mutex.
struct Repository::Entry {
  std::mutex load_mutex;  ///< serializes demand-loads of this entry
  TrialPtr trial;
  /// The image whose COLS CRC is known good: checked by verify_columns,
  /// or verified before the trial was inserted. Holding it keeps the
  /// pointer from being reused by another image.
  std::shared_ptr<const std::string_view> verified_image;
  std::filesystem::path file;  ///< backing snapshot; empty for put() trials
  std::string rel;             ///< `file` as index.tsv names it
  bool pkb = false;
  bool pinned = false;  ///< never evicted, never charged
  /// put() since open, or handed out mutable by get(): the next save()
  /// rewrites the snapshot. Never cleared — the holder may keep editing.
  bool dirty = false;
  std::size_t charge = 0;
  std::uint64_t last_used = 0;
};

struct Repository::Cache {
  mutable std::mutex mutex;
  std::size_t budget = Repository::kDefaultCacheBudget;
  std::size_t resident = 0;
  std::uint64_t tick = 0;
};

Repository::Repository() : cache_(std::make_unique<Cache>()) {}
Repository::Repository(Repository&&) noexcept = default;
Repository& Repository::operator=(Repository&&) noexcept = default;
Repository::~Repository() = default;

void Repository::put(const std::string& application,
                     const std::string& experiment, TrialPtr trial) {
  if (!trial) {
    throw InvalidArgumentError("Repository::put: null trial");
  }
  check_name("Repository::put", "application", application);
  check_name("Repository::put", "experiment", experiment);
  check_name("Repository::put", "trial", trial->name());
  auto entry = std::make_shared<Entry>();
  entry->pinned = true;
  entry->dirty = true;
  entry->verified_image = trial->image();  // the caller's trial is trusted
  std::string name = trial->name();
  entry->trial = std::move(trial);
  insert_entry(application, experiment, name, std::move(entry));
}

void Repository::put_version(const std::string& application,
                             const std::string& experiment, TrialPtr trial,
                             const std::string& predecessor) {
  if (!trial) {
    throw InvalidArgumentError("Repository::put_version: null trial");
  }
  check_name("Repository::put_version", "application", application);
  check_name("Repository::put_version", "experiment", experiment);
  check_name("Repository::put_version", "trial", trial->name());
  check_name("Repository::put_version", "predecessor", predecessor);
  auto& chain = lineage_[application][experiment];
  std::string pred = predecessor;
  if (pred.empty() && !chain.empty()) pred = chain.back().version;
  if (pred == trial->name()) {
    throw InvalidArgumentError("Repository::put_version: trial '" +
                               trial->name() +
                               "' cannot be its own predecessor");
  }
  trial->set_metadata("version.predecessor", pred);
  const std::string name = trial->name();
  put(application, experiment, std::move(trial));
  // Re-putting an existing version moves it to the head of the chain.
  for (auto it = chain.begin(); it != chain.end(); ++it) {
    if (it->version == name) {
      chain.erase(it);
      break;
    }
  }
  chain.push_back(VersionLink{name, pred});
}

std::vector<std::string> Repository::history(
    const std::string& application, const std::string& experiment) const {
  // trials() validates the coordinates (throws NotFoundError).
  std::vector<std::string> all = trials(application, experiment);
  const auto a = lineage_.find(application);
  if (a == lineage_.end()) return all;
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) return all;
  std::vector<std::string> out;
  out.reserve(all.size());
  for (const auto& link : e->second) out.push_back(link.version);
  // Unlinked trials (pre-lineage ingests) follow the chain in name order.
  for (const auto& name : all) {
    bool linked = false;
    for (const auto& link : e->second) {
      if (link.version == name) {
        linked = true;
        break;
      }
    }
    if (!linked) out.push_back(name);
  }
  return out;
}

std::string Repository::predecessor_of(const std::string& application,
                                       const std::string& experiment,
                                       const std::string& version) const {
  // Validates the coordinates (throws on an unknown version).
  (void)find_entry(application, experiment, version);
  const auto a = lineage_.find(application);
  if (a == lineage_.end()) return "";
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) return "";
  for (const auto& link : e->second) {
    if (link.version == version) return link.predecessor;
  }
  return "";
}

std::vector<std::string> Repository::prune_history(
    const std::string& application, const std::string& experiment,
    std::size_t keep) {
  const auto a = lineage_.find(application);
  if (a == lineage_.end()) return {};
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) return {};
  auto& chain = e->second;
  std::vector<std::string> removed;
  while (chain.size() > keep) {
    const std::string victim = chain.front().version;
    removed.push_back(victim);
    // erase() splices the chain: the survivor becomes the new root.
    erase(application, experiment, victim);
  }
  return removed;
}

void Repository::insert_entry(const std::string& application,
                              const std::string& experiment,
                              const std::string& trial, EntryPtr entry) {
  auto& slot = store_[application][experiment][trial];
  if (slot) {
    // A re-put trial is rewritten to the snapshot it replaces (a legacy
    // ordinal name included), so no orphan is left behind.
    if (entry->rel.empty() && slot->pkb && !slot->rel.empty()) {
      entry->file = slot->file;
      entry->rel = slot->rel;
      entry->pkb = true;
    }
    // `charge` is guarded by the cache mutex: read and settle it under
    // the same lock so a concurrent load can't skew the accounting.
    const std::lock_guard lock(cache_->mutex);
    cache_->resident -= slot->charge;
  }
  slot = std::move(entry);
}

const Repository::EntryPtr& Repository::find_entry(
    const std::string& application, const std::string& experiment,
    const std::string& trial) const {
  const auto a = store_.find(application);
  if (a == store_.end()) {
    throw NotFoundError("no application '" + application + "'");
  }
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) {
    throw NotFoundError("application '" + application +
                        "' has no experiment '" + experiment + "'");
  }
  const auto t = e->second.find(trial);
  if (t == e->second.end()) {
    throw NotFoundError("experiment '" + application + "/" + experiment +
                        "' has no trial '" + trial + "'");
  }
  return t->second;
}

void Repository::touch_locked(Entry& entry) const {
  entry.last_used = ++cache_->tick;
}

void Repository::charge_locked(Entry& entry, std::size_t bytes) const {
  if (entry.pinned) return;
  entry.charge += bytes;
  cache_->resident += bytes;
}

void Repository::evict_to_budget_locked() const {
  while (cache_->resident > cache_->budget) {
    Entry* victim = nullptr;
    for (const auto& [app, exps] : store_) {
      for (const auto& [exp, trs] : exps) {
        for (const auto& [name, entry] : trs) {
          if (entry->pinned || entry->charge == 0) continue;
          if (victim == nullptr || entry->last_used < victim->last_used) {
            victim = entry.get();
          }
        }
      }
    }
    if (victim == nullptr) return;  // nothing evictable left
    static telemetry::Counter& evictions =
        telemetry::counter("perfdmf.repository.cache.eviction");
    evictions.add();
    // Dropping our references is safe: callers that still hold the
    // shared_ptr keep the trial (and its mapping) alive.
    victim->trial.reset();
    victim->verified_image.reset();
    cache_->resident -= victim->charge;
    victim->charge = 0;
  }
}

TrialPtr Repository::load_entry(Entry& entry) const {
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry.trial) {
      touch_locked(entry);
      return entry.trial;
    }
  }
  static const telemetry::SpanSite site("perfdmf.load_trial");
  telemetry::ScopedSpan span(site);
  // The open/mmap/schema parse runs with the cache unlocked; holding the
  // entry's load mutex guarantees no other thread loads this entry, so
  // publishing below cannot clobber a concurrent load.
  const auto trial = std::make_shared<profile::Trial>(
      entry.pkb ? open_pkb(entry.file, Verify::kSchema)
                : load_text_snapshot(entry.file));
  const std::lock_guard lock(cache_->mutex);
  entry.trial = trial;
  charge_locked(entry, trial_charge(*trial));
  touch_locked(entry);
  evict_to_budget_locked();
  return trial;
}

void Repository::verify_columns(Entry& entry,
                                const profile::Trial& trial) const {
  const auto& image = trial.image();
  if (!image) return;  // owned columns have nothing to check
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry.verified_image == image) return;
  }
  try {
    verify_pkb_columns(trial);
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(entry.file.string());
    throw;
  }
  const std::lock_guard lock(cache_->mutex);
  entry.verified_image = image;
}

namespace {

// Cache hit/miss accounting shared by get() and view(). The hit rate
// these feed (telemetry "perfdmf.repository.cache.hit_rate") is what the
// shipped self_diagnosis rules judge, so a hit is strictly "served from
// the already-resident trial, without opening its snapshot".
telemetry::Counter& cache_hits() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.repository.cache.hit");
  return c;
}
telemetry::Counter& cache_misses() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.repository.cache.miss");
  return c;
}

}  // namespace

TrialPtr Repository::get(const std::string& application,
                         const std::string& experiment,
                         const std::string& trial) const {
  const EntryPtr& entry = find_entry(application, experiment, trial);
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry->trial) {
      touch_locked(*entry);
      cache_hits().add();
      if (entry->dirty) return entry->trial;
    } else {
      cache_misses().add();
    }
  }
  const std::lock_guard load(entry->load_mutex);
  const TrialPtr resident = load_entry(*entry);
  verify_columns(*entry, *resident);
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry->dirty && entry->trial) return entry->trial;
  }
  // Readers may hold the resident trial: hand out a private copy, which
  // borrows the same verified snapshot until it is first written.
  auto mine = std::make_shared<profile::Trial>(*resident);
  const std::lock_guard lock(cache_->mutex);
  if (!entry->trial) {
    charge_locked(*entry, trial_charge(*mine));  // evicted meanwhile
  }
  entry->trial = mine;
  entry->dirty = true;
  touch_locked(*entry);
  return mine;
}

ConstTrialPtr Repository::view(const std::string& application,
                               const std::string& experiment,
                               const std::string& trial) const {
  const EntryPtr& entry = find_entry(application, experiment, trial);
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry->trial) {
      touch_locked(*entry);
      cache_hits().add();
      return entry->trial;
    }
  }
  cache_misses().add();
  const std::lock_guard load(entry->load_mutex);
  return load_entry(*entry);
}

ConstTrialPtr Repository::verified_view(const std::string& application,
                                        const std::string& experiment,
                                        const std::string& trial) const {
  const EntryPtr& entry = find_entry(application, experiment, trial);
  ConstTrialPtr out = view(application, experiment, trial);
  verify_columns(*entry, *out);
  return out;
}

bool Repository::contains(const std::string& application,
                          const std::string& experiment,
                          const std::string& trial) const noexcept {
  const auto a = store_.find(application);
  if (a == store_.end()) return false;
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) return false;
  return e->second.count(trial) != 0;
}

bool Repository::erase(const std::string& application,
                       const std::string& experiment,
                       const std::string& trial) {
  const auto a = store_.find(application);
  if (a == store_.end()) return false;
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) return false;
  const auto t = e->second.find(trial);
  if (t == e->second.end()) return false;
  {
    const std::lock_guard lock(cache_->mutex);
    cache_->resident -= t->second->charge;
  }
  e->second.erase(t);
  // Splice the trial out of any lineage chain: its successor inherits
  // its predecessor, so history() never names a trial that is gone.
  if (const auto la = lineage_.find(application); la != lineage_.end()) {
    if (const auto le = la->second.find(experiment);
        le != la->second.end()) {
      auto& chain = le->second;
      for (auto it = chain.begin(); it != chain.end(); ++it) {
        if (it->version != trial) continue;
        const std::string pred = it->predecessor;
        chain.erase(it);
        for (auto& link : chain) {
          if (link.predecessor == trial) link.predecessor = pred;
        }
        break;
      }
    }
  }
  return true;
}

std::vector<std::string> Repository::applications() const {
  std::vector<std::string> out;
  out.reserve(store_.size());
  for (const auto& [name, _] : store_) out.push_back(name);
  return out;
}

std::vector<std::string> Repository::experiments(
    const std::string& application) const {
  const auto a = store_.find(application);
  if (a == store_.end()) {
    throw NotFoundError("no application '" + application + "'");
  }
  std::vector<std::string> out;
  out.reserve(a->second.size());
  for (const auto& [name, _] : a->second) out.push_back(name);
  return out;
}

std::vector<std::string> Repository::trials(
    const std::string& application, const std::string& experiment) const {
  const auto a = store_.find(application);
  if (a == store_.end()) {
    throw NotFoundError("no application '" + application + "'");
  }
  const auto e = a->second.find(experiment);
  if (e == a->second.end()) {
    throw NotFoundError("application '" + application +
                        "' has no experiment '" + experiment + "'");
  }
  std::vector<std::string> out;
  out.reserve(e->second.size());
  for (const auto& [name, _] : e->second) out.push_back(name);
  return out;
}

std::vector<TrialPtr> Repository::experiment_trials(
    const std::string& application, const std::string& experiment) const {
  std::vector<TrialPtr> out;
  for (const auto& name : trials(application, experiment)) {
    out.push_back(get(application, experiment, name));
  }
  return out;
}

std::size_t Repository::trial_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [_, exps] : store_) {
    for (const auto& [__, trs] : exps) n += trs.size();
  }
  return n;
}

void Repository::set_cache_budget(std::size_t bytes) {
  const std::lock_guard lock(cache_->mutex);
  cache_->budget = bytes;
  evict_to_budget_locked();
}

std::size_t Repository::cached_bytes() const {
  const std::lock_guard lock(cache_->mutex);
  return cache_->resident;
}

std::size_t Repository::resident_trials() const {
  const std::lock_guard lock(cache_->mutex);
  std::size_t n = 0;
  for (const auto& [_, exps] : store_) {
    for (const auto& [__, trs] : exps) {
      for (const auto& [___, entry] : trs) {
        if (entry->trial) ++n;
      }
    }
  }
  return n;
}

void Repository::save(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  for (std::size_t s = 0; s < kShardCount; ++s) {
    std::filesystem::create_directories(dir / shard_dirname(s));
  }
  // Snapshots already in `dir` are reused; anywhere else they are copies.
  std::error_code same_ec;
  const bool home =
      !root_.empty() && std::filesystem::equivalent(root_, dir, same_ec);

  struct Row {
    const std::string& app;
    const std::string& exp;
    const std::string& name;
    Entry& entry;
    std::string rel;  ///< empty until a new name is assigned
    bool write = true;
  };
  std::vector<Row> rows;
  std::set<std::string> taken;
  for (const auto& [app, exps] : store_) {
    for (const auto& [exp, trs] : exps) {
      for (const auto& [tname, entry] : trs) {
        Row row{app, exp, tname, *entry, "", true};
        if (home && entry->pkb) {
          // Kept in place; rewritten (through a temp file) only if dirty.
          const std::lock_guard lock(cache_->mutex);
          row.rel = entry->rel;
          row.write = entry->dirty;
          taken.insert(row.rel);
        }
        rows.push_back(std::move(row));
      }
    }
  }
  // New names are assigned after every kept path is known, so a fresh
  // snapshot never lands on a file another entry still owns.
  for (Row& row : rows) {
    if (!row.rel.empty()) continue;
    const std::string base = stable_filename(row.app, row.exp, row.name);
    row.rel = base + ".pkb";
    for (int n = 1; !taken.insert(row.rel).second; ++n) {
      row.rel = base + "-" + std::to_string(n) + ".pkb";
    }
  }
  for (const Row& row : rows) {
    if (row.write) save_entry(row.entry, dir / row.rel);
  }

  // The index and lineage go out last, each through a temp file, so the
  // old pair stays in place until every snapshot it will name exists.
  std::ostringstream index;
  for (const Row& row : rows) {
    index << row.app << '\t' << row.exp << '\t' << row.name << '\t'
          << row.rel << '\n';
  }
  // Lineage rows: app, experiment, version, predecessor (possibly
  // empty), tab-separated, chain order preserved.
  std::ostringstream lineage;
  for (const auto& [app, exps] : lineage_) {
    for (const auto& [exp, chain] : exps) {
      for (const auto& link : chain) {
        lineage << app << '\t' << exp << '\t' << link.version << '\t'
                << link.predecessor << '\n';
      }
    }
  }
  const std::filesystem::path index_file = dir / "index.tsv";
  const std::filesystem::path lineage_file = dir / "lineage.tsv";
  const std::filesystem::path index_tmp = write_temp(index_file, index.str());
  std::filesystem::path lineage_tmp;
  if (!lineage.str().empty()) {
    try {
      lineage_tmp = write_temp(lineage_file, lineage.str());
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove(index_tmp, ec);
      throw;
    }
  }
  rename_into_place(index_tmp, index_file);
  if (lineage_tmp.empty()) {
    // Saving a lineage-free repository over an old directory must not
    // leave a stale chain behind.
    std::error_code ec;
    std::filesystem::remove(lineage_file, ec);
  } else {
    rename_into_place(lineage_tmp, lineage_file);
  }
}

void Repository::save_entry(Entry& entry,
                            const std::filesystem::path& dest) const {
  const std::lock_guard load(entry.load_mutex);
  const TrialPtr trial = load_entry(entry);
  // A lazily opened snapshot's COLS CRC was skipped at open; check it
  // now: write_pkb re-signs the payload with fresh CRCs, which must not
  // turn a corrupt snapshot into a valid-looking one.
  verify_columns(entry, *trial);
  // The snapshot is written to a sibling temp file and renamed into
  // place: the write never truncates `dest` itself, so saving an
  // attached repository back into its own directory cannot destroy the
  // file whose live mapping is being streamed out (the old inode stays
  // mapped until the trial drops it), and a failed write leaves no torn
  // snapshot behind.
  const std::filesystem::path tmp = dest.string() + ".tmp";
  try {
    save_pkb_file(*trial, tmp);
    rename_into_place(tmp, dest);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  const std::lock_guard lock(cache_->mutex);
  touch_locked(entry);
  evict_to_budget_locked();
}

Repository Repository::open_index(const std::filesystem::path& dir,
                                  bool eager, ThreadPool* pool,
                                  std::size_t cache_budget) {
  std::ifstream index(dir / "index.tsv");
  if (!index) {
    throw IoError("cannot read index: " + (dir / "index.tsv").string());
  }
  struct Row {
    std::string app, exp, name, rel;
    std::filesystem::path file;
    bool pkb;
  };
  std::vector<Row> rows;
  std::string line;
  int lineno = 0;
  while (std::getline(index, line)) {
    ++lineno;
    if (strings::trim(line).empty()) continue;
    const auto fields = strings::split(line, '\t');
    if (fields.size() != 4) {
      throw ParseError("repository index: expected 4 fields", lineno);
    }
    // The index is untrusted input: a snapshot path must stay inside the
    // repository, or a load would read (and a save write) outside it.
    const std::filesystem::path rel(fields[3]);
    const bool escapes =
        rel.empty() || rel.has_root_path() ||
        std::any_of(rel.begin(), rel.end(),
                    [](const std::filesystem::path& part) {
                      return part == "..";
                    });
    if (escapes) {
      throw ParseError("repository index: snapshot path '" + fields[3] +
                           "' is not inside the repository",
                       lineno, 0, "", (dir / "index.tsv").string());
    }
    rows.push_back(Row{fields[0], fields[1], fields[2], fields[3], dir / rel,
                       rel.extension() == ".pkb"});
  }

  Repository repo;
  repo.cache_->budget = cache_budget;
  repo.root_ = dir;
  if (eager) {
    // Fan the per-snapshot parsing (the expensive part) across the pool;
    // a failure surfaces deterministically as the lowest row's exception.
    std::vector<TrialPtr> loaded(rows.size());
    const auto load_row = [&](std::size_t i) {
      const Row& row = rows[i];
      loaded[i] = std::make_shared<profile::Trial>(
          row.pkb ? open_pkb(row.file, Verify::kFull)
                  : load_text_snapshot(row.file));
    };
    if (pool != nullptr) {
      pool->parallel_for(rows.size(), load_row);
    } else {
      for (std::size_t i = 0; i < rows.size(); ++i) load_row(i);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (loaded[i]->name() != rows[i].name) {
        throw ParseError("repository index: trial name mismatch for '" +
                         rows[i].file.filename().string() + "'");
      }
      auto entry = std::make_shared<Entry>();
      entry->pinned = true;
      entry->verified_image = loaded[i]->image();  // opened with kFull
      entry->trial = std::move(loaded[i]);
      entry->file = rows[i].file;
      entry->rel = rows[i].rel;
      entry->pkb = rows[i].pkb;
      repo.insert_entry(rows[i].app, rows[i].exp, rows[i].name,
                        std::move(entry));
    }
  } else {
    for (const Row& row : rows) {
      auto entry = std::make_shared<Entry>();
      entry->file = row.file;
      entry->rel = row.rel;
      entry->pkb = row.pkb;
      repo.insert_entry(row.app, row.exp, row.name, std::move(entry));
    }
  }

  // Lineage is optional (repositories written before it existed have no
  // lineage.tsv) and is read for both eager and attached repositories —
  // it never touches the snapshots, so attach() stays lazy. Links naming
  // trials absent from the index are dropped silently: the chain is
  // advisory metadata, not a second source of truth.
  std::ifstream lineage(dir / "lineage.tsv");
  if (lineage) {
    lineno = 0;
    while (std::getline(lineage, line)) {
      ++lineno;
      if (strings::trim(line).empty()) continue;
      const auto fields = strings::split(line, '\t');
      if (fields.size() != 4) {
        throw ParseError("repository lineage: expected 4 fields", lineno);
      }
      if (!repo.contains(fields[0], fields[1], fields[2])) continue;
      repo.lineage_[fields[0]][fields[1]].push_back(
          VersionLink{fields[2], fields[3]});
    }
  }
  return repo;
}

Repository Repository::load(const std::filesystem::path& dir) {
  return open_index(dir, /*eager=*/true, nullptr, kDefaultCacheBudget);
}

Repository Repository::load(const std::filesystem::path& dir,
                            ThreadPool& pool) {
  return open_index(dir, /*eager=*/true, &pool, kDefaultCacheBudget);
}

Repository Repository::attach(const std::filesystem::path& dir,
                              std::size_t cache_budget) {
  return open_index(dir, /*eager=*/false, nullptr, cache_budget);
}

}  // namespace perfknow::perfdmf
