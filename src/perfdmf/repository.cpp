#include "perfdmf/repository.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/thread_pool.hpp"
#include "perfdmf/durable.hpp"
#include "perfdmf/index_format.hpp"
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

// A new snapshot's path: stable_filename + ".pkb", or the first "-<n>"
// variant that `taken` does not hold.
template <class Taken>
std::string snapshot_name(const std::string& app, const std::string& exp,
                          const std::string& trial, const Taken& taken) {
  const std::string base = stable_filename(app, exp, trial);
  std::string rel = base + ".pkb";
  for (int n = 1; taken.count(rel) != 0; ++n) {
    rel = base + "-" + std::to_string(n) + ".pkb";
  }
  return rel;
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

// Lineage rows: app, experiment, version, predecessor (possibly empty),
// tab-separated, one per line. Index rows are append_index_row's.
void append_lineage_row(std::string& out, const std::string& a,
                        const std::string& b, const std::string& c,
                        const std::string& d) {
  out.append(a).append(1, '\t').append(b).append(1, '\t').append(c);
  out.append(1, '\t').append(d).append(1, '\n');
}

// A writer of `bytes`, which must outlive it.
std::function<void(std::ostream&)> text(const std::string& bytes) {
  return [&bytes](std::ostream& os) { os << bytes; };
}

// Writes `file`'s new bytes to a sibling temp file and returns its path.
std::filesystem::path write_temp(
    const std::filesystem::path& file,
    const std::function<void(std::ostream&)>& write) {
  const std::filesystem::path tmp = file.string() + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw IoError("cannot open for writing: " + tmp.string());
  }
  write(os);
  os.close();
  if (!os) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw IoError("write failed: " + tmp.string());
  }
  return tmp;
}

// Renames `tmp` over `dest`; on failure removes `tmp` and throws.
void rename_into_place(const std::filesystem::path& tmp,
                       const std::filesystem::path& dest) {
  std::error_code ec;
  std::filesystem::rename(tmp, dest, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    throw IoError("cannot rename " + tmp.string() + " -> " + dest.string() +
                  ": " + why);
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

/// Runs one of the index_format.hpp parsers, naming `file` in its
/// diagnostics.
template <typename Parse>
auto parse_table(Parse&& parse, std::string_view text,
                 const std::filesystem::path& file) {
  try {
    return parse(text);
  } catch (const ParseError& e) {
    throw e.with_file(file.string());
  }
}

// The ParseError for an index record that disagrees with its snapshot:
// `what` gives both values; the error names `dir`'s index.tsv and the
// row's line.
ParseError index_mismatch(const std::filesystem::path& dir,
                          const std::string& what, int line) {
  return ParseError("repository index: " + what, line)
      .with_file((dir / "index.tsv").string());
}

std::string shape_text(const TrialRecord& r) {
  return std::to_string(r.threads) + " threads, " + std::to_string(r.events) +
         " events, " + std::to_string(r.metrics) + " metrics";
}

// Throws index_mismatch when the trial just opened from `rel` is not the
// one its row (at `line`) names, or has another shape or total than the
// row records. Opening checked what the total reads (the summary, or the
// cells of a snapshot without one).
void check_opened(const std::filesystem::path& dir, const std::string& name,
                  const std::string& rel,
                  const std::optional<TrialRecord>& row, int line,
                  const profile::Trial& opened) {
  if (opened.name() != name) {
    throw index_mismatch(dir,
                         "row names trial '" + name + "', but its snapshot " +
                             rel + " holds trial '" + opened.name() + "'",
                         line);
  }
  if (!row) return;
  const TrialRecord record = record_of(opened);
  if (row->threads != record.threads || row->events != record.events ||
      row->metrics != record.metrics) {
    throw index_mismatch(dir,
                         "trial '" + opened.name() + "' has " +
                             shape_text(record) +
                             " in its snapshot, but its row says " +
                             shape_text(*row),
                         line);
  }
  if (!same_record(*row, record)) {
    throw index_mismatch(dir,
                         "trial '" + opened.name() + "' has total " +
                             total_field(record.total) +
                             " in its snapshot, but its row says " +
                             total_field(row->total),
                         line);
  }
}

telemetry::Counter& snapshots_opened() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.snapshot.opened");
  return c;
}

}  // namespace

// One trial slot. `trial` is the resident trial; a non-resident entry
// holds only the backing file path and is reloaded on demand. Every
// field but `load_mutex` is guarded by the repository cache mutex.
// Demand-loading `trial` and save()'s record of where it wrote
// (`file`/`rel`/`pkb`, which commit() reads under the repository guard
// alone) also hold the per-entry `load_mutex`, so the expensive
// open/parse/write runs with the cache mutex released; `load_mutex` is
// always acquired before — never while holding — the cache mutex.
struct Repository::Entry {
  std::mutex load_mutex;  ///< serializes demand-loads of this entry
  TrialPtr trial;
  /// The image whose COLS are known good: checked by verify_entry, or
  /// verified before the trial was inserted. Holding it keeps the
  /// pointer from being reused by another image.
  std::shared_ptr<const std::string_view> verified_image;
  std::filesystem::path file;  ///< backing snapshot; empty for put() trials
  std::string rel;             ///< `file` as index.tsv names it
  bool pkb = false;
  /// put() since open: the trial exists only in memory, and the next
  /// save() rewrites its snapshot.
  bool dirty = false;
  /// The index record: read from index.tsv, or computed from the trial
  /// that commit(), save() or load() wrote or read. Empty for a row
  /// written before records existed, until a save() fills it in.
  std::optional<TrialRecord> record;
  /// index.tsv line of the row opening the snapshot is checked against;
  /// 0 once this process wrote the snapshot itself.
  int line = 0;
  std::size_t charge = 0;
  std::uint64_t last_used = 0;
};

struct Repository::Cache {
  mutable std::mutex mutex;
  std::size_t budget = Repository::kDefaultCacheBudget;
  std::size_t resident = 0;
  std::uint64_t tick = 0;

  // commit() bookkeeping. `commit_mutex` guards the two sets and is
  // never held while waiting for anything else.
  std::mutex commit_mutex;
  std::condition_variable commit_done;
  /// Experiments with a commit in flight: one at a time each.
  std::set<std::pair<std::string, std::string>> committing;
  /// Snapshot paths those commits write, not yet in the store.
  std::set<std::string> writing;
  /// Commits inserted so far; guarded by the exclusive repository lock.
  std::uint64_t inserted = 0;
  std::mutex index_mutex;  ///< orders the index and lineage writes
  std::uint64_t indexed = 0;  ///< commits the index on disk names
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
  const std::string pred = stamp_predecessor("Repository::put_version",
                                             application, experiment, *trial,
                                             predecessor);
  const std::string name = trial->name();
  put(application, experiment, std::move(trial));
  link_version(application, experiment, name, pred);
}

std::string Repository::stamp_predecessor(
    const char* where, const std::string& application,
    const std::string& experiment, profile::Trial& trial,
    const std::string& predecessor) const {
  std::string pred = predecessor;
  if (pred.empty()) {
    if (const auto a = lineage_.find(application); a != lineage_.end()) {
      if (const auto e = a->second.find(experiment);
          e != a->second.end() && !e->second.empty()) {
        pred = e->second.back().version;
      }
    }
  }
  if (pred == trial.name()) {
    throw InvalidArgumentError(std::string(where) + ": trial '" +
                               trial.name() +
                               "' cannot be its own predecessor");
  }
  trial.set_metadata("version.predecessor", pred);
  return pred;
}

void Repository::link_version(const std::string& application,
                              const std::string& experiment,
                              const std::string& version,
                              const std::string& predecessor) {
  auto& chain = lineage_[application][experiment];
  // Re-putting an existing version moves it to the head of the chain.
  for (auto it = chain.begin(); it != chain.end(); ++it) {
    if (it->version == version) {
      chain.erase(it);
      break;
    }
  }
  chain.push_back(VersionLink{version, predecessor});
}

void Repository::commit(const std::string& application,
                        const std::string& experiment, TrialPtr trial,
                        std::shared_mutex& guard, bool version,
                        const std::string& predecessor) {
  if (!trial) {
    throw InvalidArgumentError("Repository::commit: null trial");
  }
  if (root_.empty()) {
    throw InvalidArgumentError(
        "Repository::commit: the repository has no directory");
  }
  check_name("Repository::commit", "application", application);
  check_name("Repository::commit", "experiment", experiment);
  check_name("Repository::commit", "trial", trial->name());
  check_name("Repository::commit", "predecessor", predecessor);
  const std::string name = trial->name();
  // One commit per experiment at a time: its chain head must not move
  // between resolving the predecessor and linking the new version.
  // Commits to other experiments write their snapshots meanwhile.
  const auto experiment_key = std::make_pair(application, experiment);
  std::string rel;
  {
    std::unique_lock lock(cache_->commit_mutex);
    cache_->commit_done.wait(lock, [&] {
      return cache_->committing.count(experiment_key) == 0;
    });
    cache_->committing.insert(experiment_key);
  }
  struct Done {
    Cache& cache;
    const std::pair<std::string, std::string>& key;
    const std::string& rel;
    ~Done() {
      {
        const std::lock_guard lock(cache.commit_mutex);
        cache.committing.erase(key);
        cache.writing.erase(rel);
      }
      cache.commit_done.notify_all();
    }
  } done{*cache_, experiment_key, rel};

  // 1. Resolve the lineage link and the snapshot path.
  std::string pred;
  {
    const std::shared_lock read(guard);
    if (version) {
      pred = stamp_predecessor("Repository::commit", application, experiment,
                               *trial, predecessor);
    }
    const std::lock_guard lock(cache_->commit_mutex);
    rel = commit_path(application, experiment, name);
    cache_->writing.insert(rel);
  }

  // 2. The snapshot, with no repository lock held.
  const std::filesystem::path file = root_ / rel;
  std::error_code ec;
  std::filesystem::create_directories(file.parent_path(), ec);
  if (ec) {
    throw IoError("cannot create directory " +
                  file.parent_path().string() + ": " + ec.message());
  }
  {
    static const telemetry::SpanSite site("perfdmf.commit.snapshot");
    telemetry::ScopedSpan span(site);
    detail::write_durably(
        {{file, [&](std::ostream& os) { write_pkb(*trial, os); }}});
  }

  // 3. The entry is built whole before it is inserted: it is backed by
  //    the file just written, so it is charged and evictable like any
  //    demand-loaded entry and needs no save().
  auto entry = std::make_shared<Entry>();
  entry->file = file;
  entry->rel = rel;
  entry->pkb = true;
  entry->verified_image = trial->image();  // the caller's trial is trusted
  entry->record = record_of(*trial);
  const std::size_t charge = trial_charge(*trial);
  entry->trial = std::move(trial);
  std::uint64_t mine = 0;
  {
    Dropped dropped;
    std::unique_lock write(guard, std::defer_lock);
    {
      static const telemetry::SpanSite site("perfdmf.commit.lock_wait");
      telemetry::ScopedSpan span(site);
      write.lock();
    }
    Entry& e = *entry;
    insert_entry(application, experiment, name, std::move(entry));
    if (version) link_version(application, experiment, name, pred);
    mine = ++cache_->inserted;
    const std::lock_guard lock(cache_->mutex);
    charge_locked(e, charge);
    touch_locked(e);
    evict_to_budget_locked(dropped);
  }

  // 4. Lineage first, then the index: the index names the snapshot, so
  //    its rename is the commit point (lineage links naming trials the
  //    index lacks are dropped when the directory is opened). Commits
  //    that finish together share one write (a group commit): every
  //    entry the rendered text names was inserted after its snapshot was
  //    durable.
  static const telemetry::SpanSite index_site("perfdmf.commit.index");
  telemetry::ScopedSpan span(index_site);
  const std::lock_guard order(cache_->index_mutex);
  if (cache_->indexed >= mine) return;
  std::string index;
  std::string lineage;
  std::uint64_t upto = 0;
  {
    const std::shared_lock read(guard);
    index = index_text();
    lineage = lineage_text();
    upto = cache_->inserted;
  }
  std::vector<detail::DurableFile> files;
  const std::filesystem::path lineage_file = root_ / "lineage.tsv";
  if (lineage.empty()) {
    std::filesystem::remove(lineage_file, ec);
  } else {
    files.push_back({lineage_file, text(lineage)});
  }
  files.push_back({root_ / "index.tsv", text(index)});
  detail::write_durably(files);
  cache_->indexed = upto;
}

std::string Repository::commit_path(const std::string& application,
                                    const std::string& experiment,
                                    const std::string& trial) const {
  // A replaced snapshot is rewritten in place (a legacy ordinal name
  // included), as put() + save() would.
  if (contains(application, experiment, trial)) {
    const Entry& slot = *find_entry(application, experiment, trial);
    if (slot.pkb && !slot.rel.empty()) return slot.rel;
  }
  std::set<std::string_view> taken(cache_->writing.begin(),
                                   cache_->writing.end());
  for (const auto& [app, exps] : store_) {
    for (const auto& [exp, trs] : exps) {
      for (const auto& [tname, slot] : trs) taken.insert(slot->rel);
    }
  }
  return snapshot_name(application, experiment, trial, taken);
}

std::string Repository::index_text(
    const std::vector<std::string>* rels) const {
  std::string out;
  std::size_t i = 0;
  int line = 0;
  const std::lock_guard lock(cache_->mutex);
  for (const auto& [app, exps] : store_) {
    for (const auto& [exp, trs] : exps) {
      for (const auto& [tname, slot] : trs) {
        const std::string& rel = rels ? (*rels)[i++] : slot->rel;
        if (rel.empty()) continue;  // a put() trial not saved yet
        append_index_row(out, app, exp, tname, rel, slot->record);
        // Rendering the repository's own index: a later check of the row
        // names the line it is written to.
        ++line;
        if (!rels && slot->line > 0) slot->line = line;
      }
    }
  }
  return out;
}

std::string Repository::lineage_text() const {
  std::string out;
  for (const auto& [app, exps] : lineage_) {
    for (const auto& [exp, chain] : exps) {
      for (const auto& link : chain) {
        append_lineage_row(out, app, exp, link.version, link.predecessor);
      }
    }
  }
  return out;
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
    // The replaced entry is settled under the cache mutex, so a
    // concurrent load or save can't skew the accounting or its path.
    const std::lock_guard lock(cache_->mutex);
    // A re-put trial is rewritten to the snapshot it replaces (a legacy
    // ordinal name included), so no orphan is left behind.
    if (entry->rel.empty() && slot->pkb && !slot->rel.empty()) {
      entry->file = slot->file;
      entry->rel = slot->rel;
      entry->pkb = true;
    }
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
  entry.charge += bytes;
  cache_->resident += bytes;
}

void Repository::evict_to_budget_locked(Dropped& dropped) const {
  // A dirty entry is a put() trial, which exists only in memory.
  while (cache_->resident > cache_->budget) {
    Entry* victim = nullptr;
    for (const auto& [app, exps] : store_) {
      for (const auto& [exp, trs] : exps) {
        for (const auto& [name, entry] : trs) {
          if (entry->charge == 0 || entry->dirty) continue;
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
    // shared_ptr keep the trial (and its mapping) alive. The caller
    // releases them once its locks are released, since unmapping a
    // snapshot can take milliseconds.
    dropped.push_back(std::move(victim->trial));
    dropped.push_back(std::move(victim->verified_image));
    cache_->resident -= victim->charge;
    victim->charge = 0;
  }
}

TrialPtr Repository::load_entry(Entry& entry, const std::string& name) const {
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry.trial) {
      touch_locked(entry);
      return entry.trial;
    }
  }
  static const telemetry::SpanSite site("perfdmf.load_trial");
  telemetry::ScopedSpan span(site);
  // The open/mmap/summary check runs with the cache unlocked; holding the
  // entry's load mutex guarantees no other thread loads or moves this
  // entry, so publishing below cannot clobber a concurrent load.
  snapshots_opened().add();
  const auto trial = std::make_shared<profile::Trial>(
      entry.pkb ? open_pkb(entry.file) : load_text_snapshot(entry.file));
  std::optional<TrialRecord> row;
  int line = 0;
  {
    const std::lock_guard lock(cache_->mutex);
    row = entry.record;
    line = entry.line;
  }
  if (line > 0) {
    check_opened(root_, name, entry.rel, row, line, *trial);
  }
  Dropped dropped;
  const std::lock_guard lock(cache_->mutex);
  entry.trial = trial;
  charge_locked(entry, trial_charge(*trial));
  touch_locked(entry);
  evict_to_budget_locked(dropped);
  return trial;
}

void Repository::verify_entry(Entry& entry,
                              const profile::Trial& trial) const {
  // Owned columns have no checksum to check.
  const auto& image = trial.image();
  if (!image) return;
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry.verified_image == image) return;
  }
  try {
    verify_pkb_columns(trial);
  } catch (const ParseError& e) {
    if (!e.file().empty()) throw;
    const std::lock_guard lock(cache_->mutex);  // save() may move it
    throw e.with_file(entry.file.string());
  }
  const std::lock_guard lock(cache_->mutex);
  entry.verified_image = image;
}

TrialPtr Repository::get(const std::string& application,
                         const std::string& experiment,
                         const std::string& trial) const {
  // The copy borrows the same verified snapshot until it is first
  // written; the resident trial never sees the caller's edits.
  return std::make_shared<profile::Trial>(
      *verified_view(application, experiment, trial));
}

ConstTrialPtr Repository::view(const std::string& application,
                               const std::string& experiment,
                               const std::string& trial) const {
  // The hit rate these feed (telemetry
  // "perfdmf.repository.cache.hit_rate") is what the shipped
  // self_diagnosis rules judge, so a hit is strictly "served from the
  // already-resident trial, without opening its snapshot".
  static telemetry::Counter& hits =
      telemetry::counter("perfdmf.repository.cache.hit");
  static telemetry::Counter& misses =
      telemetry::counter("perfdmf.repository.cache.miss");
  const EntryPtr& entry = find_entry(application, experiment, trial);
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry->trial) {
      touch_locked(*entry);
      hits.add();
      return entry->trial;
    }
  }
  misses.add();
  const std::lock_guard load(entry->load_mutex);
  return load_entry(*entry, trial);
}

ConstTrialPtr Repository::verified_view(const std::string& application,
                                        const std::string& experiment,
                                        const std::string& trial) const {
  const EntryPtr& entry = find_entry(application, experiment, trial);
  ConstTrialPtr out = view(application, experiment, trial);
  verify_entry(*entry, *out);
  return out;
}

std::optional<TrialRecord> Repository::record(
    const std::string& application, const std::string& experiment,
    const std::string& trial) const {
  const EntryPtr& entry = find_entry(application, experiment, trial);
  const std::lock_guard lock(cache_->mutex);
  if (entry->dirty) return std::nullopt;
  return entry->record;
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
  Dropped dropped;
  const std::lock_guard lock(cache_->mutex);
  cache_->budget = bytes;
  evict_to_budget_locked(dropped);
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
    row.rel = snapshot_name(row.app, row.exp, row.name, taken);
    taken.insert(row.rel);
  }
  for (const Row& row : rows) {
    if (row.write) {
      save_entry(row.entry, row.name, dir, row.rel, home);
    } else {
      fill_record(row.entry);
    }
  }

  // The index and lineage go out last, each through a temp file, so the
  // old pair stays in place until every snapshot it will name exists.
  // Lineage is renamed first and the index last, as in commit(): the
  // index rename is the commit point, and lineage links naming trials
  // the index lacks are dropped when the directory is opened.
  std::vector<std::string> rels;
  for (const Row& row : rows) rels.push_back(row.rel);
  const std::string index = index_text(home ? nullptr : &rels);
  const std::string lineage = lineage_text();
  const std::filesystem::path index_file = dir / "index.tsv";
  const std::filesystem::path lineage_file = dir / "lineage.tsv";
  const std::filesystem::path index_tmp = write_temp(index_file, text(index));
  try {
    if (lineage.empty()) {
      // Saving a lineage-free repository over an old directory must not
      // leave a stale chain behind.
      std::error_code ec;
      std::filesystem::remove(lineage_file, ec);
    } else {
      rename_into_place(write_temp(lineage_file, text(lineage)),
                        lineage_file);
    }
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(index_tmp, ec);
    throw;
  }
  rename_into_place(index_tmp, index_file);
}

void Repository::save_entry(Entry& entry, const std::string& name,
                            const std::filesystem::path& dir,
                            const std::string& rel, bool home) const {
  const std::lock_guard load(entry.load_mutex);
  const TrialPtr trial = load_entry(entry, name);
  // A lazily opened snapshot's COLS CRC was skipped at open; check it
  // now: write_pkb re-signs the payload with fresh CRCs, which must not
  // turn a corrupt snapshot into a valid-looking one.
  verify_entry(entry, *trial);
  // The snapshot is written to a sibling temp file and renamed into
  // place: the write never truncates `dest` itself, so saving an
  // attached repository back into its own directory cannot destroy the
  // file whose live mapping is being streamed out (the old inode stays
  // mapped until the trial drops it), and a failed write leaves no torn
  // snapshot behind.
  const std::filesystem::path dest = dir / rel;
  rename_into_place(
      write_temp(dest, [&](std::ostream& os) { write_pkb(*trial, os); }),
      dest);
  const TrialRecord written = record_of(*trial);
  Dropped dropped;
  const std::lock_guard lock(cache_->mutex);
  entry.record = written;
  if (home) {
    // The entry's snapshot is the one just written: commit() indexes it
    // and a reload reads it.
    entry.file = dest;
    entry.rel = rel;
    entry.pkb = true;
    entry.line = 0;
  }
  touch_locked(entry);
  evict_to_budget_locked(dropped);
}

void Repository::fill_record(Entry& entry) const {
  TrialPtr trial;
  {
    const std::lock_guard lock(cache_->mutex);
    if (entry.record || !entry.trial) return;
    trial = entry.trial;
  }
  const TrialRecord computed = record_of(*trial);
  const std::lock_guard lock(cache_->mutex);
  entry.record = computed;
}

Repository Repository::attach(const std::filesystem::path& dir,
                              std::size_t cache_budget) {
  const std::filesystem::path index_file = dir / "index.tsv";
  const std::string index_text =
      read_file_bytes(index_file, "cannot read index");
  Repository repo;
  repo.cache_->budget = cache_budget;
  repo.root_ = dir;
  for (IndexRow& row : parse_table(parse_index, index_text, index_file)) {
    auto entry = std::make_shared<Entry>();
    entry->file = dir / row.path;
    entry->pkb = std::filesystem::path(row.path).extension() == ".pkb";
    entry->rel = std::move(row.path);
    entry->record = row.record;
    entry->line = row.line;
    repo.insert_entry(row.application, row.experiment, row.trial,
                      std::move(entry));
  }

  // Lineage is optional (repositories written before it existed have no
  // lineage.tsv). Links naming trials absent from the index are dropped
  // silently: the chain is advisory metadata, not a second source of
  // truth.
  const std::filesystem::path lineage_file = dir / "lineage.tsv";
  std::error_code ec;
  if (std::filesystem::is_regular_file(lineage_file, ec)) {
    const std::string text =
        read_file_bytes(lineage_file, "cannot read lineage");
    for (LineageRow& link : parse_table(parse_lineage, text, lineage_file)) {
      if (!repo.contains(link.application, link.experiment, link.version)) {
        continue;
      }
      repo.lineage_[link.application][link.experiment].push_back(
          VersionLink{std::move(link.version), std::move(link.predecessor)});
    }
  }
  return repo;
}

Repository Repository::load(const std::filesystem::path& dir) {
  ThreadPool inline_pool(0);  // no workers: every entry opens here
  return load(dir, inline_pool);
}

Repository Repository::load(const std::filesystem::path& dir,
                            ThreadPool& pool) {
  Repository repo = attach(dir, SIZE_MAX);
  std::vector<std::pair<const std::string*, Entry*>> rows;
  for (const auto& [app, exps] : repo.store_) {
    for (const auto& [exp, trs] : exps) {
      for (const auto& [tname, entry] : trs) {
        rows.emplace_back(&tname, entry.get());
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->line < b.second->line;
  });
  // Each entry opens as a lazy read would, fanned out across the pool;
  // in index order, so a failure surfaces as the lowest row's error.
  pool.parallel_for(rows.size(), [&](std::size_t i) {
    Entry& entry = *rows[i].second;
    const std::lock_guard load(entry.load_mutex);
    repo.verify_entry(entry, *repo.load_entry(entry, *rows[i].first));
    repo.fill_record(entry);
  });
  return repo;
}

Repository Repository::create(const std::filesystem::path& dir,
                              std::size_t cache_budget) {
  if (!std::filesystem::is_directory(dir)) {
    throw IoError("not a directory: " + dir.string());
  }
  Repository repo;
  repo.cache_->budget = cache_budget;
  repo.root_ = dir;
  return repo;
}

}  // namespace perfknow::perfdmf
