// PerfDMF-like performance data management.
//
// The original PerfDMF stores parallel profiles in a relational database
// under an Application -> Experiment -> Trial hierarchy and offers query
// utilities to the analysis layer (PerfExplorer). This module reproduces
// that hierarchy as a sharded on-disk store of binary PKB snapshots
// (pkb_format.hpp) with an in-memory LRU cache in front:
//
//   repo-dir/
//     index.tsv        app \t experiment \t trial \t relative-path
//                      \t threads \t events \t metrics \t total
//     lineage.tsv      app \t experiment \t version \t predecessor
//     shard-00/ ... shard-15/   one .pkb file per trial, placed by a
//                               hash of (app, experiment, trial)
//
// A snapshot's file name is stable: the sanitized trial name plus a hash
// of (app, experiment, trial), e.g. "shard-07/v01_3f9c0d2a81b4e6f0.pkb",
// so re-saving a trial rewrites the same file instead of shifting every
// later one. Repositories written with the older ordinal names
// ("name_K.pkb") keep those names; the index is the only authority on
// where a trial lives.
//
// An index row's last four fields are the trial's record
// (index_format.hpp): its shape and total_time(), "-" for a total that
// cannot be computed. `pkx list` and `pkx history` print them without
// opening a snapshot; rows written before records existed have only the
// first four fields, and those commands open the snapshot for them. A
// row is checked against its snapshot whenever one is opened anyway: the
// trial name and the shape on open, the total once the summary or
// column checksum has passed. A disagreement is a ParseError naming
// index.tsv and the row's line.
//
// Sharding keeps directory fan-out bounded for repositories with tens of
// thousands of trials and gives concurrent bulk ingest naturally disjoint
// write targets. The legacy flat layout (one .pkprof text snapshot per
// trial next to index.tsv) is still loadable; load() dispatches on the
// indexed file's extension.
//
// attach(dir) reads only the index, then demand-loads trials through
// get()/view() into an LRU cache with a configurable byte budget, so a
// repository much larger than memory can be queried; load(dir) then
// opens every entry up front the same way. A PKB trial's columns stay
// in its mmap'd snapshot until something writes them (profile.hpp).
// Each entry holds one trial. A put() trial exists only in memory and is
// never charged or evicted; any other resident trial is charged, and is
// evicted only when dropping it loses nothing (clean, or a get() copy
// that nobody holds any more and nobody changed).
// Read-only commands go through view() / summary_view() /
// verified_view(), which share the resident trial and differ only in
// how much of its snapshot they checksum: the schema, the summary
// profile (SUMM, pkb_format.hpp) as well, or every cell as well. get()
// swaps in a private copy, which borrows the same snapshot until it is
// first written, and hands that out mutable.
// The pkx CLI attaches with an unbounded budget: a one-shot command pays
// only for the trials it reads, and never evicts.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "perfdmf/index_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "profile/profile.hpp"

namespace perfknow {
class ThreadPool;
}

namespace perfknow::perfdmf {

/// Handle types the analysis layer passes around. Trials are shared:
/// analysis operations never copy the value cube.
using TrialPtr = std::shared_ptr<profile::Trial>;
using ConstTrialPtr = std::shared_ptr<const profile::Trial>;

/// Application -> Experiment -> Trial store, the PerfDMF schema.
class Repository {
 public:
  /// Default cache budget for demand-loaded trials (bytes).
  static constexpr std::size_t kDefaultCacheBudget =
      std::size_t{256} * 1024 * 1024;

  Repository();
  Repository(Repository&&) noexcept;
  Repository& operator=(Repository&&) noexcept;
  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;
  ~Repository();

  /// Inserts (replacing any previous trial with the same coordinates).
  /// A put() trial is dirty: the caller may keep editing it, so it is
  /// never charged to the cache budget or evicted, and every save()
  /// rewrites it (commit() is the path that is charged and evictable
  /// from the start). A trial replacing one whose snapshot lives in
  /// this repository's directory is rewritten to that same file. Throws
  /// InvalidArgumentError naming the field when the application,
  /// experiment or trial name contains a tab, newline or carriage return
  /// (they would break the TSV index).
  void put(const std::string& application, const std::string& experiment,
           TrialPtr trial);

  /// put() plus a lineage link: the trial becomes the newest version of
  /// the (application, experiment) history chain. Its predecessor is the
  /// previous chain head, or `predecessor` when given explicitly (pass
  /// "" with an empty chain to start a new root). The link is stamped
  /// into the trial's metadata as "version.predecessor" so it survives
  /// inside the PKB snapshot too, and lineage is persisted by save() in
  /// lineage.tsv next to index.tsv. Names are checked as in put(), and
  /// the predecessor too, before anything is changed.
  void put_version(const std::string& application,
                   const std::string& experiment, TrialPtr trial,
                   const std::string& predecessor = "");

  /// put() (or, with `version`, put_version()) made durable in the
  /// directory this repository was opened from or create()d at, for a
  /// daemon that shares the repository between threads. `guard` is the
  /// readers/writer lock the caller holds while reading the repository;
  /// commit() takes it itself and must be called without it. Commits to
  /// one experiment are serialized; commits to different experiments
  /// write their snapshots concurrently and may share one index write.
  /// Readers keep the shared lock throughout except for one short
  /// exclusive section:
  ///   1. shared: resolve and stamp the predecessor, and pick the
  ///      snapshot path (the replaced entry's, or the stable name);
  ///   2. unlocked: write the snapshot durably (temp file, fsync,
  ///      rename, fsync its shard directory);
  ///   3. exclusive: insert the entry, backed by that file, clean and
  ///      charged to the cache budget;
  ///   4. shared: render index.tsv and lineage.tsv, unless a commit that
  ///      inserted later already wrote them; then, unlocked, write both
  ///      durably, renaming lineage.tsv first and index.tsv (the commit
  ///      point) last.
  /// When commit() returns, the trial survives a crash or restart. On
  /// any failure it throws: before step 3 nothing changed, in memory or
  /// in the index; after it the trial is served but not known to be
  /// durable, and the next successful commit persists it. Throws
  /// IoError naming the file and step that failed, and
  /// InvalidArgumentError as put_version() does or when the repository
  /// has no directory.
  void commit(const std::string& application, const std::string& experiment,
              TrialPtr trial, std::shared_mutex& guard, bool version = false,
              const std::string& predecessor = "");

  /// Version names in lineage order, oldest first. Experiments with no
  /// recorded lineage fall back to name order (= trials()), so history()
  /// stays usable on repositories written before lineage existed; any
  /// unlinked trials are appended after the chain in name order.
  [[nodiscard]] std::vector<std::string> history(
      const std::string& application, const std::string& experiment) const;

  /// Predecessor of `version` in the lineage chain; "" for a chain root
  /// or a version with no recorded link. Throws NotFoundError when the
  /// experiment itself is unknown.
  [[nodiscard]] std::string predecessor_of(const std::string& application,
                                           const std::string& experiment,
                                           const std::string& version) const;

  /// Drops all but the newest `keep` versions of the lineage chain,
  /// erasing their trials from the store. The surviving oldest version
  /// becomes the new chain root. Returns the removed names, oldest
  /// first. Does not delete backing snapshot files (save() to a fresh
  /// directory, or let the caller clean orphans).
  std::vector<std::string> prune_history(const std::string& application,
                                         const std::string& experiment,
                                         std::size_t keep);

  /// Fetches a mutable trial; throws NotFoundError naming the missing
  /// level. In an attached repository this demand-loads (and caches) the
  /// snapshot and verifies its column checksum; ParseError diagnostics
  /// name the snapshot file. The first get() of an entry swaps in a
  /// private copy, so readers holding view() results never see its
  /// edits; later calls return that same copy. Because the caller may
  /// edit it in place (a script's derive_metric, say), the entry counts
  /// as dirty from then on, every save() rewrites it, and it is evicted
  /// only once nobody holds it and it provably equals its snapshot.
  [[nodiscard]] TrialPtr get(const std::string& application,
                             const std::string& experiment,
                             const std::string& trial) const;

  /// Read-only fetch of the resident trial, demand-loading it when
  /// needed: opening a PKB snapshot parses only its schema, and the
  /// columns are read from the mapping as the caller touches them. Only
  /// the schema checksums are verified, so the trial's shape, names and
  /// metadata are trustworthy but its cell values are not yet; see
  /// verified_view().
  [[nodiscard]] ConstTrialPtr view(const std::string& application,
                                   const std::string& experiment,
                                   const std::string& trial) const;

  /// view() plus the summary checksum (verify_pkb_summary(), checked
  /// once per resident entry): the means and Trial::series_summary()
  /// read through the result come from CRC-verified bytes, and the value
  /// columns are never paged in or checksummed. A snapshot without a
  /// summary is checked as verified_view() checks it. Throws ParseError
  /// naming the snapshot file on a mismatch.
  [[nodiscard]] ConstTrialPtr summary_view(const std::string& application,
                                           const std::string& experiment,
                                           const std::string& trial) const;

  /// view() plus the column checksum and the summary's agreement with
  /// the columns (verify_pkb_columns(), checked once per resident
  /// entry): every cell value read through the result comes from
  /// CRC-verified bytes. Throws ParseError naming the snapshot file on a
  /// mismatch.
  [[nodiscard]] ConstTrialPtr verified_view(const std::string& application,
                                            const std::string& experiment,
                                            const std::string& trial) const;

  /// The trial's record (index_format.hpp) without opening its
  /// snapshot: as read from index.tsv, or as commit(), save() or load()
  /// computed it from the trial they wrote or read. Empty when the row
  /// predates records and no save() since the trial was opened has
  /// filled it in, and for a trial put() or handed out mutable by get(),
  /// whose values may still change. Throws NotFoundError as view() does.
  [[nodiscard]] std::optional<TrialRecord> record(
      const std::string& application, const std::string& experiment,
      const std::string& trial) const;

  [[nodiscard]] bool contains(const std::string& application,
                              const std::string& experiment,
                              const std::string& trial) const noexcept;

  /// Removes a trial; returns false when it was absent. Does not delete
  /// the backing snapshot file.
  bool erase(const std::string& application, const std::string& experiment,
             const std::string& trial);

  [[nodiscard]] std::vector<std::string> applications() const;
  [[nodiscard]] std::vector<std::string> experiments(
      const std::string& application) const;
  [[nodiscard]] std::vector<std::string> trials(
      const std::string& application, const std::string& experiment) const;

  /// All trials of one experiment ordered by name — the unit a parametric
  /// study (scalability analysis) consumes.
  [[nodiscard]] std::vector<TrialPtr> experiment_trials(
      const std::string& application, const std::string& experiment) const;

  [[nodiscard]] std::size_t trial_count() const noexcept;

  /// Persists the repository in the sharded PKB layout under `dir`
  /// (created if needed), writing only what changed. An entry's snapshot
  /// is rewritten when it was put() since open, when get() handed it out
  /// mutable, or when its snapshot does not already live in `dir` as a
  /// .pkb (saving to another directory, legacy .pkprof entries). Clean
  /// entries keep the path index.tsv already names; new snapshots get the
  /// stable name described above, bumped with a "-N" suffix if another
  /// entry already holds it; saving home makes it the entry's own. Every
  /// snapshot goes to a sibling temp file and is renamed into place;
  /// index.tsv and lineage.tsv are written the same way and renamed only
  /// after every snapshot is in place, so a failed save leaves the
  /// previous index, never a torn one. Not to be run beside commit().
  void save(const std::filesystem::path& dir) const;

  /// attach(dir, SIZE_MAX), then every entry opened and checked as
  /// verified_view() does; the lowest failing row's error is thrown. The
  /// overload taking a ThreadPool fans the opens across it. Costs
  /// O(repository bytes); prefer attach() unless every trial is about to
  /// be read anyway.
  [[nodiscard]] static Repository load(const std::filesystem::path& dir);
  [[nodiscard]] static Repository load(const std::filesystem::path& dir,
                                       ThreadPool& pool);

  /// Opens a repository lazily: only index.tsv and lineage.tsv are read.
  /// Trials are demand-loaded by get()/view() into an LRU cache capped at
  /// `cache_budget` bytes (counting snapshot sizes); least-recently-used
  /// entries are dropped first. Evicted trials stay alive for callers
  /// that still hold their shared_ptr. Pass SIZE_MAX for a
  /// one-shot process that should never evict (what pkx does).
  [[nodiscard]] static Repository attach(
      const std::filesystem::path& dir,
      std::size_t cache_budget = kDefaultCacheBudget);

  /// An empty repository rooted at the existing directory `dir`, for a
  /// directory that holds no index.tsv yet: commit() writes into it.
  [[nodiscard]] static Repository create(
      const std::filesystem::path& dir,
      std::size_t cache_budget = kDefaultCacheBudget);

  /// Adjusts the demand-load cache budget, evicting as needed.
  void set_cache_budget(std::size_t bytes);
  /// Bytes currently charged against the cache budget.
  [[nodiscard]] std::size_t cached_bytes() const;
  /// Number of trials currently resident in memory (dirty or cached).
  [[nodiscard]] std::size_t resident_trials() const;

 private:
  struct Entry;
  struct Cache;

  using EntryPtr = std::shared_ptr<Entry>;

  /// The predecessor a new version of the experiment links to
  /// (`predecessor`, or the chain head when empty), stamped into
  /// `trial`'s "version.predecessor"; `where` prefixes the self-link
  /// error.
  std::string stamp_predecessor(const char* where,
                                const std::string& application,
                                const std::string& experiment,
                                profile::Trial& trial,
                                const std::string& predecessor) const;
  /// Appends `version` to the chain, moving it there if already linked.
  void link_version(const std::string& application,
                    const std::string& experiment, const std::string& version,
                    const std::string& predecessor);
  /// commit()'s snapshot path, relative to the root, avoiding the paths
  /// in-flight commits write. Caller holds the commit mutex.
  [[nodiscard]] std::string commit_path(const std::string& application,
                                        const std::string& experiment,
                                        const std::string& trial) const;
  /// index.tsv's text: a row per entry in store order naming its own
  /// snapshot (the repository's own index, whose lines the entries then
  /// keep), or `rels[i]` for the i-th entry (what save() wrote
  /// elsewhere); no row for an entry without one (an unsaved put()).
  [[nodiscard]] std::string index_text(
      const std::vector<std::string>* rels = nullptr) const;
  /// lineage.tsv's text.
  [[nodiscard]] std::string lineage_text() const;
  void insert_entry(const std::string& application,
                    const std::string& experiment, const std::string& trial,
                    EntryPtr entry);
  [[nodiscard]] const EntryPtr& find_entry(const std::string& application,
                                           const std::string& experiment,
                                           const std::string& trial) const;
  /// Returns `entry`'s resident trial, demand-loading (publishing and
  /// charging) it first when there is none, checked against its index
  /// row (trial `name`, shape). Caller must hold the entry's load mutex
  /// and must NOT hold the cache mutex: the file open/mmap/schema parse
  /// runs with the cache unlocked so other entries stay serviceable.
  TrialPtr load_entry(Entry& entry, const std::string& name) const;
  /// Streams one entry's snapshot to `dir`/`rel` (temp file + atomic
  /// rename; verifies a lazily opened snapshot's column CRC before
  /// re-signing it); at `home` the entry is backed by that file.
  void save_entry(Entry& entry, const std::string& name,
                  const std::filesystem::path& dir, const std::string& rel,
                  bool home) const;
  /// Fills in a clean entry's missing record (a row written before
  /// records existed) from its resident trial, when a checksum has
  /// covered that trial's values. Never opens the snapshot.
  void fill_record(Entry& entry) const;
  /// verify_pkb_columns() (Verify::kFull) or verify_pkb_summary()
  /// (Verify::kSummary), remembered per resident entry so a trial read
  /// several times by one command is checksummed once; then the total of
  /// a record read from the index is checked against the trial, once.
  void verify_entry(Entry& entry, const profile::Trial& trial,
                    Verify level) const;
  void touch_locked(Entry& entry) const;
  void charge_locked(Entry& entry, std::size_t bytes) const;
  /// References evict_to_budget_locked() drops, released by its caller
  /// after the locks.
  using Dropped = std::vector<std::shared_ptr<const void>>;
  void evict_to_budget_locked(Dropped& dropped) const;


  // application -> experiment -> trial-name -> entry
  std::map<std::string,
           std::map<std::string, std::map<std::string, EntryPtr>>>
      store_;
  /// One versioned trial in an experiment's history chain.
  struct VersionLink {
    std::string version;
    std::string predecessor;  ///< empty for a chain root
  };
  // application -> experiment -> ordered links, oldest first. Purely
  // additive metadata over store_: versions always name real trials.
  std::map<std::string, std::map<std::string, std::vector<VersionLink>>>
      lineage_;
  // Mutex-holding cache bookkeeping lives behind a pointer so the
  // Repository itself stays movable (load()/attach() return by value).
  std::unique_ptr<Cache> cache_;
  /// Directory the index was read from; empty for a fresh repository.
  /// save() leaves clean entries alone only when saving back here.
  std::filesystem::path root_;
};

}  // namespace perfknow::perfdmf
