#ifndef OJV_IVM_VIEW_SNAPSHOT_H_
#define OJV_IVM_VIEW_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "exec/relation.h"
#include "obs/metrics.h"

namespace ojv {

class GenerationStore;
class ViewSnapshot;

/// One immutable published generation of a view's contents. Everything
/// except the staleness mark is fixed at publish time; readers pinning
/// the generation through a ViewSnapshot may scan it freely while
/// maintenance builds and publishes successors.
class ViewGeneration {
 public:
  ViewGeneration(Relation contents, uint64_t number, uint64_t content_version,
                 int64_t published_micros, int64_t stale_since_micros)
      : contents_(std::move(contents)),
        number_(number),
        content_version_(content_version),
        published_micros_(published_micros),
        stale_since_micros_(stale_since_micros) {}

  ViewGeneration(const ViewGeneration&) = delete;
  ViewGeneration& operator=(const ViewGeneration&) = delete;

  const Relation& contents() const { return contents_; }
  uint64_t number() const { return number_; }
  /// The store's content version this generation captured.
  uint64_t content_version() const { return content_version_; }
  int64_t published_micros() const { return published_micros_; }
  /// 0 while the generation reflects every base change so far; else the
  /// steady-clock instant of the earliest base change it misses.
  int64_t stale_since_micros() const {
    return stale_since_micros_.load(std::memory_order_acquire);
  }
  /// Marks the generation stale as of `now_micros`. First call wins —
  /// staleness is measured from the earliest missed change. Const (and
  /// the mark mutable) because readers hold the generation through
  /// shared_ptr<const ViewGeneration>: the contents are immutable, the
  /// staleness mark is the one atomic annotation maintenance may add.
  void MarkStale(int64_t now_micros) const {
    int64_t expected = 0;
    stale_since_micros_.compare_exchange_strong(expected, now_micros,
                                                std::memory_order_acq_rel);
  }

 private:
  const Relation contents_;
  const uint64_t number_;
  const uint64_t content_version_;
  const int64_t published_micros_;
  mutable std::atomic<int64_t> stale_since_micros_;
};

/// Refcounted read handle pinned to one published generation. Copyable
/// and cheap (two shared_ptr copies); the pinned generation — and with
/// it the Relation the accessors expose — stays alive and immutable
/// until the last handle drops, no matter how many refreshes publish
/// newer generations meanwhile (retired generations are freed by the
/// last reader's release).
///
/// The handle keeps the shape of the raw-pointer API it replaced:
/// `operator->`, `operator bool`, and nullptr comparisons all work, so
/// `db.ReadView("v")->AsRelation()` and `ASSERT_NE(snap, nullptr)`
/// read exactly as before — but there is no longer any pointer whose
/// pointee a concurrent refresh could mutate.
class ViewSnapshot {
 public:
  ViewSnapshot() = default;
  ViewSnapshot(std::shared_ptr<const ViewGeneration> gen,
               std::shared_ptr<GenerationStore> store);
  ViewSnapshot(const ViewSnapshot& other);
  ViewSnapshot& operator=(const ViewSnapshot& other);
  ViewSnapshot(ViewSnapshot&& other) noexcept;
  ViewSnapshot& operator=(ViewSnapshot&& other) noexcept;
  ~ViewSnapshot();

  /// False for reads of unknown views (the old nullptr return).
  bool valid() const { return gen_ != nullptr; }
  explicit operator bool() const { return valid(); }
  const ViewSnapshot* operator->() const { return this; }
  friend bool operator==(const ViewSnapshot& s, std::nullptr_t) {
    return !s.valid();
  }
  friend bool operator!=(const ViewSnapshot& s, std::nullptr_t) {
    return s.valid();
  }

  /// The pinned generation's contents. Aborts when !valid().
  const Relation& relation() const;
  /// Copy of the contents, for call sites that previously materialized
  /// the view via MaterializedView::AsRelation().
  Relation AsRelation() const { return relation(); }
  int64_t size() const { return valid() ? relation().size() : 0; }

  /// Monotonic generation number within the view's store.
  uint64_t generation() const;
  int64_t published_micros() const;
  /// How far behind the base tables this snapshot is at `now_micros`
  /// (0 = no base change since publish has invalidated it).
  double staleness_micros(int64_t now_micros) const;

 private:
  void Release();

  std::shared_ptr<const ViewGeneration> gen_;
  std::shared_ptr<GenerationStore> store_;
};

/// Per-view generation chain: one mutable slot holding the current
/// published generation, swapped atomically (under a small spinless
/// mutex) at publish. Split from Database so readers acquiring a
/// snapshot never touch the statement mutex.
///
/// Thread contract:
///   - Publish / NoteContentChanged / NoteStaleness are maintenance-side
///     and are only called while the caller holds the Database statement
///     mutex (they are serialized with each other);
///   - Acquire / pinned_readers / content_version are safe from any
///     thread at any time.
class GenerationStore : public std::enable_shared_from_this<GenerationStore> {
 public:
  GenerationStore(std::string view_name, bool is_aggregate);

  const std::string& view_name() const { return view_name_; }
  /// True for aggregate views (Database::ReadView answers row views
  /// only; the tag lets it refuse without taking the statement mutex).
  bool is_aggregate() const { return is_aggregate_; }

  /// Pins the current generation. Invalid handle before first Publish.
  ViewSnapshot Acquire();

  /// Publishes `contents` as the next generation, capturing the current
  /// content version. `stale_since_micros` is 0 when the contents
  /// reflect every base change (the common case right after a refresh),
  /// else the age origin of the oldest change still pending.
  void Publish(Relation contents, int64_t now_micros,
               int64_t stale_since_micros);

  /// Maintenance applied to the stored view: the published generation
  /// (if any) no longer matches and is marked stale.
  void NoteContentChanged(int64_t now_micros);

  /// A base change was staged for the view without touching its stored
  /// contents (deferred delta log): the published generation still
  /// matches the stored view but is stale against base.
  void NoteStaleness(int64_t now_micros);

  /// Version of the stored view's contents; incremented by every
  /// NoteContentChanged. A published generation with a matching
  /// content_version() needs no rebuild.
  uint64_t content_version() const {
    return content_version_.load(std::memory_order_acquire);
  }
  /// True when the published generation captures the stored view's
  /// current contents (rebuild would republish identical rows).
  bool UpToDate() const;

  /// Live ViewSnapshot handles pinning this store's generations.
  int64_t pinned_readers() const {
    return pinned_.load(std::memory_order_acquire);
  }

 private:
  friend class ViewSnapshot;
  void Pin();
  void Unpin();

  const std::string view_name_;
  const bool is_aggregate_;
  // The view's ojv.serve.* gauges, resolved once: registry references
  // live for the process.
  obs::Gauge& generation_gauge_;
  obs::Gauge& age_gauge_;
  obs::Gauge& pinned_gauge_;
  mutable std::mutex mu_;  // guards gen_ swap only
  std::shared_ptr<const ViewGeneration> gen_;
  std::atomic<uint64_t> content_version_{0};
  uint64_t next_number_ = 1;  // maintenance-side only (serialized)
  std::atomic<int64_t> pinned_{0};
};

}  // namespace ojv

#endif  // OJV_IVM_VIEW_SNAPSHOT_H_
