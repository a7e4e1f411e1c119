#include "ivm/view_snapshot.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/windowed.h"

namespace ojv {

namespace {

obs::Gauge& ServeGauge(const char* base, const std::string& view) {
  return obs::Registry::Global().GetGauge(
      obs::LabeledMetric(base, "view", view));
}

}  // namespace

// --- ViewSnapshot ----------------------------------------------------------

ViewSnapshot::ViewSnapshot(std::shared_ptr<const ViewGeneration> gen,
                           std::shared_ptr<GenerationStore> store)
    : gen_(std::move(gen)), store_(std::move(store)) {
  if (store_ != nullptr) store_->Pin();
}

ViewSnapshot::ViewSnapshot(const ViewSnapshot& other)
    : gen_(other.gen_), store_(other.store_) {
  if (store_ != nullptr) store_->Pin();
}

ViewSnapshot& ViewSnapshot::operator=(const ViewSnapshot& other) {
  if (this == &other) return *this;
  Release();
  gen_ = other.gen_;
  store_ = other.store_;
  if (store_ != nullptr) store_->Pin();
  return *this;
}

ViewSnapshot::ViewSnapshot(ViewSnapshot&& other) noexcept
    : gen_(std::move(other.gen_)), store_(std::move(other.store_)) {
  other.gen_ = nullptr;
  other.store_ = nullptr;
}

ViewSnapshot& ViewSnapshot::operator=(ViewSnapshot&& other) noexcept {
  if (this == &other) return *this;
  Release();
  gen_ = std::move(other.gen_);
  store_ = std::move(other.store_);
  other.gen_ = nullptr;
  other.store_ = nullptr;
  return *this;
}

ViewSnapshot::~ViewSnapshot() { Release(); }

void ViewSnapshot::Release() {
  if (store_ != nullptr) store_->Unpin();
  store_ = nullptr;
  gen_ = nullptr;
}

const Relation& ViewSnapshot::relation() const {
  OJV_CHECK(gen_ != nullptr, "reading an invalid ViewSnapshot");
  return gen_->contents();
}

uint64_t ViewSnapshot::generation() const {
  OJV_CHECK(gen_ != nullptr, "reading an invalid ViewSnapshot");
  return gen_->number();
}

int64_t ViewSnapshot::published_micros() const {
  OJV_CHECK(gen_ != nullptr, "reading an invalid ViewSnapshot");
  return gen_->published_micros();
}

double ViewSnapshot::staleness_micros(int64_t now_micros) const {
  OJV_CHECK(gen_ != nullptr, "reading an invalid ViewSnapshot");
  const int64_t since = gen_->stale_since_micros();
  if (since == 0 || now_micros <= since) return 0;
  return static_cast<double>(now_micros - since);
}

// --- GenerationStore -------------------------------------------------------

GenerationStore::GenerationStore(std::string view_name, bool is_aggregate)
    : view_name_(std::move(view_name)),
      is_aggregate_(is_aggregate),
      generation_gauge_(ServeGauge("ojv.serve.generation", view_name_)),
      age_gauge_(ServeGauge("ojv.serve.generation_age_micros", view_name_)),
      pinned_gauge_(ServeGauge("ojv.serve.pinned_readers", view_name_)) {}

ViewSnapshot GenerationStore::Acquire() {
  std::shared_ptr<const ViewGeneration> gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = gen_;
  }
  if (gen == nullptr) return ViewSnapshot();
  age_gauge_.Set(std::max<int64_t>(
      0, obs::SteadyNowMicros() - gen->published_micros()));
  return ViewSnapshot(std::move(gen), shared_from_this());
}

void GenerationStore::Publish(Relation contents, int64_t now_micros,
                              int64_t stale_since_micros) {
  auto gen = std::make_shared<const ViewGeneration>(
      std::move(contents), next_number_++,
      content_version_.load(std::memory_order_acquire), now_micros,
      stale_since_micros);
  const uint64_t number = gen->number();
  std::shared_ptr<const ViewGeneration> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::move(gen_);
    gen_ = std::move(gen);
  }
  // `retired` drops here (or when its last pinned reader releases).
  generation_gauge_.Set(static_cast<int64_t>(number));
  age_gauge_.Set(0);
}

void GenerationStore::NoteContentChanged(int64_t now_micros) {
  content_version_.fetch_add(1, std::memory_order_acq_rel);
  NoteStaleness(now_micros);
}

void GenerationStore::NoteStaleness(int64_t now_micros) {
  std::shared_ptr<const ViewGeneration> gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = gen_;
  }
  if (gen != nullptr) gen->MarkStale(now_micros);
}

bool GenerationStore::UpToDate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_ != nullptr &&
         gen_->content_version() ==
             content_version_.load(std::memory_order_acquire);
}

void GenerationStore::Pin() {
  const int64_t pinned = pinned_.fetch_add(1, std::memory_order_acq_rel) + 1;
  pinned_gauge_.Set(pinned);
}

void GenerationStore::Unpin() {
  const int64_t pinned = pinned_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  pinned_gauge_.Set(pinned);
}

}  // namespace ojv
