#include "opt/plan_cache.h"

namespace ojv {
namespace opt {

std::string PlanCache::Key(const std::string& table, bool is_insert,
                           bool constraint_free) {
  std::string key = table;
  key += is_insert ? "|ins" : "|del";
  key += constraint_free ? "|cf" : "|main";
  return key;
}

PlanCacheEntry* PlanCache::Find(const std::string& key) {
  auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

const PlanCacheEntry* PlanCache::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

PlanCacheEntry* PlanCache::Put(const std::string& key, PlannedDelta plan,
                               double delta_rows) {
  PlanCacheEntry& entry = entries_[key];
  entry.plan = std::move(plan);
  entry.planned_delta_rows = delta_rows < 1 ? 1 : delta_rows;
  return &entry;
}

}  // namespace opt
}  // namespace ojv
