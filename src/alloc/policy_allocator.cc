#include "alloc/policy_allocator.h"

namespace lor {
namespace alloc {

PolicyAllocator::PolicyAllocator(uint64_t clusters,
                                 PolicyAllocatorOptions options,
                                 uint64_t reserved)
    : options_(options),
      map_(0),
      deferred_(options.commit_interval) {
  if (clusters > reserved) {
    Status s = map_.Free({reserved, clusters - reserved});
    (void)s;  // Freeing into an empty map cannot fail.
  }
}

Status PolicyAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                 ExtentList* out) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  if (length > map_.free_clusters()) {
    // Try releasing deferred frees before giving up, as a real volume
    // would force a log commit under space pressure.
    LOR_RETURN_IF_ERROR(deferred_.Commit(&map_));
    if (length > map_.free_clusters()) {
      return Status::NoSpace("allocation exceeds free clusters");
    }
  }

  ExtentList& acquired = acquired_;
  acquired.clear();
  uint64_t remaining = length;

  if (options_.allow_extension && extend_hint != kNoHint) {
    const uint64_t got = map_.ExtendAt(extend_hint, remaining);
    if (got > 0) {
      acquired.push_back({extend_hint, got});
      remaining -= got;
    }
  }

  while (remaining > 0) {
    Extent e = map_.AllocateUpTo(remaining, options_.policy);
    if (e.empty()) {
      // Roll back: free space vanished between the check and here (can
      // only happen via the deferred queue accounting).
      for (const Extent& a : acquired) {
        Status s = map_.Free(a);
        (void)s;
      }
      return Status::NoSpace("free space exhausted mid-allocation");
    }
    acquired.push_back(e);
    remaining -= e.length;
  }

  for (const Extent& e : acquired) AppendCoalescing(out, e);
  return Status::OK();
}

Status PolicyAllocator::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  if (options_.deferred_free) {
    deferred_.Defer(extent);
    return Status::OK();
  }
  return map_.Free(extent);
}

void PolicyAllocator::Tick() {
  if (options_.deferred_free) {
    Status s = deferred_.Tick(&map_);
    (void)s;
  }
}

void PolicyAllocator::CommitPending() {
  Status s = deferred_.Commit(&map_);
  (void)s;
}

std::string PolicyAllocator::name() const {
  std::string n(FitPolicyName(options_.policy));
  if (options_.deferred_free) n += "+deferred";
  if (!options_.allow_extension) n += "-noextend";
  return n;
}

}  // namespace alloc
}  // namespace lor
