// ObjectHandle: an open-once, operate-many ticket for one repository
// object. Opening resolves the name → metadata path once (the NTFS
// open-by-name / database metadata-row lookup the paper's workloads pay
// on every operation) and pins the resolved state — cached extent map
// and MFT record on the filesystem back end, cached metadata row and a
// positioned blob-tree cursor on the database back end — so subsequent
// operations through the handle skip the per-operation lookup.
//
// Handles are move-only tickets: they do not own the object, and the
// repository reclaims all handle state when it is destroyed, so leaking
// a handle is harmless (releasing it is still good hygiene and is what
// the name-based compatibility wrappers do). A handle is invalidated by
// Release, by deleting the object (through any path), and by the
// safe-write temp consumption inside the store; any use after that
// fails with InvalidArgument rather than touching stale state.

#ifndef LOREPO_CORE_OBJECT_HANDLE_H_
#define LOREPO_CORE_OBJECT_HANDLE_H_

#include <cstdint>
#include <string>
#include <utility>

namespace lor {
namespace core {

class ObjectRepository;
template <typename Store, typename Ticket>
class StoreRepository;

/// Move-only ticket for an open object (see file comment).
class ObjectHandle {
 public:
  ObjectHandle() = default;

  ObjectHandle(ObjectHandle&& other) noexcept { *this = std::move(other); }
  ObjectHandle& operator=(ObjectHandle&& other) noexcept {
    if (this == &other) return *this;  // Self-move keeps the ticket live.
    owner_ = other.owner_;
    slot_ = other.slot_;
    gen_ = other.gen_;
    key_ = std::move(other.key_);
    writable_ = other.writable_;
    other.owner_ = nullptr;  // The moved-from ticket is dead.
    other.gen_ = 0;
    return *this;
  }

  ObjectHandle(const ObjectHandle&) = delete;
  ObjectHandle& operator=(const ObjectHandle&) = delete;

  /// False for default-constructed, released, and moved-from handles.
  bool valid() const { return owner_ != nullptr; }
  /// True for OpenForWrite handles (required by SafeWrite/Delete).
  bool writable() const { return writable_; }
  /// The key the handle was opened on.
  const std::string& key() const { return key_; }

 private:
  // Only repositories mint and interpret the ticket fields.
  friend class ObjectRepository;
  template <typename Store, typename Ticket>
  friend class StoreRepository;

  const ObjectRepository* owner_ = nullptr;
  /// Back-end handle-table coordinates.
  uint64_t slot_ = 0;
  uint64_t gen_ = 0;
  std::string key_;
  bool writable_ = false;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_OBJECT_HANDLE_H_
