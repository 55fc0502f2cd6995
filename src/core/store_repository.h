// StoreRepository: the handle-table plumbing both back ends share.
// fs::FileStore and db::BlobStore expose the same handle-table calls —
// OpenRead, OpenWrite, Close, HandleBound, Delete and GetSize, by name
// and by slot/generation ticket — so the repository surface over them
// is written once here, on top of the data volume (VolumeRepository):
// Open/OpenForWrite/Release, the handle SafeWrite/Delete/GetSize, and
// the name-based Put/SafeWrite/Delete as open–op–release wrappers.
//
// Each back end supplies the one step that really differs, the safe
// write through an open ticket (WriteThrough), plus what it reads back
// differently: Get, GetLayout, the key walk, counters, Fsck, recovery
// and scrub repair. CheckWriteKey lets a back end refuse a key before
// the write's op scope opens, so a refusal charges and records nothing.

#ifndef LOREPO_CORE_STORE_REPOSITORY_H_
#define LOREPO_CORE_STORE_REPOSITORY_H_

#include <memory>
#include <span>
#include <string>

#include "core/volume_repository.h"

namespace lor {
namespace core {

/// VolumeRepository over a `Store` whose handle table mints `Ticket`s
/// ({slot, gen} structs: fs::FileHandle, db::BlobHandle).
template <typename Store, typename Ticket>
class StoreRepository : public VolumeRepository {
 public:
  // Name-based surface (open–op–release wrappers over the same tickets).
  Status Put(const std::string& key, uint64_t size,
             std::span<const uint8_t> data = {}) override {
    LOR_RETURN_IF_ERROR(CheckWriteKey(key));
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kPut);
    LOR_ASSIGN_OR_RETURN(Ticket h, store_->OpenWrite(key));
    auto bound = store_->HandleBound(h);
    if (!bound.ok() || *bound) {
      Status c = store_->Close(h);
      (void)c;
      if (!bound.ok()) return bound.status();
      return Status::AlreadyExists("object exists: " + key);
    }
    Status s = WriteThrough(h, key, size, data);
    Status c = store_->Close(h);
    return s.ok() ? c : s;
  }

  Status SafeWrite(const std::string& key, uint64_t size,
                   std::span<const uint8_t> data = {}) override {
    LOR_RETURN_IF_ERROR(CheckWriteKey(key));
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
    LOR_ASSIGN_OR_RETURN(Ticket h, store_->OpenWrite(key));
    Status s = WriteThrough(h, key, size, data);
    Status c = store_->Close(h);
    return s.ok() ? c : s;
  }

  Status Delete(const std::string& key) override {
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
    return store_->Delete(key);
  }

  bool Exists(const std::string& key) const override {
    return store_->Exists(key);
  }

  Result<uint64_t> GetSize(const std::string& key) const override {
    return store_->GetSize(key);
  }

  // Handle surface (the store's handle table underneath).
  Result<ObjectHandle> Open(const std::string& key) override {
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
    LOR_ASSIGN_OR_RETURN(Ticket t, store_->OpenRead(key));
    return MakeHandle(key, /*writable=*/false, t.slot, t.gen);
  }

  Result<ObjectHandle> OpenForWrite(const std::string& key) override {
    LOR_RETURN_IF_ERROR(CheckWriteKey(key));
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
    LOR_ASSIGN_OR_RETURN(Ticket t, store_->OpenWrite(key));
    return MakeHandle(key, /*writable=*/true, t.slot, t.gen);
  }

  Status Release(ObjectHandle* handle) override {
    if (handle == nullptr) return Status::InvalidArgument("null handle");
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
    LOR_RETURN_IF_ERROR(ValidateHandle(*handle));
    LOR_RETURN_IF_ERROR(store_->Close(TicketOf(*handle)));
    Invalidate(handle);
    return Status::OK();
  }

  Status SafeWrite(const ObjectHandle& handle, uint64_t size,
                   std::span<const uint8_t> data = {}) override {
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
    LOR_RETURN_IF_ERROR(ValidateHandle(handle, /*need_write=*/true));
    return WriteThrough(TicketOf(handle), handle.key_, size, data);
  }

  Status Delete(ObjectHandle* handle) override {
    if (handle == nullptr) return Status::InvalidArgument("null handle");
    sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
    LOR_RETURN_IF_ERROR(ValidateHandle(*handle, /*need_write=*/true));
    LOR_RETURN_IF_ERROR(store_->Delete(TicketOf(*handle)));
    Invalidate(handle);
    return Status::OK();
  }

  Result<uint64_t> GetSize(const ObjectHandle& handle) const override {
    LOR_RETURN_IF_ERROR(ValidateHandle(handle));
    return store_->GetSize(TicketOf(handle));
  }

  const FragmentationTracker* fragmentation_tracker() const override {
    return &store_->fragmentation_tracker();
  }

  Status CheckConsistency() const override {
    return store_->CheckConsistency();
  }

 protected:
  using VolumeRepository::VolumeRepository;

  /// The safe write through an open write ticket on `key`: create the
  /// object when the ticket is unbound, else replace it atomically.
  /// Runs inside the caller's op scope.
  virtual Status WriteThrough(Ticket target, const std::string& key,
                              uint64_t size,
                              std::span<const uint8_t> data) = 0;

  /// Refuses keys the store cannot hold as user objects. Runs before
  /// Put, SafeWrite and OpenForWrite open their op scope.
  virtual Status CheckWriteKey(const std::string& /*key*/) const {
    return Status::OK();
  }

  /// The store ticket `handle` carries (validate it first).
  static Ticket TicketOf(const ObjectHandle& handle) {
    return Ticket{handle.slot_, handle.gen_};
  }

  std::unique_ptr<Store> store_;

 private:
  static void Invalidate(ObjectHandle* handle) {
    handle->owner_ = nullptr;
    handle->gen_ = 0;
  }
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_STORE_REPOSITORY_H_
