// HandleTable: the slot/generation open-handle table shared by both
// back ends' stores. One table maps cheap tickets (slot + generation)
// to per-handle payloads, with a name index so namespace mutations can
// invalidate every open handle on a name (delete, replace-source) or
// visit them (bind-on-create, cursor resets). Slots are recycled
// through a free list; a released or invalidated slot bumps nothing —
// the next Register stamps a fresh generation, so stale tickets fail
// the generation check instead of touching reused slots.
//
// `Ticket` is the store's public handle struct (fs::FileHandle,
// db::BlobHandle): structurally {slot, gen}, kept distinct per back end
// so handles cannot cross stores at compile time.

#ifndef LOREPO_CORE_HANDLE_TABLE_H_
#define LOREPO_CORE_HANDLE_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lor {
namespace core {

template <typename Entry, typename Ticket>
class HandleTable {
 public:
  /// One table slot: the payload plus the name it was opened on.
  struct Slot {
    Entry entry{};
    std::string name;
    uint64_t gen = 0;
    bool in_use = false;
  };

  /// Mints a ticket for `name` with the given payload.
  Ticket Register(const std::string& name, Entry entry) {
    uint64_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = slots_.size();
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.entry = std::move(entry);
    slot.name = name;
    slot.gen = next_gen_++;
    slot.in_use = true;
    by_name_.emplace(name, index);
    ++open_;
    return Ticket{index, slot.gen};
  }

  /// Live slot for `ticket`, or null when stale/released/foreign.
  Slot* Resolve(Ticket ticket) {
    if (ticket.slot >= slots_.size()) return nullptr;
    Slot& slot = slots_[ticket.slot];
    if (!slot.in_use || slot.gen != ticket.gen) return nullptr;
    return &slot;
  }
  const Slot* Resolve(Ticket ticket) const {
    return const_cast<HandleTable*>(this)->Resolve(ticket);
  }

  /// Releases one slot (free-list push + name-index erase).
  void Release(uint64_t index) {
    auto [begin, end] = by_name_.equal_range(slots_[index].name);
    for (auto it = begin; it != end; ++it) {
      if (it->second == index) {
        by_name_.erase(it);
        break;
      }
    }
    Free(index);
  }

  /// Invalidates every open handle on `name` in one pass over its name
  /// range; `on_release(Entry&)` sees each payload before it is dropped.
  template <typename Fn>
  void InvalidateAll(const std::string& name, Fn on_release) {
    auto [begin, end] = by_name_.equal_range(name);
    if (begin == end) return;
    for (auto it = begin; it != end; ++it) {
      on_release(slots_[it->second].entry);
      Free(it->second);
    }
    // `name` may be one of the freed slots' names: erase by range only.
    by_name_.erase(begin, end);
  }
  void InvalidateAll(const std::string& name) {
    InvalidateAll(name, [](Entry&) {});
  }

  /// Visits the payload of every open handle on `name` (bind-on-create,
  /// cursor resets, cache refresh). `fn(Entry&)` must not open/release.
  template <typename Fn>
  void ForEachOpen(const std::string& name, Fn fn) {
    auto [begin, end] = by_name_.equal_range(name);
    for (auto it = begin; it != end; ++it) fn(slots_[it->second].entry);
  }

  /// Visits the payload of every open handle, in slot order.
  template <typename Fn>
  void ForEachLive(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.in_use) fn(slot.entry);
    }
  }

  uint64_t open_count() const { return open_; }

 private:
  /// Returns a slot to the free list (the name index is the caller's).
  void Free(uint64_t index) {
    Slot& slot = slots_[index];
    slot.in_use = false;
    slot.entry = Entry{};
    slot.name.clear();
    free_.push_back(index);
    --open_;
  }

  std::vector<Slot> slots_;
  std::vector<uint64_t> free_;
  std::unordered_multimap<std::string, uint64_t> by_name_;
  uint64_t next_gen_ = 1;
  uint64_t open_ = 0;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_HANDLE_TABLE_H_
