// Single-writer publication slot for immutable snapshots (RCU-style).
//
// A PublishedPtr<T> holds the current generation of some immutable value as
// a shared_ptr<const T> behind a mutex. One writer builds the next
// generation off to the side and Publish()es it with one swap; any number
// of readers Load() the current one and keep it alive for as long as they
// hold the shared_ptr — the previous generation is freed when its last
// holder releases it, never in a reader's face.
//
// The mutex orders the hand-off: everything the writer wrote into the
// pointee before Publish() happens-before any reader's use of it after
// Load(). The pointee must be treated as immutable after Publish() — the
// slot synchronizes the hand-off, not subsequent mutation. The critical
// sections are a shared_ptr copy (Load) or swap (Publish); readers never
// wait on the writer's snapshot *build*, which happens outside the slot.
//
// The slot lives behind a unique_ptr so owners keep their defaulted move
// operations (a mutex is immovable); moving a PublishedPtr moves the slot,
// which is only valid while no other thread is using the source — the same
// single-writer rule every owner already follows during moves.

#ifndef STBURST_COMMON_PUBLISHED_PTR_H_
#define STBURST_COMMON_PUBLISHED_PTR_H_

#include <memory>
#include <mutex>

namespace stburst {

template <typename T>
class PublishedPtr {
 public:
  PublishedPtr() : slot_(std::make_unique<Slot>()) {}

  PublishedPtr(PublishedPtr&&) noexcept = default;
  PublishedPtr& operator=(PublishedPtr&&) noexcept = default;

  /// The currently published value (null before the first Publish). The
  /// returned shared_ptr keeps the value alive independently of any later
  /// Publish; safe from any thread, any time.
  std::shared_ptr<const T> Load() const {
    std::lock_guard<std::mutex> lock(slot_->mu);
    return slot_->ptr;
  }

  /// Publishes `next` as the current value. Single writer: concurrent
  /// Publish calls must be externally serialized (Loads need not be).
  void Publish(std::shared_ptr<const T> next) {
    {
      std::lock_guard<std::mutex> lock(slot_->mu);
      slot_->ptr.swap(next);
    }
    // `next` now holds the superseded generation; it releases here, outside
    // the lock, so a last-reference destruction of a whole snapshot never
    // blocks a reader.
  }

 private:
  struct Slot {
    std::mutex mu;
    std::shared_ptr<const T> ptr;
  };
  std::unique_ptr<Slot> slot_;
};

}  // namespace stburst

#endif  // STBURST_COMMON_PUBLISHED_PTR_H_
