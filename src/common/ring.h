// FIFO ring whose slots are reused, for the environment's per-packet queues.
//
// A slot keeps whatever it last held: push() hands back the next slot for
// the caller to overwrite, so an element that owns storage (a packet's cell
// vectors) reuses that storage on its next trip through the ring. Once the
// ring has grown to its working depth, pushing and popping allocate
// nothing. Elements are addressed from the front, 0 = oldest.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace crve {

template <class T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return slots_[wrap(head_ + i)]; }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  // Appends a slot and returns it, still holding its previous value.
  T& push() {
    if (size_ == slots_.size()) grow();
    ++size_;
    return back();
  }
  void push_back(const T& v) { push() = v; }

  // The popped slot keeps its value until a later push() hands it out.
  void pop_front() {
    head_ = wrap(head_ + 1);
    --size_;
  }

  // Removes element `i`, keeping the order of the others. The removed
  // slot's storage moves to the free end of the ring.
  void erase(std::size_t i) {
    for (; i + 1 < size_; ++i) std::swap((*this)[i], (*this)[i + 1]);
    --size_;
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  // Doubles the slot count, moving the elements into order from slot 0.
  void grow() {
    std::vector<T> slots(slots_.empty() ? 4 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      slots[i] = std::move((*this)[i]);
    }
    slots_ = std::move(slots);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace crve
