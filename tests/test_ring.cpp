// crve::Ring: FIFO order across wrap-around and growth, order-keeping
// erase, and slot reuse (a slot's storage survives a pop and comes back on
// a later push).
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"

namespace crve {
namespace {

TEST(Ring, MatchesADequeUnderRandomPushPopErase) {
  Ring<int> ring;
  std::deque<int> ref;
  Rng rng(4);
  for (int step = 0; step < 5000; ++step) {
    const auto op = rng.next_u64() % 4;
    if (op < 2 || ref.empty()) {
      ring.push() = step;
      ref.push_back(step);
    } else if (op == 2) {
      ring.pop_front();
      ref.pop_front();
    } else {
      const auto at = static_cast<std::size_t>(rng.next_u64() % ref.size());
      ring.erase(at);
      ref.erase(ref.begin() + static_cast<long>(at));
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ring[i], ref[i]);
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring.back(), ref.back());
    }
  }
}

TEST(Ring, SlotsKeepTheirStorage) {
  Ring<std::vector<int>> ring;
  ring.push().assign(100, 1);
  const int* storage = ring.front().data();
  ring.pop_front();
  // The ring has four slots; the fourth push reuses the first.
  for (int k = 0; k < 3; ++k) ring.push().clear();
  ring.pop_front();
  ring.pop_front();
  ring.pop_front();
  std::vector<int>& again = ring.push();
  EXPECT_EQ(again.data(), storage);
  EXPECT_GE(again.capacity(), 100u);
}

}  // namespace
}  // namespace crve
