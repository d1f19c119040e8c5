// Fixture: a reasoned allow() on code that no longer violates the rule.
// The code was fixed but the comment stayed behind; stale-suppression
// must flag it so the tree does not accumulate lying annotations.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int fixed_long_ago() {
  // rds_analyze: allow(atomic-memory-order) -- load below was once implicit
  return counter_value.load(std::memory_order_relaxed);
}

}  // namespace fixture
