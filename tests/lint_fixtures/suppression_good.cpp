// Fixture: every supported suppression placement, each with a reason.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int same_line() {
  return counter_value.load();  // rds_analyze: allow(atomic-memory-order) -- fixture: same-line suppression
}

int standalone_above() {
  // rds_analyze: allow(atomic-memory-order) -- fixture: standalone comment
  return counter_value.load();
}

int multi_line_comment_block() {
  // rds_analyze: allow(atomic-memory-order) -- fixture: the suppression
  // comment wraps onto a second line before the code it covers.
  return counter_value.load();
}

}  // namespace fixture
