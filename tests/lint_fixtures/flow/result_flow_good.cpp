// rds_analyze fixture: stored try_* Results inspected on every path --
// either immediately after the call or on both branches -- and a Result
// inspected in place, so only its value is stored.

namespace fix {

Result<int> try_fetch(int key);

int lookup(int key) {
  auto fetched = try_fetch(key);
  if (!fetched.ok()) {
    return -1;
  }
  return fetched.value();
}

int lookup_or_throw(int key) {
  auto fetched = try_fetch(key);
  return fetched.value_or_throw();
}

int sum_or_throw(int key, int rounds) {
  const int value = try_fetch(key).value_or_throw();
  int sum = 0;
  for (int r = 0; r < rounds; ++r) sum += value;
  return sum;
}

}  // namespace fix
